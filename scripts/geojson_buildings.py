#!/usr/bin/env python3
"""Print the `buildings` list of a scenario document, as JSON, from the
polygon footprints of a GeoJSON FeatureCollection.

Only the outer ring of each polygon is used (a closed ring's repeated
first vertex is dropped when the scenario loads); a feature's `height`
property overrides --height, and features that are not polygons are
skipped.

    python scripts/geojson_buildings.py footprints.geojson --height 12 > buildings.json
"""
import argparse
import json
import sys


def buildings_from_geojson(doc, default_height: float = 10.0) -> list:
    """The building dicts of a GeoJSON-like FeatureCollection's polygons."""
    out = []
    for feat in doc.get("features", []):
        geom = feat.get("geometry", {})
        rings = geom.get("coordinates") or []
        if geom.get("type") != "Polygon" or not rings:
            continue
        props = feat.get("properties") or {}
        out.append({
            "footprint": [list(map(float, p)) for p in rings[0]],
            "height_m": float(props.get("height", default_height)),
        })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("geojson", help="GeoJSON FeatureCollection file")
    parser.add_argument("--height", type=float, default=10.0,
                        help="height_m of a feature without a height property "
                             "(default 10)")
    args = parser.parse_args(argv)
    with open(args.geojson, encoding="utf-8") as fh:
        doc = json.load(fh)
    json.dump(buildings_from_geojson(doc, args.height), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
