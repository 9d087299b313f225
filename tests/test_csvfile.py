import pytest

from semeplan.csvfile import write_csv


def test_failed_write_keeps_previous_file(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["h"], ["x"], [("1",), ("2",)])
    before = path.read_bytes()

    def rows():
        yield ("7",)
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError, match="row source failed"):
        write_csv(path, ["h2"], ["x"], rows())
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]
