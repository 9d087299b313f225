"""Planning toolkit for heterogeneous smart EM entity deployments."""

__version__ = "0.1.0"
