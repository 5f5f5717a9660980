"""Bare setuptools shim.

It declares no metadata and no packages: the project has no
pyproject.toml and is not installed.  Run it from the source tree with
``PYTHONPATH=src`` (see README.md); the only runtime dependencies are
numpy and scipy, for the Section 5 proof in ``repro.security``.
"""

from setuptools import setup

setup()
