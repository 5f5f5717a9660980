"""Bare setuptools shim.

It declares no metadata and no packages: the project has no
pyproject.toml and is not installed.  Run it from the source tree with
``PYTHONPATH=src`` (see README.md).  ``src/`` has no runtime
dependencies beyond the standard library.
"""

from setuptools import setup

setup()
