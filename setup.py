"""Bare setup shim.

It declares no package metadata, and the repository has no
pyproject.toml: ``python setup.py --name --version`` prints
``UNKNOWN 0.0.0``.  Run the package from source with ``PYTHONPATH=src``
(see README.md).
"""

from setuptools import setup

setup()
