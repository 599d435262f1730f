"""Setup shim; it declares no package metadata and no scripts.

Nothing needs installing: every entry point runs from the repo root with
``PYTHONPATH=src`` as ``python -m repro <command>``.
"""

from setuptools import setup

setup()
