"""Package metadata for ``repro``.

This file is the only packaging configuration (there is no
``pyproject.toml``).  It keeps ``pip install -e .`` and ``python
setup.py develop`` working on setuptools versions that predate PEP 660
editable installs (no ``wheel`` package available offline).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.3.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10", "networkx>=3.0"],
    extras_require={
        # the single source of truth for test dependencies: every CI
        # job installs `.[test]` (tests/ uses hypothesis; benchmarks/
        # also needs pytest-benchmark) — never duplicate this list in
        # .github/workflows/ci.yml
        "test": ["pytest", "hypothesis", "pytest-benchmark"],
    },
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
