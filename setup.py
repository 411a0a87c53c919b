"""Legacy setup shim.

This repository is developed in an offline environment without the
``wheel`` package, so ``pip install -e .`` must use the legacy
``setup.py develop`` code path; all real metadata lives in pyproject.toml.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "GraphMat (VLDB 2015) reproduction: vertex programs on a "
        "generalized sparse-matrix backend"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
    entry_points={
        "console_scripts": [
            "repro-convert=repro.store.cli:main",
            "repro-serve=repro.serve.cli:main",
        ],
    },
)
