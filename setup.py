"""Package metadata (there is no ``pyproject.toml``; this file is all of it).

``pip install -e .`` takes the legacy ``setup.py develop`` path where
the ``wheel`` package is missing.  ``_ckernels.c`` ships as package
data so an installed copy can build its compiled lane kernels on first
use (``repro.core.ckernels``).
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
    package_data={"repro.core": ["_ckernels.c"]},
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
    entry_points={
        "console_scripts": [
            "repro-convert=repro.store.cli:main",
            "repro-serve=repro.serve.cli:main",
        ],
    },
)
