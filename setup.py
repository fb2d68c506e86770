"""Packaging entry point.

The execution environment is offline and its setuptools cannot build wheels
(PEP 517 editable installs need the ``wheel`` package).  Keeping a plain
``setup.py`` lets ``pip install -e .`` fall back to the legacy
``setup.py develop`` path, which works without network access.
"""

from setuptools import find_packages, setup

setup(
    name="repro-idonly-byzantine",
    version="0.2.0",
    description=(
        "Reproduction of the id-only Byzantine agreement algorithms "
        "(synchronous round simulator, protocols, experiment harness)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={
        # property-based test layer (tests/test_properties.py)
        "test": ["pytest", "hypothesis>=6.100,<7"],
        # CI coverage gate (pytest --cov=repro)
        "cov": ["pytest-cov"],
    },
)
