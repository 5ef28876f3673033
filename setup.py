"""Package build configuration.

This file is the whole build configuration (there is no
``pyproject.toml``).  It supports an editable install via
``pip install -e .`` or, on older tool-chains without ``bdist_wheel``
support, ``pip install -e . --no-use-pep517`` / ``python setup.py develop``.

NumPy and SciPy are required: K2 scores are built from
``scipy.special.gammaln``, and no scipy-free substitute is bit-identical.
The optional execution backends are exposed as extras so a host can opt
into the compiled kernel paths (``pip install -e ".[numba]"`` /
``".[cupy]"``); without them the library runs everywhere on the NumPy
reference backend with bit-identical results.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
    extras_require={
        "numba": ["numba>=0.57"],
        "cupy": ["cupy-cuda12x>=12.0"],
        "backends": ["numba>=0.57", "cupy-cuda12x>=12.0"],
    },
)
