"""Package metadata and runtime dependency declaration.

CI installs the package (``pip install .[test]``) instead of a
hand-kept dependency list, so the ``install_requires`` below is the
single source of truth for runtime requirements.  The legacy
``setup.py`` form (rather than ``pyproject.toml``) also keeps
``pip install -e . --no-use-pep517`` working on machines whose
setuptools/wheel combination cannot build editable wheels — such as
offline boxes without the ``wheel`` package.
"""

import os
import re

from setuptools import find_packages, setup


def _version() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "src", "repro", "version.py")) as handle:
        match = re.search(r"__version__\s*=\s*\"([^\"]+)\"", handle.read())
    if not match:
        raise RuntimeError("cannot parse src/repro/version.py")
    return match.group(1)


setup(
    name="repro-egoist",
    version=_version(),
    description=(
        "Reproduction of EGOIST: selfish neighbor selection in overlay "
        "networks (CoNEXT 2008)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=[
        "numpy>=1.24",
        "scipy>=1.10",
        "networkx>=3.0",
        "orjson>=3.8",
    ],
    extras_require={
        "test": [
            "pytest",
            "hypothesis",
        ],
    },
)
