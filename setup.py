"""Package metadata (there is no ``pyproject.toml``).

The execution environment has setuptools but no ``wheel`` package, so PEP
660 editable installs fail; ``pip install -e . --no-use-pep517`` goes
through this file.  The simulator, and ``repro report`` over an
unreplicated or deterministic sweep, need nothing beyond the standard
library; the ``report`` extra (numpy) is needed only when a bootstrap
interval resamples a sample with spread.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

version = re.search(
    r'^__version__ = "([^"]+)"',
    Path(__file__).with_name("src").joinpath("repro", "__init__.py").read_text("utf8"),
    re.M,
).group(1)

setup(
    name="repro",
    version=version,
    description="Reproduction of Lin & Keller, Distributed Recovery in Applicative Systems (ICPP 1986)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    extras_require={"report": ["numpy"]},
)
