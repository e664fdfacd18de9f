"""The package runs on numpy alone: importing any of its modules loads no
SciPy, and numpy is the one runtime dependency it declares."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

IMPORT_ALL = """
import pkgutil, sys
import hsepsr, hsepsr.cli, hsepsr.simbench
for info in pkgutil.iter_modules(hsepsr.simbench.__path__, "hsepsr.simbench."):
    __import__(info.name)
print(" ".join(sorted(name for name in sys.modules if name.startswith("scipy"))))
"""


def test_importing_the_package_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_ALL], env=env, capture_output=True,
        text=True, timeout=60, check=True,
    )
    assert proc.stdout.strip() == ""


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        deps = tomllib.load(f)["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", d).group() for d in deps] == ["numpy"]
