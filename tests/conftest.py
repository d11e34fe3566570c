import subprocess
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))


def _build_core():
    """Build the compiled integrator in place when it is not built yet, so
    the suite runs the kernel the package ships.  A failed build (no C
    compiler, say) leaves the pure-Python fallback active."""
    core = ROOT / "src" / "chaintrick" / "_core"
    if any((core / f"_chain{suffix}").is_file() for suffix in EXTENSION_SUFFIXES):
        return
    try:
        subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--inplace"],
            cwd=ROOT, capture_output=True, timeout=120, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        pass


_build_core()

from chaintrick.model_core import DANA_MALGRANGE, MacroParams  # noqa: E402


@pytest.fixture
def inv_dm():
    return DANA_MALGRANGE


@pytest.fixture
def baseline():
    """Parameter set of the numerical tables: alpha=1, T=1, g=0.016, m=1."""
    return MacroParams(
        alpha=1.0, gamma=0.15, delta=0.007, g=0.016, G0=2.0, T=1.0, m=1
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
