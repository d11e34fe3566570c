"""Build script for the optional compiled integrator core.

``src/chaintrick/_core/_chain.c`` is plain C with no CPython or numpy
headers; it is built as a shared library next to ``_core/__init__.py``,
which loads it with ctypes.  The extension is marked optional: if no C
compiler is available the build still succeeds and the package falls back
to the pure-Python integrator at import time.

    python setup.py build_ext --inplace   # for a PYTHONPATH=src checkout

The command works from any working directory: the script changes to its
own directory first, so ``pyproject.toml``, the C source and the in-place
output under ``src/`` are found there, not beside the caller.

The in-place build also byte-compiles ``src/chaintrick``, as installing
the package does: a checkout run under ``PYTHONDONTWRITEBYTECODE=1``
would otherwise compile every module it imports from source on each
command.  The bytecode is checked against its source's timestamp (its
hash when ``SOURCE_DATE_EPOCH`` is set), so an edited module takes effect
without rebuilding.  Like the extension, this step cannot fail the build.
"""

import compileall
import os
from pathlib import Path

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext as _build_ext

ROOT = Path(__file__).resolve().parent
PACKAGE = ROOT / "src" / "chaintrick"

# setuptools reads pyproject.toml, the extension's source and the in-place
# target relative to the working directory
os.chdir(ROOT)


class build_ext(_build_ext):
    """``build_ext`` that byte-compiles the package after an in-place build."""

    def run(self):
        super().run()
        if self.inplace:
            # compileall reports a module it cannot compile or write and
            # goes on; its default invalidation mode checks the source
            compileall.compile_dir(str(PACKAGE), quiet=1)


setup(
    cmdclass={"build_ext": build_ext},
    ext_modules=[
        Extension(
            "chaintrick._core._chain",
            ["src/chaintrick/_core/_chain.c"],
            extra_compile_args=["-O3"],
            libraries=[] if os.name == "nt" else ["m"],
            optional=True,
        )
    ]
)
