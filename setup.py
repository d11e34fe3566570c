"""Build script for the optional compiled integrator core.

``src/chaintrick/_core/_chain.c`` is plain C with no CPython or numpy
headers; it is built as a shared library next to ``_core/__init__.py``,
which loads it with ctypes.  The extension is marked optional: if no C
compiler is available the build still succeeds and the package falls back
to the pure-Python integrator at import time.

    python setup.py build_ext --inplace   # for a PYTHONPATH=src checkout
"""

import os

from setuptools import Extension, setup

setup(
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
