"""Integrator backends: compiled C core with pure-Python fallback.

The C kernel ``_chain.c`` is built by ``setup.py`` as an optional plain
shared library (no CPython API) and loaded here with ctypes; when it is
missing (no compiler at build time) the pure-Python implementation of the
same algorithm in ``_dopri.py`` is used.  ``backend_name()`` reports which
one is active and ``get_integrator(backend)`` lets callers (tests,
benchmarks) force one.
"""

import ctypes
import os
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np

from . import _dopri
from ._dopri import (
    STATUS_CAPITAL,
    STATUS_DIVERGED,
    STATUS_OK,
    STATUS_STEP_UNDERFLOW,
)

_dbl_p = ctypes.POINTER(ctypes.c_double)
_i64_p = ctypes.POINTER(ctypes.c_int64)


def _load_kernel(path):
    """Load a built ``_chain.c`` and return its ``integrate_chain``, with
    the signature and return value of ``_dopri.integrate_chain``."""
    kernel = ctypes.CDLL(os.fspath(path)).chain_integrate
    kernel.restype = None
    kernel.argtypes = (
        [_dbl_p, ctypes.c_int, _dbl_p] + [ctypes.c_double] * 7
        + [ctypes.c_int64, _dbl_p, _dbl_p, _dbl_p, _i64_p]
        + [ctypes.POINTER(ctypes.c_int), _i64_p, _dbl_p]
    )

    def integrate_chain(y0, m, alpha, gamma, delta, g, G0, T, a, c, d, v,
                        t0, t_end, sample_dt, rtol, atol, max_abs=1e9,
                        max_step=0.0, counts=None):
        # every buffer the kernel touches is sized here: the state has
        # m + 2 >= 2 components and the kernel reads s[m] and s[m + 1]
        if m < 0:
            raise ValueError(f"kernel order must be >= 0, got {m}")
        n = m + 2
        y = np.array(y0, dtype=np.float64)
        if y.shape != (n,):
            raise ValueError(f"y0 must have shape ({n},)")
        if max_step <= 0.0:
            max_step = 10.0 * sample_dt
        n_samples = _dopri.sample_count(t0, t_end, sample_dt)
        times = np.empty(n_samples)
        states = np.empty((n_samples, n))
        work = np.empty((8, n))
        par = np.array([alpha, gamma, delta, g, G0, T, a, c, d, v], dtype=np.float64)
        done = np.zeros(3, dtype=np.int64)
        status, n_written, t_stop = ctypes.c_int(), ctypes.c_int64(), ctypes.c_double()
        kernel(
            y.ctypes.data_as(_dbl_p), m, par.ctypes.data_as(_dbl_p),
            t0, t_end, sample_dt, rtol, atol, max_abs, max_step, n_samples,
            times.ctypes.data_as(_dbl_p), states.ctypes.data_as(_dbl_p),
            work.ctypes.data_as(_dbl_p), done.ctypes.data_as(_i64_p),
            ctypes.byref(status), ctypes.byref(n_written), ctypes.byref(t_stop),
        )
        if counts is not None:
            counts[:] = done
        j = n_written.value
        return times[:j], states[:j], status.value, t_stop.value

    return integrate_chain


def _find_kernel():
    """Path of the built ``_chain`` library next to this file, or None."""
    here = os.path.dirname(os.path.abspath(__file__))
    for suffix in EXTENSION_SUFFIXES:
        path = os.path.join(here, "_chain" + suffix)
        if os.path.isfile(path):
            return path
    return None


_compiled = None
_path = _find_kernel()
if _path is not None:
    try:
        _compiled = _load_kernel(_path)
    except (OSError, AttributeError):  # unloadable or stale build; fall back
        _compiled = None
HAVE_COMPILED = _compiled is not None


def backend_name():
    return "compiled" if HAVE_COMPILED else "python"


def get_integrator(backend="auto"):
    """Return the integrate_chain callable for the requested backend.

    ``backend`` is "auto" (compiled when available), "compiled" or
    "python".  Requesting "compiled" without the built library raises
    RuntimeError.
    """
    if backend == "auto":
        return _compiled if HAVE_COMPILED else _dopri.integrate_chain
    if backend == "python":
        return _dopri.integrate_chain
    if backend == "compiled":
        if not HAVE_COMPILED:
            raise RuntimeError("compiled integrator core is not available")
        return _compiled
    raise ValueError(f"unknown backend {backend!r}")
