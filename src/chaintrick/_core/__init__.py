"""Integrator front end over two DOPRI5 kernels: compiled C with a
pure-Python fallback.

The C kernel ``_chain.c`` is built by ``setup.py`` as an optional plain
shared library (no CPython API) and loaded here with ctypes; when it is
missing (no compiler at build time) the pure-Python kernel
``_dopri.chain_integrate`` is used.  Both kernels take the same argument
list and fill buffers their caller sized; :func:`_front_end` is the one
place that checks the inputs, allocates those buffers, caps the step and
slices the output.  ``backend_name()`` reports which kernel is active and
``get_integrator(backend)`` lets callers (tests, benchmarks) force one.
"""

import ctypes
import math
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


def _front_end(kernel):
    """Wrap a kernel with the buffer protocol ``(y, m, par, t0, t_end,
    sample_dt, rtol, atol, max_abs, max_step, times, states, counts) ->
    (status, n_written, t_stop)`` as ``integrate_chain``.

    ``integrate_chain`` returns (times, states, status, t_stop); when
    ``counts`` is given (a length-3 sequence, e.g. an int array) it
    receives the work done: RHS evaluations, accepted steps and rejected
    steps.
    """

    def integrate_chain(y0, m, alpha, gamma, delta, g, G0, T, a, c, d, v,
                        t0, t_end, sample_dt, rtol, atol, max_abs=1e9, counts=None):
        # every buffer a kernel touches is sized here: the state has
        # m + 2 >= 2 components and the kernels read s[m] and s[m + 1]
        if m < 0:
            raise ValueError(f"kernel order must be >= 0, got {m}")
        n = m + 2
        y = np.array(y0, dtype=np.float64)
        if y.shape != (n,):
            raise ValueError(f"y0 must have shape ({n},)")
        if not np.isfinite(y).all():
            raise ValueError(f"initial state must be finite, got {y.tolist()}")
        n_samples = int(math.floor((t_end - t0) / sample_dt + 1e-9)) + 1
        if n_samples < 1:
            raise ValueError(
                f"empty sample grid: t0={t0!r}, t_end={t_end!r}, sample_dt={sample_dt!r}"
            )
        times = np.empty(n_samples)
        states = np.empty((n_samples, n))
        done = np.zeros(3, dtype=np.int64)
        par = np.array([alpha, gamma, delta, g, G0, T, a, c, d, v], dtype=np.float64)
        # uncapped steps at a fixed point would grow until the dense
        # interpolant is pure roundoff
        status, j, t_stop = kernel(y, m, par, t0, t_end, sample_dt, rtol, atol, max_abs,
                                   10.0 * sample_dt, times, states, done)
        if counts is not None:
            counts[:] = done
        return times[:j], states[:j], status, t_stop

    return integrate_chain


def _load_kernel(path):
    """Load a built ``_chain.c`` and return its ``integrate_chain``, with
    the signature and return value of the pure-Python backend's."""
    kernel = ctypes.CDLL(os.fspath(path)).chain_integrate
    kernel.restype = None
    kernel.argtypes = (
        [ctypes.c_void_p, ctypes.c_int, ctypes.c_void_p] + [ctypes.c_double] * 7
        + [ctypes.c_int64] + [ctypes.c_void_p] * 4
        + [ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_int64),
           ctypes.POINTER(ctypes.c_double)]
    )

    def chain_integrate(y, m, par, t0, t_end, sample_dt, rtol, atol, max_abs, max_step,
                        times, states, counts):
        work = np.empty((8, m + 2))
        out = ctypes.c_int(), ctypes.c_int64(), ctypes.c_double()
        kernel(y.ctypes.data, m, par.ctypes.data, t0, t_end, sample_dt, rtol, atol,
               max_abs, max_step, len(times), times.ctypes.data, states.ctypes.data,
               work.ctypes.data, counts.ctypes.data, *map(ctypes.byref, out))
        return tuple(x.value for x in out)

    return _front_end(chain_integrate)


def _find_kernel():
    """Path of the built ``_chain`` library next to this file, or None."""
    here = os.path.dirname(os.path.abspath(__file__))
    for suffix in EXTENSION_SUFFIXES:
        path = os.path.join(here, "_chain" + suffix)
        if os.path.isfile(path):
            return path
    return None


_python = _front_end(_dopri.chain_integrate)
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
        return _compiled if HAVE_COMPILED else _python
    if backend == "python":
        return _python
    if backend == "compiled":
        if not HAVE_COMPILED:
            raise RuntimeError("compiled integrator core is not available")
        return _compiled
    raise ValueError(f"unknown backend {backend!r}")
