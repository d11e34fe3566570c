"""Spans and counters recorded from the benchmark's own side.

Spans wrap the benchmark's calls into the program's public functions; they
are kept in memory and written out once the run ends.  The only hook
placed inside a library is :class:`EigvalsCounter`, which counts calls
through ``numpy.linalg.eigvals`` (the program's eigenvalue solver, also
reached through ``numpy.roots``) and the matrices they solve.
"""

import json
import threading
import time
from contextlib import contextmanager

import numpy as np

try:  # the module that defines numpy.roots (numpy 2, then numpy 1)
    import numpy.lib._polynomial_impl as _polynomial
except ImportError:
    import numpy.lib.polynomial as _polynomial


class Tracer:
    """In-memory span recorder.

    Each span has a name, its start and end (``perf_counter`` seconds) and
    free-form attributes such as ``calls`` for a batch.
    """

    def __init__(self):
        self.spans = []

    @contextmanager
    def span(self, name, **attrs):
        rec = {"name": name, **attrs}
        self.spans.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()

    def durations(self, name):
        """Per-call seconds of every span called ``name``."""
        return [
            (s["end"] - s["start"]) / s.get("calls", 1)
            for s in self.spans
            if s["name"] == name
        ]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


class EigvalsCounter:
    """Counts ``numpy.linalg.eigvals`` calls and matrices while active.

    It patches both ``numpy.linalg.eigvals`` and the binding that
    ``numpy.roots`` imported; it may be entered again after it exits, and
    the counts add up.
    """

    _SITES = (np.linalg, _polynomial)

    def __init__(self):
        self.calls = 0
        self.matrices = 0
        self._lock = threading.Lock()
        self._original = None

    def _counted(self, a, *args, **kwargs):
        shape = np.shape(a)
        with self._lock:
            self.calls += 1
            self.matrices += int(np.prod(shape[:-2])) if len(shape) > 2 else 1
        return self._original(a, *args, **kwargs)

    def __enter__(self):
        self._original = np.linalg.eigvals
        for site in self._SITES:
            site.eigvals = self._counted
        return self

    def __exit__(self, *exc):
        for site in self._SITES:
            site.eigvals = self._original
        return False
