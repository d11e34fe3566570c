"""CSV and JSON-sidecar writing shared by the sweeps and the simulator."""

import json
import os

import numpy as np

from ._version import __version__

#: rows formatted by one % per block, which bounds the text held at once
CSV_BLOCK = 4096


def _write_lines(path, header, columns):
    """Write ``header`` and the rows of the equal-length ``columns``, every
    cell at 17 significant digits and NaN as NA."""
    n = len(columns[0])
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for start in range(0, n, CSV_BLOCK):
            block = np.column_stack([c[start : start + CSV_BLOCK] for c in columns])
            fh.write((row * len(block) % tuple(block.ravel().tolist())).replace("nan", "NA"))


def sidecar_path(path):
    base, _ = os.path.splitext(str(path))
    return base + ".meta.json"


def _write_sidecar(path, payload):
    payload = dict(payload)
    payload["version"] = __version__
    with open(sidecar_path(path), "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
