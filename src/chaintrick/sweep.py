"""Parameter-space scans: bifurcation curves, the (alpha, g) surface of
critical delays, and the per-order table of growth-rate Hopf points.

A curve or a surface is one batched call of the imaginary-axis solver
behind :func:`chaintrick.hopf_locator.hopf_in_T`, which treats every
(alpha, g) cell on its own with elementwise arithmetic, so a cell's value
does not depend on the grid around it and output is deterministic.  Cells
with no Hopf point carry NaN internally and the ``NA`` sentinel in CSV; a
critical delay of exactly zero is meaningful (the all-T instability
threshold) and is never used as a gap marker.
"""

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from ._version import __version__
from .hopf_locator import G_GRID, _axis_crossings, _growth_hopf


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit of a bifurcation curve on a fixed basis."""

    model: str
    coefficients: tuple
    residual_norm: float
    relative_residual: float
    threshold_alpha: float | None = None


@dataclass(frozen=True)
class BifurcationCurve:
    """Critical delay T_bi sampled along one parameter axis.

    ``t_bi`` holds NaN where no Hopf point exists.  ``fit`` is None when
    fewer points than basis functions are available.
    """

    parameter: str
    values: np.ndarray
    t_bi: np.ndarray
    m: int
    fixed: dict
    fit: FitResult | None


@dataclass(frozen=True)
class SurfaceResult:
    """Critical delay on an (alpha, g) grid; NaN marks no-Hopf cells."""

    alphas: np.ndarray
    gs: np.ndarray
    t_bi: np.ndarray  # shape (len(alphas), len(gs))
    m: int
    fixed: dict


def _smallest_delays(p, inv, m, alphas, gs):
    """First positive critical delay of every cell of the (alphas, gs)
    grid, shape (len(alphas), len(gs)), from one batched call; NaN where a
    cell has no Hopf point.  An empty grid, an alpha that is not finite and
    > 0 or a g that is not finite raises ValueError before any work."""
    alphas, gs = np.asarray(alphas, dtype=float), np.asarray(gs, dtype=float)
    for name, grid, ok, rule in (
        ("alpha", alphas, np.isfinite(alphas) & (alphas > 0.0), "finite and > 0"),
        ("g", gs, np.isfinite(gs), "finite"),
    ):
        if grid.size == 0:
            raise ValueError(f"the {name} grid is empty")
        if not ok.all():
            raise ValueError(f"{name} must be {rule}, got {float(grid[~ok][0])!r}")
    if m is not None:
        p = p.replace(m=m)
    alpha, g = np.meshgrid(alphas, gs, indexing="ij")
    cell, T, *_ = _axis_crossings(p, inv, alpha.ravel(), g.ravel())
    # crossings come ordered by cell and then by T
    cells, first = np.unique(cell, return_index=True)
    out = np.full(alpha.size, np.nan)
    out[cells] = T[first]
    return out.reshape(alpha.shape)


def smallest_critical_delay(p, inv, m=None):
    """First positive critical delay (the boundary of the small-T stable
    region), or NaN when the cell has no Hopf point."""
    return float(_smallest_delays(p, inv, m, [p.alpha], [p.g])[0, 0])


def curve_T_vs_alpha(p, inv, m, alphas):
    """Critical delay versus adjustment speed at fixed g, with the
    hyperbolic fit T_bi = c0 + c1 / alpha.

    The fit's alpha intercept (where T_bi reaches zero) estimates the
    threshold above which no delay stabilizes the equilibrium.
    """
    alphas = np.asarray(alphas, dtype=float)
    tb = _smallest_delays(p, inv, m, alphas, [p.g])[:, 0]
    fit = _fit(np.column_stack([np.ones_like(alphas), 1.0 / alphas]), tb,
               model="c0 + c1/alpha")
    if fit is not None and fit.coefficients[0] != 0.0:
        fit = FitResult(
            model=fit.model,
            coefficients=fit.coefficients,
            residual_norm=fit.residual_norm,
            relative_residual=fit.relative_residual,
            threshold_alpha=-fit.coefficients[1] / fit.coefficients[0],
        )
    fixed = {"g": p.g, "gamma": p.gamma, "delta": p.delta, "G0": p.G0}
    return BifurcationCurve(
        parameter="alpha", values=alphas, t_bi=tb, m=m or p.m, fixed=fixed, fit=fit
    )


def curve_T_vs_g(p, inv, m, gs):
    """Critical delay versus growth rate at fixed alpha, with the quadratic
    fit T_bi = a0 + a1 g + a2 g^2."""
    gs = np.asarray(gs, dtype=float)
    tb = _smallest_delays(p, inv, m, [p.alpha], gs)[0]
    fit = _fit(np.column_stack([np.ones_like(gs), gs, gs**2]), tb,
               model="a0 + a1*g + a2*g^2")
    fixed = {"alpha": p.alpha, "gamma": p.gamma, "delta": p.delta, "G0": p.G0}
    return BifurcationCurve(
        parameter="g", values=gs, t_bi=tb, m=m or p.m, fixed=fixed, fit=fit
    )


def _fit(basis, tb, model):
    mask = np.isfinite(tb)
    if mask.sum() < basis.shape[1]:
        return None
    coef, *_ = np.linalg.lstsq(basis[mask], tb[mask], rcond=None)
    resid = tb[mask] - basis[mask] @ coef
    norm = float(np.linalg.norm(resid))
    denom = float(np.linalg.norm(tb[mask]))
    return FitResult(
        model=model,
        coefficients=tuple(float(cc) for cc in coef),
        residual_norm=norm,
        relative_residual=norm / denom if denom > 0 else math.nan,
    )


def surface_T(p, inv, m, alphas, gs):
    """Critical delay on the (alpha, g) grid.

    Cells are computed as in :func:`smallest_critical_delay` and the
    curves, so any slice agrees with the corresponding curve exactly, and
    a grid of any size from one point per axis up gives the same cells.
    """
    alphas = np.asarray(alphas, dtype=float)
    gs = np.asarray(gs, dtype=float)
    grid = _smallest_delays(p, inv, m, alphas, gs)
    fixed = {"gamma": p.gamma, "delta": p.delta, "G0": p.G0}
    return SurfaceResult(alphas=alphas, gs=gs, t_bi=grid, m=m or p.m, fixed=fixed)


def table_g_bifurcations(p, inv, m_list):
    """Rows (m, g_bi1, g_bi2) of the growth-rate Hopf points per kernel
    order, located on the imaginary axis as in
    :func:`chaintrick.hopf_locator.hopf_in_g` (the first destabilizing and
    the last stabilizing crossing); NaN when a crossing is absent."""
    def row(m):
        _, _, g_bi1, g_bi2 = _growth_hopf(p.replace(m=m), inv, G_GRID)
        return (
            m,
            g_bi1 if g_bi1 is not None else math.nan,
            g_bi2 if g_bi2 is not None else math.nan,
        )

    return [row(m) for m in m_list]


# ---------------------------------------------------------------------------
# CSV / JSON export


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


def write_curve_csv(curve, path):
    """CSV `param,T_bi` plus a JSON metadata sidecar."""
    _write_lines(path, "param,T_bi", (curve.values, curve.t_bi))
    _write_sidecar(
        path,
        {
            "kind": "curve",
            "parameter": curve.parameter,
            "m": curve.m,
            "fixed": curve.fixed,
            "grid": {
                "lo": float(curve.values[0]),
                "hi": float(curve.values[-1]),
                "count": int(len(curve.values)),
            },
            "fit": asdict(curve.fit) if curve.fit is not None else None,
        },
    )


def write_surface_csv(surface, path):
    """CSV `alpha,g,T_bi` in row-major (alpha outer) order plus sidecar."""
    alpha, g = np.meshgrid(surface.alphas, surface.gs, indexing="ij")
    _write_lines(path, "alpha,g,T_bi", (alpha.ravel(), g.ravel(), surface.t_bi.ravel()))
    _write_sidecar(
        path,
        {
            "kind": "surface",
            "m": surface.m,
            "fixed": surface.fixed,
            "grid": {
                "alpha": [float(surface.alphas[0]), float(surface.alphas[-1]),
                          int(len(surface.alphas))],
                "g": [float(surface.gs[0]), float(surface.gs[-1]),
                      int(len(surface.gs))],
            },
            "fit": None,
        },
    )


def write_table_csv(rows, path, fixed=None):
    """CSV `m,g_bi1,g_bi2` plus sidecar."""
    _write_lines(path, "m,g_bi1,g_bi2", np.reshape(np.array(rows, dtype=float), (-1, 3)).T)
    _write_sidecar(
        path,
        {"kind": "table", "fixed": fixed or {}, "grid": None, "fit": None},
    )
