"""Parameter-space scans: bifurcation curves, the (alpha, g) surface of
critical delays, and the per-order table of growth-rate Hopf points.

A curve or a surface is one batched call of the imaginary-axis solver
behind :func:`chaintrick.hopf_locator.hopf_in_T`, which treats every
(alpha, g) cell on its own with elementwise arithmetic, so a cell's value
does not depend on the grid around it and output is deterministic.  Only
each cell's first critical delay is wanted, so the solver scans the
frequency grid from T = 0 up a block of intervals at a time and a cell
leaves the scan at its first settled crossing; as every bracket is
labelled and solved on its own, that is the crossing a scan of the whole
grid would keep, bit for bit, from a fraction of the phase evaluations.  Cells
with no Hopf point carry NaN internally and the ``NA`` sentinel in CSV; a
critical delay of exactly zero is meaningful (the all-T instability
threshold) and is never used as a gap marker.
"""

import math

import numpy as np

from .export import _write_lines, _write_sidecar, sidecar_path
from .hopf_locator import G_GRID, _axis_crossings, _growth_hopf
from .model_core import Record


class FitResult(Record):
    """Least-squares fit of a bifurcation curve on a fixed basis: the
    ``coefficients`` tuple of the basis ``model``, and ``threshold_alpha``
    a float or None."""

    def __init__(self, model, coefficients, residual_norm, relative_residual,
                 threshold_alpha=None):
        self._keep(locals())


class BifurcationCurve(Record):
    """Critical delay T_bi sampled along one parameter axis.

    ``values`` and ``t_bi`` are arrays, and ``t_bi`` holds NaN where no
    Hopf point exists.  ``fixed`` is a dict of the other parameters.
    ``fit`` is a FitResult, or None when fewer points than basis functions
    are available.
    """

    def __init__(self, parameter, values, t_bi, m, fixed, fit):
        self._keep(locals())


class SurfaceResult(Record):
    """Critical delay on an (alpha, g) grid; NaN marks no-Hopf cells.

    ``t_bi`` has shape (len(alphas), len(gs)); ``fixed`` is a dict of the
    other parameters.
    """

    def __init__(self, alphas, gs, t_bi, m, fixed):
        self._keep(locals())


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
    cell, T, *_ = _axis_crossings(p, inv, alpha.ravel(), g.ravel(), first=True)
    out = np.full(alpha.size, np.nan)
    out[cell] = T
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
    the last stabilizing crossing); NaN when a crossing is absent.  All
    orders share the g grid's gains and one solve of all their brackets."""
    m_list = list(m_list)
    _, rows = _growth_hopf(p, inv, G_GRID, m_list)
    return [(m, math.nan if g1 is None else g1, math.nan if g2 is None else g2)
            for m, (_, g1, g2) in zip(m_list, rows)]


# ---------------------------------------------------------------------------
# CSV / JSON export, written by chaintrick.export (sidecar_path is re-exported)


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
            "fit": curve.fit.as_dict() if curve.fit is not None else None,
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
