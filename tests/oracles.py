"""Independent oracles used by the tests.

Everything here deliberately avoids the code paths it checks: x* by
bisection instead of the closed-form inverse, Jacobians by finite
differences, characteristic coefficients reassembled from numerically
computed eigenvalues, critical delays by eigenvalue bisection in T
instead of on the imaginary axis, growth-rate labels from eigenvalues
instead of root counts, the characteristic residual in Python's
complex arithmetic instead of numpy's, cycle periods from zero crossings
instead of peak spacing, and trajectories cross-checked against scipy's
own integrator.
"""

import numpy as np

from chaintrick.errors import (
    GrowthOutOfRange,
    InsufficientOscillations,
    NoHopf,
    NonPositiveEquilibrium,
)
from chaintrick.hopf_locator import _as_points, _grid_eigenvalues, _refine, _split_eigenvalues
from chaintrick.model_core import (
    InvestmentParams,
    MacroParams,
    equilibrium,
    growth_interval,
    phi,
)
from chaintrick.simulator import _post_transient


def bisect_x_star(inv, g, delta, lo=-10.0, hi=10.0, tol=1e-14):
    """Solve phi(x) = g + delta by plain bisection."""
    target = g + delta
    flo = phi(lo, inv) - target
    fhi = phi(hi, inv) - target
    assert flo < 0.0 < fhi, "bracket does not straddle the root"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if phi(mid, inv) - target < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def numeric_jacobian(f, x, eps=1e-7):
    """Central-difference Jacobian of a vector function."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    f0 = np.asarray(f(x))
    J = np.empty((len(f0), n))
    for j in range(n):
        step = eps * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += step
        xm[j] -= step
        J[:, j] = (np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * step)
    return J


def investment(y, k, inv):
    return k * phi(y / k, inv)


def rhs_m1_handcoded(p, inv, s):
    """Three-dimensional system transcribed term by term."""
    y, u, k = s
    dy = p.alpha * (investment(y, k, inv) - p.gamma * y + p.G0) - p.g * y
    du = (1.0 / p.T) * (y - u)
    dk = investment(u, k, inv) - (p.g + p.delta) * k
    return np.array([dy, du, dk])


def rhs_m2_handcoded(p, inv, s):
    """Four-dimensional system in (y, w, p_stage, k); w feeds p_stage and
    p_stage enters the investment of the capital equation."""
    y, w, pp, k = s
    dy = p.alpha * (investment(y, k, inv) - p.gamma * y + p.G0) - p.g * y
    dw = (2.0 / p.T) * (y - w)
    dp = (2.0 / p.T) * (w - pp)
    dk = investment(pp, k, inv) - (p.g + p.delta) * k
    return np.array([dy, dw, dp, dk])


def monic_coeffs_from_matrix(J):
    """Monic characteristic coefficients [a1..an] reassembled from the
    numerically computed eigenvalues."""
    coeffs = np.poly(np.linalg.eigvals(J))
    return np.real(coeffs[1:])


def random_model_draw(rng, m=1, t_lo=0.05, t_hi=8.0):
    """One random valid parameter set (with its equilibrium)."""
    while True:
        inv = InvestmentParams(
            a=rng.uniform(2.0, 14.0),
            c=rng.uniform(0.004, 0.05),
            d=rng.uniform(0.008, 0.09),
            v=rng.uniform(0.8, 8.0),
        )
        delta = rng.uniform(0.001, 0.05)
        lo, hi = growth_interval(inv, delta)
        margin = 0.05 * (hi - lo)
        g = rng.uniform(lo + margin, hi - margin)
        p = MacroParams(
            alpha=rng.uniform(0.1, 2.5),
            gamma=rng.uniform(0.02, 0.6),
            delta=delta,
            g=g,
            G0=rng.uniform(0.5, 5.0),
            T=rng.uniform(t_lo, t_hi),
            m=m,
        )
        try:
            eq = equilibrium(p, inv)
        except (NonPositiveEquilibrium, GrowthOutOfRange):
            continue
        return inv, p, eq


def characteristic_residual(p, inv, omega):
    """Relative residual |f| of the characteristic equation
    f = (l - a)(l - e)(1 + l T/m)^m / (bc) - 1 at l = i omega, in Python's
    own complex arithmetic from the loop gains at the equilibrium:
    a = alpha (Iy* - gamma) - g, b = alpha Ik*, c = Iy*, e = -x* Iy*."""
    eq = equilibrium(p, inv)
    a = p.alpha * (eq.Iy_star - p.gamma) - p.g
    b, c, e = p.alpha * eq.Ik_star, eq.Iy_star, -eq.x_star * eq.Iy_star
    lam = complex(0.0, omega)
    return abs((lam - a) * (lam - e) * (1.0 + lam * p.T / p.m) ** p.m / (b * c) - 1.0)


def pair_real_from_matrix(J, imag_tol=1e-9):
    """Max real part over the complex eigenvalues of J, or None."""
    eig = np.linalg.eigvals(J)
    cplx = eig[np.abs(eig.imag) > imag_tol * (1.0 + np.abs(eig))]
    if cplx.size == 0:
        return None
    return float(cplx.real.max())


def eigenvalue_labels(p, inv, name, x):
    """Label every value of ``x`` of the parameter ``name`` ("T", "g" or
    "alpha") from its equilibrium eigenvalues, all from one batched call:
    0 where the equilibrium is not positive, 1 where the Jacobian has no
    complex pair, 2 where the leading pair has Re < 0 and 3 where it has
    Re >= 0."""
    eig = _grid_eigenvalues(p, inv, name, x)
    lead = _split_eigenvalues(eig)[2]
    return np.where(np.isnan(lead), ~np.isnan(eig[:, 0]), 2 + (lead.real >= 0.0))


def _scan(p, inv, name, grid, tol):
    """The eigenvalue scan: every point of ``grid`` labelled by
    :func:`eigenvalue_labels`, and every bracket where neighbouring labels
    differ bisected to ``tol``.  Returns the change points and the labels
    before and after each."""
    label = lambda x: eigenvalue_labels(p, inv, name, x)
    labels = label(grid)
    i, lo, hi = _refine(label, grid, labels, tol)
    return 0.5 * (lo + hi), labels[i], labels[i + 1]


def pair_crossings(p, inv, name, grid, tol, step):
    """Hopf points where the leading pair's real part changes sign between
    neighbouring points of the grid of the parameter ``name`` ("T", "g" or
    "alpha"), bisected to ``tol`` by the eigenvalue scan.  omega is the
    leading pair's |Im| and the crossing speed the central difference of
    its real part with step ``step * max(1, x)``.  A pair collapsing onto
    the real axis (omega <= 1e-6) is not an imaginary-axis crossing.

    Where the leading pair changes identity or an unstable pair turns into
    two positive real eigenvalues the sign change is a jump, not a
    crossing, and is reported all the same.
    """
    x, before, after = _scan(p, inv, name, grid, tol)
    x = x[(before >= 2) & (after >= 2)]
    n, h = len(x), step * np.maximum(1.0, x)
    eig = _grid_eigenvalues(p, inv, name, np.concatenate([x, x + h, x - h]))
    lead = _split_eigenvalues(eig)[2]
    slope = (lead.real[n : 2 * n] - lead.real[2 * n :]) / (2.0 * h)
    omega = np.abs(lead.imag[:n])
    keep = omega > 1e-6
    return _as_points(name, x[keep], omega[keep], slope[keep], np.full(keep.sum(), np.nan))


def hopf_in_T_numeric(p, inv, m=None, t_range=(1e-4, 50.0), n_grid=512):
    """Critical delays for any kernel order by eigenvalue bisection on a
    geometric T grid.

    An independent reference for :func:`chaintrick.hopf_locator.hopf_in_T`
    and the closed forms: it also bisects jumps of the leading pair's real
    part where an unstable pair turns real, which it reports as spurious
    crossings.  Raises NoHopf when the leading pair never changes sign on
    the grid.
    """
    if m is not None:
        p = p.replace(m=m)
    ts = np.geomspace(*t_range, n_grid)
    points = pair_crossings(p, inv, "T", ts, 1e-12 * np.maximum(1.0, ts), 1e-6)
    if not points:
        raise NoHopf(f"no Hopf crossing in T over {t_range} for m = {p.m}")
    return points


def period_from_zero_crossings(traj, transient_fraction=0.5):
    """Second period estimate, beside the peak spacing of cycle_metrics:
    mean spacing of upward zero crossings of y - mean(y) over the
    post-transient window."""
    t, y = _post_transient(traj, transient_fraction)
    yc = y - y.mean()
    idx = np.nonzero((yc[:-1] < 0.0) & (yc[1:] >= 0.0))[0]
    if len(idx) < 3:
        raise InsufficientOscillations("fewer than 3 upward zero crossings")
    # linear interpolation of each crossing time
    tc = t[idx] + (t[idx + 1] - t[idx]) * (-yc[idx]) / (yc[idx + 1] - yc[idx])
    return float(np.mean(np.diff(tc)))
