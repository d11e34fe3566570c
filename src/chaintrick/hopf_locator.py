"""Hopf bifurcation location in the delay T, the growth rate g and the
adjustment speed alpha.

In T every kernel order shares one characteristic equation,
(lambda - a)(lambda - e)(lambda + m/T)^m = bc (m/T)^m, and one route
solves it: :func:`hopf_in_T` works on the imaginary axis, where the
modulus gives T as an explicit function of the frequency omega, the phase
gives the crossings as roots in omega, and the crossing direction comes
from the analytic Re dlambda/dT, with no eigenvalues and no cap on T.  The
same solver takes a whole batch of (alpha, g) cells in one call, which is
how the sweeps use it.  The closed forms for m = 1 (a quadratic in T) and
m = 2 (the quartic of :func:`chaintrick.char_poly.phi_quartic`) are kept
as independent references.

The g and alpha scans share one labelled scan, :func:`_scan`: every point
of a grid is labelled from its equilibrium eigenvalues, all computed in
one batched call, and every bracket where neighbouring labels differ is
bisected together, one batched evaluation per step.  :func:`hopf_in_g`
reads the growth-rate structure and the stability regimes from its label
changes, :func:`hopf_in_alpha` the Hopf crossings.  The same bisection
serves the phase brackets of every cell of :func:`hopf_in_T`.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import char_poly
from .errors import DegenerateTransversality, DelayNonPositive, NoHopf, NoStableRegime
from .model_core import equilibrium, growth_interval, investment_derivs, solve_x_star

#: eigenvalues with |Im| below this (times 1 + |lambda|) count as real
IMAG_TOL = 1e-9

#: a crossing speed smaller than this is refused as degenerate
TRANSVERSALITY_TOL = 1e-10

#: points of the omega grid on which :func:`hopf_in_T` scans the phase,
#: bisection steps on each bracket, then Newton steps on the
#: characteristic equation to polish the root
N_GRID = 256
BISECT_STEPS = 12
NEWTON_STEPS = 3

#: points of the geometric alpha grid scanned by :func:`hopf_in_alpha`
ALPHA_GRID = 512


@dataclass(frozen=True)
class HopfPoint:
    """A located Hopf bifurcation.

    ``parameter`` names the varied quantity ("T", "g" or "alpha"),
    ``omega`` is the imaginary-axis crossing frequency, ``crossing`` is
    "destabilizing" when the pair moves left to right as the parameter
    increases and "stabilizing" otherwise, and ``transversality`` is the
    signed crossing-speed expression (nonzero by construction).  Which
    expression depends on the route: Re dlambda/dT from :func:`hopf_in_T`
    (and so from :func:`critical_delays` for every m), B T*^2 + 1 from the
    m = 1 reference :func:`hopf_in_T_m1`, -psi'(T*) from the m = 2
    reference :func:`hopf_in_T_m2`, and a central difference of the
    leading pair's real part in g or alpha from :func:`hopf_in_g` and
    :func:`hopf_in_alpha`.
    """

    parameter: str
    value: float
    omega: float
    crossing: str
    transversality: float

    def __post_init__(self):
        for name in ("value", "omega", "transversality"):
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass(frozen=True)
class GSegment:
    """Eigenvalue signature of one subinterval of the growth-rate scan."""

    lo: float
    hi: float
    physical: bool
    n_real_neg: int = 0
    n_real_pos: int = 0
    pair_real_sign: int = 0
    has_pair: bool = False

    @property
    def stable(self):
        """Whether every eigenvalue has a negative real part; None where
        the equilibrium is not positive."""
        if not self.physical:
            return None
        return self.n_real_pos == 0 and (not self.has_pair or self.pair_real_sign < 0)


@dataclass(frozen=True)
class GIntervalReport:
    """Structure of the admissible growth-rate interval (g_min, g_max).

    ``g1``/``g2`` are the real-to-complex transition points bracketing the
    complex-pair window (absent when the window extends to the physical
    boundary); ``g1_hopf``/``g2_hopf`` are the stability crossings where
    the limit cycle is born and destroyed.  ``segments`` classify every
    subinterval between consecutive boundaries; ``hopf_points`` carry the
    crossing frequency and direction for each Hopf boundary.
    """

    g_min: float
    g_max: float
    g1: float | None
    g1_hopf: float | None
    g2_hopf: float | None
    g2: float | None
    segments: tuple
    hopf_points: tuple

    @property
    def boundaries(self):
        """Ordered list of the named interior boundaries that exist."""
        named = (
            ("g1", self.g1),
            ("g1_hopf", self.g1_hopf),
            ("g2_hopf", self.g2_hopf),
            ("g2", self.g2),
        )
        return [(name, value) for name, value in named if value is not None]


# ---------------------------------------------------------------------------
# eigenvalues on a parameter grid, and bracket refinement


def _loop_coefficients(p, inv, alpha, g):
    """Gains of the equilibrium's single feedback loop
    y -> u_1 -> ... -> u_m -> k -> y, elementwise in the arrays ``alpha``
    and ``g``: a = alpha (Iy* - gamma) - g (y on y), b = alpha Ik* (k on y),
    c = Iy* (u_m on k) and e = -x* Iy* (k on k).  All four are NaN where
    the equilibrium is not positive."""
    xs = solve_x_star(inv, g, p.delta)
    ok = g * xs + alpha * (p.gamma * xs - (g + p.delta)) > 0.0
    xs = np.where(ok, xs, np.nan)
    iy, ik = investment_derivs(xs, inv, g, p.delta)
    return alpha * (iy - p.gamma) - g, alpha * ik, iy, -xs * iy


def _grid_eigenvalues(p, inv, name, values):
    """Equilibrium eigenvalues at every value of the parameter ``name``
    ("g", "alpha" or "T"), the others fixed at ``p``, from one batched
    eigenvalue call: one row per value, NaN where the equilibrium is not
    positive.

    The Jacobian holds the loop gains of :func:`_loop_coefficients`: a and
    b in row 0, the r = m/T cascade below, and c and e in the last row.
    """
    values = np.asarray(values, dtype=float)
    q = {"g": p.g, "alpha": p.alpha, "T": p.T, name: values}
    g, alpha, T = (np.broadcast_to(q[key], values.shape) for key in ("g", "alpha", "T"))
    if np.any(T <= 0.0):
        raise DelayNonPositive(f"chain reduction needs T > 0, got T={np.min(T):g}")
    a, b, c, e = _loop_coefficients(p, inv, alpha, g)
    ok = ~np.isnan(e)
    r = p.m / T[ok]
    m = p.m
    J = np.zeros((r.size, m + 2, m + 2))
    J[:, 0, 0] = a[ok]
    J[:, 0, -1] = b[ok]
    stage = np.arange(1, m + 1)
    J[:, stage, stage - 1] = r[:, None]
    J[:, stage, stage] = -r[:, None]
    J[:, -1, m] = c[ok]
    J[:, -1, -1] = e[ok]
    eig = np.full((values.size, m + 2), np.nan, dtype=complex)
    eig[ok] = np.linalg.eigvals(J)
    return eig


def _split_eigenvalues(eig):
    """For each row of ``eig``: the numbers of negative and of non-negative
    real eigenvalues, and the leading complex eigenvalue (the one with the
    largest real part, NaN when the row is all real)."""
    cplx = np.abs(eig.imag) > IMAG_TOL * (1.0 + np.abs(eig))
    real = np.where(cplx, np.nan, eig.real)
    lead = np.argmax(np.where(cplx, eig.real, -np.inf), axis=-1)[..., None]
    lead = np.where(cplx.any(axis=-1), np.take_along_axis(eig, lead, -1)[..., 0], np.nan)
    return np.sum(real < 0.0, axis=-1), np.sum(real >= 0.0, axis=-1), lead


def _refine(label, grid, labels, tol, *rows):
    """Bisect together every bracket [grid[..., j], grid[..., j+1]] along
    the last axis whose end labels differ, all as often as it takes to
    bring each below its ``tol`` (a scalar, or one value per grid point).
    ``label(x, *r)`` labels an array of points in one batched evaluation,
    where ``r`` holds each of ``rows`` (one value per grid row) taken at
    every point's row.  Returns the index of each bracket's lower end, one
    array per axis, then the final (lo, hi).
    """
    idx = np.nonzero(labels[..., :-1] != labels[..., 1:])
    lo, hi, want = grid[idx], grid[idx[:-1] + (idx[-1] + 1,)], labels[idx]
    tol = tol[idx] if np.ndim(tol) else tol
    rows = [r[idx[:-1]] for r in rows]
    steps = math.floor(np.max(np.log2(np.abs(hi - lo) / tol), initial=-1.0)) + 1
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        same = label(mid, *rows) == want
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return *idx, lo, hi


def _scan(p, inv, name, grid, tol):
    """Label every point of ``grid`` of the parameter ``name``: 0 where the
    equilibrium is not positive, 1 where the Jacobian has no complex pair,
    2 where the leading pair has Re < 0 and 3 where it has Re >= 0.  Every
    bracket where neighbouring labels differ is bisected to ``tol``.
    Returns the change points and the labels before and after each."""

    def label(x):
        eig = _grid_eigenvalues(p, inv, name, x)
        lead = _split_eigenvalues(eig)[2]
        return np.where(np.isnan(lead), ~np.isnan(eig[:, 0]), 2 + (lead.real >= 0.0))

    labels = label(grid)
    i, lo, hi = _refine(label, grid, labels, tol)
    return 0.5 * (lo + hi), labels[i], labels[i + 1]


def _pair_crossings(p, inv, name, grid, tol, step):
    """Hopf points where the leading pair's real part changes sign between
    neighbouring points of ``grid``, bisected to ``tol``."""
    x, before, after = _scan(p, inv, name, grid, tol)
    return _hopf_points(p, inv, name, x[(before >= 2) & (after >= 2)], step)


def _hopf_points(p, inv, name, x, step):
    """HopfPoints at the crossings x of the parameter ``name``: omega is the
    leading pair's |Im| and the crossing speed the central difference of
    its real part with step ``step * max(1, x)``.  A pair collapsing onto
    the real axis (omega <= 1e-6) is not an imaginary-axis crossing."""
    n, h = len(x), step * np.maximum(1.0, x)
    eig = _grid_eigenvalues(p, inv, name, np.concatenate([x, x + h, x - h]))
    lead = _split_eigenvalues(eig)[2]
    slope = (lead.real[n : 2 * n] - lead.real[2 * n :]) / (2.0 * h)
    return [
        HopfPoint(
            parameter=name,
            value=value,
            omega=om,
            crossing="destabilizing" if sl > 0.0 else "stabilizing",
            transversality=sl,
        )
        for value, om, sl in zip(x, np.abs(lead.imag[:n]), slope)
        if om > 1e-6
    ]


def equilibrium_eigenvalues(p, inv):
    """Eigenvalues of the chain-system Jacobian at the equilibrium."""
    eig = _grid_eigenvalues(p, inv, "g", [p.g])[0]
    if np.isnan(eig[0]):
        equilibrium(p, inv)  # raises GrowthOutOfRange or NonPositiveEquilibrium
    return eig


def pair_max_real(p, inv, m=None):
    """(max Re, |Im|) over the complex eigenvalue pairs, or None if all real.

    This is the quantity whose sign change in a parameter marks a Hopf
    crossing.
    """
    if m is not None:
        p = p.replace(m=m)
    lead = _split_eigenvalues(equilibrium_eigenvalues(p, inv))[2]
    return None if np.isnan(lead) else (float(lead.real), abs(float(lead.imag)))


# ---------------------------------------------------------------------------
# closed-form references in T for m = 1 and m = 2


def _imag_axis_residual(monic_coeffs, omega):
    val = np.polyval(np.concatenate(([1.0], np.asarray(monic_coeffs))), 1j * omega)
    return abs(val)


def hopf_in_T_m1(eq, p):
    """Critical delays for m = 1 from the quadratic
    (AB) T^2 + (A^2 + alpha Ik* Iy*) T - A = 0, a reference for
    :func:`hopf_in_T`.

    Requires A < 0 (otherwise the equilibrium is unstable for every delay
    and NoStableRegime is raised).  Each positive root T* yields a Hopf
    point with omega* = sqrt(a2(T*)) and crossing-speed sign
    sign(B T*^2 + 1).  Raises NoHopf when no admissible root exists.
    """
    A, B, aik = char_poly.composites_m1(eq, p)
    if A >= 0.0:
        raise NoStableRegime(
            f"A = {A:g} >= 0: equilibrium unstable for every delay"
        )
    qa, qb, qc = A * B, A * A + aik, -A
    roots = _positive_quadratic_roots(qa, qb, qc)
    points = []
    for t_star in roots:
        a1s, a2s, a3s = char_poly.cubic_coeffs_at(A, B, aik, t_star)
        if a2s <= 0.0 or a1s <= 0.0 or a3s <= 0.0:
            continue
        omega = math.sqrt(a2s)
        res = _imag_axis_residual([a1s, a2s, a3s], omega)
        if res > 1e-8 * (1.0 + omega**3):
            continue
        trans = B * t_star**2 + 1.0
        if abs(trans) < TRANSVERSALITY_TOL:
            raise DegenerateTransversality(
                f"crossing speed vanishes at T* = {t_star:g}"
            )
        points.append(
            HopfPoint(
                parameter="T",
                value=t_star,
                omega=omega,
                crossing="destabilizing" if trans > 0.0 else "stabilizing",
                transversality=trans,
            )
        )
    if not points:
        raise NoHopf("no positive critical delay for m = 1 at these parameters")
    return sorted(points, key=lambda h: h.value)


def _positive_quadratic_roots(qa, qb, qc):
    """Real positive roots of qa x^2 + qb x + qc, handling the linear case."""
    if qa == 0.0:
        if qb == 0.0:
            return []
        r = -qc / qb
        return [r] if r > 0.0 else []
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    # numerically stable pairing: avoid cancellation in -qb +/- sq
    q = -0.5 * (qb + math.copysign(sq, qb)) if qb != 0.0 else 0.5 * sq
    if q == 0.0:
        roots = [0.0, -qb / qa]
    else:
        roots = [q / qa, qc / q]
    return sorted(r for r in roots if r > 0.0)


def hopf_in_T_m2(eq, p):
    """Critical delays for m = 2 from the quartic criticality polynomial, a
    reference for :func:`hopf_in_T`.

    Positive simple roots T* of phi(T) = 0 with a1, a3 > 0 give
    omega* = sqrt(a3(T*) / a1(T*)); the remaining two roots are checked to
    have nonzero real parts via lambda3 + lambda4 = -a1 < 0 and
    lambda3 lambda4 = (a1 a2 - a3)/a1 > 0.  The crossing-speed sign is
    sign(-psi'(T*)) where psi is the composite Routh-Hurwitz expression
    a1 a2 a3 - a3^2 - a1^2 a4.
    """
    M, N, P = char_poly.composites_m2(eq, p)
    coeffs = char_poly.phi_quartic_coeffs(M, N, P)
    scale = np.abs(coeffs).max()
    if scale == 0.0:
        raise NoHopf("degenerate criticality polynomial for m = 2")
    trimmed = np.array(coeffs)
    while trimmed.size and abs(trimmed[0]) <= 1e-14 * scale:
        trimmed = trimmed[1:]
    if trimmed.size < 2:
        raise NoHopf("criticality polynomial has no roots for m = 2")
    points = []
    for r in np.roots(trimmed):
        if abs(r.imag) > 1e-8 * (1.0 + abs(r)) or r.real <= 0.0:
            continue
        t_star = float(r.real)
        a1s, a2s, a3s, a4s = char_poly.quartic_coeffs_at(M, N, P, t_star)
        if a1s <= 0.0 or a3s <= 0.0:
            continue
        tail_product = (a1s * a2s - a3s) / a1s
        if tail_product <= 0.0:
            continue
        omega = math.sqrt(a3s / a1s)
        res = _imag_axis_residual([a1s, a2s, a3s, a4s], omega)
        if res > 1e-8 * (1.0 + omega**4):
            continue
        psi_prime = _psi_prime_m2(M, N, P, t_star)
        # degeneracy measured on the criticality polynomial's own scale;
        # its derivative equals -(T^5/4) psi' at a root
        phi_deriv = float(np.polyval(np.polyder(coeffs), t_star))
        deriv_scale = scale * max(1.0, t_star) ** 3
        if psi_prime == 0.0 or abs(phi_deriv) < TRANSVERSALITY_TOL * deriv_scale:
            raise DegenerateTransversality(
                f"crossing speed vanishes at T* = {t_star:g}"
            )
        trans = -psi_prime
        points.append(
            HopfPoint(
                parameter="T",
                value=t_star,
                omega=omega,
                crossing="destabilizing" if trans > 0.0 else "stabilizing",
                transversality=trans,
            )
        )
    if not points:
        raise NoHopf("no positive critical delay for m = 2 at these parameters")
    return sorted(points, key=lambda h: h.value)


def _psi_prime_m2(M, N, P, T):
    """d/dT of a1 a2 a3 - a3^2 - a1^2 a4 assembled from the coefficient
    derivatives."""
    a1, a2, a3, a4 = char_poly.quartic_coeffs_at(M, N, P, T)
    d1, d2, d3, d4 = char_poly.quartic_coeffs_deriv_at(M, N, P, T)
    return (
        d1 * a2 * a3
        + a1 * d2 * a3
        + a1 * a2 * d3
        - 2.0 * a3 * d3
        - 2.0 * a1 * d1 * a4
        - a1 * a1 * d4
    )


# ---------------------------------------------------------------------------
# location in T on the imaginary axis (any m)


def _chain_ratio(omega, a, e, bc, m):
    """s = omega T / m from the modulus condition
    |Q(i omega)| (1 + s^2)^(m/2) = |bc|, clipped at 0 beyond omega_max."""
    q2 = (omega * omega + a * a) * (omega * omega + e * e)
    return np.sqrt(np.maximum((bc * bc / q2) ** (1.0 / m) - 1.0, 0.0))


def _phase(omega, a, e, bc, m):
    """G(omega) = arg Q(i omega) + m atan(s) - arg(bc), continuous for
    omega > 0; a multiple of 2 pi exactly at a crossing."""
    return (
        np.arctan2(omega, -a)
        + np.arctan2(omega, -e)
        + m * np.arctan(_chain_ratio(omega, a, e, bc, m))
        - np.arctan2(0.0, bc)
    )


def _newton_step(omega, T, a, e, bc, m):
    """Newton step in the real unknowns (omega, T) on the characteristic
    equation Q(i omega) (1 + i omega T/m)^m / bc - 1 = 0."""
    lam = 1j * omega
    z = 1.0 + 1j * omega * T / m
    q = (lam - a) * (lam - e)
    zm1 = z ** (m - 1) / bc
    f = q * z * zm1 - 1.0
    f_om = 1j * ((2.0 * lam - a - e) * z + q * T) * zm1
    f_T = 1j * omega * q * zm1
    det = f_om.real * f_T.imag - f_T.real * f_om.imag
    d_om = (f.imag * f_T.real - f.real * f_T.imag) / det
    d_T = (f.real * f_om.imag - f.imag * f_om.real) / det
    return d_om, d_T


def _axis_crossings(p, inv, alpha, g):
    """Every critical delay of every cell (alpha[i], g[i]) at kernel order
    p.m, located on the imaginary axis in one batched computation.

    With lambda = i omega, Q(lambda) = (lambda - a)(lambda - e) and
    s = omega T / m, the characteristic equation splits into a modulus
    condition that gives T explicitly,
    T(omega) = (m/omega) sqrt((|bc| / |Q(i omega)|)^(2/m) - 1), valid on
    (0, omega_max] where |Q(i omega_max)| = |bc|, and a phase condition
    G(omega) = arg Q(i omega) + m atan(s) - arg(bc) = 2 pi k.  Each cell
    scans G on its own N_GRID-point omega grid (dense near omega_max,
    where T vanishes, and reaching omega = 0, where T is unbounded); every
    bracket where floor(G / 2 pi) changes, over all cells, is bisected at
    once, and each root is polished by Newton steps on the complex
    equation in (omega, T).  The crossing speed is
    Re dlambda/dT = Re[-(m Q lambda / T) / (Q'(lambda)(lambda + m/T) + m Q)].

    Returns (cell, T, omega, speed), one entry per crossing, ordered by
    cell and then by T.  Cells without a positive equilibrium or with
    |bc| <= |ae| have no entry.  Raises DegenerateTransversality when a
    crossing has Re dlambda/dT ~ 0.
    """
    m = p.m
    alpha, g = np.asarray(alpha, dtype=float), np.asarray(g, dtype=float)
    a, b, c, e = _loop_coefficients(p, inv, alpha, g)
    bc = b * c
    # omega_max^2 solves (x + a^2)(x + e^2) = bc^2, a quadratic in x
    excess = bc * bc - a * a * e * e
    cell = np.nonzero(excess > 0.0)[0]
    a, e, bc, excess = a[cell], e[cell], bc[cell], excess[cell]
    root = np.sqrt((a * a - e * e) ** 2 + 4.0 * bc * bc)
    omega_max = np.sqrt(2.0 * excess / (a * a + e * e + root))

    # every cell scans omega = omega_max w on one grid of w running from 1
    # (T = 0) down to 0 (T unbounded); the quadratic spacing resolves the
    # square-root behaviour of T at omega_max
    v = np.linspace(0.0, 1.0, N_GRID)
    w = 1.0 - v * v
    # a crossing is a root of G = 2 pi k: the label is floor(G / 2 pi)
    label = lambda x, om_max, *coeffs: np.floor(_phase(om_max * x, *coeffs, m) / (2.0 * math.pi))
    # the grid is labelled 64 cells at a time, which bounds the temporaries
    # of the phase to about 0.7 MB however many cells there are
    labels = np.empty((cell.size, N_GRID), dtype=np.int32)
    for start in range(0, cell.size, 64):
        rows = slice(start, start + 64)
        labels[rows] = label(w, *(x[rows, None] for x in (omega_max, a, e, bc)))
    # arg(i omega - a) has no limit at omega = 0 when ae = 0: no bracket there
    no_limit = a * e == 0.0
    labels[no_limit, -1] = labels[no_limit, -2]
    # BISECT_STEPS halvings of every grid interval
    tol = np.abs(np.diff(w)) * 2.0 ** (0.5 - BISECT_STEPS)
    row, _, lo, hi = _refine(
        label, np.broadcast_to(w, labels.shape), labels,
        np.broadcast_to(tol, (cell.size, N_GRID - 1)), omega_max, a, e, bc,
    )
    omega_max, a, e, bc, cell = omega_max[row], a[row], e[row], bc[row], cell[row]
    omega = omega_max * (0.5 * (lo + hi))
    with np.errstate(divide="ignore"):
        T = m * _chain_ratio(omega, a, e, bc, m) / omega
    keep = (omega > 0.0) & (T > 0.0) & np.isfinite(T)
    omega, T, width = omega[keep], T[keep], (omega_max * np.abs(hi - lo))[keep]
    a, e, bc, cell = a[keep], e[keep], bc[keep], cell[keep]
    centre = omega
    # the root lies in its bracket: a Newton step that leaves it (with one
    # bracket width to spare for rounding in the phase) is refused
    for _ in range(NEWTON_STEPS):
        d_om, d_T = _newton_step(omega, T, a, e, bc, m)
        om_new, T_new = omega + d_om, T + d_T
        ok = (np.abs(om_new - centre) <= width) & (T_new > 0.0)
        omega, T = np.where(ok, om_new, omega), np.where(ok, T_new, T)

    lam = 1j * omega
    q = (lam - a) * (lam - e)
    slope = -(m * q * lam / T) / ((2.0 * lam - a - e) * (lam + m / T) + m * q)
    flat = np.abs(slope.real) <= TRANSVERSALITY_TOL * np.abs(slope)
    if flat.any():
        i = np.argmax(flat)
        raise DegenerateTransversality(
            f"crossing speed vanishes at T* = {T[i]:g}"
            f" (alpha = {alpha[cell[i]]:g}, g = {g[cell[i]]:g})"
        )
    order = np.lexsort((T, cell))
    return cell[order], T[order], omega[order], slope.real[order]


def hopf_in_T(p, inv, m=None):
    """Critical delays for any kernel order m, located on the imaginary
    axis by :func:`_axis_crossings` on the single cell (p.alpha, p.g).

    Raises NoHopf when no positive critical delay exists and
    DegenerateTransversality when a crossing has Re dlambda/dT ~ 0.
    Without a crossing the equilibrium is as stable for every delay as in
    the limit T -> 0, where the leading eigenvalues solve
    lambda^2 - (a + e) lambda + (ae - bc) = 0 with ae - bc > 0, so the
    sign of a + e says which, and NoHopf says it too.
    """
    if m is not None:
        p = p.replace(m=m)
    equilibrium(p, inv)  # raises GrowthOutOfRange or NonPositiveEquilibrium
    _, T, omega, speed = _axis_crossings(p, inv, [p.alpha], [p.g])
    if not T.size:
        a, _, _, e = _loop_coefficients(p, inv, np.float64(p.alpha), np.float64(p.g))
        trace = float(a + e)
        raise NoHopf(
            f"no positive critical delay for m = {p.m}: a + e = {trace:.4g}, equilibrium"
            f" {'unstable' if trace >= 0.0 else 'stable'} for every delay"
        )
    return [
        HopfPoint(
            parameter="T",
            value=t_star,
            omega=om,
            crossing="destabilizing" if sl > 0.0 else "stabilizing",
            transversality=sl,
        )
        for t_star, om, sl in zip(T.tolist(), omega.tolist(), speed.tolist())
    ]


#: the critical delays of any kernel order: :func:`hopf_in_T` is the one route
critical_delays = hopf_in_T


def hopf_in_alpha(p, inv, m=None, alpha_range=(0.05, 2.0)):
    """Hopf crossings as the adjustment speed alpha varies at fixed T, g.

    Bisects sign changes of the leading pair's real part on an
    ALPHA_GRID-point geometric alpha grid; raises NoHopf when there is no
    sign change.
    """
    if m is not None:
        p = p.replace(m=m)
    lo, hi = alpha_range
    if not (0.0 < lo < hi):
        raise ValueError("alpha_range must satisfy 0 < lo < hi")
    points = _pair_crossings(p, inv, "alpha", np.geomspace(lo, hi, ALPHA_GRID), 1e-12, 1e-7)
    if not points:
        raise NoHopf(f"no Hopf crossing in alpha over {alpha_range}")
    return points


# ---------------------------------------------------------------------------
# growth-rate interval structure


def hopf_in_g(p, inv, m=None, n_grid=2048):
    """Scan the admissible growth interval and report its eigenvalue
    structure.

    :func:`_scan` labels the ``n_grid`` interior points of a uniform grid
    of ``n_grid + 2`` points over (g_min, g_max) and bisects every label
    change to 1e-11 in g: the equilibrium leaving the positive quadrant,
    the complex pair appearing or vanishing, or the pair's real part
    changing sign (the Hopf crossings).  On the physical range
    ae - bc = Iy* (g x* + alpha (gamma x* - g - delta)) > 0, so no real
    eigenvalue crosses zero and every change of ``GSegment.stable`` is
    one of these label changes.
    """
    if m is not None:
        p = p.replace(m=m)
    g_lo, g_hi = growth_interval(inv, p.delta)
    gs = np.linspace(g_lo, g_hi, n_grid + 2)[1:-1]
    bounds, before, after = _scan(p, inv, "g", gs, 1e-11)
    ups = bounds[(before == 2) & (after == 3)].tolist()
    downs = bounds[(before == 3) & (after == 2)].tolist()
    appears = bounds[(before == 1) & (after >= 2)].tolist()
    vanishes = bounds[(before >= 2) & (after == 1)].tolist()
    g1_hopf = ups[0] if ups else None
    g2_hopf = downs[-1] if downs else None
    g1 = next((g for g in reversed(appears) if g1_hopf is not None and g < g1_hopf), None)
    g2 = next((g for g in vanishes if g2_hopf is not None and g > g2_hopf), None)

    edges = np.concatenate([gs[:1], bounds, gs[-1:]])
    eig = _grid_eigenvalues(p, inv, "g", 0.5 * (edges[:-1] + edges[1:]))
    n_neg, n_pos, lead = _split_eigenvalues(eig)
    has_pair = ~np.isnan(lead)
    segments = tuple(
        GSegment(
            lo=seg_lo,
            hi=seg_hi,
            physical=bool(physical),
            n_real_neg=int(neg),
            n_real_pos=int(pos),
            pair_real_sign=int(sign),
            has_pair=bool(pair),
        )
        for seg_lo, seg_hi, physical, neg, pos, sign, pair in zip(
            edges[:-1].tolist(),
            edges[1:].tolist(),
            ~np.isnan(eig[:, 0]),
            n_neg,
            n_pos,
            np.sign(np.where(has_pair, lead.real, 0.0)),
            has_pair,
        )
    )
    hopf = (before >= 2) & (after >= 2)
    hopf_points = tuple(_hopf_points(p, inv, "g", bounds[hopf], 1e-7))
    return GIntervalReport(
        g_min=g_lo,
        g_max=g_hi,
        g1=g1,
        g1_hopf=g1_hopf,
        g2_hopf=g2_hopf,
        g2=g2,
        segments=segments,
        hopf_points=hopf_points,
    )
