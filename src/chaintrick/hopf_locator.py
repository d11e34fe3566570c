"""Hopf bifurcation location in the delay T, the growth rate g and the
adjustment speed alpha.

Every kernel order shares one characteristic equation,
(lambda - a)(lambda - e)(lambda + m/T)^m = bc (m/T)^m, and every Hopf
point is found on the imaginary axis, with no eigenvalues.  In T the
modulus gives T as an explicit function of the frequency omega and the
phase gives the crossings as roots in omega, with no cap on T; one call of
:func:`hopf_in_T`'s solver takes a whole batch of (alpha, g) cells, as the
sweeps do.  In g and alpha at fixed T the modulus gives omega at every
grid point and the phase labels it.  Every route solves each bracket of
its grid by Newton's method on the characteristic equation from the
secant point of the phase, and keeps the root where it satisfies the
equation inside the bracket; the other brackets are bisected with
:func:`_refine` and polished in T, and narrowed by regula falsi in g and
alpha, which report the point on which bisection with :func:`_refine`
lands.  Every route takes the direction from the analytic
Re dlambda/d(parameter) and reports the residual of the characteristic
equation.  The closed forms
for m = 1 (a quadratic in T) and m = 2 (the quartic of
:func:`chaintrick.char_poly.phi_quartic`) are kept as independent
references.

Eigenvalues serve only the growth-rate structure: :func:`_scan` labels a
g grid from its equilibrium eigenvalues, all computed in one batched call,
and bisects every label change, from which :func:`hopf_in_g` reads g1, g2
and the stability regimes.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import char_poly
from .errors import (
    DegenerateTransversality, DelayNonPositive, InaccurateRoot, NoHopf, NoStableRegime,
)
from .model_core import equilibrium, growth_interval, investment_derivs, solve_x_star

#: eigenvalues with |Im| below this (times 1 + |lambda|) count as real
IMAG_TOL = 1e-9

#: a crossing speed smaller than this is refused as degenerate
TRANSVERSALITY_TOL = 1e-10

#: points of the omega grid on which :func:`hopf_in_T` scans the phase
N_GRID = 256

#: Newton steps on the characteristic equation from the secant point of
#: every grid bracket, and the relative residual |f| below which the root
#: they reach is accepted
NEWTON_STEPS = 4
NEWTON_TOL = 1e-12

#: the fallback in T for a bracket whose Newton root is not accepted:
#: bisection steps on the bracket, then Newton steps kept inside it (twice
#: as many for a root still off the equation by NEWTON_TOL)
BISECT_STEPS = 12
POLISH_STEPS = 3

#: a critical delay whose relative residual exceeds this is refused
RESIDUAL_TOL = 1e-10

#: points of the geometric alpha grid scanned by :func:`hopf_in_alpha`
ALPHA_GRID = 512
#: interior points of the g grid of :func:`hopf_in_g` and of the table
G_GRID = 2048


@dataclass(frozen=True)
class HopfPoint:
    """A located Hopf bifurcation.

    ``parameter`` names the varied quantity ("T", "g" or "alpha"),
    ``omega`` is the imaginary-axis crossing frequency, ``crossing`` is
    "destabilizing" when the pair moves left to right as the parameter
    increases and "stabilizing" otherwise, and ``transversality`` is the
    signed crossing speed (nonzero by construction).  It is
    Re dlambda/d(parameter) on the T, g and alpha routes:
    :func:`hopf_in_T` (and so :func:`critical_delays` for every m),
    :func:`hopf_in_g` and :func:`hopf_in_alpha`.  Only the closed-form
    references differ: B T*^2 + 1 from the m = 1 :func:`hopf_in_T_m1`
    and -psi'(T*) from the m = 2 :func:`hopf_in_T_m2`.  ``residual`` is
    |Q(i omega)(1 + i omega T/m)^m / bc - 1| at (value, omega): at most
    RESIDUAL_TOL in T, up to the bisection tolerance times |df/dx| in g
    and alpha.
    """

    parameter: str
    value: float
    omega: float
    crossing: str
    transversality: float
    residual: float

    def __post_init__(self):
        for name in ("value", "omega", "transversality", "residual"):
            object.__setattr__(self, name, float(getattr(self, name)))


def _as_points(name, values, omega, speed, residual):
    """HopfPoints in the parameter ``name``, one per (value, omega, crossing
    speed, residual)."""
    return [
        HopfPoint(
            parameter=name,
            value=value,
            omega=om,
            crossing="destabilizing" if sl > 0.0 else "stabilizing",
            transversality=sl,
            residual=res,
        )
        for value, om, sl, res in zip(values, omega, speed, residual)
    ]


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
        # the monic cubic is bc r f, with r = 1/T and bc = alpha Ik* Iy*
        points.append((t_star, omega, trans, res * t_star / abs(aik)))
    if not points:
        raise NoHopf("no positive critical delay for m = 1 at these parameters")
    return _as_points("T", *zip(*sorted(points)))


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
        # the monic quartic is bc r^2 f, with r = 2/T and bc = -P
        points.append((t_star, omega, trans, res * t_star**2 / abs(4.0 * P)))
    if not points:
        raise NoHopf("no positive critical delay for m = 2 at these parameters")
    return _as_points("T", *zip(*sorted(points)))


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
# location in T, g and alpha on the imaginary axis (any m)


def _chain_ratio(omega, a, e, bc, m):
    """s = omega T / m from the modulus condition
    |Q(i omega)| (1 + s^2)^(m/2) = |bc|, clipped at 0 beyond omega_max."""
    q2 = (omega * omega + a * a) * (omega * omega + e * e)
    return np.sqrt(np.maximum((bc * bc / q2) ** (1.0 / m) - 1.0, 0.0))


def _phase(omega, a, e, bc, m, s=None):
    """G(omega) = arg Q(i omega) + m atan(s) - arg(bc), continuous for
    omega > 0; a multiple of 2 pi exactly at a crossing.  s = omega T / m
    comes from the modulus condition unless given."""
    s = _chain_ratio(omega, a, e, bc, m) if s is None else s
    return np.arctan2(omega, -a) + np.arctan2(omega, -e) + m * np.arctan(s) - np.arctan2(0.0, bc)


def _newton_step(omega, m, r, a, e, bc, da, de, dbc, dlnr):
    """One Newton step in the real unknowns (omega, x) on the characteristic
    equation f = Q(i omega)(1 + i omega/r)^m / bc - 1 = 0, where x is the
    parameter whose derivatives a', e', (bc)'/bc and (ln r)' are given.
    The partials are (f + 1) F_lambda and (f + 1) F_x, with
    F_lambda = 1/(lambda - a) + 1/(lambda - e) + m/(lambda + r) and
    F_x = -[a'/(lambda - a) + e'/(lambda - e) + (bc)'/bc
    + m lambda (ln r)'/(lambda + r)].  Returns f, the step (d omega, d x)
    and the slope dlambda/dx = -F_x / F_lambda."""
    lam = 1j * omega
    la, le, lr = lam - a, lam - e, lam + r
    f1 = la * le * (lr / r) ** m / bc
    F_lam = 1.0 / la + 1.0 / le + m / lr
    slope = (da / la + de / le + dbc + m * lam * dlnr / lr) / F_lam
    # f_omega = i f_lambda, so i d_omega - slope d_x = -f / f_lambda = -rho,
    # whose real and imaginary parts give d_x and then d_omega
    rho = (1.0 - 1.0 / f1) / F_lam
    d_x = rho.real / slope.real
    return f1 - 1.0, slope.imag * d_x - rho.imag, d_x, slope


def _newton(omega, x, m, partials):
    """NEWTON_STEPS + 1 steps of :func:`_newton_step` from (omega, x), where
    ``partials(x)`` gives its r, a, e, bc and derivatives at x; returns the
    final (omega, x) and the relative residual |f| from which the last
    step was taken."""
    for _ in range(NEWTON_STEPS + 1):
        f, d_om, d_x, _ = _newton_step(omega, m, *partials(x))
        omega, x = omega + d_om, x + d_x
    return omega, x, np.abs(f)


def _crossing_speed(omega, m, r, a, e, bc, da, de, dbc, dlnr):
    """Re dlambda/dx at the root lambda = i omega of
    (lambda - a)(lambda - e)(lambda + r)^m = bc r^m, the mask of crossings
    too flat to give a direction, and the relative residual |f|, all from
    :func:`_newton_step`."""
    f, _, _, slope = _newton_step(omega, m, r, a, e, bc, da, de, dbc, dlnr)
    return slope.real, np.abs(slope.real) <= TRANSVERSALITY_TOL * np.abs(slope), np.abs(f)


def _bisect_in_T(label, w, ends, end_labels, j, m, omega_max, a, e, bc):
    """:func:`_axis_crossings` for the brackets whose Newton root it does
    not accept (``ends`` in w, with ``end_labels``, on grid interval
    ``j``): BISECT_STEPS halvings, then the Newton polish.  Returns omega,
    T and the mask of brackets with omega and T finite and > 0."""
    tol = np.abs(np.diff(w)) * 2.0 ** (0.5 - BISECT_STEPS)
    *_, lo, hi = _refine(label, ends, end_labels, tol[j, None], omega_max, a, e, bc)
    omega = omega_max * (0.5 * (lo + hi))
    with np.errstate(divide="ignore"):
        T = m * _chain_ratio(omega, a, e, bc, m) / omega
    kept = (omega > 0.0) & (T > 0.0) & np.isfinite(T)
    # the root lies in its bracket: a Newton step that leaves it (with one
    # bracket width to spare for rounding in the phase) is refused
    width, centre = omega_max * np.abs(hi - lo), omega
    with np.errstate(all="ignore"):
        for n in range(2 * POLISH_STEPS):
            f, d_om, d_T, _ = _newton_step(omega, m, m / T, a, e, bc, 0.0, 0.0, 0.0, -1.0 / T)
            om_new, T_new = omega + d_om, T + d_T
            ok = kept & (np.abs(om_new - centre) <= width) & (T_new > 0.0)
            ok &= (n < POLISH_STEPS) | ~(np.abs(f) < NEWTON_TOL)
            omega, T = np.where(ok, om_new, omega), np.where(ok, T_new, T)
    return omega, T, kept


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
    bracket where floor(G / 2 pi) changes, over all cells, is solved at
    once by Newton steps in (omega, T) from the secant point of the phase,
    and the root kept where its residual is below NEWTON_TOL and its omega
    strictly inside the bracket; :func:`_bisect_in_T` takes the others.
    The crossing speed Re dlambda/dT is that of :func:`_crossing_speed`
    with a, e and bc fixed and (ln r)' = -1/T.

    Returns (cell, T, omega, speed, residual), one entry per crossing,
    ordered by cell and then by T.  Cells without a positive equilibrium
    or with |bc| <= |ae| have no entry.  Raises InaccurateRoot when a
    crossing's relative residual exceeds RESIDUAL_TOL and
    DegenerateTransversality when a crossing has Re dlambda/dT ~ 0.
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
    row, j = np.nonzero(labels[:, :-1] != labels[:, 1:])
    # each bracket's ends in w (decreasing) and their labels
    ends, end_labels = np.stack([w[j], w[j + 1]]), np.stack([labels[row, j], labels[row, j + 1]])
    omega_max, a, e, bc, cell = omega_max[row], a[row], e[row], bc[row], cell[row]

    with np.errstate(all="ignore"):
        # the phase crosses the larger of the two labels (times 2 pi) in the bracket
        f_0, f_1 = _phase(omega_max * ends, a, e, bc, m) / (2.0 * math.pi) - end_labels.max(axis=0)
        omega = omega_max * (ends[1] - f_1 * (ends[1] - ends[0]) / (f_1 - f_0))
        T = m * _chain_ratio(omega, a, e, bc, m) / omega
        omega, T, res = _newton(omega, T, m, lambda T: (m / T, a, e, bc, 0.0, 0.0, 0.0, -1.0 / T))
    settled = ((res < NEWTON_TOL) & (omega_max * ends[1] < omega) & (omega < omega_max * ends[0])
               & (T > 0.0) & (T < math.inf))

    fb = np.nonzero(~settled)[0]
    if fb.size:
        omega[fb], T[fb], settled[fb] = _bisect_in_T(
            label, w, ends[:, fb].T, end_labels[:, fb].T, j[fb], m,
            omega_max[fb], a[fb], e[fb], bc[fb],
        )
    omega, T, a, e, bc, cell = (x[settled] for x in (omega, T, a, e, bc, cell))

    speed, flat, residual = _crossing_speed(omega, m, m / T, a, e, bc, 0.0, 0.0, 0.0, -1.0 / T)
    bad = ~(residual <= RESIDUAL_TOL)
    if bad.any():
        i = np.argmax(bad)
        raise InaccurateRoot(
            f"relative residual {residual[i]:.2g} of the characteristic equation at"
            f" T* = {T[i]:g} exceeds {RESIDUAL_TOL:g}"
            f" (alpha = {alpha[cell[i]]:g}, g = {g[cell[i]]:g})"
        )
    if flat.any():
        i = np.argmax(flat)
        raise DegenerateTransversality(
            f"crossing speed vanishes at T* = {T[i]:g}"
            f" (alpha = {alpha[cell[i]]:g}, g = {g[cell[i]]:g})"
        )
    order = np.lexsort((T, cell))
    return cell[order], T[order], omega[order], speed[order], residual[order]


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
    _, T, omega, speed, residual = _axis_crossings(p, inv, [p.alpha], [p.g])
    if not T.size:
        a, _, _, e = _loop_coefficients(p, inv, np.float64(p.alpha), np.float64(p.g))
        trace = float(a + e)
        raise NoHopf(
            f"no positive critical delay for m = {p.m}: a + e = {trace:.4g}, equilibrium"
            f" {'unstable' if trace >= 0.0 else 'stable'} for every delay"
        )
    return _as_points("T", T, omega, speed, residual)


#: the critical delays of any kernel order: :func:`hopf_in_T` is the one route
critical_delays = hopf_in_T


def _param_crossings(p, inv, name, grid, tol):
    """Hopf points in the parameter ``name`` ("g" or "alpha") at fixed T,
    found on the imaginary axis between neighbouring points of the
    increasing ``grid`` and located to ``tol``.

    With r = m/T the modulus condition in u = omega^2,
    F(u) = ln(u + a^2) + ln(u + e^2) + m ln(1 + u/r^2) - ln(bc^2) = 0,
    has one root where bc^2 > a^2 e^2 and none elsewhere.  F increases,
    is convex in ln u and is >= 0 at omega_max^2, so Newton steps in ln u
    from there fall monotonically onto the root; a point stops once its
    residual is no longer positive.  The point is labelled
    floor(G / 2 pi) from the phase G at that omega (-inf without a root,
    or where omega is not finite and positive, as when u underflows).

    Neighbouring grid points whose labels differ bracket a crossing when
    the lower one has a pair on the axis and the upper one's phase is off
    its label.  Where no pair sits on the axis the phase is taken at
    omega = 0, its limit where the pair leaves the axis, so an interval
    that only runs off the axis brackets nothing.  Every bracket is solved
    at once by Newton steps in (omega, x) from the secant point of
    G / 2 pi - level (level being the integer the phase crosses), and the
    root kept where its residual is below NEWTON_TOL and it lies strictly
    inside the bracket.  The Illinois regula falsi (Dowell & Jarratt,
    BIT 11, 1971) narrows every other bracket to ``tol`` on G / 2 pi - level: each step
    evaluates the phase at the secant point, kept tol/2 inside the
    bracket, and bisects instead where that point is not finite or after
    three steps in a row that did not halve the bracket; no bracket takes
    more steps than bisection would on the widest one.  A bracket without
    a phase at its upper end (no positive equilibrium there) is bisected
    alongside the others; one that ends off the axis is dropped.  Its root
    is the secant point of the final bracket.  The reported value is the
    midpoint on which bisecting the grid interval to ``tol`` by the labels
    lands: :func:`_refine` replays that bisection against the roots, with
    no phase evaluation.  Raises DegenerateTransversality when a crossing
    has Re dlambda/dx ~ 0.
    """
    if p.T <= 0.0:
        raise DelayNonPositive(f"chain reduction needs T > 0, got T={p.T:g}")
    m, r = p.m, p.m / p.T

    def gains(x):
        """a, e and bc at every point of x, and their derivatives a', e'
        and (bc)'/bc in the parameter ``name``."""
        q = {"g": p.g, "alpha": p.alpha, name: x}
        alpha, g = (np.broadcast_to(q[key], x.shape) for key in ("alpha", "g"))
        a, b, c, e = _loop_coefficients(p, inv, alpha, g)
        if name == "alpha":
            return a, e, b * c, (a + g) / alpha, 0.0, 1.0 / alpha
        # dx*/dg = 1/Iy*, so dIy*/dg = a v (1 - 2 s), s = (g + delta - c)/d the logistic at x*
        diy = inv.a * inv.v * (1.0 - 2.0 * (g + p.delta - inv.c) / inv.d)
        return a, e, b * c, alpha * diy - 1.0, -1.0 + e / c * diy, diy * (b + alpha * e) / (b * c)

    def axis(a, e, bc):
        """omega from the modulus condition; NaN where no pair sits on the axis."""
        a2, e2, bc2 = a * a, e * e, bc * bc
        a2, e2, bc2 = (np.where(bc2 > a2 * e2, v, np.nan) for v in (a2, e2, bc2))
        w = np.log(2.0 * (bc2 - a2 * e2) / (a2 + e2 + np.sqrt((a2 - e2) ** 2 + 4.0 * bc2)))
        log_bc2 = np.log(bc2)
        for _ in range(60):
            u = np.exp(w)
            f = np.log(u + a2) + np.log(u + e2) + m * np.log1p(u / (r * r)) - log_bc2
            step = w - f / (u / (u + a2) + u / (u + e2) + m * u / (u + r * r))
            down = (f > 0.0) & (step < w)
            if not down.any():
                break
            w = np.where(down, step, w)
        omega = np.exp(0.5 * w)
        return np.where((omega > 0.0) & (omega < np.inf), omega, np.nan)

    def turns(x):
        """G / 2 pi at every point of x, where a pair sits on the axis, and
        omega; elsewhere omega is 0, where G has its limit as the pair
        leaves the axis (NaN without a positive equilibrium)."""
        a, e, bc = gains(x)[:3]
        omega = axis(a, e, bc)
        on_axis = ~np.isnan(omega)
        omega = np.where(on_axis, omega, 0.0)
        return _phase(omega, a, e, bc, m, omega / r) / (2.0 * math.pi), on_axis, omega

    with np.errstate(all="ignore"):
        t, on_axis, om = turns(grid)
        labels = np.where(on_axis, np.floor(t), -np.inf)
        j = np.nonzero(labels[:-1] != labels[1:])[0]
        # a crossing needs a pair on the axis at the lower end and a phase
        # off that end's label at the upper end
        ok = np.isfinite(labels[j]) & (np.floor(t[j + 1]) != labels[j])
        k = j[ok]
        want, lo, hi, t_lo, t_hi = labels[k], grid[k], grid[k + 1], t[k], t[k + 1]
        on_hi = on_axis[k + 1]
        # Newton from the secant point of G / 2 pi - level, where the phase
        # crosses level = want + 1 going up and want going down
        level = want + (np.floor(t_hi) > want)
        f_lo, f_hi = t_lo - level, t_hi - level
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        omega = om[k] + (x - lo) / (hi - lo) * (om[k + 1] - om[k])
        omega, root, res = _newton(omega, x, m, lambda x: (r, *gains(x), 0.0))
        settled = (res < NEWTON_TOL) & (lo < root) & (root < hi) & (omega > 0.0) & (omega < np.inf)

        # the other brackets by regula falsi, in at most the steps bisection
        # takes on the widest bracket, which also ends a bracket that floats
        # too coarse for ``tol`` cannot narrow
        steps = math.floor(np.max(np.log2((hi - lo) / tol), initial=-1.0)) + 1
        fb = ~settled
        want, lo, hi, t_lo, t_hi, on_hi = (v[fb] for v in (want, lo, hi, t_lo, t_hi, on_hi))
        # Illinois weights on the end values, the end the last step replaced
        # (-1 lo, +1 hi) and the steps in a row that did not halve the bracket
        w_lo, w_hi, moved, slow = np.ones(lo.shape), np.ones(lo.shape), np.zeros(lo.shape), 0
        for n in range(steps + 1):
            level = want + (np.floor(t_hi) > want)
            f_lo, f_hi = t_lo - level, t_hi - level
            wide = hi - lo > tol
            # a bracket without a phase at its upper end is bisected alongside
            # the others until it has one
            if n == steps or not (wide & ~np.isnan(t_hi)).any():
                break
            x = hi - w_hi * f_hi * (hi - lo) / (w_hi * f_hi - w_lo * f_lo)
            bisect = ~np.isfinite(x) | (slow >= 3)
            x = np.where(bisect, 0.5 * (lo + hi), np.clip(x, lo + 0.5 * tol, hi - 0.5 * tol))
            t_x, on_x, _ = turns(x)
            # x replaces the lower end where it has that end's label, as in bisection
            low = wide & on_x & (np.floor(t_x) == want)
            high = wide & ~low
            halved = bisect | (np.where(low, hi - x, x - lo) <= 0.5 * (hi - lo))
            slow = np.where(halved, 0, slow + 1)
            # an end that a second step in a row keeps has its weight halved
            w_lo = np.where(low, 1.0, np.where(high & (moved > 0.0), 0.5 * w_lo, w_lo))
            w_hi = np.where(high, 1.0, np.where(low & (moved < 0.0), 0.5 * w_hi, w_hi))
            lo, t_lo = np.where(low, x, lo), np.where(low, t_x, t_lo)
            hi, t_hi = np.where(high, x, hi), np.where(high, t_x, t_hi)
            on_hi = np.where(high, on_x, on_hi)
            moved = np.where(low, -1.0, 1.0)
        # a bracket that ends where no pair sits on the axis is not a crossing;
        # the root is the secant point of each final bracket, the lower end of
        # a dropped one
        root[fb] = np.where(on_hi, hi - f_hi * (hi - lo) / (f_hi - f_lo), lo)
        settled[fb] = on_hi
        roots = grid[j].copy()
        roots[ok] = root
        ok[ok] = settled

        # bisect every bracket again, against the roots: the dropped ones
        # too, since the widest bracket sets the number of halvings
        changes = np.zeros(grid.size)
        changes[j + 1] = 1.0
        _, lo, hi = _refine(lambda x: np.searchsorted(roots, x), grid, np.cumsum(changes), tol)
        x = 0.5 * (lo + hi)[ok]
        a, e, bc, da, de, dbc = gains(x)
        omega = axis(a, e, bc)
        speed, flat, residual = _crossing_speed(omega, m, r, a, e, bc, da, de, dbc, 0.0)
    found = np.isfinite(omega)
    x, omega, speed, flat, residual = (v[found] for v in (x, omega, speed, flat, residual))
    if flat.any():
        raise DegenerateTransversality(
            f"crossing speed vanishes at {name} = {x[np.argmax(flat)]:g}")
    return _as_points(name, x, omega, speed, residual)


def hopf_in_alpha(p, inv, m=None, alpha_range=(0.05, 2.0)):
    """Hopf crossings as the adjustment speed alpha varies at fixed T, g.

    :func:`_param_crossings` scans an ALPHA_GRID-point geometric alpha grid
    on the imaginary axis, solves every bracket by Newton's method (regula
    falsi where Newton does not settle) and reports the point that
    bisection to 1e-12 lands on; the ``transversality`` of each point is
    Re dlambda/dalpha.  Raises NoHopf when there is no crossing.
    """
    if m is not None:
        p = p.replace(m=m)
    lo, hi = alpha_range
    if not (0.0 < lo < hi):
        raise ValueError("alpha_range must satisfy 0 < lo < hi")
    points = _param_crossings(p, inv, "alpha", np.geomspace(lo, hi, ALPHA_GRID), 1e-12)
    if not points:
        raise NoHopf(f"no Hopf crossing in alpha over {alpha_range}")
    return points


def _growth_hopf(p, inv, n_grid):
    """(grid, points, g1_hopf, g2_hopf): the ``n_grid`` interior points of
    a uniform grid over (g_min, g_max), the Hopf points in g located to
    1e-11 by :func:`_param_crossings` on it, the first destabilizing and
    the last stabilizing one."""
    gs = np.linspace(*growth_interval(inv, p.delta), n_grid + 2)[1:-1]
    points = _param_crossings(p, inv, "g", gs, 1e-11)
    ups = [h.value for h in points if h.crossing == "destabilizing"]
    downs = [h.value for h in points if h.crossing == "stabilizing"]
    return gs, points, (ups[0] if ups else None), (downs[-1] if downs else None)


# ---------------------------------------------------------------------------
# growth-rate interval structure


def hopf_in_g(p, inv, m=None, n_grid=G_GRID):
    """Scan the admissible growth interval and report its eigenvalue
    structure.

    The Hopf points (``transversality`` Re dlambda/dg), g1_hopf and
    g2_hopf are found on the imaginary axis by :func:`_growth_hopf`.
    :func:`_scan` labels the same ``n_grid`` points from their eigenvalues
    and bisects every label change to 1e-11 in g: the equilibrium leaving
    the positive quadrant, the complex pair appearing or vanishing, or the
    leading pair's real part changing sign.  These bound the ``segments``
    and give g1 and g2.  On the physical range
    ae - bc = Iy* (g x* + alpha (gamma x* - g - delta)) > 0, so no real
    eigenvalue crosses zero and every change of ``GSegment.stable`` is one
    of these label changes.
    """
    if m is not None:
        p = p.replace(m=m)
    g_lo, g_hi = growth_interval(inv, p.delta)
    gs, hopf_points, g1_hopf, g2_hopf = _growth_hopf(p, inv, n_grid)
    bounds, before, after = _scan(p, inv, "g", gs, 1e-11)
    appears = bounds[(before == 1) & (after >= 2)].tolist()
    vanishes = bounds[(before >= 2) & (after == 1)].tolist()
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
    return GIntervalReport(
        g_min=g_lo,
        g_max=g_hi,
        g1=g1,
        g1_hopf=g1_hopf,
        g2_hopf=g2_hopf,
        g2=g2,
        segments=segments,
        hopf_points=tuple(hopf_points),
    )
