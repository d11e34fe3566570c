"""Hopf bifurcation location in the delay T, the growth rate g and the
adjustment speed alpha.

Every kernel order shares one characteristic equation,
(lambda - a)(lambda - e)(lambda + m/T)^m = bc (m/T)^m, and every Hopf
point is found on the imaginary axis, with no eigenvalues.  In T the
modulus gives T as an explicit function of the frequency omega and the
phase gives the crossings as roots in omega, with no cap on T; one call of
:func:`hopf_in_T`'s solver takes a whole batch of (alpha, g) cells, as the
sweeps do.  In g and alpha at fixed T the modulus gives omega at every
grid point, and the number of roots in the right half-plane there labels
it (:func:`_axis_count`); the gains do not depend on m, so the orders of a
table share them, one labelling and one solve of all their brackets.  In
T the omega grid is labelled by the same count.  One solver
(:func:`_solve`) takes the brackets of every route: Newton's method on
the characteristic equation, with the chain factor (1 + i s)^m taken
from s = omega T / m, from the secant point of the phase, keeps the root
where it satisfies the equation inside the bracket, and :func:`_refine`
bisects the other brackets by the count: in T until the ends are
adjacent floats, in g and alpha to the tolerance, and those two report
the point on which bisecting the grid interval lands, replayed
elementwise against each root.  Every route takes the direction from the
analytic Re dlambda/d(parameter) and reports the residual of the
characteristic equation.  The closed forms for m = 1 (a quadratic in T)
and m = 2 (the quartic of :func:`chaintrick.char_poly.phi_quartic`) are
kept as independent references; they alone use char_poly and import it
when called.

:func:`hopf_in_g`'s growth-rate structure counts the roots from the same
equation, at any delay and with no crossing located: the real roots from
the sign changes of one real function (:func:`_real_roots`), and those in
the right half-plane from the phase at the delay (:func:`_unstable_roots`,
the count that labels the g and alpha scans); :func:`_root_signature`
combines the two, for it and for the stability verdict of the CLI.
Eigenvalues serve only :func:`equilibrium_eigenvalues`.
"""

import math

import numpy as np

from .errors import (
    DegenerateTransversality, DelayNonPositive, InaccurateRoot, NoHopf, NoStableRegime,
)
from .model_core import Record, equilibrium, growth_interval, investment_derivs, solve_x_star

#: eigenvalues with |Im| below this (times 1 + |lambda|) count as real
IMAG_TOL = 1e-9

#: a crossing speed smaller than this is refused as degenerate
TRANSVERSALITY_TOL = 1e-10

#: points of the omega grid on which :func:`hopf_in_T` scans the phase
N_GRID = 256
#: grid intervals labelled and solved at a time when only each cell's first
#: crossing is wanted
SCAN_BLOCK = 32

#: Newton steps on the characteristic equation from the secant point of
#: every grid bracket, and the relative residual |f| below which the root
#: they reach is accepted
NEWTON_STEPS = 4
NEWTON_TOL = 1e-12

#: a critical delay whose relative residual exceeds this is refused
RESIDUAL_TOL = 1e-10

#: the relative distance in T within which a crossing makes the stability
#: verdict at T marginal: the count N differs at T (1 - tol) and T (1 + tol)
MARGINAL_RTOL = 1e-8

#: points of the geometric alpha grid scanned by :func:`hopf_in_alpha`
ALPHA_GRID = 512
#: interior points of the g grid of :func:`hopf_in_g` and of the table
G_GRID = 2048


class HopfPoint(Record):
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
    and alpha.  The four numbers are stored as Python floats.
    """

    def __init__(self, parameter, value, omega, crossing, transversality, residual):
        value, omega = float(value), float(omega)
        transversality, residual = float(transversality), float(residual)
        self._keep(locals())


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


class GSegment(Record):
    """Root signature of one subinterval of the growth-rate scan, at its midpoint."""

    def __init__(self, lo, hi, physical, n_real_neg=0, n_real_pos=0, pair_real_sign=0,
                 has_pair=False):
        self._keep(locals())

    @property
    def stable(self):
        """Whether every eigenvalue has a negative real part; None where
        the equilibrium is not positive."""
        if not self.physical:
            return None
        return self.n_real_pos == 0 and (not self.has_pair or self.pair_real_sign < 0)


class GIntervalReport(Record):
    """Structure of the admissible growth-rate interval (g_min, g_max).

    ``g1``/``g2`` are the real-to-complex transition points bracketing the
    complex-pair window (absent when the window extends to the physical
    boundary); ``g1_hopf``/``g2_hopf`` are the stability crossings where
    the limit cycle is born and destroyed.  ``segments`` classify every
    subinterval between consecutive boundaries; ``hopf_points`` carry the
    crossing frequency and direction for each Hopf boundary.  A named
    point is a float or None.
    """

    def __init__(self, g_min, g_max, g1, g1_hopf, g2_hopf, g2, segments, hopf_points):
        self._keep(locals())

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
    bring each below its ``tol`` (a scalar, or one value per grid point; 0
    for adjacent floats).  ``label(x, *r)`` labels an array of points in
    one batched evaluation, where ``r`` holds each of ``rows`` (one value
    per grid row) taken at every point's row.  Returns the index of each
    bracket's lower end, one array per axis, then the final (lo, hi).
    """
    idx = np.nonzero(labels[..., :-1] != labels[..., 1:])
    lo, hi, want = grid[idx], grid[idx[:-1] + (idx[-1] + 1,)], labels[idx]
    tol = tol[idx] if np.ndim(tol) else tol
    rows = [r[idx[:-1]] for r in rows]
    steps, k = np.max(np.log2(np.abs(hi - lo) / tol), initial=-1.0), 0
    # past adjacent floats a halving changes no bracket's midpoint
    while k <= steps and np.any((lo < 0.5 * (lo + hi)) & (0.5 * (lo + hi) < hi)):
        mid = 0.5 * (lo + hi)
        same = label(mid, *rows) == want
        lo, hi, k = np.where(same, mid, lo), np.where(same, hi, mid), k + 1
    return *idx, lo, hi


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
    from . import char_poly

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
    from . import char_poly

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
    from . import char_poly

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


def _omega_max_sq(a, e, bc):
    """omega_max^2, where |Q(i omega)| = |bc| and T -> 0: the positive root
    u of (u + a^2)(u + e^2) = bc^2.  NaN where no pair can sit on the
    imaginary axis, bc^2 <= a^2 e^2."""
    excess = bc * bc - a * a * e * e
    excess = np.where(excess > 0.0, excess, np.nan)
    return 2.0 * excess / (a * a + e * e + np.sqrt((a * a - e * e) ** 2 + 4.0 * bc * bc))


def _axis_omega(m, r, a, e, bc):
    """omega at r = m/T from the modulus condition; NaN where no pair sits
    on the axis, or where omega is not finite and positive, as when
    u = omega^2 underflows.

    In u the modulus condition reads
    F(u) = ln(u + a^2) + ln(u + e^2) + m ln(1 + u/r^2) - ln(bc^2) = 0 and
    has one root where bc^2 > a^2 e^2 and none elsewhere.  F increases, is
    convex in ln u and is >= 0 at omega_max^2, so Newton steps in ln u from
    there fall monotonically onto the root; a point stops once its
    residual is no longer positive.  The result has the shape of all five
    arguments broadcast together."""
    w = np.broadcast_to(np.log(_omega_max_sq(a, e, bc)), np.broadcast(m, r, a, e, bc).shape)
    a2, e2, log_bc2, r2 = a * a, e * e, np.log(bc * bc), r * r
    for _ in range(60):
        u = np.exp(w)
        ua, ue = u + a2, u + e2
        f = np.log(ua) + np.log(ue) + m * np.log1p(u / r2) - log_bc2
        step = w - f / (u / ua + u / ue + m * u / (u + r2))
        down = (f > 0.0) & (step < w)
        if not down.any():
            break
        w = np.where(down, step, w)
    omega = np.exp(0.5 * w)
    return np.where((omega > 0.0) & (omega < np.inf), omega, np.nan)


def _axis_count(m, r, a, e, bc):
    """G(omega_T) / 2 pi, omega_T and N, the number of roots in the right
    half-plane, at r = m/T from the gains a, e and bc, all broadcast
    together; m and r may hold one row per kernel order, since the gains
    do not depend on it.

    omega_T comes from the modulus condition (:func:`_axis_omega`).  Where
    no pair sits on the axis, (bc)^2 <= (ae)^2, and where omega_T^2
    underflows, omega_T is its limit 0 and s = omega_T T / m that of the
    modulus condition at omega = 0 (0 off the axis).  N is 2 [a + e > 0]
    as T -> 0, where ae - bc > 0 and no real root passes 0; where a pair
    can sit on the axis it changes by 2 at each crossing below T, where G
    passes a multiple of 2 pi, upwards at a destabilizing crossing and
    downwards at a stabilizing one.  So N adds
    2 (floor(G(omega_T) / 2 pi) - floor(G(omega_max) / 2 pi)), omega_max
    being omega_T as T -> 0.  There s = 0 and
    G(omega_max) = arg Q(i omega_max) - arg(bc) lies in (-pi, 2 pi), below
    0 exactly where bc < 0 and Im Q(i omega_max) = -omega_max (a + e) > 0,
    so floor(G(omega_max) / 2 pi) is -[bc < 0 and a + e < 0].  Because
    ae - bc > 0 wherever the equilibrium is positive, N changes with T or
    with a gain at the crossings alone.  N is -1 where the equilibrium is
    not positive."""
    omega = _axis_omega(m, r, a, e, bc)
    under = np.isnan(omega)
    omega, s = np.where(under, 0.0, omega), np.where(under, _chain_ratio(0.0, a, e, bc, m), omega / r)
    t = _phase(omega, a, e, bc, m, s) / (2.0 * math.pi)
    n = np.where(np.isnan(_omega_max_sq(a, e, bc)), 2 * (a + e > 0.0), _count(t, a, e, bc))
    return t, omega, np.where(np.isnan(e), -1, n)


def _count(t, a, e, bc):
    """N where a pair can sit on the axis and G / 2 pi = t at the delay,
    2 [a + e > 0] + 2 (floor(t) + [bc < 0 and a + e < 0]) (:func:`_axis_count`)."""
    return 2 * (np.floor(t) + ((bc < 0.0) & (a + e < 0.0)) + (a + e > 0.0)).astype(int)


def _newton_step(omega, m, r, a, e, bc, da, de, dbc, dlnr):
    """One Newton step in the real unknowns (omega, x) on the characteristic
    equation f = Q(i omega)(1 + i omega/r)^m / bc - 1 = 0, where x is the
    parameter whose derivatives a', e', (bc)'/bc and (ln r)' are given.
    The partials are (f + 1) F_lambda and (f + 1) F_x, with
    F_lambda = 1/(lambda - a) + 1/(lambda - e) + m/(lambda + r) and
    F_x = -[a'/(lambda - a) + e'/(lambda - e) + (bc)'/bc
    + m lambda (ln r)'/(lambda + r)].  Returns f, the step (d omega, d x)
    and the slope dlambda/dx = -F_x / F_lambda."""
    lam, s = 1j * omega, omega / r
    la, le, lr = lam - a, lam - e, lam + r
    # (1 + i s)^m from s itself: raising a rounded 1 + i s to the power m
    # multiplies its rounding error by m
    f1 = la * le * np.exp(m * (0.5 * np.log1p(s * s) + 1j * np.arctan(s))) / bc
    F_lam = 1.0 / la + 1.0 / le + m / lr
    slope = (da / la + de / le + dbc + m * lam * dlnr / lr) / F_lam
    # f_omega = i f_lambda, so i d_omega - slope d_x = -f / f_lambda = -rho,
    # whose real and imaginary parts give d_x and then d_omega
    rho = (1.0 - 1.0 / f1) / F_lam
    d_x = rho.real / slope.real
    return f1 - 1.0, slope.imag * d_x - rho.imag, d_x, slope


def _newton(omega, x, partials):
    """NEWTON_STEPS + 1 steps of :func:`_newton_step` from (omega, x), where
    ``partials(x)`` gives its m, r, a, e, bc and derivatives at x; returns
    the final (omega, x) and the relative residual |f| from which the last
    step was taken."""
    for _ in range(NEWTON_STEPS + 1):
        f, d_om, d_x, _ = _newton_step(omega, *partials(x))
        omega, x = omega + d_om, x + d_x
    return omega, x, np.abs(f)


def _solve(name, partials, rows, x, omega, ends, counts, halvings):
    """Hopf points in the parameter ``name`` ("T", "g" or "alpha"), one per
    bracket ``ends`` (k, 2) over which N, the number of roots in the right
    half-plane, changes from ``counts[:, 0]`` to ``counts[:, 1]``;
    ``partials(x, *rows)`` gives the arguments of :func:`_newton_step`
    after omega at x, ``rows`` holding one value per bracket.

    Newton's method from (omega, x) settles a bracket where the residual is
    below NEWTON_TOL, the root lies strictly inside and omega is finite and
    positive.  :func:`_refine` bisects the others by N, an upper end at
    T = inf first taking the lower end, doubled until N there differs; the
    midpoint is kept where the upper end has a positive equilibrium.
    Without ``halvings`` (T) it ends at adjacent floats, so no point depends
    on the brackets beside it; with ``halvings`` (g and alpha) it is as deep
    as the largest, and each value is where that many halvings of its
    bracket land, replayed against the root.  Omega is Newton's, or the
    modulus condition's at a bisected or replayed value.  Returns each
    point's bracket index, value, omega, Re dlambda/dx and residual |f|;
    raises DegenerateTransversality where Re dlambda/dx ~ 0.
    """
    omega, x, res = _newton(omega, x, lambda x: partials(x, *rows))
    keep = (res < NEWTON_TOL) & (ends[:, 0] < x) & (x < ends[:, 1]) & (omega > 0.0) & (omega < np.inf)
    fb = np.nonzero(~keep)[0]
    if fb.size:
        label = lambda x, *r: _axis_count(*partials(x, *r)[:5])[2]
        y, n, sub = ends[fb], counts[fb], [v[fb] for v in rows]
        # an upper end at T = inf: double the lower end until N there differs
        up = np.nonzero(np.isinf(y[:, 1]))[0]
        while up.size:
            top = 2.0 * y[up, 0]
            same = label(top, *(v[up] for v in sub)) == n[up, 0]
            y[up, 1 - same] = top
            up = up[same & (0.0 < top) & (top < np.inf)]
        tol = 0.0 if halvings is None else (ends[fb, 1:] - ends[fb, :1]) * 2.0 ** (0.5 - halvings[fb, None])
        i, _, lo, hi = _refine(label, y, n, tol, *sub)
        fb = fb[i]
        x[fb], keep[fb] = 0.5 * (lo + hi), ~np.isnan(partials(hi, *(v[fb] for v in rows))[3])
    if halvings is not None:
        # bisect each kept bracket again, against its root, in Python floats
        fb, replayed = np.nonzero(keep)[0], []
        for lo, hi, root, steps in zip(*(v[fb].tolist() for v in (ends[:, 0], ends[:, 1], x, halvings))):
            for _ in range(steps):
                mid = 0.5 * (lo + hi)
                lo, hi = (lo, mid) if root < mid else (mid, hi)
            replayed.append(0.5 * (lo + hi))
        x[fb] = replayed
    fb, at_x = fb[keep[fb]], partials(x, *rows)
    if fb.size:
        omega[fb] = _axis_omega(*(v[fb] if isinstance(v, np.ndarray) else v for v in at_x[:5]))
    kept = np.nonzero(keep & np.isfinite(omega))[0]
    x, omega = x[kept], omega[kept]
    f, _, _, slope = _newton_step(omega, *(v[kept] if isinstance(v, np.ndarray) else v for v in at_x))
    flat = np.abs(slope.real) <= TRANSVERSALITY_TOL * np.abs(slope)
    if flat.any():
        raise DegenerateTransversality(f"crossing speed vanishes at {name} = {x[np.argmax(flat)]:g}")
    return kept, x, omega, slope.real, np.abs(f)


def _axis_crossings(p, inv, alpha, g, first=False):
    """Every critical delay of every cell (alpha[i], g[i]) at kernel order
    p.m, located on the imaginary axis in one batched computation.

    With lambda = i omega, Q(lambda) = (lambda - a)(lambda - e) and
    s = omega T / m, the characteristic equation splits into a modulus
    condition that gives T explicitly,
    T(omega) = (m/omega) sqrt((|bc| / |Q(i omega)|)^(2/m) - 1), valid on
    (0, omega_max] where |Q(i omega_max)| = |bc|, and a phase condition
    G(omega) = arg Q(i omega) + m atan(s) - arg(bc) = 2 pi k.  Each cell
    scans G on its own N_GRID-point omega grid (dense near omega_max,
    where T vanishes, and reaching omega = 0, where T is unbounded), and
    labels each point by N, the number of roots in the right half-plane at
    T(omega) (:func:`_count`).  Every bracket where N changes, over all
    cells, goes to :func:`_solve` at once: Newton steps in (omega, T) from
    the secant point of the phase, else bisection by N in T; the last
    interval (omega = 0, T = inf) first doubles its lower end until N there
    changes.  Re dlambda/dT takes a, e and bc fixed, (ln r)' = -1/T.

    The grid is scanned from omega_max down in blocks of intervals, each
    block labelled and its brackets solved before the next; a block starts
    at the last point of the one before, whose labels it carries over.
    Without ``first`` one block covers the whole grid.  With ``first`` a
    block holds SCAN_BLOCK intervals, and a cell leaves the scan at its
    first crossing.  A cell's brackets run down in omega, so up in T, and
    every bracket is labelled and solved with elementwise arithmetic on
    its own cell and grid interval, so the crossing a cell leaves with is,
    bit for bit, the first of a scan of the whole grid.

    Returns (cell, T, omega, speed, residual), one entry per crossing,
    ordered by cell and then by T; with ``first`` only the smallest T of
    each cell.  Cells without a positive equilibrium or with |bc| <= |ae|
    have no entry.
    Raises InaccurateRoot where N changes by more than 2 over one grid
    interval (several crossings) or a crossing's relative residual exceeds
    RESIDUAL_TOL, and DegenerateTransversality where Re dlambda/dT ~ 0.
    """
    m = p.m
    alpha, g = np.asarray(alpha, dtype=float), np.asarray(g, dtype=float)
    a, b, c, e = _loop_coefficients(p, inv, alpha, g)
    bc = b * c
    u_max = _omega_max_sq(a, e, bc)
    cell = np.nonzero(~np.isnan(u_max))[0]
    a, e, bc, omega_max = a[cell], e[cell], bc[cell], np.sqrt(u_max[cell])
    # arg(i omega - a) has no limit at omega = 0 when ae = 0: no bracket there;
    # N is 2 floor(G / 2 pi) plus a constant of the cell (:func:`_count`)
    no_limit, base = a * e == 0.0, _count(0.0, a, e, bc)

    # every cell scans omega = omega_max w on one grid of w running from 1
    # (T = 0) down to 0 (T unbounded); the quadratic spacing resolves the
    # square-root behaviour of T at omega_max
    v = np.linspace(0.0, 1.0, N_GRID)
    w = 1.0 - v * v
    step = SCAN_BLOCK if first else N_GRID - 1
    # the crossings kept, block by block, after an empty entry that gives each its type
    found = [(cell[:0],) + (omega_max[:0],) * 4]
    edge = None  # the labels of the block's first grid point, from the block before
    for start in range(0, N_GRID - 1, step):
        if not cell.size:
            break
        stop = min(start + step, N_GRID - 1)
        fresh = 0 if edge is None else 1
        labels = np.empty((cell.size, stop + 1 - start), dtype=np.int32)
        if fresh:
            labels[:, 0] = edge
        # the block is labelled 64 cells at a time, which bounds the
        # temporaries of the phase however many cells there are; at
        # omega = 0 a cell with ae = 0 has Q = 0, and s and its atan are inf
        # and pi/2
        with np.errstate(divide="ignore"):
            for r in range(0, cell.size, 64):
                coeffs = [x[r:r + 64, None] for x in (omega_max, a, e, bc, base)]
                t = _phase(coeffs[0] * w[start + fresh:stop + 1], *coeffs[1:4], m) / (2.0 * math.pi)
                labels[r:r + 64, fresh:] = 2 * np.floor(t) + coeffs[4]
        if stop == N_GRID - 1:
            labels[no_limit, -1] = labels[no_limit, -2]
        edge = labels[:, -1]
        row, j = np.nonzero(labels[:, :-1] != labels[:, 1:])
        if not row.size:
            continue
        # each bracket's ends in w (decreasing: T increases), counts and cell's gains
        counts = np.stack([labels[row, j], labels[row, j + 1]], axis=-1)
        j += start
        ends, om_max, a_j, e_j, bc_j = np.stack([w[j], w[j + 1]]), omega_max[row], a[row], e[row], bc[row]

        with np.errstate(all="ignore"):
            # Newton from the secant point of G / 2 pi - its larger floor at the ends
            s = _chain_ratio(om_max * ends, a_j, e_j, bc_j, m)
            t = _phase(om_max * ends, a_j, e_j, bc_j, m, s) / (2.0 * math.pi)
            f_0, f_1 = t - np.floor(t).max(axis=0)
            omega = om_max * (ends[1] - f_1 * (ends[1] - ends[0]) / (f_1 - f_0))
            T, T_ends = m * _chain_ratio(omega, a_j, e_j, bc_j, m) / omega, (m * s / (om_max * ends)).T
            jump = np.abs(counts[:, 1] - counts[:, 0])
            if (jump > 2).any():
                i = np.argmax(jump > 2)
                raise InaccurateRoot(
                    f"the number of roots in the right half-plane changes by {jump[i]} between"
                    f" T = {T_ends[i, 0]:g} and {T_ends[i, 1]:g}: several crossings in one grid"
                    f" interval (alpha = {alpha[cell[row[i]]]:g}, g = {g[cell[row[i]]]:g})")
            kept, T, omega, speed, residual = _solve(
                "T", lambda T, *gains: (m, m / T, *gains, 0.0, 0.0, 0.0, -1.0 / T),
                (a_j, e_j, bc_j), T, omega, T_ends, counts, None)
        if first:
            # a cell's brackets run down in omega, so up in T: keep its first
            head = np.unique(row[kept], return_index=True)[1]
            kept, T, omega, speed, residual = (v[head] for v in (kept, T, omega, speed, residual))
        found.append((cell[row[kept]], T, omega, speed, residual))
        # a cell with a crossing leaves the scan
        stays = np.ones(cell.size, dtype=bool)
        stays[row[kept]] = False
        cell, omega_max, a, e, bc, no_limit, edge, base = (
            x[stays] for x in (cell, omega_max, a, e, bc, no_limit, edge, base))

    cell, T, omega, speed, residual = (np.concatenate(x) for x in zip(*found))
    order = np.lexsort((T, cell))
    cell, T, omega, speed, residual = (x[order] for x in (cell, T, omega, speed, residual))
    bad = ~(residual <= RESIDUAL_TOL)
    if bad.any():
        i = np.argmax(bad)
        raise InaccurateRoot(
            f"relative residual {residual[i]:.2g} of the characteristic equation at"
            f" T* = {T[i]:g} exceeds {RESIDUAL_TOL:g}"
            f" (alpha = {alpha[cell[i]]:g}, g = {g[cell[i]]:g})"
        )
    return cell, T, omega, speed, residual


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


def _param_crossings(p, inv, name, grid, tol, orders=None):
    """Hopf points in the parameter ``name`` ("g" or "alpha") at fixed T,
    found on the imaginary axis between neighbouring points of the
    increasing ``grid`` and located to ``tol``: those of p.m, or with
    ``orders`` one list per kernel order in it, all from one solve.  The
    gains a, e and bc do not depend on m, so every order shares them.

    Every grid point is labelled by N, the number of roots in the right
    half-plane, with the phase G at omega_T: one call of
    :func:`_axis_count` labels all orders.  Within a run of positive
    equilibria N changes at the crossings alone, so a change of N between
    neighbouring grid points brackets a crossing where the lower point has
    a positive equilibrium and, if the upper point has none, a pair on the
    axis.
    The brackets of all orders, each with its own m and r, go to
    :func:`_solve` at once: Newton steps in (omega, x) from the secant
    point of G / 2 pi - level (level being the integer the phase crosses),
    and bisection by N where Newton does not settle, as often as bisecting
    the widest change of N of its order to ``tol`` takes; a bisected
    bracket that ends beyond the positive equilibria keeps a crossing below
    that edge.  The reported value is the midpoint on which bisecting the
    grid interval to ``tol`` by N lands, replayed against the root, so no
    point depends, bit for bit, on the orders solved beside it.  Raises
    DegenerateTransversality when a crossing has Re dlambda/dx ~ 0.
    """
    ms = [p.replace(m=m).m for m in ([p.m] if orders is None else orders)]
    if not ms:
        return []
    if p.T <= 0.0:
        raise DelayNonPositive(f"chain reduction needs T > 0, got T={p.T:g}")

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

    with np.errstate(all="ignore"):
        at_grid, parts = gains(grid), []
        m_col = np.array(ms)[:, None]
        turns, oms, counts = _axis_count(m_col, m_col / p.T, *at_grid[:3])
        for i, m in enumerate(ms):
            t, om, n = turns[i], oms[i], counts[i]
            j = np.nonzero(n[:-1] != n[1:])[0]
            # a crossing needs a positive equilibrium at the lower end, and a
            # pair on the axis there where the upper end has none
            k = j[(n[j] >= 0) & ((n[j + 1] >= 0) | (om[j] > 0.0))]
            lo, hi, t_lo, t_hi = grid[k], grid[k + 1], t[k], t[k + 1]
            # Newton from the secant point of G / 2 pi - level, where the phase
            # crosses level = floor(t_lo) + 1 going up and floor(t_lo) going down
            level = np.floor(t_lo) + (np.floor(t_hi) > np.floor(t_lo))
            f_lo, f_hi = t_lo - level, t_hi - level
            x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
            omega = om[k] + (x - lo) / (hi - lo) * (om[k + 1] - om[k])
            # the halvings that bring the widest count change to ``tol``
            halvings = max(math.floor(np.max(np.log2(np.diff(grid)[j] / tol), initial=-1.0)) + 1, 0)
            parts.append((*(np.full(k.size, v) for v in (i, m, m / p.T, halvings)),
                          k, np.stack([n[k], n[k + 1]], axis=-1), x, omega))
        owner, m, r, halvings, k, counts, x, omega = map(np.concatenate, zip(*parts))
        kept, x, omega, speed, residual = _solve(name, lambda x, *mr: (*mr, *gains(x), 0.0), (m, r), x, omega,
                                                  np.stack([grid[k], grid[k + 1]], -1), counts, halvings)
    owner = owner[kept]
    points = [_as_points(name, *(v[owner == i] for v in (x, omega, speed, residual))) for i in range(len(ms))]
    return points[0] if orders is None else points


def hopf_in_alpha(p, inv, m=None, alpha_range=(0.05, 2.0)):
    """Hopf crossings as the adjustment speed alpha varies at fixed T, g.

    :func:`_param_crossings` scans an ALPHA_GRID-point geometric alpha grid
    on the imaginary axis, solves every bracket by Newton's method (label
    bisection where Newton does not settle) and reports the point that
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


def _growth_hopf(p, inv, n_grid, orders=None):
    """(grid, points, g1_hopf, g2_hopf): the ``n_grid`` interior points of
    a uniform grid over (g_min, g_max), the Hopf points in g located to
    1e-11 by :func:`_param_crossings` on it, the first destabilizing and
    the last stabilizing one; with ``orders``, (grid, rows) with one
    (points, g1_hopf, g2_hopf) per kernel order."""
    gs = np.linspace(*growth_interval(inv, p.delta), n_grid + 2)[1:-1]
    rows = [(points, next((h.value for h in points if h.crossing == "destabilizing"), None),
             next((h.value for h in reversed(points) if h.crossing == "stabilizing"), None))
            for points in _param_crossings(p, inv, "g", gs, 1e-11, [p.m] if orders is None else orders)]
    return (gs, *rows[0]) if orders is None else (gs, rows)


# ---------------------------------------------------------------------------
# growth-rate interval structure


def _real_roots(p, inv, g, gains=None):
    """The positivity mask of :func:`_loop_coefficients` at each growth
    rate of the array ``g`` (alpha, T and m of ``p``), and the numbers of
    negative and of positive real roots of h(lambda) = bc, where
    h = (lambda - a)(lambda - e)(1 + lambda/r)^m has its extrema at -r and
    the roots of (m + 2) lambda^2 + (2r - (m + 1)(a + e)) lambda
    + m ae - (a + e) r: each piece between these and 0 holds a root where
    h - bc changes sign over it, read from log |h|.  ``gains`` are the
    loop gains at ``g`` where they are already known."""
    m, r = p.m, p.m / p.T
    a, b, c, e = _loop_coefficients(p, inv, np.full(g.shape, p.alpha), g) if gains is None else gains
    with np.errstate(all="ignore"):
        qb, qc = 2.0 * r - (m + 1.0) * (a + e), m * a * e - (a + e) * r
        q = -0.5 * (qb + np.copysign(np.sqrt(qb * qb - 4.0 * (m + 2.0) * qc), qb))
        # the ends of the pieces; a quadratic without real roots puts them at 0
        ends = np.multiply.outer([-np.inf, -r, 0.0, np.inf], np.ones(g.shape))
        lam = np.sort(np.concatenate([np.nan_to_num(np.stack([q / (m + 2.0), qc / q])), ends]), axis=0)
        log_h = np.log(np.abs(lam - a)) + np.log(np.abs(lam - e)) + m * np.log(np.abs(1.0 + lam / r))
        sign_h = np.sign((lam - a) * (lam - e)) * np.where(lam < -r, (-1.0) ** m, 1.0)
        sign = np.where(log_h > np.log(np.abs(b * c)), sign_h, -np.sign(b * c))
    roots = sign[:-1] * sign[1:] < 0.0
    n_neg = np.sum(roots & (lam[1:] <= 0.0), axis=0)
    return ~np.isnan(e), n_neg, np.sum(roots, axis=0) - n_neg


def _unstable_roots(p, inv, g, gains=None):
    """N, the number of roots in the right half-plane, at each growth rate
    of the array ``g`` (alpha, T and m of ``p``): the count of
    :func:`_axis_count`, -1 where the equilibrium is not positive.  It
    changes with T at the crossings alone, which is how the CLI tells a
    marginal delay.  ``gains`` are the loop gains at ``g`` where they are
    already known."""
    a, b, c, e = _loop_coefficients(p, inv, np.full(g.shape, p.alpha), g) if gains is None else gains
    with np.errstate(all="ignore"):
        return _axis_count(p.m, p.m / p.T, a, e, b * c)[2]


def _root_signature(p, inv, g):
    """The roots at each growth rate of the array ``g`` (alpha, T and m of
    ``p``): the positivity mask and the numbers of negative and of positive
    real roots of :func:`_real_roots`, and the sign of the leading complex
    pair's real part, 0 where all m + 2 roots are real or the equilibrium is
    not positive.  The pair leans right where more roots lie in the right
    half-plane (:func:`_unstable_roots`) than positive real ones, so the
    equilibrium is stable where there is no positive real root and the
    sign is not positive."""
    gains = _loop_coefficients(p, inv, np.full(g.shape, p.alpha), g)
    ok, n_neg, n_pos = _real_roots(p, inv, g, gains)
    n = _unstable_roots(p, inv, g, gains)
    return ok, n_neg, n_pos, np.where(ok & (n_neg + n_pos < p.m + 2), np.where(n > n_pos, 1, -1), 0)


def hopf_in_g(p, inv, m=None, n_grid=G_GRID):
    """Scan the admissible growth interval and report its root structure.

    The Hopf points (``transversality`` Re dlambda/dg), g1_hopf and
    g2_hopf come from :func:`_growth_hopf`.  Its ``n_grid`` points are
    labelled from :func:`_root_signature`: 0 without a positive
    equilibrium, 1 where all m + 2 roots are real, and 2 or 3 as the
    leading pair leans left or right.  Each label change is bisected to
    1e-11, landing on a Hopf point bit for bit; they bound the
    ``segments``, whose signatures are taken at their midpoints, and give
    g1 and g2.
    """
    if m is not None:
        p = p.replace(m=m)
    gs, hopf_points, g1_hopf, g2_hopf = _growth_hopf(p, inv, n_grid)

    def label(x):
        ok, _, _, pair = _root_signature(p, inv, x)
        return np.where(ok, np.where(pair == 0, 1, 2 + (pair > 0)), 0)

    labels = label(gs)
    i, lo, hi = _refine(label, gs, labels, 1e-11)
    bounds, before, after = 0.5 * (lo + hi), labels[i], labels[i + 1]
    appears = bounds[(before == 1) & (after >= 2)].tolist()
    vanishes = bounds[(before >= 2) & (after == 1)].tolist()
    g1 = next((g for g in reversed(appears) if g1_hopf is not None and g < g1_hopf), None)
    g2 = next((g for g in vanishes if g2_hopf is not None and g > g2_hopf), None)

    edges = np.concatenate([gs[:1], bounds, gs[-1:]])
    at_mid = (v.tolist() for v in _root_signature(p, inv, 0.5 * (edges[:-1] + edges[1:])))
    segments = tuple(
        GSegment(lo=lo, hi=hi, physical=ok, n_real_neg=neg, n_real_pos=pos, pair_real_sign=pair,
                 has_pair=pair != 0)
        for lo, hi, ok, neg, pos, pair in zip(edges[:-1].tolist(), edges[1:].tolist(), *at_mid)
    )
    g_min, g_max = growth_interval(inv, p.delta)
    return GIntervalReport(g_min=g_min, g_max=g_max, g1=g1, g1_hopf=g1_hopf, g2_hopf=g2_hopf, g2=g2,
                           segments=segments, hopf_points=tuple(hopf_points))
