"""Hopf bifurcation location in the delay T, the growth rate g and the
adjustment speed alpha.

In T every kernel order shares one characteristic equation,
(lambda - a)(lambda - e)(lambda + m/T)^m = bc (m/T)^m.  For m = 1 and
m = 2 its critical delays are roots of closed-form polynomials in T (a
quadratic, respectively the quartic evaluated by
:func:`chaintrick.char_poly.phi_quartic`).  For m >= 3,
:func:`hopf_in_T` solves it on the imaginary axis: the modulus gives T as
an explicit function of the frequency omega, the phase gives the crossings
as roots in omega, and the crossing direction comes from the analytic
Re dlambda/dT, with no eigenvalues and no cap on T.  The g and alpha
directions track the real part of the leading complex eigenvalue pair of
the equilibrium Jacobian and bisect its sign changes;
:func:`hopf_in_T_numeric` does the same in T and is kept only as an
independent reference for the other routes.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import char_poly
from .chain_system import build, equilibrium_state, jacobian
from .errors import (
    DegenerateTransversality,
    GrowthOutOfRange,
    NoHopf,
    NonPositiveEquilibrium,
    NoStableRegime,
)
from .model_core import equilibrium, growth_interval

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


@dataclass(frozen=True)
class HopfPoint:
    """A located Hopf bifurcation.

    ``parameter`` names the varied quantity ("T", "g" or "alpha"),
    ``omega`` is the imaginary-axis crossing frequency, ``crossing`` is
    "destabilizing" when the pair moves left to right as the parameter
    increases and "stabilizing" otherwise, and ``transversality`` is the
    signed crossing-speed expression (nonzero by construction).
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
# eigenvalue helpers


def equilibrium_eigenvalues(p, inv):
    """Eigenvalues of the chain-system Jacobian at the equilibrium."""
    sys = build(p, inv)
    return np.linalg.eigvals(jacobian(sys, equilibrium_state(sys)))


def _split_eigenvalues(eig):
    imag_ok = np.abs(eig.imag) > IMAG_TOL * (1.0 + np.abs(eig))
    return eig[~imag_ok], eig[imag_ok]


def pair_max_real(p, inv, m=None):
    """(max Re, |Im|) over the complex eigenvalue pairs, or None if all real.

    This is the quantity whose sign change in a parameter marks a Hopf
    crossing.
    """
    if m is not None:
        p = p.replace(m=m)
    eig = equilibrium_eigenvalues(p, inv)
    _, cplx = _split_eigenvalues(eig)
    if cplx.size == 0:
        return None
    i = int(np.argmax(cplx.real))
    return float(cplx.real[i]), abs(float(cplx.imag[i]))


def _bisect(f, lo, hi, flo, xtol, max_iter=200):
    """Bisection on a sign change of f; returns the midpoint of the final
    bracket.  f must be defined on [lo, hi]."""
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo < xtol:
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (flo < 0.0) == (fm < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# closed-form location in T


def _imag_axis_residual(monic_coeffs, omega):
    val = np.polyval(np.concatenate(([1.0], np.asarray(monic_coeffs))), 1j * omega)
    return abs(val)


def hopf_in_T_m1(eq, p):
    """Critical delays for m = 1 from the quadratic
    (AB) T^2 + (A^2 + alpha Ik* Iy*) T - A = 0.

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
    """Critical delays for m = 2 from the quartic criticality polynomial.

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
        - math.atan2(0.0, bc)
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


def hopf_in_T(p, inv, m=None):
    """Critical delays for any kernel order m, located on the imaginary axis.

    With lambda = i omega, Q(lambda) = (lambda - a)(lambda - e) and
    s = omega T / m, the characteristic equation splits into a modulus
    condition that gives T explicitly,
    T(omega) = (m/omega) sqrt((|bc| / |Q(i omega)|)^(2/m) - 1), valid on
    (0, omega_max] where |Q(i omega_max)| = |bc|, and a phase condition
    G(omega) = arg Q(i omega) + m atan(s) - arg(bc) = 2 pi k.  G is
    scanned on an N_GRID-point omega grid (dense near omega_max, where T
    vanishes, and reaching omega = 0, where T is unbounded), every bracket
    of every branch k is bisected at once, and each root is polished by
    Newton steps on the complex equation in (omega, T).  The crossing
    direction is the sign of Re dlambda/dT =
    Re[-(m Q lambda / T) / (Q'(lambda)(lambda + m/T) + m Q)].

    Raises NoHopf when no positive critical delay exists and
    DegenerateTransversality when a crossing has Re dlambda/dT ~ 0.
    """
    if m is not None:
        p = p.replace(m=m)
    m = p.m
    # the m = 2 composites (M, N, P) are (a, e, -bc) for every order
    a, e, minus_bc = char_poly.composites_m2(equilibrium(p, inv), p)
    bc = -minus_bc
    # omega_max^2 solves (w + a^2)(w + e^2) = bc^2, a quadratic in w
    excess = bc * bc - a * a * e * e
    if not excess > 0.0:
        raise NoHopf(f"|bc| <= |ae|: no positive critical delay for m = {m}")
    root = math.sqrt((a * a - e * e) ** 2 + 4.0 * bc * bc)
    omega_max = math.sqrt(2.0 * excess / (a * a + e * e + root))

    # omega runs from omega_max (T = 0) down to 0 (T unbounded); the
    # quadratic spacing resolves the square-root behaviour of T at omega_max
    v = np.linspace(0.0, 1.0, N_GRID)
    omegas = omega_max * (1.0 - v * v)
    if a * e == 0.0:
        omegas = omegas[:-1]  # arg(i omega - a) has no limit at omega = 0
    phase = _phase(omegas, a, e, bc, m)
    two_pi = 2.0 * math.pi
    branches = range(math.ceil(phase.min() / two_pi), math.floor(phase.max() / two_pi) + 1)
    if not branches:
        raise NoHopf(f"no positive critical delay for m = {m} at these parameters")
    lo, hi, branch = [], [], []
    for k in branches:
        above = phase > two_pi * k
        idx = np.nonzero(above[:-1] != above[1:])[0]
        lo.append(omegas[idx])
        hi.append(omegas[idx + 1])
        branch.append(np.full(idx.size, two_pi * k))
    lo, hi, branch = np.concatenate(lo), np.concatenate(hi), np.concatenate(branch)

    above_lo = _phase(lo, a, e, bc, m) > branch
    for _ in range(BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        same = (_phase(mid, a, e, bc, m) > branch) == above_lo
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    omega = 0.5 * (lo + hi)
    with np.errstate(divide="ignore"):
        T = m * _chain_ratio(omega, a, e, bc, m) / omega
    keep = (omega > 0.0) & (T > 0.0) & np.isfinite(T)
    omega, T, width = omega[keep], T[keep], np.abs(hi - lo)[keep]
    centre = omega
    # the root lies in its bracket: a Newton step that leaves it (with one
    # bracket width to spare for rounding in the phase) is refused
    for _ in range(NEWTON_STEPS):
        d_om, d_T = _newton_step(omega, T, a, e, bc, m)
        om_new, T_new = omega + d_om, T + d_T
        ok = (np.abs(om_new - centre) <= width) & (T_new > 0.0)
        omega, T = np.where(ok, om_new, omega), np.where(ok, T_new, T)

    points = []
    for om, t_star in sorted(zip(omega.tolist(), T.tolist()), key=lambda pair: pair[1]):
        lam = 1j * om
        q = (lam - a) * (lam - e)
        slope = -(m * q * lam / t_star) / ((2.0 * lam - a - e) * (lam + m / t_star) + m * q)
        if abs(slope.real) <= TRANSVERSALITY_TOL * abs(slope):
            raise DegenerateTransversality(
                f"crossing speed vanishes at T* = {t_star:g}"
            )
        points.append(
            HopfPoint(
                parameter="T",
                value=t_star,
                omega=om,
                crossing="destabilizing" if slope.real > 0.0 else "stabilizing",
                transversality=slope.real,
            )
        )
    if not points:
        raise NoHopf(f"no positive critical delay for m = {m} at these parameters")
    return points


# ---------------------------------------------------------------------------
# eigenvalue reference (any m)


def hopf_in_T_numeric(p, inv, m=None, t_range=(1e-4, 50.0), n_grid=512):
    """Locate critical delays for arbitrary kernel order by eigenvalue
    bisection on a geometric T grid.

    An independent reference for :func:`hopf_in_T` and the closed forms,
    on no production path: it also bisects jumps of the leading pair's
    real part where an unstable pair turns real, which it reports as
    spurious crossings.  Raises NoHopf when the leading pair never changes
    sign on the grid.
    """
    if m is not None:
        p = p.replace(m=m)
    lo, hi = t_range
    ts = np.geomspace(lo, hi, n_grid)
    vals = np.array(
        [_pair_real_or_nan(p.replace(T=float(t)), inv) for t in ts]
    )
    points = []
    for i in range(n_grid - 1):
        v0, v1 = vals[i], vals[i + 1]
        if np.isnan(v0) or np.isnan(v1) or v0 == v1 or (v0 < 0) == (v1 < 0):
            continue
        f = lambda t: _pair_real_or_nan(p.replace(T=t), inv)
        t_star = _bisect(f, float(ts[i]), float(ts[i + 1]), v0, 1e-12 * max(1.0, ts[i]))
        re_om = pair_max_real(p.replace(T=t_star), inv)
        if re_om is None:
            continue
        _, omega = re_om
        if omega <= 1e-6:
            # pair collapsing onto the real axis, not an imaginary-axis crossing
            continue
        h = 1e-6 * max(1.0, t_star)
        slope = (f(t_star + h) - f(t_star - h)) / (2.0 * h)
        points.append(
            HopfPoint(
                parameter="T",
                value=t_star,
                omega=omega,
                crossing="destabilizing" if slope > 0.0 else "stabilizing",
                transversality=slope,
            )
        )
    if not points:
        raise NoHopf(f"no Hopf crossing in T over {t_range} for m = {p.m}")
    return points


def _pair_real_or_nan(p, inv):
    try:
        out = pair_max_real(p, inv)
    except (NonPositiveEquilibrium, GrowthOutOfRange):
        return math.nan
    return math.nan if out is None else out[0]


def critical_delays(p, inv, m=None):
    """Critical delays by the preferred route: closed form for m <= 2,
    :func:`hopf_in_T` on the imaginary axis otherwise."""
    if m is not None:
        p = p.replace(m=m)
    if p.m in (1, 2):
        eq = equilibrium(p, inv)
        locate = hopf_in_T_m1 if p.m == 1 else hopf_in_T_m2
        return locate(eq, p)
    return hopf_in_T(p, inv)


def hopf_in_alpha(p, inv, m=None, alpha_range=(0.05, 2.0), n_grid=512):
    """Hopf crossings as the adjustment speed alpha varies at fixed T, g.

    Bisects sign changes of the leading pair's real part on a geometric
    alpha grid; raises NoHopf when there is no sign change.
    """
    if m is not None:
        p = p.replace(m=m)
    lo, hi = alpha_range
    if not (0.0 < lo < hi):
        raise ValueError("alpha_range must satisfy 0 < lo < hi")
    grid = np.geomspace(lo, hi, n_grid)
    f = lambda al: _pair_real_or_nan(p.replace(alpha=al), inv)
    vals = np.array([f(float(al)) for al in grid])
    points = []
    for i in range(n_grid - 1):
        v0, v1 = vals[i], vals[i + 1]
        if np.isnan(v0) or np.isnan(v1) or (v0 < 0) == (v1 < 0):
            continue
        a_star = _bisect(f, float(grid[i]), float(grid[i + 1]), v0, 1e-12)
        re_om = pair_max_real(p.replace(alpha=a_star), inv)
        if re_om is None:
            continue
        _, omega = re_om
        if omega <= 1e-6:
            continue
        h = 1e-7 * max(1.0, a_star)
        slope = (f(a_star + h) - f(a_star - h)) / (2.0 * h)
        points.append(
            HopfPoint(
                parameter="alpha",
                value=a_star,
                omega=omega,
                crossing="destabilizing" if slope > 0.0 else "stabilizing",
                transversality=slope,
            )
        )
    if not points:
        raise NoHopf(f"no Hopf crossing in alpha over {alpha_range}")
    return points


# ---------------------------------------------------------------------------
# growth-rate interval structure


def _signature(p, inv):
    """(physical, n_real_neg, n_real_pos, pair_sign, has_pair) at one g."""
    try:
        eig = equilibrium_eigenvalues(p, inv)
    except (NonPositiveEquilibrium, GrowthOutOfRange):
        return None
    real, cplx = _split_eigenvalues(eig)
    n_neg = int(np.sum(real.real < 0.0))
    n_pos = int(np.sum(real.real >= 0.0))
    if cplx.size:
        pr = float(cplx.real.max())
        sign = 0 if pr == 0.0 else (1 if pr > 0.0 else -1)
        return True, n_neg, n_pos, sign, True
    return True, n_neg, n_pos, 0, False


def hopf_in_g(p, inv, m=None, n_grid=2048):
    """Scan the admissible growth interval and report its eigenvalue
    structure.

    The scan walks a uniform grid over (g_min + 1e-6, g_max - 1e-6), then
    bisects every bracket where (a) the equilibrium enters or leaves the
    positive quadrant, (b) the complex pair appears or vanishes (for m = 1
    located on the closed-form cubic discriminant), or (c) the pair's real
    part changes sign (the Hopf crossings, resolved to 1e-9 in g).
    """
    if m is not None:
        p = p.replace(m=m)
    g_lo, g_hi = growth_interval(inv, p.delta)
    eps = 1e-6
    gs = np.linspace(g_lo + eps, g_hi - eps, n_grid)
    sigs = [_signature(p.replace(g=float(g)), inv) for g in gs]

    pair_re = lambda g: _pair_real_or_nan(p.replace(g=g), inv)

    def physical_flag(g):
        return 1.0 if _signature(p.replace(g=g), inv) is not None else -1.0

    def pair_flag(g):
        sig = _signature(p.replace(g=g), inv)
        if sig is None:
            return math.nan
        return 1.0 if sig[4] else -1.0

    boundaries = []  # (g, kind)
    hopf_ups, hopf_downs, appears, vanishes = [], [], [], []
    for i in range(n_grid - 1):
        s0, s1 = sigs[i], sigs[i + 1]
        lo_g, hi_g = float(gs[i]), float(gs[i + 1])
        if (s0 is None) != (s1 is None):
            gb = _bisect(physical_flag, lo_g, hi_g, physical_flag(lo_g), 1e-11)
            boundaries.append((gb, "physical"))
            continue
        if s0 is None:
            continue
        if s0[4] != s1[4]:
            if p.m == 1:
                eqg = lambda g: equilibrium(p.replace(g=g), inv)
                disc = lambda g: char_poly.cubic_discriminant(
                    char_poly.coeffs_m1(eqg(g), p.replace(g=g))
                )
                gb = _bisect(disc, lo_g, hi_g, disc(lo_g), 1e-11)
            else:
                gb = _bisect(pair_flag, lo_g, hi_g, pair_flag(lo_g), 1e-11)
            kind = "pair_appears" if s1[4] else "pair_vanishes"
            boundaries.append((gb, kind))
            (appears if s1[4] else vanishes).append(gb)
            continue
        if s0[4] and s1[4] and (s0[3] < 0) != (s1[3] < 0):
            gb = _bisect(pair_re, lo_g, hi_g, pair_re(lo_g), 1e-11)
            up = s1[3] > s0[3]
            boundaries.append((gb, "hopf_up" if up else "hopf_down"))
            (hopf_ups if up else hopf_downs).append(gb)

    boundaries.sort()
    g1_hopf = hopf_ups[0] if hopf_ups else None
    g2_hopf = hopf_downs[-1] if hopf_downs else None
    g1 = None
    if g1_hopf is not None:
        below = [g for g in appears if g < g1_hopf]
        g1 = below[-1] if below else None
    g2 = None
    if g2_hopf is not None:
        above = [g for g in vanishes if g > g2_hopf]
        g2 = above[0] if above else None

    edges = [float(gs[0])] + [g for g, _ in boundaries] + [float(gs[-1])]
    segments = []
    for lo_g, hi_g in zip(edges[:-1], edges[1:]):
        if hi_g - lo_g <= 0.0:
            continue
        mid = 0.5 * (lo_g + hi_g)
        sig = _signature(p.replace(g=mid), inv)
        if sig is None:
            segments.append(GSegment(lo=lo_g, hi=hi_g, physical=False))
        else:
            _, n_neg, n_pos, sign, has_pair = sig
            segments.append(
                GSegment(
                    lo=lo_g,
                    hi=hi_g,
                    physical=True,
                    n_real_neg=n_neg,
                    n_real_pos=n_pos,
                    pair_real_sign=sign,
                    has_pair=has_pair,
                )
            )

    hopf_points = []
    for gb, kind in boundaries:
        if kind not in ("hopf_up", "hopf_down"):
            continue
        re_om = pair_max_real(p.replace(g=gb), inv)
        omega = re_om[1] if re_om is not None else math.nan
        h = 1e-7
        slope = (pair_re(gb + h) - pair_re(gb - h)) / (2.0 * h)
        hopf_points.append(
            HopfPoint(
                parameter="g",
                value=gb,
                omega=omega,
                crossing="destabilizing" if kind == "hopf_up" else "stabilizing",
                transversality=slope,
            )
        )

    return GIntervalReport(
        g_min=g_lo,
        g_max=g_hi,
        g1=g1,
        g1_hopf=g1_hopf,
        g2_hopf=g2_hopf,
        g2=g2,
        segments=tuple(segments),
        hopf_points=tuple(hopf_points),
    )
