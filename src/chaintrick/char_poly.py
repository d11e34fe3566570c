"""Closed-form characteristic polynomials and Routh-Hurwitz verdicts.

For kernel order m = 1 the linearization has the monic cubic

    lambda^3 + a1(T) lambda^2 + a2(T) lambda + a3(T) = 0,
    a1 = 1/T - A,   a2 = -A/T - B,   a3 = (-B - alpha Ik* Iy*) / T,

with A = alpha (Iy* - gamma) - g - x* Iy* and
B = [alpha (Iy* - gamma) - g] x* Iy*.  For m = 2 it has the monic quartic
with coefficients built from M = alpha (Iy* - gamma) - g,
N = Ik* - (g + delta) = -x* Iy* < 0 and P = -alpha Ik* Iy*.

Stability in T is governed by sign combinations of these coefficients; the
criticality condition a1 a2 a3 - a3^2 - a1^2 a4 = 0 (m = 2) is equivalent
to the vanishing of a quartic polynomial in T, evaluated here by
:func:`phi_quartic`.  The verdicts work on the coefficients alone; the
equilibrium's eigenvalues come from
:func:`chaintrick.hopf_locator.equilibrium_eigenvalues`.
"""

import numpy as np

from .errors import DelayNonPositive
from .model_core import Record

#: Routh-Hurwitz expressions closer to zero than this are reported marginal.
MARGINAL_TOL = 1e-8


class CharCoeffsM1(Record):
    """Cubic coefficients a1..a3 at delay T plus the composites A, B.

    ``alpha_ik_iy`` stores alpha * Ik* * Iy*, needed by the criticality
    quadratic and by the a3-positivity criterion B + alpha Ik* Iy* < 0.
    """

    def __init__(self, a1, a2, a3, A, B, alpha_ik_iy, T):
        self._keep(locals())


class CharCoeffsM2(Record):
    """Quartic coefficients a1..a4 at delay T plus the composites M, N, P."""

    def __init__(self, a1, a2, a3, a4, M, N, P, T):
        self._keep(locals())


class StabilityVerdict(Record):
    """Routh-Hurwitz verdict with per-condition values.

    ``stable`` is True iff every condition value is positive; ``marginal``
    flags any condition within MARGINAL_TOL of zero (a Hopf candidate when
    it is the composite product condition).  ``conditions`` is a tuple and
    ``notes`` a dict carrying the side quantities used in the sign
    analysis.
    """

    def __init__(self, stable, marginal, conditions, notes):
        self._keep(locals())


def coeffs_m1(eq, p):
    """Closed-form cubic coefficients for kernel order m = 1 at delay p.T."""
    if p.T <= 0.0:
        raise DelayNonPositive(f"characteristic coefficients need T > 0, got {p.T:g}")
    A, B, aik = composites_m1(eq, p)
    a1, a2, a3 = cubic_coeffs_at(A, B, aik, p.T)
    return CharCoeffsM1(a1=a1, a2=a2, a3=a3, A=A, B=B, alpha_ik_iy=aik, T=p.T)


def composites_m1(eq, p):
    """The T-independent composites (A, B, alpha*Ik**Iy*) for m = 1."""
    slope = p.alpha * (eq.Iy_star - p.gamma) - p.g
    A = slope - eq.x_star * eq.Iy_star
    B = slope * eq.x_star * eq.Iy_star
    return A, B, p.alpha * eq.Ik_star * eq.Iy_star


def cubic_coeffs_at(A, B, alpha_ik_iy, T):
    """Cubic coefficients a1..a3 from the m = 1 composites, at delay T."""
    return (
        1.0 / T - A,
        -A / T - B,
        (-B - alpha_ik_iy) / T,
    )


def coeffs_m2(eq, p):
    """Closed-form quartic coefficients for kernel order m = 2 at delay p.T."""
    if p.T <= 0.0:
        raise DelayNonPositive(f"characteristic coefficients need T > 0, got {p.T:g}")
    M, N, P = composites_m2(eq, p)
    a1, a2, a3, a4 = quartic_coeffs_at(M, N, P, p.T)
    return CharCoeffsM2(a1=a1, a2=a2, a3=a3, a4=a4, M=M, N=N, P=P, T=p.T)


def composites_m2(eq, p):
    """The T-independent composites (M, N, P) for m = 2."""
    M = p.alpha * (eq.Iy_star - p.gamma) - p.g
    N = eq.Ik_star - (p.g + p.delta)
    P = -p.alpha * eq.Ik_star * eq.Iy_star
    return M, N, P


def quartic_coeffs_at(M, N, P, T):
    """Quartic coefficients a1..a4 from the composites, at delay T."""
    S = M + N
    Q = M * N
    a1 = 4.0 / T - S
    a2 = 4.0 / T**2 - 4.0 * S / T + Q
    a3 = (4.0 / T) * (Q - S / T)
    a4 = 4.0 * (Q + P) / T**2
    return a1, a2, a3, a4


def quartic_coeffs_deriv_at(M, N, P, T):
    """d/dT of the quartic coefficients, used for the crossing speed."""
    S = M + N
    Q = M * N
    da1 = -4.0 / T**2
    da2 = -8.0 / T**3 + 4.0 * S / T**2
    da3 = -4.0 * Q / T**2 + 8.0 * S / T**3
    da4 = -8.0 * (Q + P) / T**3
    return da1, da2, da3, da4


def _verdict(values, names, notes):
    conditions = tuple(
        (name, value, value > 0.0) for name, value in zip(names, values)
    )
    stable = all(sat for _, _, sat in conditions)
    marginal = any(abs(value) < MARGINAL_TOL for value in values)
    return StabilityVerdict(
        stable=stable,
        marginal=marginal,
        conditions=conditions,
        notes=notes,
    )


def routh_hurwitz_cubic(c):
    """Routh-Hurwitz verdict for the m = 1 cubic: a1 > 0, a3 > 0, a1 a2 > a3.

    The notes record sign(B) and B + alpha Ik* Iy*; a3 > 0 is equivalent to
    the latter being negative.
    """
    values = (c.a1, c.a3, c.a1 * c.a2 - c.a3)
    names = ("a1 > 0", "a3 > 0", "a1*a2 - a3 > 0")
    notes = {
        "A": c.A,
        "B": c.B,
        "B_plus_alpha_ik_iy": c.B + c.alpha_ik_iy,
        "discriminant": cubic_discriminant(c),
    }
    return _verdict(values, names, notes)


def routh_hurwitz_quartic(c):
    """Routh-Hurwitz verdict for the m = 2 quartic.

    Conditions: a1 > 0, a3 > 0, a4 > 0 and a1 a2 a3 > a3^2 + a1^2 a4.  The
    notes carry the side conditions M + N < 0 and M N + P > 0, and (for
    M > 0) the delay bound T < (M + N) / (M N) that makes a3 positive.
    """
    combo = c.a1 * c.a2 * c.a3 - c.a3**2 - c.a1**2 * c.a4
    values = (c.a1, c.a3, c.a4, combo)
    names = ("a1 > 0", "a3 > 0", "a4 > 0", "a1*a2*a3 - a3^2 - a1^2*a4 > 0")
    notes = {
        "M": c.M,
        "N": c.N,
        "P": c.P,
        "M_plus_N": c.M + c.N,
        "MN_plus_P": c.M * c.N + c.P,
        "T_bound_if_M_positive": (c.M + c.N) / (c.M * c.N) if c.M > 0 else None,
    }
    return _verdict(values, names, notes)


def monic_cubic_discriminant(a1, a2, a3):
    """Discriminant of lambda^3 + a1 lambda^2 + a2 lambda + a3.

    Positive: three distinct real roots.  Negative: one real root plus a
    complex-conjugate pair.  Zero: a repeated root.
    """
    return (
        18.0 * a1 * a2 * a3
        - 4.0 * a1**3 * a3
        + a1**2 * a2**2
        - 4.0 * a2**3
        - 27.0 * a3**2
    )


def cubic_discriminant(c):
    """Discriminant of the m = 1 characteristic cubic."""
    return monic_cubic_discriminant(c.a1, c.a2, c.a3)


def phi_quartic(c, T):
    """Criticality polynomial in T for the m = 2 quartic.

    phi(T) = [(M+N)(MN)^2] T^4 + [(M+N)^2 (P - 4MN)] T^3
             + 4(M+N)[(M+N)^2 + 2MN - 2P] T^2 + 16[P - (M+N)^2] T + 16(M+N).

    phi(T) = -(T^5/4) (a1 a2 a3 - a3^2 - a1^2 a4), so phi < 0 exactly where
    the composite Routh-Hurwitz condition holds.  For M = 0 the quartic term
    drops and phi reduces to
    (N^2 P) T^3 + 4N(N^2 - 2P) T^2 + 16(P - N^2) T + 16N.
    """
    return np.polyval(phi_quartic_coeffs(c.M, c.N, c.P), T)


def phi_quartic_deriv(c, T):
    """Derivative of :func:`phi_quartic` with respect to T."""
    return np.polyval(np.polyder(phi_quartic_coeffs(c.M, c.N, c.P)), T)


def phi_quartic_coeffs(M, N, P):
    """Coefficients (highest power first) of the criticality polynomial."""
    S = M + N
    Q = M * N
    return np.array(
        [
            S * Q * Q,
            S * S * (P - 4.0 * Q),
            4.0 * S * (S * S + 2.0 * Q - 2.0 * P),
            16.0 * (P - S * S),
            16.0 * S,
        ]
    )
