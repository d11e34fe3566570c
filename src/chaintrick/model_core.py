"""Investment function, model parameters and the closed-form equilibrium.

The economy couples output y and capital k through the S-shaped investment
intensity ``Phi(x) = c + d / (1 + exp(-a (v x - 1)))`` evaluated at the
output-capital ratio x = y/k, so that gross investment is I(y, k) =
k Phi(y/k).  Everything downstream (chain systems, characteristic
polynomials, Hopf location) is driven by the equilibrium ratio x* and the
two linearization constants Iy_star, Ik_star computed here.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GrowthOutOfRange, NonPositiveEquilibrium


@dataclass(frozen=True)
class InvestmentParams:
    """Parameters of the logistic investment intensity.

    All four must be strictly positive: ``a`` is the logistic slope, ``c``
    the minimum investment rate, ``d`` the investment range and ``v`` the
    output-capital sensitivity.
    """

    a: float
    c: float
    d: float
    v: float

    def __post_init__(self):
        for name in ("a", "c", "d", "v"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"InvestmentParams.{name} must be finite and > 0")


#: Dana-Malgrange estimates for the French economy, used as the CLI default.
DANA_MALGRANGE = InvestmentParams(a=9.0, c=0.01, d=0.026, v=4.23)


@dataclass(frozen=True)
class MacroParams:
    """Macro parameters: adjustment speed alpha, propensity gamma,
    depreciation delta, growth rate g, autonomous expenditure G0, mean
    investment delay T and gamma-kernel order m."""

    alpha: float
    gamma: float
    delta: float
    g: float
    G0: float
    T: float
    m: int = 1

    def __post_init__(self):
        for name in ("alpha", "gamma", "delta", "G0"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"MacroParams.{name} must be finite and > 0")
        if not 0.0 <= self.T < math.inf:
            raise ValueError(f"MacroParams.T must be finite and >= 0, got {self.T!r}")
        if int(self.m) != self.m or self.m < 1:
            raise ValueError("MacroParams.m must be an integer >= 1")

    def replace(self, **kw):
        from dataclasses import replace

        return replace(self, **kw)


@dataclass(frozen=True)
class Equilibrium:
    """Fixed point of the model together with the linearization inputs.

    ``Ik_star = g + delta - x_star * Iy_star`` by construction, and is
    negative exactly when x_star * Iy_star exceeds g + delta.
    """

    x_star: float
    y_star: float
    k_star: float
    Iy_star: float
    Ik_star: float

    def __post_init__(self):
        for name in ("x_star", "y_star", "k_star", "Iy_star", "Ik_star"):
            object.__setattr__(self, name, float(getattr(self, name)))


def _logistic(z):
    """1 / (1 + exp(-z)) elementwise; below z = -709, exp(-z) overflows to
    inf, which gives the exact limit 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def phi(x, inv):
    """Investment intensity Phi(x) = c + d / (1 + exp(-a (v x - 1))).

    Accepts scalars or arrays; strictly increasing with range (c, c + d).
    """
    return inv.c + inv.d * _logistic(inv.a * (inv.v * x - 1.0))


def phi_prime(x, inv):
    """Derivative of the investment intensity with respect to x."""
    s = _logistic(inv.a * (inv.v * x - 1.0))
    return inv.a * inv.d * inv.v * s * (1.0 - s)


def growth_interval(inv, delta):
    """Admissible growth-rate interval (c - delta, c + d - delta)."""
    return inv.c - delta, inv.c + inv.d - delta


def solve_x_star(inv, g, delta):
    """Invert Phi(x*) = g + delta in closed form, elementwise in g.

    A scalar g raises GrowthOutOfRange unless c < g + delta < c + d; in an
    array such points get NaN.
    """
    target = g + delta
    inside = (inv.c < target) & (target < inv.c + inv.d)
    scalar = np.isscalar(inside)
    if scalar and not inside:
        lo, hi = growth_interval(inv, delta)
        raise GrowthOutOfRange(
            f"g={g:g} is outside the admissible interval ({lo:g}, {hi:g})"
            f" (need c < g + delta < c + d)"
        )
    if not scalar:
        target = np.where(inside, target, np.nan)
    xs = (1.0 / inv.v) * (1.0 - np.log(inv.d / (target - inv.c) - 1.0) / inv.a)
    return float(xs) if scalar else xs


def investment_derivs(x_star, inv, g, delta):
    """Linearization constants (Iy_star, Ik_star) at the equilibrium ratio,
    elementwise."""
    iy = phi_prime(x_star, inv)
    ik = g + delta - x_star * iy
    return iy, ik


def equilibrium(p, inv):
    """Closed-form fixed point (x*, y*, k*) with linearization constants.

    k* = alpha G0 / (g x* + alpha (gamma x* - (g + delta))); the denominator
    must be positive for the fixed point to lie in the positive quadrant.
    """
    xs = solve_x_star(inv, p.g, p.delta)
    den = p.g * xs + p.alpha * (p.gamma * xs - (p.g + p.delta))
    if den <= 0.0:
        raise NonPositiveEquilibrium(
            f"equilibrium denominator {den:g} <= 0 at g={p.g:g}, alpha={p.alpha:g}:"
            f" fixed point leaves the positive quadrant"
        )
    ks = p.alpha * p.G0 / den
    iy, ik = investment_derivs(xs, inv, p.g, p.delta)
    return Equilibrium(x_star=xs, y_star=xs * ks, k_star=ks, Iy_star=iy, Ik_star=ik)
