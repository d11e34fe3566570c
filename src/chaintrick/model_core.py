"""Investment function, model parameters and the closed-form equilibrium.

The economy couples output y and capital k through the S-shaped investment
intensity ``Phi(x) = c + d / (1 + exp(-a (v x - 1)))`` evaluated at the
output-capital ratio x = y/k, so that gross investment is I(y, k) =
k Phi(y/k).  Everything downstream (chain systems, characteristic
polynomials, Hopf location) is driven by the equilibrium ratio x* and the
two linearization constants Iy_star, Ik_star computed here.

This module also holds :class:`Record`, the base of the package's result
and parameter records.  Each record's constructor stores its arguments with
one :meth:`Record._keep` call.  Every command imports this module, and a
record class generates and compiles no code when it is defined, so the
records add no more to a command's start-up than any other class.
"""

import math

import numpy as np

from .errors import GrowthOutOfRange, NonPositiveEquilibrium

#: stores a field on a record, past the refusal of ``Record.__setattr__``;
#: unlike a write to ``__dict__`` it keeps the instance's attribute
#: storage on CPython's fast path, which the numeric code reads often
_set = object.__setattr__


class Record:
    """Immutable record whose fields are the parameters of its ``__init__``.

    A subclass writes its constructor with an explicit signature and ends
    it with ``self._keep(locals())``, which stores every argument as its
    field.  The base adds what a frozen dataclass has: ``==`` between
    records of the same class, a hash of the field values, the
    ``Name(field=value, ...)`` repr, an ``AttributeError`` on assigning or
    deleting an attribute, and :meth:`as_dict`.  Copies and pickles
    restore the instance dict as for any class.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def _keep(self, scope):
        """Store ``scope[name]`` as the field ``name``, for every field.

        ``scope`` is the constructor's ``locals()``, so a constructor that
        converts or checks an argument rebinds the parameter before the
        call (``value = float(value)``), and the field holds what it was
        rebound to.
        """
        for name in self._fields:
            _set(self, name, scope[name])

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def as_dict(self):
        """The fields by name, with each record among them, or in a tuple
        among them, as its own dict."""
        return {name: _plain(getattr(self, name)) for name in self._fields}


def _plain(value):
    if isinstance(value, Record):
        return value.as_dict()
    if isinstance(value, tuple):
        return tuple(_plain(v) for v in value)
    return value


class InvestmentParams(Record):
    """Parameters of the logistic investment intensity.

    All four must be strictly positive: ``a`` is the logistic slope, ``c``
    the minimum investment rate, ``d`` the investment range and ``v`` the
    output-capital sensitivity.
    """

    def __init__(self, a, c, d, v):
        for name, value in (("a", a), ("c", c), ("d", d), ("v", v)):
            if not 0.0 < value < math.inf:
                raise ValueError(f"InvestmentParams.{name} must be finite and > 0")
        self._keep(locals())


#: Dana-Malgrange estimates for the French economy, used as the CLI default.
DANA_MALGRANGE = InvestmentParams(a=9.0, c=0.01, d=0.026, v=4.23)


def _kernel_order(m):
    """``m`` as an int: an integral number other than a bool, at least 1.
    Raises ValueError otherwise."""
    try:
        order = int(m)
        integral = order == m and not isinstance(m, (bool, np.bool_))
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral or order < 1:
        raise ValueError("MacroParams.m must be an integer >= 1")
    return order


class MacroParams(Record):
    """Macro parameters: adjustment speed alpha, propensity gamma,
    depreciation delta, growth rate g, autonomous expenditure G0, mean
    investment delay T and gamma-kernel order m.

    ``m`` may be any integral number but a bool and is stored as an int.
    """

    def __init__(self, alpha, gamma, delta, g, G0, T, m=1):
        for name, value in (("alpha", alpha), ("gamma", gamma), ("delta", delta), ("G0", G0)):
            if not 0.0 < value < math.inf:
                raise ValueError(f"MacroParams.{name} must be finite and > 0")
        if not 0.0 <= T < math.inf:
            raise ValueError(f"MacroParams.T must be finite and >= 0, got {T!r}")
        m = _kernel_order(m)
        self._keep(locals())

    def replace(self, **changes):
        """A copy with ``changes`` applied, checked as a new record."""
        fields = {name: getattr(self, name) for name in self._fields}
        fields.update(changes)
        return MacroParams(**fields)


class Equilibrium(Record):
    """Fixed point of the model together with the linearization inputs.

    ``Ik_star = g + delta - x_star * Iy_star`` by construction, and is
    negative exactly when x_star * Iy_star exceeds g + delta.  Every field
    is stored as a Python float.
    """

    def __init__(self, x_star, y_star, k_star, Iy_star, Ik_star):
        x_star, y_star, k_star = float(x_star), float(y_star), float(k_star)
        Iy_star, Ik_star = float(Iy_star), float(Ik_star)
        self._keep(locals())


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
