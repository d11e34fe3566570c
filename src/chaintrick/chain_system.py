"""Finite ODE systems produced by the linear chain trick.

A gamma-distributed delay with mean T and integer order m is equivalent to
a cascade of m first-order stages with rate m/T.  The state is laid out as
``[y, u_1, ..., u_m, k]``: u_1 is driven by y, each u_i relaxes toward
u_{i-1}, and u_m is the delayed output entering the investment function of
the capital equation.  For m = 1 this is the three-dimensional system in
(y, u, k); for m = 2 the four-dimensional system in (y, w, p, k) with
w = u_1 and p = u_2.
"""

import numpy as np

from ._core._dopri import make_chain_rhs
from .errors import CapitalNonPositive, DelayNonPositive, KernelOrderInvalid
from .model_core import Record, equilibrium, phi, phi_prime


class ChainSystem(Record):
    """The (m+2)-dimensional chain system of the macro parameters
    ``params`` (a MacroParams) and the investment parameters ``inv`` (an
    InvestmentParams), as assembled by :func:`build`."""

    def __init__(self, params, inv):
        self._keep(locals())

    @property
    def m(self):
        return self.params.m

    @property
    def dimension(self):
        return self.params.m + 2


def build(p, inv):
    """Validate parameters and assemble the (m+2)-dimensional chain system."""
    if p.T <= 0.0:
        raise DelayNonPositive(f"chain reduction needs T > 0, got T={p.T:g}")
    if int(p.m) != p.m or p.m < 1:
        raise KernelOrderInvalid(f"kernel order must be an integer >= 1, got {p.m!r}")
    return ChainSystem(params=p, inv=inv)


def _as_state_array(sys, state):
    s = np.asarray(state, dtype=float)
    if s.shape != (sys.dimension,):
        raise ValueError(f"state must have shape ({sys.dimension},), got {s.shape}")
    return s


def rhs(sys, state):
    """Time derivative of the chain system at ``state``.

    Requires k > 0 so that the ratios y/k and u_m/k are defined.
    """
    s = _as_state_array(sys, state)
    if s[-1] <= 0.0:
        raise CapitalNonPositive(f"rhs undefined for k={s[-1]:g} <= 0")
    p, inv = sys.params, sys.inv
    f = make_chain_rhs(p.m, p.alpha, p.gamma, p.delta, p.g, p.G0, p.T, inv.a, inv.c, inv.d, inv.v)
    return f(s)


def jacobian(sys, state):
    """Analytic Jacobian of :func:`rhs` at ``state``.

    At the equilibrium the first row reduces to
    ``[alpha Iy* - alpha gamma - g, 0, ..., 0, alpha Ik*]`` and the last to
    ``[0, ..., Iy*, Ik* - (g + delta)]``, with the m/T bidiagonal cascade
    in between.
    """
    s = _as_state_array(sys, state)
    p, inv = sys.params, sys.inv
    y, k = s[0], s[-1]
    if k <= 0.0:
        raise CapitalNonPositive(f"jacobian undefined for k={k:g} <= 0")
    u = s[1:-1]
    n = sys.dimension
    J = np.zeros((n, n))

    x_y = y / k
    # I(y,k) = k Phi(y/k):  dI/dy = Phi'(x), dI/dk = Phi(x) - x Phi'(x)
    J[0, 0] = p.alpha * phi_prime(x_y, inv) - p.alpha * p.gamma - p.g
    J[0, -1] = p.alpha * (phi(x_y, inv) - x_y * phi_prime(x_y, inv))

    rate = p.m / p.T
    for i in range(1, p.m + 1):
        J[i, i - 1] = rate
        J[i, i] = -rate

    x_u = u[-1] / k
    J[-1, p.m] = phi_prime(x_u, inv)
    J[-1, -1] = phi(x_u, inv) - x_u * phi_prime(x_u, inv) - (p.g + p.delta)
    return J


def equilibrium_state(sys):
    """Fixed-point state vector [y*, y*, ..., y*, k*]."""
    eq = equilibrium(sys.params, sys.inv)
    return np.array([eq.y_star] + [eq.y_star] * sys.m + [eq.k_star])


def constant_history_state(sys, y0, k0):
    """Chain initial condition for a constant pre-history y(t) = y0, t <= 0.

    Every chain stage is an exponentially weighted average of past output,
    so a constant history sets u_i(0) = y0 for all i.
    """
    return np.array([float(y0)] + [float(y0)] * sys.m + [float(k0)])
