"""Stability, Hopf-bifurcation and cycle analysis of a delayed-investment
growth model reduced to finite ODE systems by the linear chain trick.

The public names below are loaded on first use (PEP 562): ``import
chaintrick`` loads no submodule but ``_version``, and ``chaintrick.X`` or
``from chaintrick import X`` imports only the module that defines X.
"""

from importlib import import_module

from ._version import __version__

#: public names by the submodule that defines them; a name equal to its
#: module's name is the module itself
_EXPORTS = {
    "model_core": (
        "DANA_MALGRANGE",
        "InvestmentParams",
        "MacroParams",
        "Equilibrium",
        "equilibrium",
        "growth_interval",
        "investment_derivs",
        "phi",
        "phi_prime",
        "solve_x_star",
    ),
    "chain_system": (
        "ChainSystem",
        "build",
        "constant_history_state",
        "equilibrium_state",
        "jacobian",
        "rhs",
    ),
    "char_poly": (
        "CharCoeffsM1",
        "CharCoeffsM2",
        "StabilityVerdict",
        "coeffs_m1",
        "coeffs_m2",
        "cubic_discriminant",
        "phi_quartic",
        "phi_quartic_deriv",
        "routh_hurwitz_cubic",
        "routh_hurwitz_quartic",
    ),
    "hopf_locator": (
        "GIntervalReport",
        "HopfPoint",
        "critical_delays",
        "hopf_in_alpha",
        "hopf_in_g",
        "hopf_in_T",
        "hopf_in_T_m1",
        "hopf_in_T_m2",
    ),
    "simulator": ("CycleMetrics", "Trajectory", "cycle_metrics", "integrate"),
    "sweep": (
        "BifurcationCurve",
        "curve_T_vs_alpha",
        "curve_T_vs_g",
        "surface_T",
        "table_g_bifurcations",
    ),
    "errors": ("errors",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
