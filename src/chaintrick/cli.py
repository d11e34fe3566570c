"""Command-line front end.

Subcommands: equilibrium | stability | hopf | simulate | sweep | table2.
Every command accepts the model parameters as flags, a JSON config file
(flags override file values), ``--emit-config`` to write the fully
resolved configuration back out, and ``--json`` for compact output.
Exit codes: 0 success, 2 domain error, 3 numeric failure.

``stability`` reports the Routh-Hurwitz verdict of char_poly for m = 1
and m = 2 beside the equilibrium eigenvalues; ``stability --scan-g N``
merges the segments of :func:`chaintrick.hopf_locator.hopf_in_g` on an
N-point grid into stable and unstable regimes.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import char_poly, model_core, simulator, sweep
from ._core import backend_name
from ._version import __version__
from .chain_system import build, constant_history_state
from .errors import (
    CapitalNonPositive,
    DegenerateTransversality,
    DelayNonPositive,
    GrowthOutOfRange,
    InsufficientOscillations,
    KernelOrderInvalid,
    NoHopf,
    NonPositiveEquilibrium,
    StepFailure,
)
from .hopf_locator import (
    _split_eigenvalues,
    critical_delays,
    equilibrium_eigenvalues,
    hopf_in_alpha,
    hopf_in_g,
)
from .model_core import equilibrium

CONFIG_VERSION = 1

_DOMAIN_ERRORS = (
    GrowthOutOfRange,
    NonPositiveEquilibrium,
    DelayNonPositive,
    KernelOrderInvalid,
    ValueError,
)
_NUMERIC_ERRORS = (
    StepFailure,
    CapitalNonPositive,
    DegenerateTransversality,
    ArithmeticError,
)

_INVESTMENT_DEFAULTS = {"a": 9.0, "c": 0.01, "d": 0.026, "v": 4.23}
_MACRO_DEFAULTS = {
    "alpha": 1.0,
    "gamma": 0.15,
    "delta": 0.007,
    "g": 0.016,
    "G0": 2.0,
    "T": 1.0,
    "m": 1,
}

_OPTION_DEFAULTS = {
    "equilibrium": {},
    "stability": {"scan_g": None},
    "hopf": {
        "vary": "T",
        "alpha_min": 0.05,
        "alpha_max": 2.0,
        "t_min": None,
        "t_max": None,
    },
    "simulate": {
        "y0": 15.0,
        "k0": 100.0,
        "horizon": 4000.0,
        "sample_dt": 0.2,
        "transient": 0.5,
    },
    "sweep": {
        "curve": "T-vs-alpha",
        "alpha_min": 0.6,
        "alpha_max": 0.764,
        "alpha_count": 83,
        "g_min": 0.01,
        "g_max": 0.02,
        "g_count": 64,
    },
    "table2": {"m_list": [1, 2, 3, 4]},
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="chaintrick",
        description="Stability, Hopf bifurcation and cycle analysis of the"
        " delayed-investment growth model via its chain-trick ODE reductions.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        for key in _INVESTMENT_DEFAULTS:
            sp.add_argument(f"--{key}", type=float, default=None)
        for key in ("alpha", "gamma", "delta", "g", "G0", "T"):
            sp.add_argument(f"--{key}", type=float, default=None)
        sp.add_argument("--m", type=int, default=None)
        sp.add_argument("--config", default=None, help="JSON config file")
        sp.add_argument(
            "--emit-config",
            default=None,
            metavar="PATH",
            help="write the resolved configuration to PATH and continue",
        )
        sp.add_argument("--out", default=None, help="output CSV path")
        sp.add_argument("--json", action="store_true", help="compact JSON output")

    sp = subs.add_parser("equilibrium", help="fixed point and linearization")
    add_common(sp)

    sp = subs.add_parser("stability", help="Routh-Hurwitz verdict and eigenvalues")
    add_common(sp)
    sp.add_argument(
        "--scan-g",
        dest="scan_g",
        type=int,
        default=None,
        metavar="N",
        help="classify an N-point growth-rate grid and report regimes",
    )

    sp = subs.add_parser("hopf", help="locate Hopf bifurcations")
    add_common(sp)
    sp.add_argument("--vary", choices=("T", "g", "alpha"), default=None)
    sp.add_argument("--alpha-min", dest="alpha_min", type=float, default=None)
    sp.add_argument("--alpha-max", dest="alpha_max", type=float, default=None)
    sp.add_argument(
        "--t-min",
        dest="t_min",
        type=float,
        default=None,
        help="--vary T reports only critical delays >= T_MIN (default: no bound)",
    )
    sp.add_argument(
        "--t-max",
        dest="t_max",
        type=float,
        default=None,
        help="--vary T reports only critical delays <= T_MAX (default: no bound)",
    )

    sp = subs.add_parser("simulate", help="integrate and measure cycles")
    add_common(sp)
    sp.add_argument("--y0", type=float, default=None)
    sp.add_argument("--k0", type=float, default=None)
    sp.add_argument("--horizon", type=float, default=None)
    sp.add_argument("--sample-dt", dest="sample_dt", type=float, default=None)
    sp.add_argument("--transient", type=float, default=None)

    sp = subs.add_parser("sweep", help="bifurcation curves and surfaces")
    add_common(sp)
    sp.add_argument(
        "--curve", choices=("T-vs-alpha", "T-vs-g", "surface"), default=None
    )
    sp.add_argument("--alpha-min", dest="alpha_min", type=float, default=None)
    sp.add_argument("--alpha-max", dest="alpha_max", type=float, default=None)
    sp.add_argument("--alpha-count", dest="alpha_count", type=int, default=None)
    sp.add_argument("--g-min", dest="g_min", type=float, default=None)
    sp.add_argument("--g-max", dest="g_max", type=float, default=None)
    sp.add_argument("--g-count", dest="g_count", type=int, default=None)

    sp = subs.add_parser("table2", help="growth-rate Hopf points per kernel order")
    add_common(sp)
    sp.add_argument(
        "--m-list",
        dest="m_list",
        default=None,
        help="comma-separated kernel orders, e.g. 1,2,3,4",
    )
    return parser


def _resolve_config(args):
    """Merge defaults, config file and explicit flags into one dict."""
    command = args.command
    config = {
        "version": CONFIG_VERSION,
        "command": command,
        "investment": dict(_INVESTMENT_DEFAULTS),
        "macro": dict(_MACRO_DEFAULTS),
        "options": dict(_OPTION_DEFAULTS[command]),
    }
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if loaded.get("version") != CONFIG_VERSION:
            raise ValueError(
                f"config version {loaded.get('version')!r} is not {CONFIG_VERSION}"
            )
        if "command" in loaded and loaded["command"] != command:
            raise ValueError(
                f"config is for command {loaded['command']!r}, not {command!r}"
            )
        for section in ("investment", "macro", "options"):
            for key, value in loaded.get(section, {}).items():
                if key not in config[section]:
                    raise ValueError(f"unknown config key {section}.{key}")
                config[section][key] = value
    for key in config["investment"]:
        val = getattr(args, key, None)
        if val is not None:
            config["investment"][key] = val
    for key in config["macro"]:
        val = getattr(args, key, None)
        if val is not None:
            config["macro"][key] = val
    for key in config["options"]:
        val = getattr(args, key, None)
        if val is not None:
            config["options"][key] = _parse_option(key, val)
    return config


def _parse_option(key, val):
    if key == "m_list" and isinstance(val, str):
        return [int(tok) for tok in val.split(",") if tok.strip()]
    return val


def _params_from(config):
    inv = model_core.InvestmentParams(**config["investment"])
    macro = model_core.MacroParams(**config["macro"])
    return inv, macro


def _clean(obj):
    """JSON-safe copy: numpy scalars to Python, NaN to None."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return None if not math.isfinite(x) else x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    return obj


def _emit(result, args):
    text = json.dumps(
        _clean(result), indent=None if args.json else 2, sort_keys=True
    )
    sys.stdout.write(text + "\n")


def _classification(eig):
    n_neg, n_pos, lead = _split_eigenvalues(eig)
    parts = []
    if n_neg:
        parts.append(f"{n_neg} negative")
    if n_pos:
        parts.append(f"{n_pos} positive")
    if not np.isnan(lead):
        sign = "positive" if lead.real > 0.0 else "negative"
        parts.append(f"pair with {sign} real part")
    return ", ".join(parts) if parts else "no eigenvalues"


def _eig_list(eig):
    order = np.lexsort((eig.imag, eig.real))
    return [[float(e.real), float(e.imag)] for e in eig[order]]


# ---------------------------------------------------------------------------
# command handlers


def _cmd_equilibrium(config, args):
    inv, macro = _params_from(config)
    return asdict(equilibrium(macro, inv))


def _stability_point(inv, macro):
    eig = equilibrium_eigenvalues(macro, inv)
    out = {
        "m": macro.m,
        "eigenvalues": _eig_list(eig),
        "classification": _classification(eig),
    }
    if macro.m > 2:
        coeffs = np.poly(eig).real
        out["coefficients"] = {
            f"a{i}": float(coeffs[i]) for i in range(1, len(coeffs))
        }
        out["conditions"] = []
        out["stable"] = bool(np.all(eig.real < 0.0))
        out["marginal"] = bool(np.any(np.abs(eig.real) < 1e-8))
        return out
    eq = equilibrium(macro, inv)
    if macro.m == 1:
        c = char_poly.coeffs_m1(eq, macro)
        verdict = char_poly.routh_hurwitz_cubic(c)
        out["coefficients"] = {
            "a1": c.a1, "a2": c.a2, "a3": c.a3, "A": c.A, "B": c.B,
        }
    else:
        c = char_poly.coeffs_m2(eq, macro)
        verdict = char_poly.routh_hurwitz_quartic(c)
        out["coefficients"] = {
            "a1": c.a1, "a2": c.a2, "a3": c.a3, "a4": c.a4,
            "M": c.M, "N": c.N, "P": c.P,
        }
    out["conditions"] = [
        {"name": name, "value": value, "satisfied": sat}
        for name, value, sat in verdict.conditions
    ]
    out["stable"] = verdict.stable
    out["marginal"] = verdict.marginal
    out["notes"] = dict(verdict.notes)
    return out


def _cmd_stability(config, args):
    inv, macro = _params_from(config)
    scan = config["options"].get("scan_g")
    if scan is None:
        return _stability_point(inv, macro)

    if scan < 1:
        raise ValueError(f"--scan-g needs at least 1 point, got {scan}")
    report = hopf_in_g(macro, inv, n_grid=int(scan))
    regimes = []
    for s in report.segments:
        if regimes and regimes[-1]["stable"] == s.stable:
            regimes[-1]["g_hi"] = s.hi
        else:
            regimes.append({"g_lo": s.lo, "g_hi": s.hi, "stable": s.stable})
    for r in regimes:
        mid = macro.replace(g=0.5 * (r["g_lo"] + r["g_hi"]))
        r["classification"] = (
            "no positive equilibrium" if r["stable"] is None
            else _classification(equilibrium_eigenvalues(mid, inv))
        )
    return {
        "g_min": report.g_min,
        "g_max": report.g_max,
        "n_grid": int(scan),
        "boundaries": [r["g_lo"] for r in regimes[1:]],
        "regimes": regimes,
    }


def _cmd_hopf(config, args):
    inv, macro = _params_from(config)
    opts = config["options"]
    vary = opts["vary"]
    result = {"vary": vary, "m": macro.m, "hopf_points": []}
    try:
        if vary == "T":
            t_min = 0.0 if opts["t_min"] is None else opts["t_min"]
            t_max = math.inf if opts["t_max"] is None else opts["t_max"]
            if not t_min < t_max:
                raise ValueError(f"--t-min {t_min!r} must be below --t-max {t_max!r}")
            points = critical_delays(macro, inv)
            shown = [h for h in points if t_min <= h.value <= t_max]
            result["hopf_points"] = [asdict(h) for h in shown]
            if len(shown) < len(points):
                result["note"] = (
                    f"{len(points) - len(shown)} critical delay(s) outside"
                    f" [{t_min:g}, {t_max:g}] not reported"
                )
        elif vary == "alpha":
            points = hopf_in_alpha(
                macro, inv, alpha_range=(opts["alpha_min"], opts["alpha_max"])
            )
            result["hopf_points"] = [asdict(h) for h in points]
        else:
            report = hopf_in_g(macro, inv)
            result.update(
                {
                    "g_min": report.g_min,
                    "g_max": report.g_max,
                    "g1": report.g1,
                    "g1_hopf": report.g1_hopf,
                    "g2_hopf": report.g2_hopf,
                    "g2": report.g2,
                    "hopf_points": [asdict(h) for h in report.hopf_points],
                    "segments": [
                        {
                            "g_lo": s.lo,
                            "g_hi": s.hi,
                            "physical": s.physical,
                            "n_real_neg": s.n_real_neg,
                            "n_real_pos": s.n_real_pos,
                            "pair_real_sign": s.pair_real_sign,
                            "has_pair": s.has_pair,
                        }
                        for s in report.segments
                    ],
                }
            )
    except NoHopf as exc:
        result["note"] = str(exc)
    return result


def _cmd_simulate(config, args):
    inv, macro = _params_from(config)
    opts = config["options"]
    sys_ = build(macro, inv)
    s0 = constant_history_state(sys_, opts["y0"], opts["k0"])
    traj = simulator.integrate(sys_, s0, opts["horizon"], sample_dt=opts["sample_dt"])
    result = {
        "backend": backend_name(),
        "diverged": traj.diverged,
        "final_state": [float(x) for x in traj.states[-1]],
        "csv": args.out,
    }
    try:
        metrics = simulator.cycle_metrics(traj, transient_fraction=opts["transient"])
        result["metrics"] = {
            "kind": metrics.kind,
            "period": metrics.period,
            "amplitude": metrics.amplitude,
            "decay_rate": metrics.decay_rate,
        }
    except InsufficientOscillations as exc:
        result["metrics"] = None
        result["note"] = str(exc)
    if args.out:
        traj.write_csv(args.out)
    return result


def _cmd_sweep(config, args):
    inv, macro = _params_from(config)
    opts = config["options"]
    if not args.out:
        raise ValueError("sweep requires --out CSV path")
    kind = opts["curve"]
    if kind == "T-vs-alpha":
        grid = np.linspace(opts["alpha_min"], opts["alpha_max"], opts["alpha_count"])
        curve = sweep.curve_T_vs_alpha(macro, inv, macro.m, grid)
        sweep.write_curve_csv(curve, args.out)
        return _curve_summary(curve, args.out)
    if kind == "T-vs-g":
        grid = np.linspace(opts["g_min"], opts["g_max"], opts["g_count"])
        curve = sweep.curve_T_vs_g(macro, inv, macro.m, grid)
        sweep.write_curve_csv(curve, args.out)
        return _curve_summary(curve, args.out)
    alphas = np.linspace(opts["alpha_min"], opts["alpha_max"], opts["alpha_count"])
    gs = np.linspace(opts["g_min"], opts["g_max"], opts["g_count"])
    surface = sweep.surface_T(macro, inv, macro.m, alphas, gs)
    sweep.write_surface_csv(surface, args.out)
    n_gaps = int(np.sum(~np.isfinite(surface.t_bi)))
    return {
        "kind": "surface",
        "m": surface.m,
        "cells": int(surface.t_bi.size),
        "gaps": n_gaps,
        "csv": args.out,
        "meta": sweep.sidecar_path(args.out),
    }


def _curve_summary(curve, out):
    fit = None
    if curve.fit is not None:
        fit = {
            "model": curve.fit.model,
            "coefficients": list(curve.fit.coefficients),
            "residual_norm": curve.fit.residual_norm,
            "relative_residual": curve.fit.relative_residual,
            "threshold_alpha": curve.fit.threshold_alpha,
        }
    return {
        "kind": "curve",
        "parameter": curve.parameter,
        "m": curve.m,
        "points": int(np.sum(np.isfinite(curve.t_bi))),
        "gaps": int(np.sum(~np.isfinite(curve.t_bi))),
        "fit": fit,
        "csv": out,
        "meta": sweep.sidecar_path(out),
    }


def _cmd_table2(config, args):
    inv, macro = _params_from(config)
    rows = sweep.table_g_bifurcations(macro, inv, config["options"]["m_list"])
    if args.out:
        fixed = dict(config["macro"])
        fixed.pop("m", None)
        sweep.write_table_csv(rows, args.out, fixed=fixed)
    return {
        "rows": [
            {"m": m, "g_bi1": g1, "g_bi2": g2} for m, g1, g2 in rows
        ],
        "csv": args.out,
    }


_HANDLERS = {
    "equilibrium": _cmd_equilibrium,
    "stability": _cmd_stability,
    "hopf": _cmd_hopf,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "table2": _cmd_table2,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        if args.emit_config:
            with open(args.emit_config, "w", encoding="utf-8", newline="") as fh:
                json.dump(config, fh, indent=2, sort_keys=True)
                fh.write("\n")
        result = _HANDLERS[args.command](config, args)
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    _emit(result, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
