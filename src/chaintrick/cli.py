"""Command-line front end.

Subcommands: equilibrium | stability | hopf | simulate | sweep | table2.
Every command accepts the model parameters as flags, a JSON config file
(flags override file values), ``--emit-config`` to write the fully
resolved configuration back out, and ``--json`` for compact output;
``simulate``, ``sweep`` and ``table2`` also take ``--out``.  Each setting
is declared once, in ``_SETTINGS``, and a flag's text and a config value
pass the same check.  Exit codes: 0 success, 2 domain error (including a
bad flag, config value or unreadable config file), 3 numeric failure.

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
    InaccurateRoot,
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
    InaccurateRoot,
    ArithmeticError,
)

# Every setting, declared once: section -> key -> (kind, default[, help]),
# with the options per command.  A kind is float, int, list (kernel
# orders) or a tuple of allowed values; the flag is "--" + key, "_" -> "-".
_SETTINGS = {
    "investment": {
        "a": (float, 9.0), "c": (float, 0.01), "d": (float, 0.026), "v": (float, 4.23),
    },
    "macro": {
        "alpha": (float, 1.0), "gamma": (float, 0.15), "delta": (float, 0.007),
        "g": (float, 0.016), "G0": (float, 2.0), "T": (float, 1.0), "m": (int, 1),
    },
    "options": {
        "equilibrium": {},
        "stability": {
            "scan_g": (int, None, "classify a SCAN_G-point growth-rate grid into regimes"),
        },
        "hopf": {
            "vary": (("T", "g", "alpha"), "T"),
            "alpha_min": (float, 0.05), "alpha_max": (float, 2.0),
            "t_min": (float, None,
                      "--vary T reports only critical delays >= T_MIN (default: no bound)"),
            "t_max": (float, None,
                      "--vary T reports only critical delays <= T_MAX (default: no bound)"),
        },
        "simulate": {
            "y0": (float, 15.0), "k0": (float, 100.0), "horizon": (float, 4000.0),
            "sample_dt": (float, 0.2), "transient": (float, 0.5),
        },
        "sweep": {
            "curve": (("T-vs-alpha", "T-vs-g", "surface"), "T-vs-alpha"),
            "alpha_min": (float, 0.6), "alpha_max": (float, 0.764), "alpha_count": (int, 83),
            "g_min": (float, 0.01), "g_max": (float, 0.02), "g_count": (int, 64),
        },
        "table2": {
            "m_list": (list, [1, 2, 3, 4], "comma-separated kernel orders, e.g. 1,2,3,4"),
        },
    },
}
_WRITES_CSV = ("simulate", "sweep", "table2")


def _table(command):
    """The three sections of ``command``'s settings."""
    return {**_SETTINGS, "options": _SETTINGS["options"][command]}


def _flag(key):
    return "--" + key.replace("_", "-")


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a domain error instead of exiting."""

    def error(self, message):
        raise ValueError(message)


def _build_parser():
    parser = _Parser(
        prog="chaintrick",
        description="Stability, Hopf bifurcation and cycle analysis of the"
        " delayed-investment growth model via its chain-trick ODE reductions.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for command, handler in _HANDLERS.items():
        sp = subs.add_parser(command, help=handler.__doc__)
        for entries in _table(command).values():
            for key, (kind, _, *doc) in entries.items():
                metavar = "{%s}" % ",".join(kind) if isinstance(kind, tuple) else None
                sp.add_argument(_flag(key), dest=key, metavar=metavar,
                                help=doc[0] if doc else None)
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument(
            "--emit-config",
            metavar="PATH",
            help="write the resolved configuration to PATH and continue",
        )
        if command in _WRITES_CSV:
            sp.add_argument("--out", help="output CSV path")
        sp.add_argument("--json", action="store_true", help="compact JSON output")
    return parser


def _check(name, spec, value):
    """Convert ``value`` for the setting ``name`` declared by ``spec``: a
    string is parsed as flag text, a JSON value must already have the
    declared kind (an int passes as a float, a bool never as a number), and
    null passes only where the default is null.  Raises ValueError naming
    the setting otherwise."""
    kind, default, *_ = spec
    if value is None and default is None:
        return None
    if isinstance(kind, tuple):
        if isinstance(value, str) and value in kind:
            return value
        raise ValueError(f"{name}: {value!r} is not one of {', '.join(kind)}")
    try:
        if isinstance(value, str):
            if kind is list:
                return [int(tok) for tok in value.split(",") if tok.strip()]
            return kind(value)
        if kind is float and type(value) in (int, float):
            return float(value)
        if kind is int and type(value) is int:
            return value
        if kind is list and type(value) is list and all(type(x) is int for x in value):
            return value
    except (ValueError, OverflowError):
        pass
    want = {float: "a number", int: "an integer", list: "a list of integers"}[kind]
    raise ValueError(f"{name}: {value!r} is not {want}")


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise ValueError(f"--config {path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise ValueError(f"--config {path}: not JSON ({exc})") from None
    if not isinstance(loaded, dict):
        raise ValueError(f"--config {path}: not a JSON object")
    return loaded


def _resolve_config(args):
    """Merge defaults, config file and explicit flags into one dict."""
    command = args.command
    table = _table(command)
    config = {"version": CONFIG_VERSION, "command": command}
    for section, entries in table.items():
        config[section] = {key: spec[1] for key, spec in entries.items()}
    if args.config is not None:
        loaded = _load_config(args.config)
        version = loaded.get("version")
        if type(version) is not int or version != CONFIG_VERSION:
            raise ValueError(f"config version {version!r} is not {CONFIG_VERSION}")
        if "command" in loaded and loaded["command"] != command:
            raise ValueError(
                f"config is for command {loaded['command']!r}, not {command!r}"
            )
        for section, entries in table.items():
            values = loaded.get(section, {})
            if not isinstance(values, dict):
                raise ValueError(f"config section {section} is not an object")
            for key, value in values.items():
                if key not in entries:
                    raise ValueError(f"unknown config key {section}.{key}")
                config[section][key] = _check(f"{section}.{key}", entries[key], value)
    for section, entries in table.items():
        for key, spec in entries.items():
            text = getattr(args, key)
            if text is not None:
                config[section][key] = _check(_flag(key), spec, text)
    return config


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
    """fixed point and linearization"""
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
    """Routh-Hurwitz verdict and eigenvalues"""
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
    """locate Hopf bifurcations"""
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
            result.update(asdict(hopf_in_g(macro, inv)))
            result["segments"] = [  # a segment's lo and hi print as g_lo and g_hi
                {"g_lo": seg.pop("lo"), "g_hi": seg.pop("hi"), **seg}
                for seg in result["segments"]
            ]
    except NoHopf as exc:
        result["note"] = str(exc)
    return result


def _cmd_simulate(config, args):
    """integrate and measure cycles"""
    inv, macro = _params_from(config)
    opts = config["options"]
    simulator.check_transient_fraction(opts["transient"], "--transient")
    sys_ = build(macro, inv)
    s0 = constant_history_state(sys_, opts["y0"], opts["k0"])
    traj = simulator.integrate(sys_, s0, opts["horizon"], sample_dt=opts["sample_dt"])
    result = {
        "backend": backend_name(),
        "diverged": traj.diverged,
        "final_state": [float(x) for x in traj.states[-1]],
        "rhs_evaluations": traj.rhs_evaluations,
        "accepted_steps": traj.accepted_steps,
        "rejected_steps": traj.rejected_steps,
        "csv": args.out,
    }
    try:
        metrics = simulator.cycle_metrics(traj, transient_fraction=opts["transient"])
        result["metrics"] = asdict(metrics)
    except InsufficientOscillations as exc:
        result["metrics"] = None
        result["note"] = str(exc)
    if args.out:
        traj.write_csv(args.out)
    return result


def _grid(opts, name):
    count = opts[f"{name}_count"]
    if count < 1:
        raise ValueError(f"--{name}-count needs at least 1 point, got {count}")
    lo, hi = opts[f"{name}_min"], opts[f"{name}_max"]
    with np.errstate(all="ignore"):
        grid = np.linspace(lo, hi, count)
    if not np.isfinite(grid).all():
        raise ValueError(f"--{name}-min {lo!r} to --{name}-max {hi!r} is not a finite grid")
    return grid


def _cmd_sweep(config, args):
    """bifurcation curves and surfaces"""
    inv, macro = _params_from(config)
    opts = config["options"]
    if not args.out:
        raise ValueError("sweep requires --out CSV path")
    if opts["curve"] == "surface":
        surface = sweep.surface_T(macro, inv, macro.m, _grid(opts, "alpha"), _grid(opts, "g"))
        sweep.write_surface_csv(surface, args.out)
        return {
            "kind": "surface",
            "m": surface.m,
            "cells": int(surface.t_bi.size),
            "gaps": int(np.sum(~np.isfinite(surface.t_bi))),
            "csv": args.out,
            "meta": sweep.sidecar_path(args.out),
        }
    name = opts["curve"].removeprefix("T-vs-")
    along = sweep.curve_T_vs_alpha if name == "alpha" else sweep.curve_T_vs_g
    curve = along(macro, inv, macro.m, _grid(opts, name))
    sweep.write_curve_csv(curve, args.out)
    return {
        "kind": "curve",
        "parameter": curve.parameter,
        "m": curve.m,
        "points": int(np.sum(np.isfinite(curve.t_bi))),
        "gaps": int(np.sum(~np.isfinite(curve.t_bi))),
        "fit": None if curve.fit is None else asdict(curve.fit),
        "csv": args.out,
        "meta": sweep.sidecar_path(args.out),
    }


def _cmd_table2(config, args):
    """growth-rate Hopf points per kernel order"""
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
    try:
        args = _build_parser().parse_args(argv)
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
