"""Command-line front end.

Subcommands: equilibrium | stability | hopf | simulate | sweep | table2.
Every command accepts the model parameters as flags, a JSON config file
(flags override file values), ``--emit-config`` to write the fully
resolved configuration back out, and ``--json`` for compact output;
``simulate``, ``sweep`` and ``table2`` also take ``--out``.  Each setting
is declared once, in ``_SETTINGS``, and a flag's text and a config value
pass the same check.  Exit codes: 0 success, 2 domain error (including a
bad flag, config value, unreadable config file or unwritable output path),
3 numeric failure (including running out of memory).

``stability`` answers for every m from one route, the root counts of
:func:`chaintrick.hopf_locator._root_signature`, with no eigenvalues and
no crossing located in T: the classification in words, ``stable`` where
no root lies in the right half-plane, and ``marginal`` where that count
differs within a relative MARGINAL_RTOL on either side of T, at a
crossing.  It prints the coefficients of the characteristic equation
(for m = 1 and m = 2 the Routh-Hurwitz coefficients, conditions and notes
of char_poly; above, the expansion of
(lambda - a)(lambda - e)(lambda + m/T)^m - bc (m/T)^m) and the equilibrium
eigenvalues, and refuses a delay at which those coefficients leave the
float range, by overflow or underflow, with a numeric failure that names
T.  ``stability --scan-g N`` merges the segments of
:func:`chaintrick.hopf_locator.hopf_in_g` on an N-point grid into stable
and unstable regimes, classified from the same counts.

Of the computing modules only ``model_core`` is imported at start-up;
each command handler imports the modules it runs, so a command pays the
import cost of those alone.  Their records (:class:`model_core.Record`)
generate no code as their classes are made.  ``main`` registers every
subcommand's name and help but adds the flags of the invoked subcommand
alone, the first argument that is not an option; ``_build_parser()``
with no argument adds every subcommand's flags.  The help, errors and
exit codes are those of the full parser.

A command's largest linear-algebra call is the eigenvalue solve of one
(m+2)-square matrix or a small least-squares fit, too small to gain from
BLAS threads, while an idle BLAS worker thread spins beside the
command for its whole life.  So when this module loads before numpy, it
sets ``OMP_NUM_THREADS=1`` unless the variable is already set, and
numpy's BLAS starts no worker threads.  OpenBLAS, MKL and BLIS all read
``OMP_NUM_THREADS``, and each reads its own variable
(``OPENBLAS_NUM_THREADS``, ``MKL_NUM_THREADS``, ``BLIS_NUM_THREADS``) in
preference to it, so a thread count set by the caller wins.
``import chaintrick`` and the library modules leave the environment
alone.
"""

import argparse
import contextlib
import json
import math
import os
import sys

if "numpy" not in sys.modules:
    os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from . import model_core  # noqa: E402
from ._version import __version__  # noqa: E402
from .errors import (  # noqa: E402
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
from .model_core import equilibrium  # noqa: E402

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


def _build_parser(only=None):
    """The command-line parser.  Every subcommand is registered with its
    help, and gets its flags when ``only`` is None or names it: a command
    line needs the flags of the subcommand it invokes alone."""
    parser = _Parser(
        prog="chaintrick",
        description="Stability, Hopf bifurcation and cycle analysis of the"
        " delayed-investment growth model via its chain-trick ODE reductions.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for command, handler in _HANDLERS.items():
        sp = subs.add_parser(command, help=handler.__doc__)
        if only is not None and command != only:
            continue
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
    declared kind (an int passes as a float, a bool never as a number, a
    list is never empty), and null passes only where the default is null.
    Raises ValueError naming the setting otherwise."""
    kind, default, *_ = spec
    if value is None and default is None:
        return None
    if isinstance(kind, tuple):
        if isinstance(value, str) and value in kind:
            return value
        raise ValueError(f"{name}: {value!r} is not one of {', '.join(kind)}")
    try:
        if isinstance(value, str):
            if kind is not list:
                return kind(value)
            ints = [int(tok) for tok in value.split(",") if tok.strip()]
            if ints:
                return ints
        if kind is float and type(value) in (int, float):
            return float(value)
        if kind is int and type(value) is int:
            return value
        if kind is list and type(value) is list and value and all(type(x) is int for x in value):
            return value
    except (ValueError, OverflowError):
        pass
    want = {float: "a number", int: "an integer", list: "a non-empty list of integers"}[kind]
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


@contextlib.contextmanager
def _writing(flag, path):
    """Report an OSError raised while writing the file of ``flag`` as a
    domain error naming the flag and the file."""
    try:
        yield
    except OSError as exc:
        name = path if exc.filename is None else exc.filename
        raise ValueError(f"{flag} {name}: {exc.strerror or exc}") from None


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


def _classifications(inv, macro, gs):
    """The roots at each growth rate of ``gs`` in words, from
    :func:`chaintrick.hopf_locator._root_signature`: the numbers of
    negative and of positive real roots, and the sign of the leading
    complex pair's real part."""
    from .hopf_locator import _root_signature

    return _in_words(macro.m, *_root_signature(macro, inv, np.asarray(gs, dtype=float))[1:])


def _in_words(m, n_negs, n_poss, pairs):
    """The classification words of :func:`_classifications` from the
    counts of a root signature at kernel order ``m``."""
    out = []
    for n_neg, n_pos, pair in zip(n_negs.tolist(), n_poss.tolist(), pairs.tolist()):
        parts = [f"{n} {sign}" for n, sign in ((n_neg, "negative"), (n_pos, "positive")) if n]
        if n_neg + n_pos < m + 2:
            parts.append(f"pair with {'positive' if pair > 0 else 'negative'} real part")
        out.append(", ".join(parts))
    return out


def _eig_list(eig):
    return sorted([float(e.real), float(e.imag)] for e in eig)


# ---------------------------------------------------------------------------
# command handlers


def _cmd_equilibrium(config, args):
    """fixed point and linearization"""
    inv, macro = _params_from(config)
    return equilibrium(macro, inv).as_dict()


def _stability_point(inv, macro):
    from .hopf_locator import MARGINAL_RTOL, _loop_coefficients, _root_signature, _unstable_roots
    from .hopf_locator import equilibrium_eigenvalues

    # the coefficients hold powers of r = m/T, which leave the float range at
    # extreme delays: as inf or NaN, as a zero or subnormal that underflowed,
    # or as Python's OverflowError or ZeroDivisionError; an infinite r, which
    # the Jacobian holds too, is refused before the eigenvalue solve
    what = "characteristic coefficients" if macro.m > 2 else "Routh-Hurwitz quantities"
    beyond = f"the m = {macro.m} {what} leave the float range at T = {macro.T:g}"
    if not math.isfinite(macro.m / macro.T):
        raise OverflowError(beyond)
    # the (m+2)-square eigenvalue solve runs first, so that a kernel order
    # too large for it is refused as out of memory; its roots are printed only.
    # numpy sizes no array of more than sys.maxsize bytes
    n = macro.m + 2
    if 8 * n * n > sys.maxsize:
        raise MemoryError(f"the {n}-square eigenvalue solve is larger than an array can be")
    eig = equilibrium_eigenvalues(macro, inv)
    g = np.array([macro.g])
    signature = _root_signature(macro, inv, g)
    out = {
        "m": macro.m,
        "eigenvalues": _eig_list(eig),
        "classification": _in_words(macro.m, *signature[1:])[0],
        "conditions": [],
    }
    try:
        if macro.m > 2:
            # (lambda - a)(lambda - e)(lambda + r)^m - bc r^m, with no
            # coefficient zero unless ae = bc
            a, b, c, e = (float(x[0]) for x in _loop_coefficients(macro, inv, np.full(1, macro.alpha), g))
            r = macro.m / macro.T
            coeffs = np.poly([a, e] + [-r] * macro.m)
            coeffs[-1] -= b * c * r**macro.m
            out["coefficients"] = {f"a{i}": float(x) for i, x in enumerate(coeffs[1:], 1)}
            in_range = all(np.finfo(float).tiny <= abs(x) < math.inf for x in coeffs)
        else:
            from . import char_poly

            cubic = macro.m == 1
            c = (char_poly.coeffs_m1 if cubic else char_poly.coeffs_m2)(equilibrium(macro, inv), macro)
            verdict = (char_poly.routh_hurwitz_cubic if cubic else char_poly.routh_hurwitz_quartic)(c)
            out["coefficients"] = {k: v for k, v in c.as_dict().items() if k not in ("alpha_ik_iy", "T")}
            out["conditions"] = [{"name": name, "value": value, "satisfied": sat}
                                 for name, value, sat in verdict.conditions]
            out["notes"] = dict(verdict.notes)
            numbers = [*out["coefficients"].values(), *(value for _, value, _ in verdict.conditions),
                       *(value for value in verdict.notes.values() if value is not None)]
            in_range = all(map(math.isfinite, numbers))
    except (OverflowError, ZeroDivisionError):
        in_range = False
    if not in_range:
        raise OverflowError(beyond)
    # stable where no root lies in the right half-plane, and marginal where
    # that count changes within MARGINAL_RTOL of T (capped at the largest
    # float): at a crossing
    _, _, n_pos, pair = (int(v[0]) for v in signature)
    out["stable"] = n_pos == 0 and pair <= 0
    below, above = (_unstable_roots(macro.replace(T=min(T, sys.float_info.max)), inv, g)
                    for T in (macro.T * (1.0 - MARGINAL_RTOL), macro.T * (1.0 + MARGINAL_RTOL)))
    out["marginal"] = bool(below[0] != above[0])
    return out


def _cmd_stability(config, args):
    """stability verdict from the count of unstable roots"""
    inv, macro = _params_from(config)
    scan = config["options"].get("scan_g")
    if scan is None:
        return _stability_point(inv, macro)

    if scan < 1:
        raise ValueError(f"--scan-g needs at least 1 point, got {scan}")
    from .hopf_locator import hopf_in_g

    report = hopf_in_g(macro, inv, n_grid=int(scan))
    regimes = []
    for s in report.segments:
        if regimes and regimes[-1]["stable"] == s.stable:
            regimes[-1]["g_hi"] = s.hi
        else:
            regimes.append({"g_lo": s.lo, "g_hi": s.hi, "stable": s.stable})
    words = iter(_classifications(
        inv, macro, [0.5 * (r["g_lo"] + r["g_hi"]) for r in regimes if r["stable"] is not None]))
    for r in regimes:
        r["classification"] = "no positive equilibrium" if r["stable"] is None else next(words)
    return {
        "g_min": report.g_min,
        "g_max": report.g_max,
        "n_grid": int(scan),
        "boundaries": [r["g_lo"] for r in regimes[1:]],
        "regimes": regimes,
    }


def _cmd_hopf(config, args):
    """locate Hopf bifurcations"""
    from .hopf_locator import critical_delays, hopf_in_alpha, hopf_in_g

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
            result["hopf_points"] = [h.as_dict() for h in shown]
            if len(shown) < len(points):
                result["note"] = (
                    f"{len(points) - len(shown)} critical delay(s) outside"
                    f" [{t_min:g}, {t_max:g}] not reported"
                )
        elif vary == "alpha":
            points = hopf_in_alpha(
                macro, inv, alpha_range=(opts["alpha_min"], opts["alpha_max"])
            )
            result["hopf_points"] = [h.as_dict() for h in points]
        else:
            result.update(hopf_in_g(macro, inv).as_dict())
            result["segments"] = [  # a segment's lo and hi print as g_lo and g_hi
                {"g_lo": seg.pop("lo"), "g_hi": seg.pop("hi"), **seg}
                for seg in result["segments"]
            ]
    except NoHopf as exc:
        result["note"] = str(exc)
    return result


def _cmd_simulate(config, args):
    """integrate and measure cycles"""
    from . import simulator
    from ._core import backend_name
    from .chain_system import build, constant_history_state

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
        result["metrics"] = metrics.as_dict()
    except InsufficientOscillations as exc:
        result["metrics"] = None
        result["note"] = str(exc)
    if args.out:
        with _writing("--out", args.out):
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
    from . import sweep

    inv, macro = _params_from(config)
    opts = config["options"]
    if not args.out:
        raise ValueError("sweep requires --out CSV path")
    if opts["curve"] == "surface":
        surface = sweep.surface_T(macro, inv, macro.m, _grid(opts, "alpha"), _grid(opts, "g"))
        with _writing("--out", args.out):
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
    with _writing("--out", args.out):
        sweep.write_curve_csv(curve, args.out)
    return {
        "kind": "curve",
        "parameter": curve.parameter,
        "m": curve.m,
        "points": int(np.sum(np.isfinite(curve.t_bi))),
        "gaps": int(np.sum(~np.isfinite(curve.t_bi))),
        "fit": None if curve.fit is None else curve.fit.as_dict(),
        "csv": args.out,
        "meta": sweep.sidecar_path(args.out),
    }


def _cmd_table2(config, args):
    """growth-rate Hopf points per kernel order"""
    from . import sweep

    inv, macro = _params_from(config)
    rows = sweep.table_g_bifurcations(macro, inv, config["options"]["m_list"])
    if args.out:
        fixed = dict(config["macro"])
        fixed.pop("m", None)
        with _writing("--out", args.out):
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
    argv = sys.argv[1:] if argv is None else list(argv)
    # the root parser takes no option with a value, so its first
    # non-option argument is the subcommand (or an invalid choice)
    invoked = next((arg for arg in argv if not arg.startswith("-")), "")
    command = "chaintrick"
    try:
        args = _build_parser(only=invoked).parse_args(argv)
        command = args.command
        config = _resolve_config(args)
        if args.emit_config:
            with (
                _writing("--emit-config", args.emit_config),
                open(args.emit_config, "w", encoding="utf-8", newline="") as fh,
            ):
                json.dump(config, fh, indent=2, sort_keys=True)
                fh.write("\n")
        result = _HANDLERS[args.command](config, args)
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # numpy's message gives the size and shape of the refused array
        detail = f" ({exc})" if str(exc) else ""
        print(f"numeric failure: {command} ran out of memory{detail}", file=sys.stderr)
        return 3
    _emit(result, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
