"""A seeded census of every Hopf route, written to JSON, and a comparison
of two such files, bit for bit or to a relative tolerance.

    python tests/census.py run OUT.json [--seed 7] [--draws 300]
    PYTHONPATH=OTHER/src python tests/census.py run OTHER.json
    python tests/census.py compare OUT.json OTHER.json [--rtol 1e-12]

``run`` imports chaintrick from wherever the path finds it, so pointing
PYTHONPATH at the ``src`` of another checkout runs the same census on that
tree.  It records every result, or the error a call raises, and counts the
calls of ``hopf_locator._phase`` per section and in total.  The sections:

- ``draws``: ``--draws`` parameter sets of ``oracles.random_model_draw``
  (m uniform on 1..12, T uniform on [0.05, 40]), each through
  ``hopf_in_T``, ``hopf_in_g`` (segments included), ``hopf_in_alpha``, a
  table of five orders, ``_growth_hopf`` on 7, 18 and 50 points, and
  ``_axis_crossings`` on six cells around the draw, with and without
  ``first``;
- ``sweeps``: ``surface_T`` on a 40 x 23 (alpha, g) grid and
  ``curve_T_vs_alpha`` and ``curve_T_vs_g`` on 60 points, at m = 1, 2, 3,
  6 and 12 (the Dana-Malgrange investment function);
- ``large_m``: ``hopf_in_T``, ``hopf_in_g`` and a table at m = 10^3, 10^5
  and 10^6;
- ``cases``: the far crossing at m = 2, g = 0.023124938994631524, the
  200-point g scan at m = 1000, T = 1e12, and ``hopf_in_T`` at
  alpha = 0.7 and m = 10^7 and 10^8, whose first omega interval holds
  several crossings;
- ``budget``: the benchmark's T-route calls, ``critical_delays`` at m = 3
  (alpha = 0.58, g = 0.015), the 83-point alpha curve at m = 1 and the
  16 x 16 surfaces at m = 2 and 3.

``compare`` prints the entries whose results differ, byte for byte in
their JSON, and the phase calls of both files, and exits 1 on any
difference of results.  Floats are written in Python's shortest
round-trip form, so equal text means equal bits.  With ``--rtol R`` an
entry whose floats all agree to R relative, and whose shape, integers
and messages match exactly, is listed as within rtol, and only the
others make the exit status 1:

    python tests/census.py compare OUT.json OTHER.json --rtol 1e-12

Without PYTHONPATH the script imports the ``src`` of its own checkout,
or an installed chaintrick, which comes first; each file records the
directory it ran.

The file is not collected by pytest: a census of 300 draws takes about
15 s on one core.
"""

import argparse
import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.append(os.path.join(os.path.dirname(HERE), "src"))

from oracles import random_model_draw  # noqa: E402

from chaintrick import hopf_locator, sweep  # noqa: E402
from chaintrick.model_core import InvestmentParams, MacroParams, Record  # noqa: E402

INVESTMENT = InvestmentParams(a=9.0, c=0.01, d=0.026, v=4.23)
BASELINE = MacroParams(alpha=1.0, gamma=0.15, delta=0.007, g=0.016, G0=2.0, T=1.0, m=1)
TABLE_ORDERS = [1, 2, 3, 6, 12]


def plain(value):
    """``value`` as JSON data: records as dicts, arrays and tuples as lists."""
    if isinstance(value, Record):
        value = value.as_dict()
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def call(fn, *args, **kwargs):
    """The result of ``fn``, or the class and message of what it raised."""
    try:
        return {"result": plain(fn(*args, **kwargs))}
    except Exception as exc:  # every failure is a result to compare
        return {"error": type(exc).__name__, "message": str(exc)}


def draws(seed, count):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        m = int(rng.integers(1, 13))
        inv, p, _ = random_model_draw(rng, m=m, t_lo=0.05, t_hi=40.0)
        alphas = p.alpha * np.array([0.5, 1.0, 2.0, 0.5, 1.0, 2.0])
        gs = p.g + np.array([0.0, 0.0, 0.0, 1e-3, 1e-3, 1e-3])
        out.append({
            "params": [plain(inv), plain(p)],
            "hopf_in_T": call(hopf_locator.hopf_in_T, p, inv),
            "hopf_in_g": call(hopf_locator.hopf_in_g, p, inv),
            "hopf_in_alpha": call(hopf_locator.hopf_in_alpha, p, inv),
            "table": call(hopf_locator._growth_hopf, p, inv, hopf_locator.G_GRID, TABLE_ORDERS),
            **{f"growth_hopf_{n}": call(hopf_locator._growth_hopf, p, inv, n) for n in (7, 18, 50)},
            "axis_crossings": call(hopf_locator._axis_crossings, p, inv, alphas, gs),
            "axis_crossings_first": call(hopf_locator._axis_crossings, p, inv, alphas, gs, first=True),
        })
    return out


def sweeps():
    alphas, gs = np.linspace(0.3, 1.5, 40), np.linspace(0.005, 0.025, 23)
    out = {}
    for m in (1, 2, 3, 6, 12):
        out[f"surface_m{m}"] = call(lambda m=m: sweep.surface_T(BASELINE, INVESTMENT, m, alphas, gs).t_bi)
        out[f"curve_alpha_m{m}"] = call(lambda m=m: sweep.curve_T_vs_alpha(
            BASELINE, INVESTMENT, m, np.linspace(0.3, 1.5, 60)).t_bi)
        out[f"curve_g_m{m}"] = call(lambda m=m: sweep.curve_T_vs_g(
            BASELINE, INVESTMENT, m, np.linspace(0.005, 0.025, 60)).t_bi)
    return out


def large_m():
    out = {}
    for m in (10**3, 10**5, 10**6):
        out[f"hopf_in_T_m{m}"] = call(hopf_locator.hopf_in_T, BASELINE.replace(alpha=0.7), INVESTMENT, m=m)
        out[f"hopf_in_g_m{m}"] = call(hopf_locator.hopf_in_g, BASELINE, INVESTMENT, m=m)
    out["table"] = call(hopf_locator._growth_hopf, BASELINE, INVESTMENT, hopf_locator.G_GRID, [10**3, 10**5, 10**6])
    return out


def cases():
    return {
        "far_crossing_m2": call(hopf_locator.hopf_in_T, BASELINE.replace(g=0.023124938994631524), INVESTMENT, m=2),
        "scan_g_m1000_T1e12": call(hopf_locator.hopf_in_g, BASELINE.replace(m=1000, T=1e12), INVESTMENT, n_grid=200),
        **{f"hopf_in_T_m1e{k}": call(hopf_locator.hopf_in_T, BASELINE.replace(alpha=0.7, m=10**k), INVESTMENT)
           for k in (7, 8)},
    }


def budget():
    """The benchmark's T-route calls, each counted on its own."""
    alphas = np.linspace(0.6, 0.764, 83)
    s_alphas, s_gs = np.linspace(0.6, 0.75, 16), np.linspace(0.012, 0.019, 16)
    return {
        "critical_delays_m3": lambda: hopf_locator.critical_delays(
            BASELINE.replace(alpha=0.58, g=0.015), INVESTMENT, m=3),
        "curve_T_vs_alpha_m1": lambda: sweep.curve_T_vs_alpha(BASELINE, INVESTMENT, 1, alphas).t_bi,
        "surface_T_m2": lambda: sweep.surface_T(BASELINE, INVESTMENT, 2, s_alphas, s_gs).t_bi,
        "surface_T_m3": lambda: sweep.surface_T(BASELINE, INVESTMENT, 3, s_alphas, s_gs).t_bi,
    }


def run(path, seed, count):
    calls = [0]
    phase = hopf_locator._phase

    def counted(*args, **kwargs):
        calls[0] += 1
        return phase(*args, **kwargs)

    hopf_locator._phase = counted
    doc = {"seed": seed, "draws_count": count, "source": os.path.dirname(os.path.dirname(hopf_locator.__file__)),
           "phase_calls": {}, "results": {}}
    sections = [("draws", lambda: draws(seed, count)), ("sweeps", sweeps), ("large_m", large_m),
                ("cases", cases)]
    sections += [(f"budget/{name}", lambda fn=fn: call(fn)) for name, fn in budget().items()]
    for name, section in sections:
        calls[0] = 0
        doc["results"][name] = section()
        doc["phase_calls"][name] = calls[0]
    doc["phase_calls"]["total"] = sum(doc["phase_calls"].values())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(doc["phase_calls"], indent=1))


def entries(results, prefix=""):
    """(name, JSON text) of every leaf entry: each call's result or error."""
    if isinstance(results, dict) and not ({"result", "error"} & results.keys()):
        for key, value in results.items():
            yield from entries(value, f"{prefix}/{key}" if prefix else key)
    elif isinstance(results, list) and results and isinstance(results[0], dict) and "params" in results[0]:
        for i, value in enumerate(results):
            yield from entries(value, f"{prefix}[{i}]")
    else:
        yield prefix, json.dumps(results, sort_keys=True)


def close(x, y, rtol):
    """Whether the JSON data ``x`` and ``y`` agree: floats to ``rtol``
    relative, everything else (the shape, ints, strings, messages) exactly."""
    if isinstance(x, float) and isinstance(y, float):
        return abs(x - y) <= rtol * max(abs(x), abs(y))
    if isinstance(x, list) and isinstance(y, list):
        return len(x) == len(y) and all(close(u, v, rtol) for u, v in zip(x, y))
    if isinstance(x, dict) and isinstance(y, dict):
        return x.keys() == y.keys() and all(close(x[k], y[k], rtol) for k in x)
    return x == y


def compare(path_a, path_b, rtol=0.0):
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    left, right = dict(entries(a["results"])), dict(entries(b["results"]))
    differ = sorted(k for k in left.keys() | right.keys() if left.get(k) != right.get(k))
    beyond = differ if not rtol else [
        k for k in differ
        if k not in left or k not in right or not close(json.loads(left[k]), json.loads(right[k]), rtol)
    ]
    for key in differ:
        print(f"{'differs' if key in beyond else 'within rtol'}: {key}")
    print(f"{len(left)} entries, {len(differ)} differ" + (f", {len(beyond)} beyond rtol {rtol:g}" if rtol else ""))
    print(f"{'section':32} {'A':>8} {'B':>8}")
    for key in [*a["phase_calls"], *(k for k in b["phase_calls"] if k not in a["phase_calls"])]:
        print(f"{key:32} {a['phase_calls'].get(key, '-'):>8} {b['phase_calls'].get(key, '-'):>8}")
    return 1 if beyond else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run the census and write it to a JSON file")
    run_p.add_argument("out")
    run_p.add_argument("--seed", type=int, default=7)
    run_p.add_argument("--draws", type=int, default=300)
    cmp_p = sub.add_parser("compare", help="compare two census files bit for bit, or to --rtol")
    cmp_p.add_argument("a")
    cmp_p.add_argument("b")
    cmp_p.add_argument("--rtol", type=float, default=0.0,
                       help="relative tolerance on floats; the rest must still match exactly")
    args = parser.parse_args(argv)
    if args.command == "run":
        run(args.out, args.seed, args.draws)
        return 0
    return compare(args.a, args.b, args.rtol)


if __name__ == "__main__":
    sys.exit(main())
