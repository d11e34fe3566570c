#!/usr/bin/env python3
"""chaintrick benchmark: end-to-end metrics, or per-layer metrics when traced.

Usage (from the root of a checkout; needs no install and no network):

    python3 perfbench/run.py --workload bifurcation-scan --seed 1 --seconds 36 --trace 0

It runs the repository's in-place build step, then measures set-up in
fresh interpreters, then repeats whole rounds of the workload's task list
(at least two) for at most about ``--seconds``, checking every output against
``oracles``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record
goes to ``perfbench/results/``.  Exit status is 0 only when every
operation passed its check, apart from the known-fault operations of
``workloads`` (counted in ``failed``, the same share in every run).
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUPS = 5


def time_setup(name, seed, tmpdir, env):
    """Wall time of a fresh interpreter doing the workload's set-up."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), name, str(seed), tmpdir],
        env=env, cwd=ROOT, capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {name} failed:\n{proc.stderr}")
    return elapsed


def _round_total(records, key):
    return sum(r[key] for r in records)


def _relative(records, key):
    """A round's task time over the time of the reference work in it."""
    return _round_total(records, key) / _round_total(records, f"ref_{key}")


def measure(args, env, tmpdir):
    from workloads import WORKLOADS, reference_loop, run_round

    workload = WORKLOADS[args.workload](args.seed, tmpdir, env)
    setups = [] if args.trace else [time_setup(args.workload, args.seed, tmpdir, env)
                                    for _ in range(SETUPS)]
    workload.setup()
    rounds = []
    tracer = None
    if not args.trace:
        # whole rounds, at least two, while one more as long as the last
        # still ends within --seconds
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            rounds.append(run_round(workload.tasks(), reference=reference_loop))
            now = time.perf_counter()
            if len(rounds) >= 2 and (now - start) + (now - t0) > args.seconds:
                break
        walls = [_round_total(r, "wall_s") for r in rounds]
        if workload.in_process:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            peak_kb = max(rec["maxrss_kb"] for r in rounds for rec in r)
        # Task time over the reference work's time in the same round: the
        # host's drifting speed cancels out.
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_rel": (statistics.median(_relative(r, "wall_s") for r in rounds), "ratio"),
            "cpu_rel": (statistics.median(_relative(r, "cpu_s") for r in rounds), "ratio"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
        raw = {"wall_s": statistics.median(walls),
               "cpu_s": statistics.median(_round_total(r, "cpu_s") for r in rounds)}
        checks = []
    else:
        raw = {}
        from layers import run_probe
        from spans import Tracer

        tracer = Tracer()
        rounds.append(run_round(workload.tasks()))
        rounds.append(run_round(workload.tasks(), lambda task: tracer.span(task.name)))
        metrics, checks, probe_round = run_probe(tracer, env, tmpdir)
        rounds.append(probe_round)
        metrics["trace.overhead_s"] = (
            _round_total(rounds[1], "wall_s") - _round_total(rounds[0], "wall_s"), "s")
    # (problems, known fault) of every checked output
    outcomes = [(c, False) for c in checks]
    outcomes += [(rec["problems"], rec["known_fault"]) for r in rounds for rec in r]
    problems = [p for c, known in outcomes if not known for p in c]
    return {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(1 for c, _ in outcomes if c),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }, {"setups_s": setups, "raw_s": raw, "rounds": rounds, "problems": problems,
        "known_faults": [p for c, known in outcomes if known for p in c],
        "spans": tracer}


def _meta():
    import numpy

    from chaintrick._core import backend_name

    return {
        "backend": backend_name(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("bifurcation-scan", "cycle-simulation", "cli-session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chaintrick" / "__init__.py").is_file() or not (ROOT / "setup.py").is_file():
        print(f"perfbench: no chaintrick source tree under {ROOT}", file=sys.stderr)
        return 2
    build = subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"],
                           cwd=ROOT, capture_output=True, text=True)
    if build.returncode != 0:
        print(f"perfbench: in-place build failed:\n{build.stderr}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.pop("CHAINTRICK_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    os.environ.pop("CHAINTRICK_THREADS", None)
    sys.path.insert(0, str(SRC))

    tmp_root = HERE / "tmp"
    tmp_root.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        result, record = measure(args, env, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        if not any(tmp_root.iterdir()):
            tmp_root.rmdir()

    meta = _meta()
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans")
    if spans is not None:
        spans.write(f"{stem}.spans.jsonl")
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "args": vars(args), "result": result, **record}, fh, indent=1)

    for problem in record["problems"]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    for problem in sorted(set(record["known_faults"])):
        print(f"perfbench: known fault {problem}", file=sys.stderr)
    print(" ".join(f"{k}={v}" for k, v in meta.items()) + f" rounds={len(record['rounds'])}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for name, value in record["raw_s"].items():
        print(f"{name} = {value:.6g} s (median round, not normalised)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
