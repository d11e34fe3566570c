"""The layer probe: per-layer metrics of the traced run.

Every traced run, whatever its workload, makes the same calls into each
module's public functions with fixed inputs, so a per-layer figure means
the same thing in every run.  Each call (or batch of calls, for functions
that take microseconds) is a span of the tracer; a metric is the median
per-call duration of its spans.

The four cases of ``benchmarks/bench_integrate.py`` (m = 1, 2, 4 over 4000
time units and m = 1 at T = 1.036 over 40000) feed the ``simulator.*``
metrics.  The eigenvalue counts cover one bifurcation-scan round at the
fixed ``PROBE_SEED`` (the table, the alpha curve, both surfaces with the
default sweep pool, and the seeded critical delays and alpha crossings),
without its known-fault call, so they are the same in every run.  They
count ``numpy.linalg.eigvals`` whether the program calls it directly or
through ``numpy.roots``.
"""

import os
import statistics
import subprocess
import sys
import time

import numpy as np

from spans import EigvalsCounter
from workloads import (
    BASE, INVESTMENT, SURFACE_ALPHAS, SURFACE_GS, TABLE_ORDERS,
    BifurcationScan, CliSession, linspace, run_round,
)

#: Seed of the CLI inputs in the probe (fixed, so cli.*_s compare across runs).
PROBE_SEED = 0

#: bench_integrate.py cases: (m, T, horizon); alpha = 0.9, g = 0.016.
INTEGRATE_CASES = ((1, 3.0, 4000.0), (2, 3.0, 4000.0), (4, 3.0, 4000.0), (1, 1.036, 40000.0))

#: Per-layer metrics read from spans: name -> (span name, scale, unit).
SPAN_METRICS = {
    "model_core.equilibrium_us": ("model_core.equilibrium", 1e6, "us"),
    "chain_system.jacobian_m1_us": ("chain_system.jacobian_m1", 1e6, "us"),
    "chain_system.jacobian_m4_us": ("chain_system.jacobian_m4", 1e6, "us"),
    "chain_system.rhs_us": ("chain_system.rhs", 1e6, "us"),
    "char_poly.routh_hurwitz_m1_us": ("char_poly.routh_hurwitz_m1", 1e6, "us"),
    "char_poly.routh_hurwitz_m2_us": ("char_poly.routh_hurwitz_m2", 1e6, "us"),
    "hopf_locator.critical_delays_m1_us": ("hopf_locator.critical_delays_m1", 1e6, "us"),
    "hopf_locator.critical_delays_m2_us": ("hopf_locator.critical_delays_m2", 1e6, "us"),
    "hopf_locator.critical_delays_m3_ms": ("hopf_locator.critical_delays_m3", 1e3, "ms"),
    "hopf_locator.critical_delays_m6_ms": ("hopf_locator.critical_delays_m6", 1e3, "ms"),
    "hopf_locator.hopf_in_g_ms": ("hopf_locator.hopf_in_g", 1e3, "ms"),
    "hopf_locator.hopf_in_alpha_ms": ("hopf_locator.hopf_in_alpha", 1e3, "ms"),
    "simulator.cycle_metrics_ms": ("simulator.cycle_metrics", 1e3, "ms"),
    "simulator.write_csv_ms": ("simulator.write_csv", 1e3, "ms"),
    "sweep.write_curve_csv_ms": ("sweep.write_curve_csv", 1e3, "ms"),
    "sweep.write_surface_csv_ms": ("sweep.write_surface_csv", 1e3, "ms"),
    "sweep.cell_m1_us": ("sweep.cell_m1", 1e6, "us"),
    "sweep.cell_m3_ms": ("sweep.cell_m3", 1e3, "ms"),
    "cli.interpreter_s": ("cli.interpreter", 1.0, "s"),
}

_IMPORT_PROBE = (
    "import sys, time; n = len(sys.modules); t = time.perf_counter(); import chaintrick; "
    "print(time.perf_counter() - t, len(sys.modules) - n)"
)


def _batches(tracer, name, fn, calls, batches):
    for _ in range(batches):
        with tracer.span(name, calls=calls):
            for _ in range(calls):
                fn()


def _spawn_time(argv, env, cwd):
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv!r} exited {proc.returncode}: {proc.stderr[-300:]}")
    return elapsed, proc.stdout


def run_probe(tracer, env, tmpdir):
    """Make the probe's calls.

    Returns (metrics, checks, records): metrics map a name to (value,
    unit), checks hold one list of problems per checked output, and records
    are those of the probe's bifurcation-scan round.
    """
    import chaintrick as ct
    from chaintrick import chain_system, char_poly, hopf_locator, model_core, simulator, sweep

    inv = ct.InvestmentParams(**INVESTMENT)
    base = ct.MacroParams(**BASE)
    p_a = base.replace(alpha=0.7)
    metrics, checks = {}, []

    # single-call layers, batched where a call takes microseconds
    sys1, sys4 = chain_system.build(base, inv), chain_system.build(base.replace(m=4), inv)
    s1, s4 = chain_system.equilibrium_state(sys1), chain_system.equilibrium_state(sys4)
    eq = model_core.equilibrium(base, inv)
    _batches(tracer, "model_core.equilibrium", lambda: model_core.equilibrium(base, inv), 200, 7)
    _batches(tracer, "chain_system.jacobian_m1",
             lambda: chain_system.jacobian(chain_system.build(base, inv), s1), 200, 7)
    _batches(tracer, "chain_system.jacobian_m4",
             lambda: chain_system.jacobian(chain_system.build(base.replace(m=4), inv), s4), 200, 7)
    _batches(tracer, "chain_system.rhs", lambda: chain_system.rhs(sys1, s1 * 1.01), 200, 7)
    _batches(tracer, "char_poly.routh_hurwitz_m1",
             lambda: char_poly.routh_hurwitz_cubic(char_poly.coeffs_m1(eq, base)), 100, 7)
    _batches(tracer, "char_poly.routh_hurwitz_m2",
             lambda: char_poly.routh_hurwitz_quartic(char_poly.coeffs_m2(eq, base.replace(m=2))), 100, 7)
    for m, calls, batches in ((1, 20, 7), (2, 20, 7), (3, 1, 5), (6, 1, 5)):
        _batches(tracer, f"hopf_locator.critical_delays_m{m}",
                 lambda m=m: hopf_locator.critical_delays(p_a, inv, m=m), calls, batches)
    for m in TABLE_ORDERS:
        _batches(tracer, "hopf_locator.hopf_in_g", lambda m=m: hopf_locator.hopf_in_g(base, inv, m=m), 1, 1)
    _batches(tracer, "hopf_locator.hopf_in_alpha",
             lambda: hopf_locator.hopf_in_alpha(base.replace(T=1.5), inv, alpha_range=(0.3, 1.5)), 1, 5)
    _batches(tracer, "sweep.cell_m1", lambda: sweep.smallest_critical_delay(p_a, inv, m=1), 20, 7)
    _batches(tracer, "sweep.cell_m3", lambda: sweep.smallest_critical_delay(p_a, inv, m=3), 1, 5)

    # one bifurcation-scan round at the probe seed, default pool, counted
    scan = BifurcationScan(PROBE_SEED, tmpdir, env)
    scan.setup()
    counter = EigvalsCounter()
    scan_round = run_round([t for t in scan.tasks() if not t.known_fault], lambda task: counter)
    curve, surface_m2, surface_m3 = (scan.outputs[k] for k in ("curve", "surface_m2", "surface_m3"))
    s_alphas, s_gs = linspace(*SURFACE_ALPHAS), linspace(*SURFACE_GS)
    os.environ["CHAINTRICK_THREADS"] = "1"
    try:
        with tracer.span("sweep.surface_T_m3_serial"):
            serial = sweep.surface_T(base, inv, 3, s_alphas, s_gs)
    finally:
        del os.environ["CHAINTRICK_THREADS"]
    same = serial.t_bi.tobytes() == surface_m3.t_bi.tobytes()
    checks.append([] if same else ["serial and pooled m=3 surfaces differ"])
    metrics["hopf_locator.eigvals_calls"] = (counter.calls, "count")
    metrics["hopf_locator.eigvals_matrices"] = (counter.matrices, "count")
    pooled = next(rec["wall_s"] for rec in scan_round if rec["task"] == "surface_T_m3")
    metrics["sweep.pool_speedup"] = (tracer.durations("sweep.surface_T_m3_serial")[0] / pooled, "ratio")
    cells = [curve.t_bi, surface_m2.t_bi.ravel(), surface_m3.t_bi.ravel()]
    finite = sum(int(np.isfinite(c).sum()) for c in cells)
    metrics["sweep.cells_with_hopf_ratio"] = (finite / sum(c.size for c in cells), "ratio")
    _batches(tracer, "sweep.write_curve_csv",
             lambda: sweep.write_curve_csv(curve, os.path.join(tmpdir, "probe_curve.csv")), 1, 5)
    _batches(tracer, "sweep.write_surface_csv",
             lambda: sweep.write_surface_csv(surface_m3, os.path.join(tmpdir, "probe_surface.csv")), 1, 5)

    # integrator and cycle measurement: the bench_integrate.py cases
    model_time = 0.0
    trajectories = []
    for m, T, horizon in INTEGRATE_CASES:
        sys_ = ct.build(base.replace(alpha=0.9, T=T, m=m), inv)
        s0 = ct.constant_history_state(sys_, 15.0, 100.0)
        with tracer.span("simulator.integrate", m=m, horizon=horizon):
            trajectories.append(simulator.integrate(sys_, s0, horizon, sample_dt=0.25))
        model_time += horizon
    spans = [s for s in tracer.spans if s["name"] == "simulator.integrate"]
    per_4000 = {(s["m"], s["horizon"]): (s["end"] - s["start"]) * 4000.0 / s["horizon"] for s in spans}
    metrics["simulator.integrate_m1_ms"] = (per_4000[(1, 4000.0)] * 1e3, "ms")
    metrics["simulator.integrate_m4_ms"] = (per_4000[(4, 4000.0)] * 1e3, "ms")
    metrics["simulator.model_time_per_s"] = (
        model_time / sum(s["end"] - s["start"] for s in spans), "units/s")
    for traj in trajectories[:3]:
        _batches(tracer, "simulator.cycle_metrics", lambda traj=traj: simulator.cycle_metrics(traj), 1, 3)
    _batches(tracer, "simulator.write_csv",
             lambda: trajectories[0].write_csv(os.path.join(tmpdir, "probe_traj.csv")), 1, 3)

    # the CLI: bare interpreter, import, then each cli-session command once
    for _ in range(5):
        with tracer.span("cli.interpreter"):
            _spawn_time([sys.executable, "-c", "pass"], env, tmpdir)
    imports = []
    for _ in range(5):
        _, out = _spawn_time([sys.executable, "-c", _IMPORT_PROBE], env, tmpdir)
        seconds, modules = out.split()
        imports.append((float(seconds), int(modules)))
    metrics["cli.import_s"] = (statistics.median(s for s, _ in imports), "s")
    metrics["cli.import_modules"] = (max(n for _, n in imports), "count")
    steady = len({n for _, n in imports}) == 1
    checks.append([] if steady else [f"import chaintrick loaded a varying number of modules: {imports}"])
    session = CliSession(PROBE_SEED, tmpdir, env)
    session.setup()
    for task in session.tasks():
        with tracer.span(f"cli.{task.name}") as span:
            res = task.run()
        metrics[f"cli.{task.name}_s"] = (span["end"] - span["start"], "s")
        checks.append(task.check(res))

    for name, (span_name, scale, unit) in SPAN_METRICS.items():
        metrics[name] = (statistics.median(tracer.durations(span_name)) * scale, unit)
    return metrics, checks, scan_round
