"""The benchmark's three workloads.

Each workload is a closed loop: one client, one task at a time.  Its
inputs come from ``random.Random(seed)``; the program only ever sees the
generated values.  ``setup()`` does what a user pays before the first
task (importing chaintrick for the in-process workloads, generating the
inputs, one warm-up call) and ``tasks()`` returns one round: the fixed
task list, each task a call into the program plus an independent check of
its output.

Run as a script (``python3 perfbench/workloads.py WORKLOAD SEED TMPDIR``)
it performs ``setup()`` alone; the runner times that in a fresh
interpreter to measure set-up.
"""

import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from contextlib import nullcontext

import numpy as np

import oracles

#: Dana-Malgrange investment function and the paper's macro parameters.
INVESTMENT = {"a": 9.0, "c": 0.01, "d": 0.026, "v": 4.23}
BASE = {"alpha": 1.0, "gamma": 0.15, "delta": 0.007, "g": 0.016, "G0": 2.0, "T": 1.0, "m": 1}

#: Fixed grids of the published figures (criterion grids of the test suite).
CURVE_ALPHAS = (0.6, 0.764, 83)
SURFACE_ALPHAS = (0.6, 0.75, 16)
SURFACE_GS = (0.012, 0.019, 16)
TABLE_ORDERS = [1, 2, 3, 4]


def linspace(lo, hi, n):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def oracle_params(**macro):
    """Plain-dict parameters for :mod:`oracles` (BASE with overrides)."""
    p = dict(INVESTMENT)
    p.update({k: v for k, v in BASE.items() if k not in ("T", "m")})
    p.update(macro)
    return p


class Task:
    """One operation: ``run()`` calls the program, ``check(output)`` returns
    a list of problems (empty when the output is correct).

    A ``known_fault`` task runs on fixed inputs that show a known fault of
    the program: its failure is counted in ``failed`` but leaves the run
    correct, because it fails the same way in every run.
    """

    __slots__ = ("name", "run", "check", "known_fault")

    def __init__(self, name, run, check, known_fault=False):
        self.name, self.run, self.check = name, run, check
        self.known_fault = known_fault


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


#: Weights of the reference work's dot product.
_REF_ROW = np.array([0.1, 0.2, 0.3])


def reference_loop():
    """Fixed work, about 50 ms where the README's figures were taken.

    A pure-Python loop, a loop of small numpy operations on a few arrays,
    and one over the rows of a larger array: the kinds of work the
    program's time goes to.  The host's speed drifts by a quarter or more
    over tens of seconds on a shared machine, and this work slows with it.
    """
    s = 0
    for i in range(200_000):
        s += i * i % 7
    y, k = np.ones(5), np.zeros((7, 5))
    for _ in range(2_000):
        k[3] = y + 0.1 * (_REF_ROW @ k[:3])
        y = np.maximum(np.abs(y), np.abs(k[3])) * 0.5 + 1.0
    acc = np.zeros(7)
    for row in np.random.default_rng(0).random((2_000, 7)):
        acc = acc * 0.5 + np.sqrt(np.abs(row)) * row.sum()
    return s, y, acc


def run_round(tasks, wrap=None, reference=None):
    """Run one round; the check of each output happens outside its timing.

    ``wrap(task)``, when given, returns a context manager entered around
    each call (a tracer span, an eigenvalue counter).  ``reference``, when
    given, is timed before each task, outside the task's timing, into the
    ``ref_wall_s`` and ``ref_cpu_s`` of the task's record.
    """
    records = []
    for task in tasks:
        ref_wall = ref_cpu = 0.0
        if reference is not None:
            c0, t0 = _cpu_seconds(), time.perf_counter()
            reference()
            ref_wall, ref_cpu = time.perf_counter() - t0, _cpu_seconds() - c0
        error, out = None, None
        c0, t0 = _cpu_seconds(), time.perf_counter()
        try:
            with wrap(task) if wrap else nullcontext():
                out = task.run()
        except Exception as exc:  # a failed operation, counted and reported
            error = f"{type(exc).__name__}: {exc}"
        t1, c1 = time.perf_counter(), _cpu_seconds()
        if error is None:
            try:
                problems = task.check(out)
            except Exception as exc:  # a malformed output fails its check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            problems = [error]
        records.append({
            "task": task.name,
            "known_fault": task.known_fault,
            "wall_s": t1 - t0,
            "cpu_s": c1 - c0,
            "ref_wall_s": ref_wall,
            "ref_cpu_s": ref_cpu,
            "maxrss_kb": getattr(out, "maxrss_kb", None),
            "problems": [f"{task.name}: {p}" for p in problems],
        })
    return records


class Workload:
    """Inputs come from ``seed``; files go to ``tmpdir``; child processes
    get ``env``."""

    def __init__(self, seed, tmpdir, env):
        self.seed, self.tmpdir, self.env = seed, tmpdir, env


class InProcess(Workload):
    """Shared set-up of the workloads that call the library directly."""

    in_process = True

    def setup(self):
        import chaintrick

        self.ct = chaintrick
        self.inv = chaintrick.InvestmentParams(**INVESTMENT)
        self.base = chaintrick.MacroParams(**BASE)
        self.make_inputs(random.Random(self.seed))
        self.warm_up()


class BifurcationScan(InProcess):
    """Hopf location and sweeps, no integration."""

    name = "bifurcation-scan"

    def make_inputs(self, rng):
        # alpha stays at or below 0.61: above it an unstable pair of the
        # m >= 3 systems turns real below the T = 50 scan cap on some g, and
        # critical_delays reports that as a spurious crossing on some seeds.
        # FAULT_POINT shows that fault on every run; widen this range to 0.74
        # once it is fixed.
        self.points = [
            (rng.uniform(0.56, 0.61), rng.uniform(0.012, 0.019), rng.uniform(0.5, 3.0))
            for _ in range(3)
        ]
        self.check_orders = (3, 4, 5, 6)

    def warm_up(self):
        from chaintrick.hopf_locator import critical_delays

        critical_delays(self.base.replace(alpha=0.7), self.inv, m=1)

    def tasks(self):
        from chaintrick import sweep
        from chaintrick.hopf_locator import critical_delays, hopf_in_alpha

        ct, inv, base = self.ct, self.inv, self.base
        out = self.outputs = {}
        alphas = linspace(*CURVE_ALPHAS)
        s_alphas, s_gs = linspace(*SURFACE_ALPHAS), linspace(*SURFACE_GS)

        def keep(key, fn):
            def run():
                out[key] = fn()
                return out[key]
            return run

        def check_curve(curve):
            problems = []
            for al, tb in zip(alphas, curve.t_bi):
                problems += oracles.check_cell(oracle_params(alpha=al), 1, float(tb))
            return problems + oracles.check_threshold(curve.fit.threshold_alpha)

        def check_surface(m):
            def check(surface):
                if surface.t_bi.shape != (len(s_alphas), len(s_gs)):
                    return [f"surface shape {surface.t_bi.shape}"]
                problems = []
                for i, al in enumerate(s_alphas):
                    for j, g in enumerate(s_gs):
                        problems += oracles.check_cell(oracle_params(alpha=al, g=g), m,
                                                       float(surface.t_bi[i, j]))
                return problems
            return check

        tasks = [
            Task("table_g_bifurcations", keep("table", lambda: sweep.table_g_bifurcations(
                base, inv, TABLE_ORDERS)), oracles.check_table2),
            Task("curve_T_vs_alpha_m1", keep("curve", lambda: sweep.curve_T_vs_alpha(
                base, inv, 1, alphas)), check_curve),
        ]
        for m in (2, 3):
            tasks.append(Task(f"surface_T_m{m}", keep(f"surface_m{m}", lambda m=m: sweep.surface_T(
                base, inv, m, s_alphas, s_gs)), check_surface(m)))

        for k, (al, g, t_alpha) in enumerate(self.points):
            p = base.replace(alpha=al, g=g)
            op = oracle_params(alpha=al, g=g)

            def check_eq(eq, op=op):
                return oracles.check_equilibrium(
                    op, eq.x_star, eq.y_star, eq.k_star, eq.Iy_star, eq.Ik_star)

            tasks.append(Task(f"equilibrium_p{k}", lambda p=p: ct.equilibrium(p, inv), check_eq))
            for m in self.check_orders:
                tasks.append(Task(f"critical_delays_m{m}_p{k}",
                                  lambda p=p, m=m: critical_delays(p, inv, m=m), check_delays_at(op, m)))

            def check_alpha(points, op=op, t_alpha=t_alpha):
                problems = []
                for h in points:
                    problems += oracles.check_hopf(op, 1, t_alpha, "alpha", h.value, h.omega, h.crossing)
                return problems

            tasks.append(Task(f"hopf_in_alpha_p{k}", lambda p=p, t=t_alpha: hopf_in_alpha(
                p.replace(T=t), inv, alpha_range=(0.3, 1.5)), check_alpha))

        f_alpha, f_g, f_m = FAULT_POINT
        tasks.append(Task(f"critical_delays_m{f_m}_fault", lambda: critical_delays(
            base.replace(alpha=f_alpha, g=f_g), inv, m=f_m),
            check_delays_at(oracle_params(alpha=f_alpha, g=f_g), f_m), known_fault=True))

        path = lambda stem: os.path.join(self.tmpdir, stem + ".csv")

        def check_file(stem, header, rows):
            return lambda _: oracles.check_csv(path(stem), header, rows) + oracles.check_sidecar(path(stem))

        tasks += [
            Task("write_table_csv", lambda: sweep.write_table_csv(out["table"], path("table")),
                 check_file("table", "m,g_bi1,g_bi2", len(TABLE_ORDERS))),
            Task("write_curve_csv", lambda: sweep.write_curve_csv(out["curve"], path("curve")),
                 check_file("curve", "param,T_bi", len(alphas))),
        ]
        for m in (2, 3):
            tasks.append(Task(f"write_surface_csv_m{m}",
                              lambda m=m: sweep.write_surface_csv(out[f"surface_m{m}"], path(f"surface_m{m}")),
                              check_file(f"surface_m{m}", "alpha,g,T_bi", len(s_alphas) * len(s_gs))))
        return tasks


#: (alpha, g, m) where critical_delays reports a spurious crossing at
#: T = 49.52 (see CHANGES.md); a fixed input, so it fails in every run.
FAULT_POINT = (0.701, 0.0136, 4)


def check_delays_at(op, m):
    """Check every critical delay returned for oracle parameters ``op``."""
    def check(points):
        problems = []
        for h in points:
            problems += oracles.check_hopf(op, m, None, "T", h.value, h.omega, h.crossing)
        return problems
    return check


#: Published growth-rate Hopf cases: (m, index into TABLE2, horizon past,
#: horizon before).  Past the point the equilibrium is unstable and a small
#: cycle grows; before it the oscillation decays.  The horizons give every
#: seeded kick enough e-foldings to settle.
HOPF_CASES = ((1, 1, 12000.0, 5000.0), (2, 0, 20000.0, 8000.0))
HOPF_OFFSET = 0.01


class CycleSimulation(InProcess):
    """Integration followed by cycle measurement."""

    name = "cycle-simulation"

    def make_inputs(self, rng):
        self.cycle_starts = {
            m: (15.0 * (1.0 + rng.uniform(-0.02, 0.02)), 100.0 * (1.0 + rng.uniform(-0.02, 0.02)))
            for m in (1, 2, 4)
        }
        self.kicks = [(rng.uniform(0.0015, 0.0025), rng.uniform(0.0015, 0.0025)) for _ in HOPF_CASES]

    def warm_up(self):
        sys_ = self.ct.build(self.base.replace(alpha=0.9, T=3.0), self.inv)
        self.ct.integrate(sys_, self.ct.constant_history_state(sys_, 15.0, 100.0), 100.0, sample_dt=0.2)

    def tasks(self):
        ct, inv = self.ct, self.inv

        def simulate(p, s0, horizon, sample_dt):
            traj = ct.integrate(ct.build(p, inv), s0, horizon, sample_dt=sample_dt)
            return traj, ct.cycle_metrics(traj)

        tasks = []
        for m, (y0, k0) in self.cycle_starts.items():
            p = self.base.replace(alpha=0.9, T=3.0, m=m)
            s0 = ct.constant_history_state(ct.build(p, inv), y0, k0)

            def check(res, m=m):
                traj, mx = res
                if mx.kind != "limit_cycle":
                    return [f"m={m}: {mx.kind}, expected limit_cycle"]
                return oracles.check_cycle(traj.times, traj.y, mx.period, mx.amplitude, m=m)

            tasks.append(Task(f"cycle_m{m}", lambda p=p, s0=s0: simulate(p, s0, 4000.0, 0.2), check))

        for (m, which, h_past, h_before), kicks in zip(HOPF_CASES, self.kicks):
            g_bi = oracles.TABLE2[m][which]
            # g_bi1 destabilizes as g grows, g_bi2 stabilizes
            into = 1.0 if which == 0 else -1.0
            omega = oracles.axis_omega(oracle_params(g=g_bi), m, 1.0)
            for side, sign, horizon, kick in (("past", into, h_past, kicks[0]),
                                              ("before", -into, h_before, kicks[1])):
                p = self.base.replace(g=g_bi * (1.0 + sign * HOPF_OFFSET), m=m)
                s0 = ct.equilibrium_state(ct.build(p, inv))
                s0[0] *= 1.0 + kick

                def check(res, side=side, omega=omega, label=f"m={m} {side} g_bi{which + 1}"):
                    traj, mx = res
                    if side == "past":
                        if mx.kind != "limit_cycle":
                            return [f"{label}: {mx.kind}, expected limit_cycle"]
                        return oracles.check_cycle(traj.times, traj.y, mx.period, mx.amplitude,
                                                   omega=omega)
                    if mx.kind != "damped" or not mx.decay_rate < 0.0:
                        return [f"{label}: {mx.kind} (rate {mx.decay_rate}), expected damped"]
                    return []

                tasks.append(Task(f"hopf_m{m}_g{which + 1}_{side}",
                                  lambda p=p, s0=s0, h=horizon: simulate(p, s0, h, 1.0), check))
        return tasks


class CliResult:
    __slots__ = ("code", "stdout", "stderr", "maxrss_kb")


def run_cli(args, env, cwd):
    """Run ``python -m chaintrick.cli ARGS``; keep its peak memory."""
    out_path, err_path = os.path.join(cwd, ".stdout"), os.path.join(cwd, ".stderr")
    with open(out_path, "w+b") as fo, open(err_path, "w+b") as fe:
        proc = subprocess.Popen([sys.executable, "-m", "chaintrick.cli", *args],
                                stdout=fo, stderr=fe, env=env, cwd=cwd)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        fo.seek(0)
        fe.seek(0)
        res = CliResult()
        res.code = proc.returncode
        res.stdout = fo.read().decode("utf-8", "replace")
        res.stderr = fe.read().decode("utf-8", "replace")
    res.maxrss_kb = usage.ru_maxrss
    return res


#: The alpha range that ``hopf --vary alpha`` scans by default.
HOPF_ALPHA_RANGE = (0.05, 2.0)


class CliSession(Workload):
    """A scripted sequence of CLI subprocesses, one at a time."""

    name = "cli-session"
    in_process = False

    def setup(self):
        rng = random.Random(self.seed)
        self.g_eq = rng.uniform(0.012, 0.019)
        self.stab = (rng.uniform(0.011, 0.02), rng.uniform(0.5, 2.0))
        self.alpha_m1 = rng.uniform(0.6, 0.74)
        self.alpha_m2 = rng.uniform(0.6, 0.73)
        self.t_alpha = rng.uniform(0.5, 3.0)
        self.sim = (15.0 * (1.0 + rng.uniform(-0.02, 0.02)), 100.0 * (1.0 + rng.uniform(-0.02, 0.02)))
        self.curve_count = 40
        self.warm_up()

    def warm_up(self):
        run_cli(["equilibrium", "--json"], self.env, self.tmpdir)

    def command_list(self):
        """(metric name, argv, check(result, state)) for one round."""
        f = lambda x: repr(float(x))
        path = lambda name: os.path.join(self.tmpdir, name)
        g_st, t_st = self.stab
        y0, k0 = self.sim
        horizon, sample_dt = 600.0, 0.5

        def check_equilibrium(doc, _):
            return oracles.check_equilibrium(oracle_params(g=self.g_eq), doc["x_star"], doc["y_star"],
                                             doc["k_star"], doc["Iy_star"], doc["Ik_star"])

        def check_stability(doc, _):
            stable, margin = oracles.stable_by_fd(oracle_params(g=g_st), 1, t_st)
            if margin > 1e-7 and doc["stable"] != stable:
                return [f"stable={doc['stable']}, finite differences say {stable}"]
            return []

        def check_hopf(name, m, T, macro, scanned):
            def check(doc, _):
                op = oracle_params(**macro)
                problems = oracles.check_found(op, m, T, name, *scanned, found=bool(doc["hopf_points"]),
                                               label=f"hopf --vary {name}")
                for h in doc["hopf_points"]:
                    problems += oracles.check_hopf(op, m, T, name, h["value"], h["omega"], h["crossing"])
                return problems
            return check

        def check_simulate(doc, _):
            problems = oracles.check_csv(path("traj.csv"), "t,y,u1,k", int(horizon / sample_dt) + 1)
            with open(path("traj.csv"), encoding="utf-8") as fh:
                last = fh.read().strip().rsplit("\n", 1)[-1].split(",")[1:]
            if [float(x) for x in last] != doc["final_state"]:
                problems.append("final_state differs from the last CSV row")
            return problems

        def check_sweep(doc, _):
            problems = oracles.check_csv(path("curve.csv"), "param,T_bi", self.curve_count)
            problems += oracles.check_sidecar(path("curve.csv"))
            if doc["points"] + doc["gaps"] != self.curve_count:
                problems.append(f"points + gaps = {doc['points'] + doc['gaps']}")
            with open(path("curve.csv"), encoding="utf-8") as fh:
                rows = [line.split(",") for line in fh.read().split("\n")[1:] if line]
            for alpha, t_bi in rows:
                problems += oracles.check_cell(oracle_params(alpha=float(alpha)), 1,
                                               math.nan if t_bi == "NA" else float(t_bi))
            return problems

        def check_table(doc, state):
            problems = oracles.check_csv(path("table.csv"), "m,g_bi1,g_bi2", len(TABLE_ORDERS))
            problems += oracles.check_sidecar(path("table.csv"))
            problems += oracles.check_table2([(r["m"], r["g_bi1"], r["g_bi2"]) for r in doc["rows"]])
            with open(path("config.json"), encoding="utf-8") as fh:
                json.load(fh)
            state["table"] = [_read_bytes(path(n)) for n in ("table.csv", "table.meta.json")]
            return problems

        def check_replay(doc, state):
            problems = check_table(doc, {})
            if state.get("table_stdout") != state.get("replay_stdout"):
                problems.append("--config output differs from the --emit-config run")
            if [_read_bytes(path(n)) for n in ("table.csv", "table.meta.json")] != state.get("table"):
                problems.append("--config CSV or sidecar differs from the --emit-config run")
            return problems

        return [
            ("equilibrium", ["equilibrium", "--json", "--g", f(self.g_eq)], check_equilibrium),
            ("stability", ["stability", "--json", "--g", f(g_st), "--T", f(t_st)], check_stability),
            ("hopf_T_m1", ["hopf", "--json", "--vary", "T", "--alpha", f(self.alpha_m1)],
             check_hopf("T", 1, None, {"alpha": self.alpha_m1}, oracles.T_RANGE)),
            ("hopf_T_m2", ["hopf", "--json", "--vary", "T", "--m", "2", "--alpha", f(self.alpha_m2)],
             check_hopf("T", 2, None, {"alpha": self.alpha_m2}, oracles.T_RANGE)),
            ("hopf_alpha", ["hopf", "--json", "--vary", "alpha", "--T", f(self.t_alpha)],
             check_hopf("alpha", 1, self.t_alpha, {}, HOPF_ALPHA_RANGE)),
            ("simulate", ["simulate", "--json", "--y0", f(y0), "--k0", f(k0), "--horizon", f(horizon),
                          "--sample-dt", f(sample_dt), "--out", path("traj.csv")], check_simulate),
            ("sweep_curve", ["sweep", "--json", "--curve", "T-vs-alpha", "--alpha-count",
                             str(self.curve_count), "--out", path("curve.csv")], check_sweep),
            ("table2_emit_config", ["table2", "--json", "--out", path("table.csv"),
                                    "--emit-config", path("config.json")], check_table),
            ("table2_config", ["table2", "--json", "--config", path("config.json"),
                               "--out", path("table.csv")], check_replay),
        ]

    def tasks(self):
        state = {}
        tasks = []
        for name, argv, check in self.command_list():
            def run(argv=argv):
                return run_cli(argv, self.env, self.tmpdir)

            def checked(res, name=name, check=check):
                if res.code != 0:
                    return [f"{name}: exit {res.code}: {res.stderr.strip()[-300:]}"]
                try:
                    doc = json.loads(res.stdout)
                except ValueError as exc:
                    return [f"{name}: stdout is not JSON ({exc})"]
                if name.startswith("table2"):
                    state["table_stdout" if name == "table2_emit_config" else "replay_stdout"] = res.stdout
                return check(doc, state)

            tasks.append(Task(name, run, checked))
        return tasks


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


WORKLOADS = {w.name: w for w in (BifurcationScan, CycleSimulation, CliSession)}


if __name__ == "__main__":
    name, seed, tmpdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    WORKLOADS[name](seed, tmpdir, dict(os.environ)).setup()
