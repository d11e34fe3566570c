"""Compiled core versus pure-Python fallback: same algorithm, same results."""

import shlex
import subprocess
import sysconfig
from pathlib import Path

import numpy as np
import pytest

import chaintrick._core as core
from chaintrick._core import HAVE_COMPILED, get_integrator
from chaintrick import simulator
from chaintrick.chain_system import build, constant_history_state
from chaintrick.simulator import cycle_metrics, integrate

needs_compiled = pytest.mark.skipif(
    not HAVE_COMPILED, reason="compiled integrator core not built"
)


def test_python_backend_always_available():
    assert callable(get_integrator("python"))


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        get_integrator("fortran")


@needs_compiled
def test_trajectories_agree(inv_dm, baseline):
    sys_ = build(baseline.replace(alpha=0.9, T=3.0), inv_dm)
    s0 = constant_history_state(sys_, 15.0, 100.0)
    a = integrate(sys_, s0, 300.0, sample_dt=0.5, backend="compiled")
    b = integrate(sys_, s0, 300.0, sample_dt=0.5, backend="python")
    np.testing.assert_allclose(a.states, b.states, rtol=1e-7, atol=1e-9)


@needs_compiled
def test_cycle_metrics_agree(inv_dm, baseline):
    sys_ = build(baseline.replace(alpha=0.9, T=3.0, m=2), inv_dm)
    s0 = constant_history_state(sys_, 15.0, 100.0)
    a = cycle_metrics(integrate(sys_, s0, 3000.0, sample_dt=0.25, backend="compiled"))
    b = cycle_metrics(integrate(sys_, s0, 3000.0, sample_dt=0.25, backend="python"))
    assert a.kind == b.kind == "limit_cycle"
    assert a.period == pytest.approx(b.period, rel=1e-6)
    assert a.amplitude == pytest.approx(b.amplitude, rel=1e-4)


@needs_compiled
def test_status_protocol_matches(inv_dm, baseline):
    # step underflow reported identically by both implementations
    run_c = get_integrator("compiled")
    run_py = get_integrator("python")

    p = baseline
    args = (
        1, p.alpha, p.gamma, p.delta, p.g, p.G0, p.T,
        inv_dm.a, inv_dm.c, inv_dm.d, inv_dm.v,
        0.0, 10.0, 0.5, 1e-300, 1e-300,
    )
    s0 = np.array([15.0, 15.0, 100.0])
    *_, status_c, _ = run_c(s0, *args)
    *_, status_py, _ = run_py(s0, *args)
    assert status_c == status_py == 3


@needs_compiled
def test_divergence_agrees(inv_dm, baseline, monkeypatch):
    # a guard low enough that the cycle peak trips it
    monkeypatch.setattr(simulator, "DIVERGENCE_LIMIT", 120.0)
    sys_ = build(baseline.replace(alpha=0.9, T=3.0), inv_dm)
    s0 = constant_history_state(sys_, 15.0, 100.0)
    a = integrate(sys_, s0, 4000.0, sample_dt=0.5, backend="compiled")
    b = integrate(sys_, s0, 4000.0, sample_dt=0.5, backend="python")
    assert a.diverged and b.diverged
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_allclose(a.states, b.states, rtol=1e-7, atol=1e-9)
    work = ("rhs_evaluations", "accepted_steps", "rejected_steps")
    assert [getattr(a, w) for w in work] == [getattr(b, w) for w in work]


@needs_compiled
@pytest.mark.parametrize("g, horizon, status", [(10.0, 5.0, 0), (1e14, 1e-12, 2)])
def test_capital_exits_agree(inv_dm, baseline, g, horizon, status):
    # k' = k (Phi - g - delta) decays at about the rate g, so a trial stage
    # of a long step reaches k <= 0 and the step is rejected and halved; at
    # g = 1e14 the halved step falls below its floor and the run stops
    p = baseline.replace(g=g)
    s0 = np.array([15.0, 15.0, 100.0])
    out = []
    for run in (get_integrator("compiled"), get_integrator("python")):
        counts = np.zeros(3, dtype=np.int64)
        times, states, code, t_stop = run(
            s0, p.m, p.alpha, p.gamma, p.delta, p.g, p.G0, p.T, inv_dm.a, inv_dm.c, inv_dm.d,
            inv_dm.v, 0.0, horizon, horizon / 10.0, 1e-6, 1e-8, counts=counts,
        )
        out.append((times, states, code, t_stop, counts.tolist()))
    (t_c, s_c, code_c, stop_c, counts_c), (t_py, s_py, code_py, stop_py, counts_py) = out
    assert code_c == code_py == status
    assert stop_c == stop_py
    assert counts_c == counts_py and counts_c[2] > 0
    np.testing.assert_array_equal(t_c, t_py)
    np.testing.assert_allclose(s_c, s_py, rtol=1e-7, atol=1e-9)


KERNEL_SOURCE = Path(core.__file__).with_name("_chain.c")


def _compiler():
    """The C compiler command Python was built with, if it runs here."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc:
        return None
    try:
        subprocess.run(cc + ["--version"], capture_output=True, check=True, timeout=60)
    except (OSError, subprocess.SubprocessError):
        return None
    return cc


@pytest.fixture(scope="module")
def kernel_from_source(tmp_path_factory):
    """``_chain.c`` compiled into a temporary directory and loaded by the
    loader ``chaintrick._core`` uses, so the C kernel is tested even
    without an in-place build."""
    cc = _compiler()
    if cc is None:
        pytest.skip("no C compiler runs here")
    lib = tmp_path_factory.mktemp("kernel") / "_chain.so"
    cflags = shlex.split(sysconfig.get_config_var("CCSHARED") or "-fPIC")
    subprocess.run(
        cc + ["-O3", "-shared", *cflags, str(KERNEL_SOURCE), "-o", str(lib), "-lm"],
        capture_output=True, check=True, timeout=120,
    )
    return core._load_kernel(lib)


def _run_with_counts(run, sys_, s0, horizon, rtol=1e-9, atol=1e-11):
    p, inv = sys_.params, sys_.inv
    counts = np.zeros(3, dtype=np.int64)
    out = run(
        s0, p.m, p.alpha, p.gamma, p.delta, p.g, p.G0, p.T,
        inv.a, inv.c, inv.d, inv.v, 0.0, horizon, 0.5, rtol, atol, counts=counts,
    )
    return out, counts


@pytest.mark.parametrize("m, horizon", [(1, 300.0), (2, 300.0), (4, 300.0), (40, 30.0)])
def test_kernel_from_source_agrees(kernel_from_source, inv_dm, baseline, m, horizon):
    sys_ = build(baseline.replace(alpha=0.9, T=3.0, m=m), inv_dm)
    s0 = constant_history_state(sys_, 15.0, 100.0)
    (t_c, s_c, status_c, stop_c), counts_c = _run_with_counts(
        kernel_from_source, sys_, s0, horizon
    )
    (t_py, s_py, status_py, stop_py), counts_py = _run_with_counts(
        get_integrator("python"), sys_, s0, horizon
    )
    assert status_c == status_py == 0
    assert stop_c == stop_py == horizon
    np.testing.assert_array_equal(t_c, t_py)
    np.testing.assert_allclose(s_c, s_py, rtol=1e-7, atol=1e-9)
    # equal work means the kernel takes the very steps of the reference
    assert counts_c.tolist() == counts_py.tolist()
    assert counts_c[0] > 0 and counts_c[1] > 0


def test_kernel_from_source_step_underflow(kernel_from_source, inv_dm, baseline):
    sys_ = build(baseline, inv_dm)
    s0 = np.array([15.0, 15.0, 100.0])
    (_, _, status_c, stop_c), counts_c = _run_with_counts(
        kernel_from_source, sys_, s0, 10.0, rtol=1e-300, atol=1e-300
    )
    (_, _, status_py, stop_py), counts_py = _run_with_counts(
        get_integrator("python"), sys_, s0, 10.0, rtol=1e-300, atol=1e-300
    )
    assert status_c == status_py == 3
    assert stop_c == stop_py
    assert counts_c.tolist() == counts_py.tolist()


def test_kernel_from_source_capital_exit(kernel_from_source, inv_dm, baseline):
    # k <= 0 at the start: one sample, status 2, one RHS evaluation
    sys_ = build(baseline, inv_dm)
    s0 = np.array([15.0, 15.0, 0.0])
    for run in (kernel_from_source, get_integrator("python")):
        (times, states, status, t_stop), counts = _run_with_counts(run, sys_, s0, 10.0)
        assert status == 2 and t_stop == 0.0
        assert times.tolist() == [0.0] and states.tolist() == [s0.tolist()]
        assert counts.tolist() == [1, 0, 0]


def test_kernel_from_source_checks_buffer_sizes(kernel_from_source, inv_dm, baseline):
    p, inv = baseline, inv_dm
    args = (p.alpha, p.gamma, p.delta, p.g, p.G0, p.T, inv.a, inv.c, inv.d, inv.v)
    with pytest.raises(ValueError):
        kernel_from_source(np.array([15.0]), -1, *args, 0.0, 10.0, 0.5, 1e-9, 1e-11)
    with pytest.raises(ValueError):
        kernel_from_source(np.array([15.0, 100.0]), 1, *args, 0.0, 10.0, 0.5, 1e-9, 1e-11)
    with pytest.raises(ValueError):
        kernel_from_source(np.array([15.0, 15.0, 100.0]), 1, *args, 0.0, -1.0, 0.5, 1e-9, 1e-11)


def test_python_backend_reports_work(inv_dm, baseline):
    sys_ = build(baseline.replace(alpha=0.9, T=3.0), inv_dm)
    s0 = constant_history_state(sys_, 15.0, 100.0)
    traj = integrate(sys_, s0, 50.0, sample_dt=0.5, backend="python")
    # FSAL: six evaluations per attempted step, plus two for the start
    attempts = traj.accepted_steps + traj.rejected_steps
    assert traj.accepted_steps > 0
    assert traj.rhs_evaluations == 6 * attempts + 2


@needs_compiled
@pytest.mark.parametrize("m, horizon", [(1, 300.0), (2, 300.0), (4, 300.0), (40, 30.0)])
def test_trajectories_and_work_agree(inv_dm, baseline, m, horizon):
    sys_ = build(baseline.replace(alpha=0.9, T=3.0, m=m), inv_dm)
    s0 = constant_history_state(sys_, 15.0, 100.0)
    a = integrate(sys_, s0, horizon, sample_dt=0.5, backend="compiled")
    b = integrate(sys_, s0, horizon, sample_dt=0.5, backend="python")
    np.testing.assert_allclose(a.states, b.states, rtol=1e-7, atol=1e-9)
    work = ("rhs_evaluations", "accepted_steps", "rejected_steps")
    assert [getattr(a, w) for w in work] == [getattr(b, w) for w in work]
