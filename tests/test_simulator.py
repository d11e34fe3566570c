import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from chaintrick import simulator
from chaintrick._core import HAVE_COMPILED, get_integrator
from chaintrick.chain_system import build, constant_history_state, equilibrium_state, rhs
from chaintrick.errors import CapitalNonPositive, InsufficientOscillations, StepFailure
from chaintrick.hopf_locator import pair_max_real
from chaintrick.model_core import equilibrium
from chaintrick.simulator import cycle_metrics, find_local_maxima, integrate
from oracles import period_from_zero_crossings


def _post_transient_arrays(traj, fraction):
    cut = traj.times[0] + fraction * (traj.times[-1] - traj.times[0])
    mask = traj.times >= cut
    return traj.times[mask], traj.y[mask]


@pytest.fixture
def cycle_sys(inv_dm, baseline):
    return build(baseline.replace(alpha=0.9, T=3.0), inv_dm)


@pytest.fixture
def cycle_traj(cycle_sys):
    s0 = constant_history_state(cycle_sys, 15.0, 100.0)
    return integrate(cycle_sys, s0, 4000.0, sample_dt=0.2)


class TestIntegrate:
    def test_equilibrium_stays_fixed(self, inv_dm, baseline):
        # stable regime: the fixed point must hold to 1e-8 over 1000 units
        p = baseline.replace(alpha=0.6, T=0.5)
        sys_ = build(p, inv_dm)
        s = equilibrium_state(sys_)
        traj = integrate(sys_, s, 1000.0, sample_dt=1.0)
        assert np.abs(traj.states - s).max() < 1e-8
        assert not traj.diverged
        # at the unstable baseline roundoff grows along the unstable mode;
        # it must still stay far below any oscillation scale
        sys_u = build(baseline, inv_dm)
        s_u = equilibrium_state(sys_u)
        traj_u = integrate(sys_u, s_u, 1000.0, sample_dt=1.0)
        assert np.abs(traj_u.states - s_u).max() < 1e-5

    @pytest.mark.parametrize(
        "backend",
        ["python", pytest.param("compiled", marks=pytest.mark.skipif(
            not HAVE_COMPILED, reason="compiled integrator core not built"))],
    )
    @pytest.mark.parametrize("g, alpha, T, m", [(0.008, 0.6, 0.5, 1), (0.010, 0.6, 0.5, 1),
                                                (0.012, 0.4, 1.0, 3)])
    def test_a_stable_equilibrium_stays_fixed(self, inv_dm, baseline, backend, g, alpha, T, m):
        # at a stable fixed point the error estimate is about 0; a step past
        # DOPRI5's stability interval, h m/T beyond about 3.3, lets rounding
        # noise grow there until error control stops it near the tolerance
        sys_ = build(baseline.replace(g=g, alpha=alpha, T=T, m=m), inv_dm)
        s = equilibrium_state(sys_)
        traj = integrate(sys_, s, 1000.0, sample_dt=1.0, backend=backend)
        assert np.abs(traj.states - s).max() < 1e-8

    def test_cycle_run_is_bounded_oscillation(self, cycle_traj):
        assert not cycle_traj.diverged
        y = cycle_traj.y
        assert y.max() < 60.0 and y.min() > 5.0
        # oscillating: many maxima
        pk_t, _ = find_local_maxima(cycle_traj.times, y)
        assert len(pk_t) > 20

    def test_tolerance_refinement_self_convergence(self, inv_dm, baseline):
        # halving the tolerances barely moves the endpoint on a damped run
        sys_ = build(baseline.replace(alpha=0.6, T=0.5), inv_dm)
        eq = equilibrium(baseline.replace(alpha=0.6, T=0.5), inv_dm)
        s0 = np.array([eq.y_star + 1.0, eq.y_star, eq.k_star])
        a = integrate(sys_, s0, 500.0, sample_dt=0.5, rtol=1e-9, atol=1e-11)
        b = integrate(sys_, s0, 500.0, sample_dt=0.5, rtol=5e-10, atol=5e-12)
        rel = abs(a.y[-1] - b.y[-1]) / abs(a.y[-1])
        assert rel < 1e-6

    def test_against_scipy_oracle(self, inv_dm, baseline):
        p = baseline.replace(alpha=0.9, T=3.0)
        sys_ = build(p, inv_dm)
        s0 = constant_history_state(sys_, 15.0, 100.0)
        mine = integrate(sys_, s0, 200.0, sample_dt=1.0)
        ref = solve_ivp(
            lambda t, s: rhs(sys_, s),
            (0.0, 200.0),
            s0,
            method="DOP853",
            rtol=1e-11,
            atol=1e-13,
            t_eval=mine.times,
        )
        np.testing.assert_allclose(mine.states.T, ref.y, rtol=1e-6, atol=1e-8)

    def test_initial_capital_guard(self, cycle_sys):
        with pytest.raises(CapitalNonPositive):
            integrate(cycle_sys, np.array([15.0, 15.0, -1.0]), 10.0)

    @pytest.mark.parametrize(
        "backend",
        ["python", pytest.param("compiled", marks=pytest.mark.skipif(
            not HAVE_COMPILED, reason="compiled integrator core not built"))],
    )
    def test_capital_exit_in_the_run(self, inv_dm, baseline, backend):
        # at g = 1e14 a trial stage reaches k <= 0, and the halved step falls
        # below its floor: the kernel stops with the capital status (the run
        # of test_backends.test_capital_exits_agree)
        sys_ = build(baseline.replace(g=1e14), inv_dm)
        with pytest.raises(CapitalNonPositive, match="capital reached k <= 0 at t = "):
            integrate(sys_, np.array([15.0, 15.0, 100.0]), 1e-12, sample_dt=1e-13, rtol=1e-6,
                      atol=1e-8, backend=backend)

    def test_divergence_status(self, cycle_sys, monkeypatch):
        # force the guard low enough that the cycle peak trips it
        monkeypatch.setattr(simulator, "DIVERGENCE_LIMIT", 120.0)
        s0 = constant_history_state(cycle_sys, 15.0, 100.0)
        traj = integrate(cycle_sys, s0, 4000.0, sample_dt=0.5)
        assert traj.diverged
        assert cycle_metrics(traj).kind == "diverged"

    def test_step_underflow(self, cycle_sys):
        s0 = constant_history_state(cycle_sys, 15.0, 100.0)
        with pytest.raises(StepFailure):
            integrate(cycle_sys, s0, 10.0, rtol=1e-300, atol=1e-300)

    def test_sample_grid(self, cycle_sys):
        s0 = constant_history_state(cycle_sys, 15.0, 100.0)
        traj = integrate(cycle_sys, s0, 10.0, sample_dt=0.5)
        np.testing.assert_allclose(traj.times, np.arange(0.0, 10.001, 0.5))

    @pytest.mark.parametrize(
        "horizon, sample_dt",
        [(0.0, 0.5), (-1.0, 0.5), (math.inf, 0.5), (math.nan, 0.5),
         (10.0, 0.0), (10.0, -0.5), (10.0, math.inf), (10.0, math.nan)],
    )
    def test_rejects_bad_horizon_and_sample_dt(self, cycle_sys, horizon, sample_dt):
        s0 = constant_history_state(cycle_sys, 15.0, 100.0)
        with pytest.raises(ValueError):
            integrate(cycle_sys, s0, horizon, sample_dt=sample_dt)

    def test_resume_matches_single_run(self, cycle_sys):
        s0 = constant_history_state(cycle_sys, 15.0, 100.0)
        whole = integrate(cycle_sys, s0, 100.0, sample_dt=0.5)
        first = integrate(cycle_sys, s0, 50.0, sample_dt=0.5)
        second = integrate(
            cycle_sys, first.states[-1], 50.0, sample_dt=0.5, t0=50.0
        )
        np.testing.assert_allclose(
            whole.states[-1], second.states[-1], rtol=1e-7, atol=1e-9
        )


class TestCycleMetrics:
    def test_limit_cycle_measurements(self, cycle_traj):
        m = cycle_metrics(cycle_traj)
        assert m.kind == "limit_cycle"
        assert m.period == pytest.approx(114.85, rel=0.02)
        assert m.amplitude == pytest.approx(12.9555, rel=0.03)

    def test_m2_measurements(self, inv_dm, baseline):
        sys_ = build(baseline.replace(alpha=0.9, T=3.0, m=2), inv_dm)
        s0 = constant_history_state(sys_, 15.0, 100.0)
        traj = integrate(sys_, s0, 4000.0, sample_dt=0.2)
        m = cycle_metrics(traj)
        assert m.kind == "limit_cycle"
        assert m.period == pytest.approx(116.45, rel=0.02)
        assert m.amplitude == pytest.approx(12.966, rel=0.03)

    def test_damped_with_decay_rate(self, inv_dm, baseline):
        p = baseline.replace(alpha=0.6, T=2.5)
        sys_ = build(p, inv_dm)
        eq = equilibrium(p, inv_dm)
        s0 = np.array([eq.y_star + 2.0, eq.y_star, eq.k_star])
        traj = integrate(sys_, s0, 2500.0, sample_dt=0.25)
        m = cycle_metrics(traj, transient_fraction=0.3)
        assert m.kind == "damped"
        # envelope slope tracks the leading pair's real part
        re, _ = pair_max_real(p, inv_dm)
        assert m.decay_rate == pytest.approx(re, rel=0.05)

    def test_insufficient_oscillations(self, cycle_sys):
        s0 = constant_history_state(cycle_sys, 15.0, 100.0)
        short = integrate(cycle_sys, s0, 250.0, sample_dt=0.2)
        with pytest.raises(InsufficientOscillations):
            cycle_metrics(short)

    def test_period_consistency_with_zero_crossings(self, cycle_traj):
        m = cycle_metrics(cycle_traj)
        zc = period_from_zero_crossings(cycle_traj)
        assert abs(m.period - zc) / m.period < 0.005

    def test_frequency_just_past_hopf_matches_omega(self, inv_dm, baseline):
        # 0.1% past the first growth-rate crossing the oscillation frequency
        # already agrees with the crossing frequency omega*
        from chaintrick.hopf_locator import hopf_in_g

        point = hopf_in_g(baseline, inv_dm, m=1).hopf_points[0]
        p = baseline.replace(g=point.value * 1.001)
        sys_ = build(p, inv_dm)
        eq = equilibrium(p, inv_dm)
        s0 = np.array([eq.y_star * 1.002, eq.y_star, eq.k_star])
        period_est = 2 * np.pi / point.omega
        traj = integrate(sys_, s0, 40 * period_est, sample_dt=period_est / 256)
        pk_t, _ = find_local_maxima(*_post_transient_arrays(traj, 0.4))
        measured = 2 * np.pi / np.mean(np.diff(pk_t[-5:]))
        assert abs(measured - point.omega) / point.omega < 0.05


class TestFindLocalMaxima:
    def test_quadratic_interpolation_on_sine(self):
        t = np.linspace(0.0, 20.0, 400)
        y = np.sin(t)
        pk_t, pk_y = find_local_maxima(t, y)
        assert len(pk_t) == 3
        np.testing.assert_allclose(
            pk_t, [np.pi / 2, np.pi / 2 + 2 * np.pi, np.pi / 2 + 4 * np.pi], atol=1e-3
        )
        np.testing.assert_allclose(pk_y, 1.0, atol=1e-4)

    @staticmethod
    def _loop_reference(times, values):
        # the per-sample loop that the vectorised function replaced
        t_pk, v_pk = [], []
        v = np.asarray(values)
        t = np.asarray(times)
        for i in range(1, len(v) - 1):
            if v[i - 1] < v[i] >= v[i + 1]:
                y0, y1, y2 = v[i - 1], v[i], v[i + 1]
                denom = y0 - 2.0 * y1 + y2
                offset = 0.5 * (y0 - y2) / denom if denom != 0.0 else 0.0
                offset = min(1.0, max(-1.0, offset))
                dt = t[i + 1] - t[i]
                t_pk.append(t[i] + offset * dt)
                v_pk.append(y1 - 0.25 * (y0 - y2) * offset)
        return np.array(t_pk), np.array(v_pk)

    def _assert_same_as_loop(self, t, v):
        got_t, got_v = find_local_maxima(t, v)
        with np.errstate(invalid="ignore"):
            ref_t, ref_v = self._loop_reference(t, v)
        assert np.array_equal(got_t, ref_t)
        assert np.array_equal(got_v, ref_v)

    def test_matches_loop_on_cycle(self, cycle_traj):
        self._assert_same_as_loop(cycle_traj.times, cycle_traj.y)
        self._assert_same_as_loop(cycle_traj.times, cycle_traj.k)

    @pytest.mark.parametrize(
        "values",
        [
            [1.0, 2.0, 2.0, 1.0],  # plateau peak: its first sample counts
            [0.0, 1.0, 1.0, 1.0, 1.0],  # flat tail
            [3.0, 3.0, 3.0],  # constant
            [0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.5],
            [1.0, 2.0, 2.0, 2.0, 3.0, 1.0],
            [0.0, 1.0, -np.inf],  # NaN offset, clamped to -1
            [1.0, 2.0],
            [],
        ],
    )
    def test_matches_loop_on_plateaus(self, values):
        t = 0.5 * np.arange(len(values))
        self._assert_same_as_loop(t, np.array(values))


class TestTrajectoryCsv:
    def test_round_trip(self, cycle_sys, tmp_path):
        s0 = constant_history_state(cycle_sys, 15.0, 100.0)
        traj = integrate(cycle_sys, s0, 5.0, sample_dt=0.5)
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        text = path.read_text(encoding="utf-8")
        lines = text.strip().split("\n")
        assert lines[0] == "t,y,u1,k"
        data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        np.testing.assert_array_equal(data[:, 0], traj.times)
        np.testing.assert_array_equal(data[:, 1:], traj.states)

    def test_header_for_m3(self, inv_dm, baseline, tmp_path):
        sys_ = build(baseline.replace(m=3), inv_dm)
        traj = integrate(sys_, equilibrium_state(sys_), 1.0, sample_dt=0.5)
        path = tmp_path / "m3.csv"
        traj.write_csv(path)
        assert path.read_text(encoding="utf-8").split("\n")[0] == "t,y,u1,u2,u3,k"


class TestBadInput:
    @pytest.mark.parametrize(
        "backend",
        ["python", pytest.param("compiled", marks=pytest.mark.skipif(
            not HAVE_COMPILED, reason="compiled integrator core not built"))],
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_integrator_refuses_non_finite_state(self, inv_dm, baseline, backend, bad):
        run = get_integrator(backend)
        p, inv = baseline, inv_dm
        for s0 in ([bad, 15.0, 100.0], [15.0, bad, 100.0], [15.0, 15.0, bad]):
            with pytest.raises(ValueError, match="initial state"):
                run(np.array(s0), 1, p.alpha, p.gamma, p.delta, p.g, p.G0, p.T,
                    inv.a, inv.c, inv.d, inv.v, 0.0, 10.0, 0.5, 1e-9, 1e-11)

    def test_integrate_refuses_non_finite_state(self, cycle_sys):
        with pytest.raises(ValueError, match="initial state"):
            integrate(cycle_sys, constant_history_state(cycle_sys, math.nan, 100.0), 10.0)

    @pytest.mark.parametrize("fraction", [-1.0, -1e-12, 1.0, 2.0, math.nan, math.inf])
    def test_transient_fraction_out_of_range(self, cycle_sys, fraction):
        s0 = constant_history_state(cycle_sys, 15.0, 100.0)
        traj = integrate(cycle_sys, s0, 50.0, sample_dt=0.5)
        for measure in (cycle_metrics, period_from_zero_crossings):
            with pytest.raises(ValueError, match="transient_fraction"):
                measure(traj, transient_fraction=fraction)

    def test_transient_fraction_zero_is_accepted(self, cycle_traj):
        assert cycle_metrics(cycle_traj, transient_fraction=0.0).kind == "limit_cycle"
