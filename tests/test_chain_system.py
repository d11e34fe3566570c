from types import SimpleNamespace

import numpy as np
import pytest

from chaintrick.chain_system import (
    build,
    constant_history_state,
    equilibrium_state,
    jacobian,
    rhs,
)
from chaintrick.errors import CapitalNonPositive, DelayNonPositive, KernelOrderInvalid
from chaintrick.model_core import equilibrium
from oracles import numeric_jacobian, random_model_draw, rhs_m1_handcoded, rhs_m2_handcoded


class TestBuild:
    def test_dimension(self, inv_dm, baseline):
        for m in (1, 2, 5):
            sys_ = build(baseline.replace(m=m), inv_dm)
            assert sys_.dimension == m + 2

    def test_delay_must_be_positive(self, inv_dm, baseline):
        with pytest.raises(DelayNonPositive):
            build(baseline.replace(T=0.0), inv_dm)

    def test_kernel_order_guard(self, inv_dm):
        bad = SimpleNamespace(T=1.0, m=0)
        with pytest.raises(KernelOrderInvalid):
            build(bad, inv_dm)
        frac = SimpleNamespace(T=1.0, m=1.5)
        with pytest.raises(KernelOrderInvalid):
            build(frac, inv_dm)


class TestRhs:
    def test_m1_matches_handcoded(self, rng):
        for _ in range(100):
            inv, p, eq = random_model_draw(rng, m=1)
            sys_ = build(p, inv)
            s = np.array(
                [
                    eq.y_star * rng.uniform(0.5, 1.5),
                    eq.y_star * rng.uniform(0.5, 1.5),
                    eq.k_star * rng.uniform(0.5, 1.5),
                ]
            )
            got = rhs(sys_, s)
            want = rhs_m1_handcoded(p, inv, s)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)

    def test_m2_matches_handcoded(self, rng):
        for _ in range(100):
            inv, p, eq = random_model_draw(rng, m=2)
            sys_ = build(p, inv)
            s = np.array(
                [
                    eq.y_star * rng.uniform(0.5, 1.5),
                    eq.y_star * rng.uniform(0.5, 1.5),
                    eq.y_star * rng.uniform(0.5, 1.5),
                    eq.k_star * rng.uniform(0.5, 1.5),
                ]
            )
            np.testing.assert_allclose(
                rhs(sys_, s), rhs_m2_handcoded(p, inv, s), rtol=1e-13, atol=1e-15
            )

    def test_chain_row_is_rate_times_difference(self, inv_dm, baseline):
        sys_ = build(baseline.replace(T=2.0), inv_dm)
        s = np.array([10.0, 7.0, 100.0])
        out = rhs(sys_, s)
        assert out[1] == pytest.approx((1.0 / 2.0) * (10.0 - 7.0), rel=1e-15)

    def test_equilibrium_is_fixed_point(self, rng):
        for _ in range(1000):
            inv, p, _ = random_model_draw(rng, m=int(rng.integers(1, 5)))
            sys_ = build(p, inv)
            s = equilibrium_state(sys_)
            assert np.abs(rhs(sys_, s)).max() < 1e-10

    def test_capital_guard(self, inv_dm, baseline):
        sys_ = build(baseline, inv_dm)
        with pytest.raises(CapitalNonPositive):
            rhs(sys_, np.array([10.0, 10.0, 0.0]))
        with pytest.raises(CapitalNonPositive):
            jacobian(sys_, np.array([10.0, 10.0, -1.0]))

    @pytest.mark.parametrize("state", [[10.0, 100.0], [10.0, 10.0, 10.0, 100.0], [[10.0, 10.0, 100.0]]])
    def test_state_shape_guard(self, inv_dm, baseline, state):
        sys_ = build(baseline, inv_dm)
        with pytest.raises(ValueError, match=r"state must have shape \(3,\)"):
            rhs(sys_, state)

    def test_linearized_growth_of_perturbation(self, inv_dm, baseline):
        # first component responds like (alpha (Iy - gamma) - g) eps for
        # a pure y-perturbation
        eq = equilibrium(baseline, inv_dm)
        sys_ = build(baseline, inv_dm)
        s = equilibrium_state(sys_)
        eps = 1e-7 * eq.y_star
        s_pert = s.copy()
        s_pert[0] += eps
        expected = (baseline.alpha * (eq.Iy_star - baseline.gamma) - baseline.g) * eps
        got = rhs(sys_, s_pert)[0]
        assert got == pytest.approx(expected, rel=1e-5)


class TestJacobian:
    def test_matches_finite_differences(self, rng):
        for _ in range(100):
            inv, p, eq = random_model_draw(rng, m=int(rng.integers(1, 4)))
            sys_ = build(p, inv)
            s = equilibrium_state(sys_) * rng.uniform(0.6, 1.4, size=sys_.dimension)
            J = jacobian(sys_, s)
            J_fd = numeric_jacobian(lambda x: rhs(sys_, x), s)
            np.testing.assert_allclose(J, J_fd, rtol=1e-6, atol=1e-9)

    def test_m1_equilibrium_matrix(self, inv_dm, baseline):
        # rows of the 3x3 linearization at the fixed point
        eq = equilibrium(baseline, inv_dm)
        sys_ = build(baseline, inv_dm)
        J = jacobian(sys_, equilibrium_state(sys_))
        p = baseline
        expected = np.array(
            [
                [p.alpha * eq.Iy_star - p.alpha * p.gamma - p.g, 0.0, p.alpha * eq.Ik_star],
                [1.0 / p.T, -1.0 / p.T, 0.0],
                [0.0, eq.Iy_star, eq.Ik_star - (p.g + p.delta)],
            ]
        )
        np.testing.assert_allclose(J, expected, rtol=1e-12, atol=1e-14)

    def test_m2_equilibrium_matrix_up_to_state_order(self, inv_dm, baseline):
        # the published 4x4 uses state order (y, p, w, k); ours is
        # (y, w, p, k) = (y, u1, u2, k).  Permuting indices must reproduce it.
        p = baseline.replace(m=2)
        eq = equilibrium(p, inv_dm)
        sys_ = build(p, inv_dm)
        J = jacobian(sys_, equilibrium_state(sys_))
        r = 2.0 / p.T
        published = np.array(
            [
                [p.alpha * eq.Iy_star - p.alpha * p.gamma - p.g, 0.0, 0.0, p.alpha * eq.Ik_star],
                [0.0, -r, r, 0.0],
                [r, 0.0, -r, 0.0],
                [0.0, eq.Iy_star, 0.0, eq.Ik_star - (p.g + p.delta)],
            ]
        )
        perm = [0, 2, 1, 3]  # (y, p, w, k) -> (y, w, p, k)
        np.testing.assert_allclose(
            J, published[np.ix_(perm, perm)], rtol=1e-12, atol=1e-14
        )

    def test_trace_identity(self, rng):
        for _ in range(50):
            inv, p, eq = random_model_draw(rng, m=int(rng.integers(1, 6)))
            sys_ = build(p, inv)
            J = jacobian(sys_, equilibrium_state(sys_))
            expected = (
                (p.alpha * (eq.Iy_star - p.gamma) - p.g)
                + (eq.Ik_star - (p.g + p.delta))
                - p.m * (p.m / p.T)
            )
            assert np.trace(J) == pytest.approx(expected, rel=1e-10)


def test_constant_history_state(inv_dm, baseline):
    sys_ = build(baseline.replace(m=3), inv_dm)
    s = constant_history_state(sys_, 15.0, 100.0)
    np.testing.assert_array_equal(s, [15.0, 15.0, 15.0, 15.0, 100.0])
