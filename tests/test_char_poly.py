import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaintrick.char_poly import (
    MARGINAL_TOL,
    CharCoeffsM1,
    CharCoeffsM2,
    coeffs_m1,
    coeffs_m2,
    composites_m1,
    cubic_coeffs_at,
    cubic_discriminant,
    monic_cubic_discriminant,
    phi_quartic,
    phi_quartic_coeffs,
    phi_quartic_deriv,
    quartic_coeffs_at,
    routh_hurwitz_cubic,
    routh_hurwitz_quartic,
)
from chaintrick.chain_system import build, equilibrium_state, jacobian
from chaintrick.errors import DelayNonPositive
from chaintrick.model_core import equilibrium
from oracles import monic_coeffs_from_matrix, random_model_draw


class TestCoeffsM1:
    def test_definitional_identity(self, rng):
        for _ in range(50):
            inv, p, eq = random_model_draw(rng, m=1)
            c = coeffs_m1(eq, p)
            assert c.a3 * c.T == pytest.approx(-c.B - c.alpha_ik_iy, rel=1e-14)

    def test_matches_jacobian_char_poly_baseline(self, inv_dm, baseline):
        eq = equilibrium(baseline, inv_dm)
        c = coeffs_m1(eq, baseline)
        sys_ = build(baseline, inv_dm)
        want = monic_coeffs_from_matrix(jacobian(sys_, equilibrium_state(sys_)))
        np.testing.assert_allclose([c.a1, c.a2, c.a3], want, rtol=1e-10)

    def test_matches_jacobian_char_poly_random(self, rng):
        for _ in range(300):
            inv, p, eq = random_model_draw(rng, m=1)
            c = coeffs_m1(eq, p)
            want = monic_coeffs_from_matrix(
                jacobian(build(p, inv), equilibrium_state(build(p, inv)))
            )
            np.testing.assert_allclose([c.a1, c.a2, c.a3], want, rtol=1e-9)

    def test_a2_when_A_vanishes(self, inv_dm, baseline):
        # alpha chosen so alpha (Iy - gamma) - g = x* Iy, i.e. A = 0; then
        # a2 = -(x* Iy)^2 up to roundoff in A
        eq = equilibrium(baseline, inv_dm)
        alpha0 = (baseline.g + eq.x_star * eq.Iy_star) / (eq.Iy_star - baseline.gamma)
        p0 = baseline.replace(alpha=alpha0)
        eq0 = equilibrium(p0, inv_dm)
        c = coeffs_m1(eq0, p0)
        assert abs(c.A) < 1e-14
        assert c.a2 == pytest.approx(-((eq0.x_star * eq0.Iy_star) ** 2), rel=1e-10)
        assert c.a2 < 0.0

    def test_delay_validation(self, inv_dm, baseline):
        eq = equilibrium(baseline, inv_dm)
        with pytest.raises(DelayNonPositive):
            coeffs_m1(eq, baseline.replace(T=0.0))

    def test_cubic_coeffs_at_consistency(self, inv_dm, baseline):
        eq = equilibrium(baseline, inv_dm)
        c = coeffs_m1(eq, baseline)
        A, B, aik = composites_m1(eq, baseline)
        assert cubic_coeffs_at(A, B, aik, baseline.T) == pytest.approx(
            (c.a1, c.a2, c.a3), rel=1e-15
        )


class TestCoeffsM2:
    def test_delay_validation(self, inv_dm, baseline):
        eq = equilibrium(baseline, inv_dm)
        with pytest.raises(DelayNonPositive):
            coeffs_m2(eq, baseline.replace(T=0.0, m=2))

    def test_N_equals_minus_x_iy(self, rng):
        for _ in range(100):
            inv, p, eq = random_model_draw(rng, m=2)
            c = coeffs_m2(eq, p)
            assert c.N == pytest.approx(-eq.x_star * eq.Iy_star, rel=1e-12)
            assert c.N < 0.0

    def test_P_positive_when_Ik_negative(self, rng):
        count = 0
        for _ in range(200):
            inv, p, eq = random_model_draw(rng, m=2)
            if eq.Ik_star < 0.0:
                assert coeffs_m2(eq, p).P > 0.0
                count += 1
        assert count > 50

    def test_matches_jacobian_char_poly(self, rng, inv_dm, baseline):
        p1 = baseline.replace(m=2)
        eq = equilibrium(p1, inv_dm)
        c = coeffs_m2(eq, p1)
        sys_ = build(p1, inv_dm)
        want = monic_coeffs_from_matrix(jacobian(sys_, equilibrium_state(sys_)))
        np.testing.assert_allclose([c.a1, c.a2, c.a3, c.a4], want, rtol=1e-9)
        for _ in range(300):
            inv, p, eq = random_model_draw(rng, m=2)
            c = coeffs_m2(eq, p)
            sys_ = build(p, inv)
            want = monic_coeffs_from_matrix(jacobian(sys_, equilibrium_state(sys_)))
            np.testing.assert_allclose(
                [c.a1, c.a2, c.a3, c.a4], want, rtol=1e-9, atol=1e-12
            )


class TestRouthHurwitz:
    def test_cubic_verdict_matches_eigenvalues(self, rng):
        checked = 0
        for _ in range(1000):
            inv, p, eq = random_model_draw(rng, m=1)
            c = coeffs_m1(eq, p)
            v = routh_hurwitz_cubic(c)
            if any(abs(val) < 1e-8 for _, val, _ in v.conditions):
                continue
            sys_ = build(p, inv)
            eig = np.linalg.eigvals(jacobian(sys_, equilibrium_state(sys_)))
            assert v.stable == bool(np.all(eig.real < 0.0))
            checked += 1
        assert checked > 900

    def test_quartic_verdict_matches_eigenvalues(self, rng):
        checked = 0
        for _ in range(1000):
            inv, p, eq = random_model_draw(rng, m=2)
            c = coeffs_m2(eq, p)
            v = routh_hurwitz_quartic(c)
            if any(abs(val) < 1e-8 for _, val, _ in v.conditions):
                continue
            sys_ = build(p, inv)
            eig = np.linalg.eigvals(jacobian(sys_, equilibrium_state(sys_)))
            assert v.stable == bool(np.all(eig.real < 0.0))
            checked += 1
        assert checked > 900

    def test_stability_implies_A_negative(self, rng):
        # instability follows whenever A >= 0, so stable draws have A < 0
        seen_stable = 0
        for _ in range(1000):
            inv, p, eq = random_model_draw(rng, m=1)
            c = coeffs_m1(eq, p)
            if routh_hurwitz_cubic(c).stable:
                assert c.A < 0.0
                seen_stable += 1
        assert seen_stable > 50

    def test_marginal_flag_on_exact_boundary(self):
        # a1 a2 - a3 == 0 exactly
        c = CharCoeffsM1(a1=1.0, a2=1.0, a3=1.0, A=-1.0, B=0.5,
                         alpha_ik_iy=-2.0, T=1.0)
        v = routh_hurwitz_cubic(c)
        assert v.marginal
        assert not v.stable  # boundary value is not strictly positive

    def test_quartic_always_stable_side_conditions_when_M_nonpositive(self, rng):
        # for M <= 0 the three coefficient conditions a1, a3, a4 > 0 hold
        found = 0
        for _ in range(600):
            inv, p, eq = random_model_draw(rng, m=2)
            c = coeffs_m2(eq, p)
            if c.M <= 0.0:
                assert c.a1 > 0.0
                assert c.a3 > 0.0
                assert c.a4 > 0.0 or c.M * c.N + c.P <= 0.0
                found += 1
        assert found > 50

    def test_verdict_reports_side_quantities(self, inv_dm, baseline):
        eq = equilibrium(baseline, inv_dm)
        v1 = routh_hurwitz_cubic(coeffs_m1(eq, baseline))
        assert "B" in v1.notes and "B_plus_alpha_ik_iy" in v1.notes
        assert v1.notes["B_plus_alpha_ik_iy"] < 0.0  # equivalent to a3 > 0
        p2 = baseline.replace(m=2)
        v2 = routh_hurwitz_quartic(coeffs_m2(equilibrium(p2, inv_dm), p2))
        assert {"M", "N", "P", "M_plus_N", "MN_plus_P"} <= set(v2.notes)


class TestDiscriminant:
    def test_three_distinct_real_roots(self):
        # (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
        assert monic_cubic_discriminant(-6.0, 11.0, -6.0) == pytest.approx(4.0)

    def test_complex_pair(self):
        # (x-1)(x^2+1) = x^3 - x^2 + x - 1
        assert monic_cubic_discriminant(-1.0, 1.0, -1.0) == pytest.approx(-16.0)
        assert monic_cubic_discriminant(-1.0, 1.0, -1.0) < 0.0

    def test_triple_root(self):
        # (x-1)^3 = x^3 - 3x^2 + 3x - 1
        assert monic_cubic_discriminant(-3.0, 3.0, -1.0) == pytest.approx(0.0, abs=1e-14)

    @given(
        r1=st.floats(-5, 5),
        r2=st.floats(-5, 5),
        r3=st.floats(-5, 5),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_product_of_squared_differences(self, r1, r2, r3):
        a1 = -(r1 + r2 + r3)
        a2 = r1 * r2 + r1 * r3 + r2 * r3
        a3 = -r1 * r2 * r3
        want = ((r1 - r2) * (r1 - r3) * (r2 - r3)) ** 2
        got = monic_cubic_discriminant(a1, a2, a3)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-7)

    def test_sign_classifies_root_structure(self, rng):
        for _ in range(1000):
            coeffs = rng.uniform(-3.0, 3.0, size=3)
            disc = monic_cubic_discriminant(*coeffs)
            if abs(disc) < 1e-10:
                continue
            roots = np.roots(np.concatenate(([1.0], coeffs)))
            n_complex = int(np.sum(np.abs(roots.imag) > 1e-7 * (1 + np.abs(roots))))
            if disc > 0.0:
                assert n_complex == 0
            else:
                assert n_complex == 2

    def test_wrapper_takes_coeffs_object(self, inv_dm, baseline):
        eq = equilibrium(baseline, inv_dm)
        c = coeffs_m1(eq, baseline)
        assert cubic_discriminant(c) == monic_cubic_discriminant(c.a1, c.a2, c.a3)
        # the baseline sits in the oscillatory window: one real + pair
        assert cubic_discriminant(c) < 0.0


class TestPhiQuartic:
    def test_m_zero_reduction_is_displayed_cubic(self):
        N, P = -0.25, 0.02
        coeffs = phi_quartic_coeffs(0.0, N, P)
        want = np.array(
            [0.0, N**2 * P, 4.0 * N * (N**2 - 2.0 * P), 16.0 * (P - N**2), 16.0 * N]
        )
        np.testing.assert_allclose(coeffs, want, rtol=1e-14)

    def test_limits_for_M_zero(self):
        c = CharCoeffsM2(a1=0, a2=0, a3=0, a4=0, M=0.0, N=-0.25, P=0.02, T=1.0)
        # T -> 0+ gives 16 N < 0
        assert phi_quartic(c, 1e-12) == pytest.approx(16.0 * (-0.25), rel=1e-9)
        # leading coefficient N^2 P > 0 dominates for large T
        assert phi_quartic(c, 1e6) > 0.0

    def test_normalization_relating_phi_to_routh_hurwitz(self, rng):
        # phi(T) = -(T^5 / 4) (a1 a2 a3 - a3^2 - a1^2 a4): the composite
        # Routh-Hurwitz expression is positive exactly where phi < 0
        for _ in range(100):
            inv, p, eq = random_model_draw(rng, m=2)
            c = coeffs_m2(eq, p)
            T = rng.uniform(0.05, 10.0)
            a1, a2, a3, a4 = quartic_coeffs_at(c.M, c.N, c.P, T)
            psi = a1 * a2 * a3 - a3**2 - a1**2 * a4
            want = -(T**5) / 4.0 * psi
            got = phi_quartic(c, T)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_deriv_matches_finite_difference(self, rng):
        for _ in range(20):
            inv, p, eq = random_model_draw(rng, m=2)
            c = coeffs_m2(eq, p)
            T = rng.uniform(0.1, 6.0)
            h = 1e-6 * T
            fd = (phi_quartic(c, T + h) - phi_quartic(c, T - h)) / (2 * h)
            assert phi_quartic_deriv(c, T) == pytest.approx(fd, rel=1e-6)
