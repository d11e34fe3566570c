import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaintrick.errors import GrowthOutOfRange, NonPositiveEquilibrium
from chaintrick.model_core import (
    DANA_MALGRANGE,
    InvestmentParams,
    MacroParams,
    above_inflection,
    equilibrium,
    growth_interval,
    investment_derivs,
    phi,
    phi_prime,
    solve_x_star,
)
from oracles import bisect_x_star, random_model_draw


class TestPhi:
    def test_logistic_midpoint(self, inv_dm):
        # x = 1/v makes the exponent vanish: phi = c + d/2
        assert phi(1.0 / inv_dm.v, inv_dm) == pytest.approx(0.023, abs=1e-15)

    def test_saturation_limits(self, inv_dm):
        assert phi(-1e6, inv_dm) == pytest.approx(inv_dm.c, abs=1e-12)
        assert phi(1e6, inv_dm) == pytest.approx(inv_dm.c + inv_dm.d, abs=1e-12)

    def test_dana_malgrange_value(self, inv_dm):
        assert phi(1.0 / 4.23, inv_dm) == pytest.approx(0.023, abs=1e-12)

    def test_vectorized(self, inv_dm):
        xs = np.linspace(-1.0, 1.0, 7)
        vals = phi(xs, inv_dm)
        assert vals.shape == xs.shape
        assert np.all(np.diff(vals) > 0.0)

    @given(
        x1=st.floats(-0.3, 0.8),
        x2=st.floats(-0.3, 0.8),
    )
    @settings(max_examples=200, deadline=None)
    def test_strictly_increasing_and_bounded(self, x1, x2):
        # restricted to the transition zone where float resolution can
        # still see the slope (the tails saturate to c and c + d exactly)
        inv = DANA_MALGRANGE
        v1, v2 = phi(x1, inv), phi(x2, inv)
        assert inv.c < v1 < inv.c + inv.d
        if x2 - x1 > 1e-6:
            assert v1 < v2

    def test_phi_prime_matches_finite_difference(self, inv_dm):
        for x in (0.1, 1.0 / 4.23, 0.4):
            h = 1e-5
            fd = (phi(x + h, inv_dm) - phi(x - h, inv_dm)) / (2 * h)
            assert phi_prime(x, inv_dm) == pytest.approx(fd, rel=1e-6)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            InvestmentParams(a=0.0, c=0.01, d=0.026, v=4.23)
        with pytest.raises(ValueError):
            InvestmentParams(a=9.0, c=-0.01, d=0.026, v=4.23)

    @pytest.mark.parametrize("name", ["a", "c", "d", "v"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_params_reject_non_finite(self, name, value):
        fields = {"a": 9.0, "c": 0.01, "d": 0.026, "v": 4.23, name: value}
        with pytest.raises(ValueError, match="finite"):
            InvestmentParams(**fields)

    def test_far_tails_saturate_without_warnings(self, inv_dm):
        x = np.array([-1e300, -1e6, 1e6, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = phi(x, inv_dm)
            slopes = phi_prime(x, inv_dm)
        assert vals.tolist() == [inv_dm.c, inv_dm.c, inv_dm.c + inv_dm.d, inv_dm.c + inv_dm.d]
        assert slopes.tolist() == [0.0, 0.0, 0.0, 0.0]


def test_import_leaves_scipy_out():
    code = "import sys, chaintrick; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"


class TestSolveXStar:
    def test_baseline_hits_logistic_midpoint(self, inv_dm):
        # g + delta = 0.023 = c + d/2 forces x* = 1/v
        xs = solve_x_star(inv_dm, 0.016, 0.007)
        assert xs == pytest.approx(1.0 / 4.23, rel=1e-14)
        assert phi(xs, inv_dm) - 0.023 == pytest.approx(0.0, abs=1e-12)

    def test_against_bisection_oracle(self, inv_dm):
        xs = solve_x_star(inv_dm, 0.011, 0.007)
        assert xs == pytest.approx(0.2151055892772175, rel=1e-12)
        assert xs == pytest.approx(bisect_x_star(inv_dm, 0.011, 0.007), abs=1e-12)
        assert phi(xs, inv_dm) == pytest.approx(0.018, abs=1e-12)

    def test_boundaries_raise(self, inv_dm):
        # g + delta = c is the lower admissibility boundary
        with pytest.raises(GrowthOutOfRange):
            solve_x_star(inv_dm, inv_dm.c - 0.007, 0.007)
        with pytest.raises(GrowthOutOfRange):
            solve_x_star(inv_dm, inv_dm.c + inv_dm.d - 0.007, 0.007)
        with pytest.raises(GrowthOutOfRange):
            solve_x_star(inv_dm, 0.001, 0.007)

    def test_inversion_identity_random(self, rng):
        for _ in range(1000):
            inv, p, _ = random_model_draw(rng)
            xs = solve_x_star(inv, p.g, p.delta)
            assert abs(phi(xs, inv) - (p.g + p.delta)) < 1e-10

    def test_elementwise_on_arrays(self, inv_dm):
        lo, hi = growth_interval(inv_dm, 0.007)
        gs = np.array([lo - 1e-3, lo, 0.011, 0.016, hi, hi + 1e-3])
        xs = solve_x_star(inv_dm, gs, 0.007)
        assert np.isnan(xs[[0, 1, 4, 5]]).all()
        assert xs[2] == solve_x_star(inv_dm, 0.011, 0.007)
        assert xs[3] == solve_x_star(inv_dm, 0.016, 0.007)
        assert type(solve_x_star(inv_dm, 0.016, 0.007)) is float
        iy, ik = investment_derivs(xs, inv_dm, gs, 0.007)
        assert iy[3] == investment_derivs(xs[3], inv_dm, 0.016, 0.007)[0]

    def test_x_star_increasing_in_g(self, inv_dm):
        lo, hi = growth_interval(inv_dm, 0.007)
        gs = np.linspace(lo + 1e-5, hi - 1e-5, 200)
        xs = [solve_x_star(inv_dm, g, 0.007) for g in gs]
        assert np.all(np.diff(xs) > 0.0)


class TestInvestmentDerivs:
    def test_midpoint_closed_form(self, inv_dm):
        # exponent zero: Iy = a d v / 4
        xs = 1.0 / 4.23
        iy, ik = investment_derivs(xs, inv_dm, 0.016, 0.007)
        assert iy == pytest.approx(9.0 * 0.026 * 4.23 / 4.0, rel=1e-14)
        assert ik == pytest.approx(0.023 - xs * iy, rel=1e-14)
        assert ik == pytest.approx(-0.0355, abs=1e-10)

    def test_against_finite_differences_of_investment(self, inv_dm, baseline):
        eq = equilibrium(baseline, inv_dm)
        y, k = eq.y_star, eq.k_star
        I = lambda yy, kk: kk * phi(yy / kk, inv_dm)
        hy = 1e-6 * y
        hk = 1e-6 * k
        fd_y = (I(y + hy, k) - I(y - hy, k)) / (2 * hy)
        fd_k = (I(y, k + hk) - I(y, k - hk)) / (2 * hk)
        assert eq.Iy_star == pytest.approx(fd_y, rel=1e-6)
        assert eq.Ik_star == pytest.approx(fd_k, rel=1e-6)

    def test_iy_always_positive(self, rng):
        for _ in range(200):
            inv, p, eq = random_model_draw(rng)
            assert eq.Iy_star > 0.0


class TestEquilibrium:
    def test_baseline_values(self, inv_dm, baseline):
        eq = equilibrium(baseline, inv_dm)
        assert eq.k_star == pytest.approx(123.12618250618546, rel=1e-12)
        assert eq.y_star == pytest.approx(29.107844564110035, rel=1e-12)
        # definitional identity
        assert eq.y_star == eq.x_star * eq.k_star

    def test_fields_are_python_floats(self, inv_dm, baseline):
        eq = equilibrium(baseline, inv_dm)
        for name in ("x_star", "y_star", "k_star", "Iy_star", "Ik_star"):
            assert type(getattr(eq, name)) is float

    def test_stationarity_oracle(self, inv_dm, baseline):
        # the closed form must zero both structural equations
        eq = equilibrium(baseline, inv_dm)
        p = baseline
        I = eq.k_star * phi(eq.y_star / eq.k_star, inv_dm)
        ydot = p.alpha * (I - p.gamma * eq.y_star + p.G0) - p.g * eq.y_star
        kdot = I - (p.g + p.delta) * eq.k_star
        assert abs(ydot) < 1e-10
        assert abs(kdot) < 1e-10

    def test_nonpositive_equilibrium(self, inv_dm, baseline):
        # just above g_min the fixed point leaves the positive quadrant
        with pytest.raises(NonPositiveEquilibrium):
            equilibrium(baseline.replace(g=0.00301), inv_dm)

    def test_growth_out_of_range_propagates(self, inv_dm, baseline):
        with pytest.raises(GrowthOutOfRange):
            equilibrium(baseline.replace(g=0.001), inv_dm)

    def test_positivity_random(self, rng):
        for _ in range(500):
            _, _, eq = random_model_draw(rng)
            assert eq.y_star > 0.0
            assert eq.k_star > 0.0

    def test_ik_negative_when_xiy_large(self, rng):
        for _ in range(200):
            _, p, eq = random_model_draw(rng)
            if eq.x_star * eq.Iy_star > p.g + p.delta:
                assert eq.Ik_star < 0.0

    def test_above_inflection_flag(self, inv_dm, baseline):
        eq = equilibrium(baseline, inv_dm)
        assert not above_inflection(eq, inv_dm)  # baseline sits at x* = 1/v
        eq_hi = equilibrium(baseline.replace(g=0.02), inv_dm)
        assert above_inflection(eq_hi, inv_dm)

    def test_macro_params_validation(self):
        with pytest.raises(ValueError):
            MacroParams(alpha=0.0, gamma=0.1, delta=0.01, g=0.01, G0=1.0, T=1.0)
        with pytest.raises(ValueError):
            MacroParams(alpha=1.0, gamma=0.1, delta=0.01, g=0.01, G0=1.0, T=-1.0)
        with pytest.raises(ValueError):
            MacroParams(alpha=1.0, gamma=0.1, delta=0.01, g=0.01, G0=1.0, T=1.0, m=0)

    @pytest.mark.parametrize("field", ["T", "alpha", "gamma", "delta", "G0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_macro_params_reject_non_finite(self, field, value):
        kw = dict(alpha=1.0, gamma=0.1, delta=0.01, g=0.01, G0=1.0, T=1.0)
        kw[field] = value
        with pytest.raises(ValueError, match=field):
            MacroParams(**kw)
