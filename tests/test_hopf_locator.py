import json
import math
from pathlib import Path

import numpy as np
import pytest

from chaintrick import hopf_locator
from chaintrick.chain_system import build, equilibrium_state, jacobian
from chaintrick.char_poly import coeffs_m1, coeffs_m2, cubic_coeffs_at, composites_m1
from chaintrick.errors import (
    GrowthOutOfRange,
    InaccurateRoot,
    NoHopf,
    NonPositiveEquilibrium,
    NoStableRegime,
)
from chaintrick.hopf_locator import (
    critical_delays,
    equilibrium_eigenvalues,
    hopf_in_alpha,
    hopf_in_g,
    hopf_in_T,
    hopf_in_T_m1,
    hopf_in_T_m2,
    pair_max_real,
)
from chaintrick.model_core import (
    Equilibrium,
    InvestmentParams,
    MacroParams,
    equilibrium,
    growth_interval,
)
from chaintrick.sweep import table_g_bifurcations
from oracles import characteristic_residual, hopf_in_T_numeric, pair_crossings, random_model_draw

TABLE_G = {
    1: (0.01011989, 0.02032586),
    2: (0.01011919, 0.02032671),
    3: (0.01011909, 0.02032693),
    4: (0.01011906, 0.02032703),
}


def _imag_residual_cubic(a1, a2, a3, omega):
    val = (1j * omega) ** 3 + a1 * (1j * omega) ** 2 + a2 * (1j * omega) + a3
    return abs(val)


class TestHopfInTm1:
    def test_no_stable_regime_above_threshold(self, inv_dm, baseline):
        p = baseline.replace(alpha=0.9)
        with pytest.raises(NoStableRegime):
            hopf_in_T_m1(equilibrium(p, inv_dm), p)

    def test_case_i_no_hopf(self):
        # B = 0 (alpha (Iy - gamma) = g exactly) with A^2 + alpha Ik Iy >= 0:
        # stable for every delay
        p = MacroParams(alpha=1.0, gamma=0.1, delta=0.05, g=0.1, G0=1.0, T=1.0)
        eq = Equilibrium(x_star=0.3, y_star=1.0, k_star=1.0, Iy_star=0.2, Ik_star=-0.01)
        with pytest.raises(NoHopf):
            hopf_in_T_m1(eq, p)

    def test_case_i_single_root(self):
        # B = 0 with A^2 + alpha Ik Iy < 0: T0* = A / (A^2 + alpha Ik Iy)
        p = MacroParams(alpha=1.0, gamma=0.1, delta=0.05, g=0.1, G0=1.0, T=1.0)
        eq = Equilibrium(x_star=0.3, y_star=1.0, k_star=1.0, Iy_star=0.2, Ik_star=-0.1)
        (pt,) = hopf_in_T_m1(eq, p)
        A, _, aik = composites_m1(eq, p)
        assert pt.value == pytest.approx(A / (A * A + aik), rel=1e-12)
        assert pt.crossing == "destabilizing"

    def test_case_ii_single_positive_root(self, inv_dm, baseline):
        # Dana-Malgrange at alpha=0.7 has B > 0: exactly one crossing,
        # destabilizing
        p = baseline.replace(alpha=0.7)
        eq = equilibrium(p, inv_dm)
        assert composites_m1(eq, p)[1] > 0.0
        points = hopf_in_T_m1(eq, p)
        assert len(points) == 1
        assert points[0].crossing == "destabilizing"
        assert points[0].transversality > 0.0

    def test_case_iii_two_roots_with_directions(self):
        # B < 0 with two positive roots: first destabilizing, second
        # stabilizing, straddling 1 / sqrt(-B)
        p = MacroParams(alpha=1.0, gamma=0.2, delta=0.05, g=0.05, G0=1.0, T=1.0)
        eq = Equilibrium(x_star=0.5, y_star=1.0, k_star=1.0, Iy_star=0.2, Ik_star=-0.5)
        t2, t3 = hopf_in_T_m1(eq, p)
        assert t2.value < t3.value
        assert t2.crossing == "destabilizing"
        assert t3.crossing == "stabilizing"
        _, B, _ = composites_m1(eq, p)
        pivot = 1.0 / math.sqrt(-B)
        assert t2.value < pivot < t3.value

    def test_fitted_curve_value(self, inv_dm, baseline):
        # alpha = 0.7: finite critical delay consistent with the fitted
        # relation -11.137983 + 8.512805 / alpha
        p = baseline.replace(alpha=0.7)
        (pt,) = hopf_in_T_m1(equilibrium(p, inv_dm), p)
        fitted = -11.137983 + 8.512805 / 0.7
        assert pt.value == pytest.approx(fitted, abs=0.05)

    def test_omega_is_sqrt_a2(self, inv_dm, baseline):
        p = baseline.replace(alpha=0.65)
        eq = equilibrium(p, inv_dm)
        (pt,) = hopf_in_T_m1(eq, p)
        A, B, aik = composites_m1(eq, p)
        a1, a2, a3 = cubic_coeffs_at(A, B, aik, pt.value)
        assert pt.omega == pytest.approx(math.sqrt(a2), rel=1e-12)
        assert _imag_residual_cubic(a1, a2, a3, pt.omega) < 1e-8


class TestHopfInTm2:
    def test_m0_single_root(self):
        p = MacroParams(alpha=1.0, gamma=0.1, delta=0.05, g=0.1, G0=1.0, T=1.0, m=2)
        eq = Equilibrium(x_star=0.3, y_star=1.0, k_star=1.0, Iy_star=0.2, Ik_star=-0.1)
        points = hopf_in_T_m2(eq, p)
        assert len(points) == 1
        assert points[0].crossing == "destabilizing"

    def test_tail_roots_have_negative_sum(self, inv_dm, baseline):
        # lambda3 + lambda4 = -a1(T*) < 0 and lambda3 lambda4 > 0 at the
        # crossing: verified against the eigenvalues themselves
        p = baseline.replace(alpha=0.7, m=2)
        eq = equilibrium(p, inv_dm)
        (pt,) = hopf_in_T_m2(eq, p)
        eig = equilibrium_eigenvalues(p.replace(T=pt.value), inv_dm)
        # two eigenvalues on the axis, two in the left half plane
        on_axis = np.sort(np.abs(eig.real))
        assert on_axis[0] < 1e-9 and on_axis[1] < 1e-9
        others = eig[np.abs(eig.real) > 1e-9]
        assert len(others) == 2
        assert others.real.sum() < 0.0
        assert np.real(np.prod(others)) > 0.0

    def test_below_m1_value(self, inv_dm, baseline):
        # the strong kernel destabilizes earlier: T_bi(m=2) < T_bi(m=1)
        p = baseline.replace(alpha=0.7)
        t1 = hopf_in_T_m1(equilibrium(p, inv_dm), p)[0].value
        t2 = hopf_in_T_m2(equilibrium(p.replace(m=2), inv_dm), p.replace(m=2))[0].value
        assert t2 < t1

    def test_pure_imaginary_residual(self, inv_dm, baseline):
        p = baseline.replace(alpha=0.66, m=2)
        eq = equilibrium(p, inv_dm)
        (pt,) = hopf_in_T_m2(eq, p)
        c = coeffs_m2(eq, p.replace(T=pt.value))
        val = np.polyval([1.0, c.a1, c.a2, c.a3, c.a4], 1j * pt.omega)
        assert abs(val) < 1e-8


class TestRouteAgreement:
    def test_closed_form_vs_eigenvalue_bisection(self, rng):
        # the two independent routes agree to 1e-7 relative
        checked = 0
        attempts = 0
        while checked < 200 and attempts < 3000:
            attempts += 1
            m = 1 + (attempts % 2)
            inv, p, eq = random_model_draw(rng, m=m)
            try:
                closed = (hopf_in_T_m1 if m == 1 else hopf_in_T_m2)(eq, p)
            except (NoHopf, NoStableRegime):
                continue
            try:
                numeric = hopf_in_T_numeric(p, inv, t_range=(1e-3, 30.0), n_grid=256)
            except NoHopf:
                continue
            for pt in closed:
                if not (2e-3 < pt.value < 28.0):
                    continue
                nearest = min(numeric, key=lambda h: abs(h.value - pt.value))
                assert abs(nearest.value - pt.value) < 1e-7 * max(1.0, pt.value)
                assert nearest.omega == pytest.approx(pt.omega, rel=1e-6)
                checked += 1
        assert checked >= 200

    def test_critical_delays_dispatch(self, inv_dm, baseline):
        p = baseline.replace(alpha=0.7)
        assert critical_delays(p, inv_dm, m=1)[0].value == pytest.approx(
            hopf_in_T_m1(equilibrium(p, inv_dm), p)[0].value
        )
        t3 = critical_delays(p, inv_dm, m=3)
        assert t3[0].value == pytest.approx(1.0227, abs=2e-3)


class TestTransversality:
    def test_sign_matches_finite_difference_m1(self, inv_dm, baseline):
        for alpha in (0.62, 0.68, 0.73):
            p = baseline.replace(alpha=alpha)
            (pt,) = hopf_in_T_m1(equilibrium(p, inv_dm), p)
            h = 1e-5
            up = pair_max_real(p.replace(T=pt.value + h), inv_dm)[0]
            dn = pair_max_real(p.replace(T=pt.value - h), inv_dm)[0]
            assert math.copysign(1.0, (up - dn) / (2 * h)) == math.copysign(
                1.0, pt.transversality
            )

    def test_sign_matches_finite_difference_m2(self, inv_dm, baseline):
        for alpha in (0.62, 0.7):
            p = baseline.replace(alpha=alpha, m=2)
            (pt,) = hopf_in_T_m2(equilibrium(p, inv_dm), p)
            h = 1e-5
            up = pair_max_real(p.replace(T=pt.value + h), inv_dm)[0]
            dn = pair_max_real(p.replace(T=pt.value - h), inv_dm)[0]
            assert math.copysign(1.0, (up - dn) / (2 * h)) == math.copysign(
                1.0, pt.transversality
            )

    def test_case_iii_synthetic_signs(self):
        p = MacroParams(alpha=1.0, gamma=0.2, delta=0.05, g=0.05, G0=1.0, T=1.0)
        eq = Equilibrium(x_star=0.5, y_star=1.0, k_star=1.0, Iy_star=0.2, Ik_star=-0.5)
        t2, t3 = hopf_in_T_m1(eq, p)
        _, B, _ = composites_m1(eq, p)
        assert t2.transversality == pytest.approx(B * t2.value**2 + 1.0)
        assert t3.transversality == pytest.approx(B * t3.value**2 + 1.0)
        assert t2.transversality > 0.0 > t3.transversality


class TestGridEigenvalues:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_the_chain_jacobian_point_by_point(self, inv_dm, baseline, m):
        g_lo, g_hi = growth_interval(inv_dm, baseline.delta)
        grids = {
            # beyond the admissible interval at both ends, and through the
            # sliver above g_min where the equilibrium is not positive
            "g": np.concatenate(
                [np.linspace(g_lo - 1e-3, g_hi + 1e-3, 31), np.linspace(g_lo, g_lo + 8e-5, 9)]
            ),
            "alpha": np.geomspace(0.05, 2.0, 25),
            "T": np.geomspace(1e-3, 50.0, 25),
        }
        p = baseline.replace(m=m)
        # for m >= 6 the cluster of eigenvalues near -m/T is ill-conditioned:
        # a one-ulp change of the entry alpha Ik* moves it by 3e-12 relative
        # at m = 8, g = 0.0048, and the two routes round that entry differently
        tol = 1e-12 if m <= 5 else 1e-11
        masked = []
        for name, values in grids.items():
            eig = hopf_locator._grid_eigenvalues(p, inv_dm, name, values)
            assert eig.shape == (len(values), m + 2)
            for value, row in zip(values, eig):
                q = p.replace(**{name: float(value)})
                try:
                    sys_ = build(q, inv_dm)
                    want = np.linalg.eigvals(jacobian(sys_, equilibrium_state(sys_)))
                except (GrowthOutOfRange, NonPositiveEquilibrium) as exc:
                    assert np.all(np.isnan(row))
                    masked.append(type(exc))
                    continue
                scale = np.max(np.abs(want))
                for w in want:
                    assert np.min(np.abs(row - w)) <= tol * scale
        assert masked.count(GrowthOutOfRange) >= 3
        assert masked.count(NonPositiveEquilibrium) >= 3

    def test_one_point_call_keeps_the_scalar_errors(self, inv_dm, baseline):
        with pytest.raises(GrowthOutOfRange):
            equilibrium_eigenvalues(baseline.replace(g=0.05), inv_dm)
        g_lo, _ = growth_interval(inv_dm, baseline.delta)
        with pytest.raises(NonPositiveEquilibrium):
            equilibrium_eigenvalues(baseline.replace(g=g_lo + 2e-5), inv_dm)
        assert pair_max_real(baseline.replace(g=0.005), inv_dm) is None


# reference results at the baseline parameters from a per-point scan (one
# eigenvalue call per grid point and per bisection step); the batched scan
# must reproduce them to 1e-9
PINNED_G = {
    1: (0.0058258522483900675, 0.010119897979437464, 0.020325855203838887, 0.025403891238645622),
    2: (0.00499494553270163, 0.010119287761939579, 0.02032673349407864, 0.025549670182817667),
    3: (None, 0.010119128977364429, 0.02032696215985494, None),
    4: (None, 0.010119058012123507, 0.02032706438056678, None),
}
PINNED_SEGMENTS = {
    1: [(False, False, 0, 0, 0), (True, False, 0, 3, 0), (True, True, -1, 1, 0),
        (True, True, 1, 1, 0), (True, True, -1, 1, 0), (True, False, 0, 3, 0)],
    2: [(False, False, 0, 0, 0), (True, False, 0, 4, 0), (True, True, -1, 0, 0),
        (True, True, 1, 0, 0), (True, True, -1, 0, 0), (True, False, 0, 4, 0)],
    3: [(False, False, 0, 0, 0), (True, True, -1, 1, 0), (True, True, 1, 1, 0),
        (True, True, -1, 1, 0)],
    4: [(False, False, 0, 0, 0), (True, True, -1, 0, 0), (True, True, 1, 0, 0),
        (True, True, -1, 0, 0)],
}


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_growth_structure_is_pinned(inv_dm, baseline, m):
    rep = hopf_in_g(baseline, inv_dm, m=m)
    for got, want in zip((rep.g1, rep.g1_hopf, rep.g2_hopf, rep.g2), PINNED_G[m]):
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-9)
    segments = [
        (s.physical, s.has_pair, s.pair_real_sign, s.n_real_neg, s.n_real_pos)
        for s in rep.segments
    ]
    assert segments == PINNED_SEGMENTS[m]


@pytest.mark.parametrize(
    "T, alpha_range, value, omega",
    [
        (1.5, (0.05, 2.0), 0.6739375377484669, 0.05454124814087408),
        (1.5, (0.3, 1.5), 0.6739375377490485, 0.05454124814089007),
        (0.5, (0.05, 2.0), 0.7315121595865905, 0.05644934189624348),
        (0.5, (0.3, 1.5), 0.7315121595866372, 0.05644934189624478),
    ],
)
def test_alpha_crossing_is_pinned(inv_dm, baseline, T, alpha_range, value, omega):
    (pt,) = hopf_in_alpha(baseline.replace(T=T), inv_dm, alpha_range=alpha_range)
    assert pt.value == pytest.approx(value, abs=1e-9)
    assert pt.omega == pytest.approx(omega, abs=1e-9)
    assert pt.crossing == "destabilizing"


class TestHopfInG:
    def test_baseline_matches_published_table(self, inv_dm, baseline):
        rep = hopf_in_g(baseline, inv_dm, m=1)
        assert rep.g1_hopf == pytest.approx(TABLE_G[1][0], abs=2e-6)
        assert rep.g2_hopf == pytest.approx(TABLE_G[1][1], abs=2e-6)

    def test_m2_row(self, inv_dm, baseline):
        rep = hopf_in_g(baseline, inv_dm, m=2)
        assert rep.g1_hopf == pytest.approx(TABLE_G[2][0], abs=2e-6)
        assert rep.g2_hopf == pytest.approx(TABLE_G[2][1], abs=2e-6)

    def test_boundary_ordering(self, inv_dm, baseline):
        rep = hopf_in_g(baseline, inv_dm, m=1)
        assert rep.g1 is not None and rep.g2 is not None
        assert rep.g1 < rep.g1_hopf < rep.g2_hopf < rep.g2
        values = [v for _, v in rep.boundaries]
        assert values == sorted(values)
        assert rep.g_min < values[0] and values[-1] < rep.g_max

    def test_admissible_interval_bounds(self, inv_dm, baseline):
        rep = hopf_in_g(baseline, inv_dm, m=1)
        assert rep.g_min == pytest.approx(inv_dm.c - baseline.delta)
        assert rep.g_max == pytest.approx(inv_dm.c + inv_dm.d - baseline.delta)

    def test_segment_structure(self, inv_dm, baseline):
        # nonphysical sliver, three-real window, then the complex-pair
        # window with sign pattern (-, +, -), then three-real again
        rep = hopf_in_g(baseline, inv_dm, m=1)
        phys = [s for s in rep.segments if s.physical]
        assert any(not s.physical for s in rep.segments)
        pair_signs = [s.pair_real_sign for s in phys if s.has_pair]
        assert pair_signs == [-1, 1, -1]
        real_only = [s for s in phys if not s.has_pair]
        assert all(s.n_real_neg == 3 and s.n_real_pos == 0 for s in real_only)

    def test_segment_stability(self, inv_dm, baseline):
        # stable between the nonphysical sliver and g1_hopf and again past
        # g2_hopf, whether or not the Jacobian has a complex pair there
        rep = hopf_in_g(baseline, inv_dm, m=1)
        assert [s.stable for s in rep.segments] == [None, True, True, False, True, True]
        assert [s.hi for s in rep.segments if s.stable is False] == [rep.g2_hopf]

    def test_hopf_points_have_directions_and_omegas(self, inv_dm, baseline):
        rep = hopf_in_g(baseline, inv_dm, m=1)
        assert [h.crossing for h in rep.hopf_points] == [
            "destabilizing",
            "stabilizing",
        ]
        for h in rep.hopf_points:
            assert h.omega > 0.0
            assert h.transversality != 0.0
        assert rep.hopf_points[0].transversality > 0.0
        assert rep.hopf_points[1].transversality < 0.0


class TestHopfInAlpha:
    def test_small_delay_threshold(self, inv_dm, baseline):
        # as T -> 0 the crossing approaches the undelayed threshold 0.7644
        p = baseline.replace(T=1e-3)
        points = hopf_in_alpha(p, inv_dm, alpha_range=(0.3, 1.5))
        assert len(points) == 1
        assert points[0].value == pytest.approx(0.7644, abs=1e-3)
        assert points[0].crossing == "destabilizing"

    def test_consistent_with_fitted_curve(self, inv_dm, baseline):
        # alpha_bi at T = 1.5 should invert the fitted relation
        p = baseline.replace(T=1.5)
        (pt,) = hopf_in_alpha(p, inv_dm, alpha_range=(0.3, 1.5))
        predicted = 8.512805 / (1.5 + 11.137983)
        assert pt.value == pytest.approx(predicted, abs=2e-3)

    def test_no_sign_change_raises(self, inv_dm, baseline):
        with pytest.raises(NoHopf):
            hopf_in_alpha(baseline, inv_dm, alpha_range=(0.1, 0.2))


#: the case grid of the imaginary-axis checks in g and alpha
AXIS_M = (1, 2, 3, 4, 6)
AXIS_ALPHA = (0.3, 0.6, 1.0, 1.5, 3.0)
AXIS_T = (0.2, 1.0, 5.0, 30.0)
AXIS_N = (3, 50, 500, 2048)
AXIS_G = (0.008, 0.012, 0.016, 0.02)


def _nearest_eigenvalue(p, inv, omega):
    """The eigenvalue of the chain Jacobian at the equilibrium closest to
    i omega, and its distance from i omega or -i omega."""
    sys = build(p, inv)
    eig = np.linalg.eigvals(jacobian(sys, equilibrium_state(sys)))
    near = eig[np.argmin(np.abs(eig - 1j * omega))]
    return near, min(np.min(np.abs(eig - 1j * omega)), np.min(np.abs(eig + 1j * omega)))


def _check_axis_points(p, inv, points, step):
    """Every point has an eigenvalue on the axis at +-i omega, and its
    transversality is the central difference of that eigenvalue's real
    part with step ``step * max(1, x)``."""
    for h in points:
        _, dist = _nearest_eigenvalue(p.replace(**{h.parameter: h.value}), inv, h.omega)
        assert dist < 1e-9 * (1.0 + h.omega), h
        dx = step * max(1.0, h.value)
        up, _ = _nearest_eigenvalue(p.replace(**{h.parameter: h.value + dx}), inv, h.omega)
        dn, _ = _nearest_eigenvalue(p.replace(**{h.parameter: h.value - dx}), inv, h.omega)
        assert h.transversality == pytest.approx((up.real - dn.real) / (2.0 * dx), rel=1e-6), h


def _check_oracle_points_matched(p, inv, got, want, tol):
    """Every point of the eigenvalue-scan oracle that has an eigenvalue on
    the axis is one of ``got``, within the bisection tolerance."""
    for r in want:
        if _nearest_eigenvalue(p.replace(**{r.parameter: r.value}), inv, r.omega)[1] > 1e-9:
            continue
        h = min(got, key=lambda h: abs(h.value - r.value), default=None)
        assert h is not None and abs(h.value - r.value) <= tol and h.crossing == r.crossing, (r, h)


class TestAxisCrossingsInGAndAlpha:
    @pytest.mark.parametrize("m", AXIS_M)
    def test_g_points_on_the_axis_and_oracle_agreement(self, inv_dm, baseline, m):
        for alpha in AXIS_ALPHA:
            for T in AXIS_T:
                p = baseline.replace(m=m, alpha=alpha, T=T)
                for n in AXIS_N:
                    gs, got, _, _ = hopf_locator._growth_hopf(p, inv_dm, n)
                    _check_axis_points(p, inv_dm, got, 1e-7)
                    want = pair_crossings(p, inv_dm, "g", gs, 1e-11, 1e-7)
                    _check_oracle_points_matched(p, inv_dm, got, want, 1e-11)

    @pytest.mark.parametrize("m", AXIS_M)
    def test_alpha_points_on_the_axis_and_oracle_agreement(self, inv_dm, baseline, m):
        alphas = np.geomspace(0.05, 5.0, hopf_locator.ALPHA_GRID)
        for g in AXIS_G:
            for T in AXIS_T:
                p = baseline.replace(m=m, g=g, T=T)
                try:
                    got = hopf_in_alpha(p, inv_dm, alpha_range=(0.05, 5.0))
                except NoHopf:
                    got = []
                _check_axis_points(p, inv_dm, got, 1e-6)
                want = pair_crossings(p, inv_dm, "alpha", alphas, 1e-12, 1e-7)
                _check_oracle_points_matched(p, inv_dm, got, want, 1e-12)

    def test_no_point_where_a_grid_interval_spans_a_stretch_without_one(self):
        # |bc| <= |ae| inside this one grid interval, where bc changes sign:
        # the phase labels at its ends differ (-1 and 0), but no pair sits
        # on the axis in between
        inv = InvestmentParams(a=13.678170607444452, c=0.01828097557223656,
                               d=0.021344759579789173, v=1.6345970898203253)
        p = MacroParams(alpha=1.170403680889611, gamma=0.03257840038446474,
                        delta=0.011747911425799305, g=0.021357294972646112,
                        G0=3.7398235002650644, T=0.24907816370109956)
        grid = np.array([0.016850676000301854, 0.022735022367836834])
        assert hopf_locator._param_crossings(p, inv, "g", grid, 1e-11) == []

    def test_crossing_in_the_interval_where_the_pair_leaves_the_axis(self, inv_dm, baseline):
        # on a 5-point grid the last interval holds the stabilizing crossing
        # and, above it, the g where bc^2 = a^2 e^2: its upper end has no
        # pair on the axis
        p = baseline.replace(m=4, alpha=1.5493644672235238, T=33.3259215093149)
        gs, coarse, _, _ = hopf_locator._growth_hopf(p, inv_dm, 5)
        a, b, c, e = hopf_locator._loop_coefficients(p, inv_dm, p.alpha, gs[-1])
        assert (b * c) ** 2 < (a * e) ** 2
        _, fine, _, _ = hopf_locator._growth_hopf(p, inv_dm, 2048)
        assert [h.crossing for h in coarse] == ["stabilizing"]
        assert fine[-1].crossing == "stabilizing"
        assert coarse[0].value == pytest.approx(fine[-1].value, rel=0.0, abs=2e-11)

    def test_hopf_in_g_reports_the_axis_points(self, inv_dm, baseline):
        for m, alpha, T, n in ((1, 1.0, 1.0, 2048), (2, 3.0, 1.0, 500), (4, 0.6, 30.0, 50)):
            p = baseline.replace(m=m, alpha=alpha, T=T)
            _, points, g1_hopf, g2_hopf = hopf_locator._growth_hopf(p, inv_dm, n)
            rep = hopf_in_g(p, inv_dm, n_grid=n)
            assert rep.hopf_points == tuple(points)
            assert (rep.g1_hopf, rep.g2_hopf) == (g1_hopf, g2_hopf)

    @pytest.mark.parametrize("alpha, T", [(1.0, 1.0), (0.6, 5.0), (3.0, 0.2)])
    def test_table_rows_are_the_g_hopf_points(self, inv_dm, baseline, alpha, T):
        p = baseline.replace(alpha=alpha, T=T)
        for m, *row in table_g_bifurcations(p, inv_dm, [1, 2, 3, 4, 6]):
            rep = hopf_in_g(p, inv_dm, m=m)
            assert [None if math.isnan(v) else v for v in row] == [rep.g1_hopf, rep.g2_hopf]

    def test_table_and_alpha_scan_compute_no_eigenvalues(self, inv_dm, baseline, monkeypatch):
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(1) or eigvals(a))
        table_g_bifurcations(baseline, inv_dm, [1, 2, 3, 4])
        hopf_in_alpha(baseline.replace(T=1.5), inv_dm, alpha_range=(0.3, 1.5))
        assert calls == []
        hopf_in_g(baseline, inv_dm, m=1)
        assert calls


def _count_phase_calls(monkeypatch):
    """Replace hopf_locator._phase by a counting wrapper; returns the
    one-element list holding the count."""
    calls = [0]
    phase = hopf_locator._phase

    def counted(*args, **kwargs):
        calls[0] += 1
        return phase(*args, **kwargs)

    monkeypatch.setattr(hopf_locator, "_phase", counted)
    return calls


def _recorded_param_crossings():
    path = Path(__file__).parent / "data" / "param_crossings.json"
    return json.loads(path.read_text(encoding="utf-8"))


class TestParamCrossingsPinned:
    """The g and alpha points are those of bisecting every phase bracket
    to its tolerance, recorded on a case grid, from fewer phase
    evaluations than that bisection made."""

    @staticmethod
    def _check(case, points, calls):
        assert len(points) == len(case["points"]), case
        for h, (value, omega, crossing) in zip(points, case["points"]):
            assert h.value == pytest.approx(value, rel=1e-14, abs=0.0), case
            assert h.omega == pytest.approx(omega, rel=1e-14, abs=0.0), case
            assert h.crossing == crossing, case
        assert calls <= case["bisection_phase_calls"], case

    def test_g_points(self, inv_dm, baseline, monkeypatch):
        calls = _count_phase_calls(monkeypatch)
        for case in _recorded_param_crossings()["g_cases"]:
            p = baseline.replace(m=case["m"], alpha=case["alpha"], T=case["T"])
            calls[0] = 0
            _, points, _, _ = hopf_locator._growth_hopf(p, inv_dm, case["n_grid"])
            self._check(case, points, calls[0])

    def test_alpha_points(self, inv_dm, baseline, monkeypatch):
        calls = _count_phase_calls(monkeypatch)
        for case in _recorded_param_crossings()["alpha_cases"]:
            p = baseline.replace(m=case["m"], g=case["g"], T=case["T"])
            calls[0] = 0
            try:
                points = hopf_in_alpha(p, inv_dm, alpha_range=tuple(case["alpha_range"]))
            except NoHopf:
                points = []
            self._check(case, points, calls[0])

    def test_table_and_alpha_scan_take_few_phase_evaluations(self, inv_dm, baseline, monkeypatch):
        # bisection to 1e-11 and 1e-12 took 92 and 33
        calls = _count_phase_calls(monkeypatch)
        table_g_bifurcations(baseline, inv_dm, [1, 2, 3, 4])
        assert calls[0] <= 32
        calls[0] = 0
        p = baseline.replace(alpha=0.58, g=0.015, T=1.5)
        [point] = hopf_in_alpha(p, inv_dm, alpha_range=(0.3, 1.5))
        assert point.value == pytest.approx(0.66273, abs=1e-5)
        assert calls[0] <= 10

    def test_tolerance_below_the_float_spacing_still_ends(self, inv_dm, baseline):
        # no float lies inside a bracket of two neighbouring floats, so the
        # refinement has to stop by its step count
        p = baseline.replace(alpha=0.58, g=0.015, T=1.5)
        grid = np.geomspace(0.3, 1.5, hopf_locator.ALPHA_GRID)
        [point] = hopf_locator._param_crossings(p, inv_dm, "alpha", grid, 1e-12)
        [finer] = hopf_locator._param_crossings(p, inv_dm, "alpha", grid, 1e-30)
        assert finer.value == pytest.approx(point.value, rel=0.0, abs=1e-12)


class TestNewtonFromGridBrackets:
    """Every Hopf point is the root that Newton's method reaches from the
    secant point of its grid bracket, where that root passes the residual
    and bracket test, and the root of bisection (T) or of regula falsi (g
    and alpha) otherwise."""

    def test_every_critical_delay_solves_the_characteristic_equation(self):
        # 481 crossings, five of them at T in [1e4, 1e5], three through the
        # fallback; Newton without its acceptance test got three of them wrong
        rng = np.random.default_rng(3)
        points = far = 0
        for _ in range(3000):
            inv, p, _ = random_model_draw(rng, m=int(rng.integers(1, 13)))
            try:
                found = hopf_in_T(p, inv)
            except NoHopf:
                continue
            for h in found:
                assert characteristic_residual(p.replace(T=h.value), inv, h.omega) <= 1e-12
                assert h.residual <= 1e-12
            points += len(found)
            far += sum(1e4 <= h.value <= 1e5 for h in found)
        assert points >= 400 and far >= 3

    def test_a_cell_newton_does_not_settle_takes_the_bisection_route(self, monkeypatch):
        # draw 730 above: Newton from the secant point of one bracket fails
        # the acceptance test, and bisection with the polish finds the root
        inv = InvestmentParams(a=12.872673088718981, c=0.021369158765164868,
                               d=0.07640355547789085, v=3.2728254540027493)
        p = MacroParams(alpha=0.11017309628440969, gamma=0.45035772212228664,
                        delta=0.023011763759519167, g=0.01716349444756876,
                        G0=1.7891032911526168, T=0.5145770153485768, m=12)
        calls = _count_phase_calls(monkeypatch)
        points = hopf_in_T(p, inv)
        assert calls[0] > 2  # the grid pass, the bracket ends, then bisection
        want = [29.821917385408238, 5196.647941243733, 43613.498368130684]
        assert [h.value for h in points] == pytest.approx(want, rel=1e-13, abs=0.0)
        assert [h.crossing for h in points] == ["destabilizing", "destabilizing", "stabilizing"]
        for h in points:
            assert characteristic_residual(p.replace(T=h.value), inv, h.omega) <= 1e-12

    def test_a_coarse_g_grid_takes_the_regula_falsi_route(self, inv_dm, baseline, monkeypatch):
        calls = _count_phase_calls(monkeypatch)
        _, points, _, _ = hopf_locator._growth_hopf(baseline, inv_dm, 3)
        assert calls[0] > 1  # the grid pass, then regula falsi
        assert [h.value for h in points] == [0.010119897982338439, 0.02032585520320571]
        assert [h.crossing for h in points] == ["destabilizing", "stabilizing"]

    def test_newton_takes_few_phase_evaluations(self, inv_dm, baseline, monkeypatch):
        # 13, 24 and 6 with bisection in T and regula falsi in g and alpha
        p = baseline.replace(alpha=0.58, g=0.015)
        calls = _count_phase_calls(monkeypatch)
        critical_delays(p, inv_dm, m=3)
        assert calls[0] <= 3
        calls[0] = 0
        table_g_bifurcations(baseline, inv_dm, [1, 2, 3, 4])
        assert calls[0] <= 4
        calls[0] = 0
        hopf_in_alpha(p.replace(T=1.5), inv_dm, alpha_range=(0.3, 1.5))
        assert calls[0] <= 1

    def test_residual_is_that_of_the_reported_point(self, inv_dm, baseline):
        p, q = baseline.replace(alpha=0.7), baseline.replace(alpha=0.58, g=0.015, T=1.5)
        eq = equilibrium(p, inv_dm)
        cases = [(p.replace(m=m), hopf_in_T(p, inv_dm, m=m)) for m in (1, 2, 3)]
        cases += [(p, hopf_in_T_m1(eq, p)), (p.replace(m=2), hopf_in_T_m2(eq, p.replace(m=2)))]
        cases += [(baseline, hopf_in_g(baseline, inv_dm).hopf_points)]
        cases += [(q, hopf_in_alpha(q, inv_dm, alpha_range=(0.3, 1.5)))]
        for at, points in cases:
            for h in points:
                want = characteristic_residual(at.replace(**{h.parameter: h.value}), inv_dm, h.omega)
                assert h.residual == pytest.approx(want, rel=1e-3, abs=1e-14)
                assert h.residual <= (1e-12 if h.parameter == "T" else 1e-8)

    def test_refuses_a_critical_delay_off_the_equation(self, inv_dm, baseline, monkeypatch):
        # with one polish step and no Newton start the first crossing at
        # m = 8192 misses the equation by about 2e-4, and is refused
        monkeypatch.setattr(hopf_locator, "NEWTON_TOL", 0.0)
        monkeypatch.setattr(hopf_locator, "POLISH_STEPS", 0)
        with pytest.raises(InaccurateRoot, match="T\\* = 1.02"):
            hopf_in_T(baseline.replace(alpha=0.7), inv_dm, m=8192)


def _closed_form(p, inv):
    locate = hopf_in_T_m1 if p.m == 1 else hopf_in_T_m2
    return locate(equilibrium(p, inv), p)


def _assert_same_points(got, want, rel):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g.value - w.value) <= rel * w.value
        assert abs(g.omega - w.omega) <= rel * w.omega
        assert g.crossing == w.crossing


class TestHopfInT:
    def test_agrees_with_closed_forms_at_transversality_points(self, inv_dm, baseline):
        # the 20 closed-form points of acceptance criterion 6
        cases = [baseline.replace(alpha=float(al)) for al in np.linspace(0.60, 0.74, 12)]
        cases += [baseline.replace(alpha=float(al), m=2) for al in np.linspace(0.60, 0.73, 8)]
        for p in cases:
            _assert_same_points(hopf_in_T(p, inv_dm), _closed_form(p, inv_dm), 1e-10)

    def test_agrees_with_closed_forms_on_random_draws(self, rng):
        compared = 0
        attempts = 0
        while compared < 200 and attempts < 5000:
            attempts += 1
            inv, p, _ = random_model_draw(rng, m=1 + attempts % 2)
            try:
                want = _closed_form(p, inv)
            except NoStableRegime:
                continue
            except NoHopf:
                with pytest.raises(NoHopf):
                    hopf_in_T(p, inv)
                continue
            _assert_same_points(hopf_in_T(p, inv), want, 1e-10)
            compared += 1
        assert compared >= 200

    def test_agrees_with_eigenvalue_reference_for_m3_to_m8(self):
        # every axis crossing in the reference's range is one of its
        # points; the reference's other points are off the axis (an
        # unstable pair turning real, which it bisects as a crossing)
        rng = np.random.default_rng(7)
        matched = 0
        for i in range(240):
            m = 3 + i % 6
            inv, p, _ = random_model_draw(rng, m=m)
            try:
                got = hopf_in_T(p, inv)
            except NoHopf:
                got = []
            try:
                ref = hopf_in_T_numeric(p, inv, t_range=(1e-3, 30.0), n_grid=256)
            except NoHopf:
                ref = []
            for h in got:
                if not 2e-3 < h.value < 28.0:
                    continue
                nearest = min(ref, key=lambda r: abs(r.value - h.value))
                assert abs(nearest.value - h.value) <= 1e-8 * h.value
                assert nearest.crossing == h.crossing
                matched += 1
            for r in ref:
                if any(abs(r.value - h.value) <= 1e-8 * r.value for h in got):
                    continue
                eig = equilibrium_eigenvalues(p.replace(T=r.value), inv)
                assert np.min(np.abs(eig - 1j * r.omega)) > 1e-6 * r.omega
        assert matched >= 20

    def test_no_spurious_crossing_at_the_old_scan_cap(self, inv_dm, baseline):
        # the eigenvalue reference also reports T ~ 49.53 here
        (pt,) = hopf_in_T(baseline.replace(alpha=0.701, g=0.0136), inv_dm, m=4)
        assert pt.value == pytest.approx(0.9535080, abs=1e-7)
        assert pt.crossing == "destabilizing"

    def test_crossing_beyond_the_old_scan_cap(self, inv_dm, baseline):
        (pt,) = hopf_in_T(baseline.replace(alpha=0.18, g=0.016), inv_dm, m=3)
        assert pt.value == pytest.approx(60.514, abs=1e-3)
        assert pt.crossing == "destabilizing"

    def test_small_delay_near_the_alpha_threshold(self, inv_dm, baseline):
        # a + e ~ -1e-4: the crossing sits just below omega_max
        (pt,) = hopf_in_T(baseline.replace(alpha=0.75, g=0.0148), inv_dm, m=3)
        assert pt.value == pytest.approx(0.015288, rel=1e-4)
        assert pt.crossing == "destabilizing"

    @pytest.mark.parametrize(
        "alpha, g, m",
        [(0.701, 0.0136, 4), (0.18, 0.016, 3), (0.75, 0.0148, 3), (0.7, 0.016, 3),
         (0.62, 0.013, 5), (0.66, 0.018, 6), (0.6, 0.015, 8)],
    )
    def test_jacobian_has_the_pair_on_the_axis(self, inv_dm, baseline, alpha, g, m):
        p = baseline.replace(alpha=alpha, g=g, m=m)
        for pt in hopf_in_T(p, inv_dm):
            eig = equilibrium_eigenvalues(p.replace(T=pt.value), inv_dm)
            assert np.min(np.abs(eig - 1j * pt.omega)) < 1e-9
            assert np.min(np.abs(eig + 1j * pt.omega)) < 1e-9

    def test_direction_matches_eigenvalue_finite_difference(self, inv_dm, baseline):
        for alpha, g, m in ((0.7, 0.016, 3), (0.18, 0.016, 3), (0.62, 0.013, 6)):
            p = baseline.replace(alpha=alpha, g=g, m=m)
            for pt in hopf_in_T(p, inv_dm):
                h = 1e-5 * pt.value
                up = pair_max_real(p.replace(T=pt.value + h), inv_dm)[0]
                dn = pair_max_real(p.replace(T=pt.value - h), inv_dm)[0]
                assert math.copysign(1.0, up - dn) == math.copysign(1.0, pt.transversality)

    def test_doubling_the_grid_leaves_the_result_unchanged(
        self, inv_dm, baseline, rng, monkeypatch
    ):
        cases = [(inv_dm, baseline.replace(alpha=al, g=g, m=m)) for al, g, m in
                 ((0.701, 0.0136, 4), (0.18, 0.016, 3), (0.75, 0.0148, 3), (0.7, 0.016, 7))]
        while len(cases) < 40:
            inv, p, _ = random_model_draw(rng, m=int(rng.integers(3, 9)))
            cases.append((inv, p))
        coarse = []
        for inv, p in cases:
            try:
                coarse.append(hopf_in_T(p, inv))
            except NoHopf:
                coarse.append(None)
        monkeypatch.setattr(hopf_locator, "N_GRID", 2 * hopf_locator.N_GRID)
        for (inv, p), want in zip(cases, coarse):
            if want is None:
                with pytest.raises(NoHopf):
                    hopf_in_T(p, inv)
                continue
            _assert_same_points(hopf_in_T(p, inv), want, 1e-12)

    def test_critical_delays_route_for_m_ge_3(self, inv_dm, baseline):
        p = baseline.replace(alpha=0.701, g=0.0136)
        for m in (3, 4, 6):
            assert critical_delays(p, inv_dm, m=m) == hopf_in_T(p, inv_dm, m=m)


def test_hopf_point_fields_are_python_floats(inv_dm, baseline):
    p = baseline.replace(alpha=0.2)
    points = list(hopf_in_T_m1(equilibrium(p, inv_dm), p))
    p2 = baseline.replace(alpha=0.7, m=2)
    points += hopf_in_T_m2(equilibrium(p2, inv_dm), p2)
    points += hopf_in_T(baseline.replace(alpha=0.7), inv_dm, m=3)
    points += hopf_in_T_numeric(baseline.replace(alpha=0.7), inv_dm, m=3, n_grid=64)
    points += hopf_in_alpha(baseline.replace(T=1.5), inv_dm, alpha_range=(0.3, 1.5))
    points += hopf_in_g(baseline, inv_dm, m=1).hopf_points
    assert len(points) >= 7
    for h in points:
        for name in ("value", "omega", "transversality", "residual"):
            assert type(getattr(h, name)) is float
