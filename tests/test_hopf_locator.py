import json
import math
from pathlib import Path

import numpy as np
import pytest

from chaintrick import hopf_locator
from chaintrick.chain_system import build, equilibrium_state, jacobian
from chaintrick.char_poly import coeffs_m1, coeffs_m2, cubic_coeffs_at, composites_m1
from chaintrick.cli import main as cli_main
from chaintrick.errors import (
    DelayNonPositive,
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
from oracles import (
    _scan,
    characteristic_residual,
    eigenvalue_labels,
    hopf_in_T_numeric,
    pair_crossings,
    random_model_draw,
)

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

    def test_a_delay_of_zero_is_refused(self, inv_dm, baseline):
        with pytest.raises(DelayNonPositive):
            pair_max_real(baseline.replace(T=0.0), inv_dm)


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


def _root_counts_at(p, inv):
    """(n_neg, n_pos, pair sign) at the single cell of ``p``, from the
    closed-form real roots and the right half-plane count."""
    g = np.array([p.g])
    _, n_neg, n_pos = (int(v[0]) for v in hopf_locator._real_roots(p, inv, g))
    n_rhp = int(hopf_locator._unstable_roots(p, inv, g)[0])
    return n_neg, n_pos, 0 if n_neg + n_pos == p.m + 2 else (1 if n_rhp > n_pos else -1)


def _eigenvalue_counts(p, inv):
    """The same three from the eigenvalues of the Jacobian."""
    n_neg, n_pos, lead = hopf_locator._split_eigenvalues(equilibrium_eigenvalues(p, inv))
    return int(n_neg), int(n_pos), 0 if np.isnan(lead) else (1 if lead.real >= 0.0 else -1)


class TestRootCounts:
    """The real roots counted in closed form, the right half-plane counted
    from the crossings, and the growth-rate structure built on both."""

    def test_counts_match_eigenvalues_on_random_draws(self, rng):
        seen = set()
        for _ in range(1000):
            m = int(rng.integers(1, 13))
            inv, p, _ = random_model_draw(rng, m=m, t_lo=0.01, t_hi=200.0)
            counts = _root_counts_at(p, inv)
            assert counts == _eigenvalue_counts(p, inv), (m, p)
            seen.add(counts[:2])
        # draws with 0, 1 and 3 real roots, on both sides of 0
        assert {(0, 0), (1, 0), (3, 0), (1, 2)} <= seen

    @pytest.mark.parametrize("T", [1e-5, 1e-7, 1e-9])
    def test_counts_at_tiny_delays(self, inv_dm, baseline, T):
        # as T -> 0 the m = 2 chain roots form the pair -2/T +- i sqrt(|bc|)
        # (bc < 0), and the other two tend to the roots of
        # l^2 - (a + e) l + ae - bc, a pair with real part (a + e)/2 > 0
        p = baseline.replace(m=2, T=T)
        a, b, c, e = hopf_locator._loop_coefficients(p, inv_dm, p.alpha, p.g)
        assert b * c < 0.0 and a + e > 0.0 and (a - e) ** 2 + 4.0 * b * c < 0.0
        assert _root_counts_at(p, inv_dm) == (0, 0, 1)

    def test_counts_at_large_m(self, inv_dm, baseline):
        # an odd chain keeps one real root left of -m/T (bc < 0), an even
        # one none; the other two form the pair, unstable inside the window
        for g, pair in ((0.016, 1), (0.0225, -1)):
            for m in (59, 60):
                p = baseline.replace(m=m, g=g)
                assert _root_counts_at(p, inv_dm) == _eigenvalue_counts(p, inv_dm) == (m % 2, 0, pair)
            for m in (100000, 100001):
                assert _root_counts_at(baseline.replace(m=m, g=g), inv_dm) == (m % 2, 0, pair)

    #: two runs of positive equilibria, with an unstable pair that turns
    #: into two positive reals before the gap.  On 18 or 37 points the
    #: destabilizing Hopf point lies in a grid interval that starts where
    #: no pair can sit on the imaginary axis; the count of roots in the
    #: right half-plane changes across it all the same
    HIDDEN_CROSSINGS = [
        (InvestmentParams(a=12.8, c=0.0221, d=0.0197, v=5.57),
         MacroParams(alpha=1.6, gamma=0.19, delta=0.049, g=0.0, G0=2.0, T=24.6, m=6)),
        (InvestmentParams(a=13.5, c=0.0091, d=0.029, v=6.7),
         MacroParams(alpha=1.54, gamma=0.187, delta=0.035, g=0.0, G0=2.0, T=58.9, m=1)),
    ]
    #: two runs where a pair can sit on the axis, split by a gap without a
    #: positive equilibrium: unstable where the first ends and stable where
    #: the second begins, so each run needs its own count
    TWO_AXIS_RUNS = (InvestmentParams(a=8.28, c=0.00707, d=0.0386, v=4.06),
                     MacroParams(alpha=0.42, gamma=0.0608, delta=0.00744, g=0.0, G0=4.4, T=3.27, m=2))

    @classmethod
    def _cases(cls, inv_dm, baseline):
        path = Path(__file__).parent / "data" / "stability_scan_g.json"
        recorded = json.loads(path.read_text(encoding="utf-8"))["cases"]
        cases = {(m, 1.0, 1.0, hopf_locator.G_GRID) for m in (1, 2, 3, 4, 8, 12)}
        for case in recorded:
            cases |= {(case["m"], case["alpha"], case["T"], n) for n in (case["n_grid"], hopf_locator.G_GRID)}
        return ([(inv_dm, baseline.replace(m=m, alpha=alpha, T=T), n) for m, alpha, T, n in sorted(cases)]
                + [(inv, p, n) for inv, p in cls.HIDDEN_CROSSINGS for n in (18, 37, 256, hopf_locator.G_GRID)]
                + [(*cls.TWO_AXIS_RUNS, n) for n in (256, hopf_locator.G_GRID)])

    def test_structure_matches_the_eigenvalue_scan(self, inv_dm, baseline):
        for inv, p, n in self._cases(inv_dm, baseline):
            rep = hopf_in_g(p, inv, n_grid=n)
            gs = np.linspace(rep.g_min, rep.g_max, n + 2)[1:-1]
            bounds, before, after = _scan(p, inv, "g", gs, 1e-11)
            edges = [s.hi for s in rep.segments[:-1]]
            assert edges == bounds.tolist(), (p, n)
            # every grid point carries the label of its segment
            label = [0 if not s.physical else 1 if not s.has_pair else 2 + (s.pair_real_sign > 0)
                     for s in rep.segments]
            at = np.searchsorted(edges, gs)
            assert eigenvalue_labels(p, inv, "g", gs).tolist() == [label[k] for k in at]
            assert before.tolist() == label[:-1] and after.tolist() == label[1:]
            for s in rep.segments:
                if s.physical:
                    q = p.replace(g=0.5 * (s.lo + s.hi))
                    assert (s.n_real_neg, s.n_real_pos, s.pair_real_sign) == _eigenvalue_counts(q, inv)

    @pytest.mark.parametrize("n", [18, 37])
    def test_hidden_crossings_are_found_on_coarse_grids(self, n):
        for inv, p in self.HIDDEN_CROSSINGS:
            _, points, g1_hopf, _ = hopf_locator._growth_hopf(p, inv, n)
            _, _, want, _ = hopf_locator._growth_hopf(p, inv, hopf_locator.G_GRID)
            assert [h.crossing for h in points] == ["destabilizing"], p
            assert g1_hopf == pytest.approx(want, rel=0.0, abs=1e-11), p

    #: points inside the window between two critical delays closer together
    #: than one interval of the omega grid (draws 154 and 2946 of a census,
    #: windows 38.113489-38.715841 and 34.235297-34.296171), where the
    #: eigenvalues hold an unstable pair: hopf_in_T finds neither crossing,
    #: so the count must not rest on the crossings it locates
    CLOSE_PAIRS = [
        (InvestmentParams(a=11.161564963517655, c=0.025567859623014055, d=0.030079552617508474,
                          v=7.283449862298589),
         MacroParams(alpha=2.0682142228223594, gamma=0.40909974419042383, delta=0.02926925127739697,
                     g=0.002101850387924124, G0=1.5871337651802013, T=38.4, m=2)),
        (InvestmentParams(a=13.218216818487363, c=0.02000271891337682, d=0.07007894900669126,
                          v=3.8577210074468766),
         MacroParams(alpha=2.298236525665438, gamma=0.3809296976200732, delta=0.03834949908465696,
                     g=-0.011540670273119523, G0=4.954614507047536, T=34.265, m=3)),
    ]

    def test_unstable_count_matches_eigenvalues_on_a_census(self):
        # m up to 89 and T log-uniform on [0.001, 500], after the two close pairs
        rng = np.random.default_rng(22)
        cases = list(self.CLOSE_PAIRS)
        for _ in range(300):
            inv, p, _ = random_model_draw(rng, m=int(rng.integers(1, 90)))
            cases.append((inv, p.replace(T=float(10.0 ** rng.uniform(-3.0, math.log10(500.0))))))
        counted = []
        for inv, p in cases:
            eig = equilibrium_eigenvalues(p, inv)
            # a spectrum this near the imaginary axis does not show its side
            if np.min(np.abs(eig.real)) < 1e-9 * (1.0 + np.max(np.abs(eig))):
                continue
            n_rhp = int(np.sum(eig.real > 0.0))
            assert int(hopf_locator._unstable_roots(p, inv, np.array([p.g]))[0]) == n_rhp, p
            counted.append(n_rhp)
        assert counted[:2] == [2, 2]
        assert len(counted) >= 290 and {0, 2, 4} <= set(counted)

    def test_each_run_on_the_axis_counts_its_own_half_plane(self):
        rep = hopf_in_g(self.TWO_AXIS_RUNS[1], self.TWO_AXIS_RUNS[0])
        assert [s.stable for s in rep.segments] == [None, True, True, False, False, None, True, True]

    def test_both_hopf_points_at_m_1000(self, inv_dm, baseline):
        rep = hopf_in_g(baseline, inv_dm, m=1000)
        assert [h.crossing for h in rep.hopf_points] == ["destabilizing", "stabilizing"]
        assert rep.g1_hopf == pytest.approx(TABLE_G[4][0], abs=5e-7)
        assert rep.g2_hopf == pytest.approx(TABLE_G[4][1], abs=5e-7)
        assert [s.stable for s in rep.segments] == [None, True, False, True]


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

    @pytest.mark.parametrize("alpha_range", [(0.0, 1.0), (-0.5, 1.0), (1.5, 0.3), (0.7, 0.7)])
    def test_alpha_range_must_satisfy_0_lt_lo_lt_hi(self, inv_dm, baseline, alpha_range):
        with pytest.raises(ValueError, match="0 < lo < hi"):
            hopf_in_alpha(baseline, inv_dm, alpha_range=alpha_range)

    def test_the_order_argument_replaces_m(self, inv_dm, baseline):
        p = baseline.replace(T=1.5)
        got = hopf_in_alpha(p, inv_dm, m=3, alpha_range=(0.3, 1.5))
        assert got == hopf_in_alpha(p.replace(m=3), inv_dm, alpha_range=(0.3, 1.5))
        assert got != hopf_in_alpha(p, inv_dm, alpha_range=(0.3, 1.5))


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

    def test_a_delay_of_zero_is_refused(self, inv_dm, baseline):
        p = baseline.replace(T=0.0)
        with pytest.raises(DelayNonPositive, match="chain reduction needs T > 0"):
            hopf_in_alpha(p, inv_dm)
        with pytest.raises(DelayNonPositive, match="chain reduction needs T > 0"):
            table_g_bifurcations(p, inv_dm, [1, 2])

    def test_no_point_where_a_grid_interval_spans_a_stretch_without_one(self):
        # the root counts at the ends of this one grid interval differ (2
        # and 0), but between them the equilibrium is not positive, so no
        # pair sits on the axis in between
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

    def test_table_and_alpha_scan_compute_no_eigenvalues(self, inv_dm, baseline, monkeypatch, capsys):
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(1) or eigvals(a))
        table_g_bifurcations(baseline, inv_dm, [1, 2, 3, 4])
        hopf_in_alpha(baseline.replace(T=1.5), inv_dm, alpha_range=(0.3, 1.5))
        assert calls == []
        # nor does the growth-rate structure, in the library or the CLI
        hopf_in_g(baseline, inv_dm, m=1)
        assert cli_main(["hopf", "--vary", "g", "--m", "2"]) == 0
        assert cli_main(["stability", "--scan-g", "500", "--m", "3"]) == 0
        assert "pair with positive real part" in capsys.readouterr().out
        assert calls == []


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


def _bits(points):
    """Every field of each HopfPoint, its floats by their bits."""
    return [(h.parameter, h.value.hex(), h.omega.hex(), h.crossing, h.transversality.hex(),
             h.residual.hex()) for h in points]


def _row_bits(rows):
    return [(m, float(g1).hex(), float(g2).hex()) for m, g1, g2 in rows]


def _one_by_one(p, inv, orders, n_grid=hopf_locator.G_GRID):
    """Table 2 rows and the Hopf points in g from one :func:`_growth_hopf`
    call per order."""
    rows, points = [], []
    for m in orders:
        _, found, g1, g2 = hopf_locator._growth_hopf(p.replace(m=m), inv, n_grid)
        rows.append((m, math.nan if g1 is None else g1, math.nan if g2 is None else g2))
        points.append(_bits(found))
    return rows, points


def _batched_points(p, inv, orders, n_grid=hopf_locator.G_GRID):
    _, rows = hopf_locator._growth_hopf(p, inv, n_grid, orders)
    return [_bits(found) for found, _, _ in rows]


class TestTableInOneSolve:
    """Table 2 solves the brackets of all its kernel orders together, and
    every row and point is, bit for bit, that of its order alone."""

    def test_rows_and_points_are_those_of_each_order_alone(self):
        rng = np.random.default_rng(18)
        orders = list(range(1, 13))
        rows = points = 0
        for draw in range(100):
            inv, p, _ = random_model_draw(rng, t_hi=40.0)
            m_list = orders + [500] if draw == 0 else orders
            got = table_g_bifurcations(p, inv, m_list)
            want_rows, want_points = _one_by_one(p, inv, m_list)
            assert _row_bits(got) == _row_bits(want_rows), draw
            assert _batched_points(p, inv, m_list) == want_points, draw
            # the bisection route: on a coarse grid Newton leaves brackets unsettled
            n = (3, 4, 5, 7)[draw % 4]
            coarse = _batched_points(p, inv, orders, n)
            assert coarse == _one_by_one(p, inv, orders, n)[1], draw
            rows += sum(not math.isnan(g) for _, *row in got for g in row)
            points += sum(map(len, coarse))
        assert rows >= 100 and points >= 100

    @pytest.mark.parametrize("alpha, T", [(1.0, 1.0), (0.6, 5.0), (3.0, 0.2)])
    def test_rows_at_the_published_cases(self, inv_dm, baseline, alpha, T):
        p = baseline.replace(alpha=alpha, T=T)
        m_list = [1, 2, 3, 4, 6, 500]
        rows, points = _one_by_one(p, inv_dm, m_list)
        assert _row_bits(table_g_bifurcations(p, inv_dm, m_list)) == _row_bits(rows)
        assert _batched_points(p, inv_dm, m_list) == points

    def test_duplicate_and_unsorted_orders_come_back_in_input_order(self, inv_dm, baseline):
        got = table_g_bifurcations(baseline, inv_dm, [3, 1, 3])
        assert [row[0] for row in got] == [3, 1, 3]
        assert _row_bits(got) == _row_bits(_one_by_one(baseline, inv_dm, [3, 1, 3])[0])

    def test_no_orders_give_no_rows(self, inv_dm, baseline):
        assert table_g_bifurcations(baseline, inv_dm, []) == []

    @pytest.mark.parametrize("m_list", [[0], [1, 0]])
    def test_an_order_below_one_is_refused_before_any_solve(self, inv_dm, baseline, monkeypatch,
                                                            m_list):
        calls = []
        gains = hopf_locator._loop_coefficients
        monkeypatch.setattr(hopf_locator, "_loop_coefficients",
                            lambda *args: calls.append(1) or gains(*args))
        with pytest.raises(ValueError, match="MacroParams.m must be an integer >= 1"):
            table_g_bifurcations(baseline, inv_dm, m_list)
        assert calls == []

    def test_one_grid_evaluation_and_one_newton_solve(self, inv_dm, baseline, monkeypatch):
        # one per order, four of each, when every order was solved on its own
        grid_calls, newton_calls = [], []
        gains, newton = hopf_locator._loop_coefficients, hopf_locator._newton

        def counted_gains(p, inv, alpha, g):
            grid_calls.append(np.size(g) == hopf_locator.G_GRID)
            return gains(p, inv, alpha, g)

        monkeypatch.setattr(hopf_locator, "_loop_coefficients", counted_gains)
        monkeypatch.setattr(hopf_locator, "_newton",
                            lambda *args: newton_calls.append(1) or newton(*args))
        rows = table_g_bifurcations(baseline, inv_dm, [1, 2, 3, 4])
        assert sum(grid_calls) == 1
        assert len(newton_calls) == 1
        for m, g1, g2 in rows:
            assert (g1, g2) == pytest.approx(TABLE_G[m], abs=2e-6)

    def test_a_newton_step_over_many_orders_is_that_of_each_order(self):
        # the entries of each order in an array of orders take the
        # arithmetic of that order alone
        rng = np.random.default_rng(2)
        m = np.repeat(np.arange(1, 13), 2000)
        r = m / rng.uniform(0.2, 40.0, m.size)
        args = [rng.uniform(0.01, 2.0, m.size), *(rng.normal(size=(6, m.size)))]
        batched = hopf_locator._newton_step(args[0], m, r, *args[1:], 0.0)
        for order in range(1, 13):
            at = m == order
            alone = hopf_locator._newton_step(args[0][at], order, r[at],
                                              *(v[at] for v in args[1:]), 0.0)
            for got, want in zip(batched, alone):
                assert np.array_equal(got[at], want), order

    def test_an_order_ends_its_bisection_on_its_own(self, inv_dm, baseline, monkeypatch):
        # with no Newton root accepted, m = 2 has one bracket, whose upper end
        # has no positive equilibrium: its bisection lands on the crossing
        # just above 0.0203263, alone and beside m = 1, whose bracket below
        # 0.0203263 is bisected with it
        monkeypatch.setattr(hopf_locator, "NEWTON_TOL", 0.0)
        grid = np.array([0.015, 0.0203263, 0.0295])
        both = hopf_locator._param_crossings(baseline, inv_dm, "g", grid, 1e-11, [1, 2])
        alone = [hopf_locator._param_crossings(baseline.replace(m=m), inv_dm, "g", grid, 1e-11)
                 for m in (1, 2)]
        assert [_bits(points) for points in both] == [_bits(points) for points in alone]
        assert [len(points) for points in both] == [1, 1]


def _assert_eigenvalues_cross(p, inv, h, tol):
    """``h``, located to ``tol``, solves the characteristic equation to
    1e4 tol, and the leading pair's real part changes sign across it in the
    direction of its crossing."""
    at = lambda x: p.replace(**{h.parameter: x})
    assert characteristic_residual(at(h.value), inv, h.omega) <= 1e4 * tol, h
    dn, up = (pair_max_real(at(h.value + s * abs(h.value)), inv)[0] for s in (-1e-6, 1e-6))
    assert dn * up < 0.0 and (up > 0.0) == (h.crossing == "destabilizing"), (h, dn, up)


class TestCrossingBesideThePositivityEdge:
    """A bracket whose upper end has no positive equilibrium holds a
    crossing when its bisection ends with a pair on the axis."""

    def test_the_stabilizing_g_point_at_m2(self, inv_dm, baseline):
        p = baseline.replace(m=2)
        grid = np.array([0.015, 0.0203263, 0.0295])
        [h] = hopf_locator._param_crossings(p, inv_dm, "g", grid, 1e-11)
        assert h.crossing == "stabilizing"
        assert hopf_in_g(p, inv_dm).g2_hopf == pytest.approx(0.0203267334953874, rel=0.0, abs=1e-15)
        assert h.value == pytest.approx(0.0203267334953874, rel=0.0, abs=1e-11)
        _assert_eigenvalues_cross(p, inv_dm, h, 1e-11)

    def test_the_destabilizing_alpha_point_at_m9(self):
        inv = InvestmentParams(a=8.284218621059068, c=0.022880425336343196,
                               d=0.05007004612762565, v=6.739825353784279)
        p = MacroParams(alpha=0.1295533116474492, gamma=0.2046091310033356,
                        delta=0.019477978442258393, g=0.04009670087002219,
                        G0=3.847492913535129, T=26.203090304139483, m=9)
        [h] = hopf_locator._param_crossings(p, inv, "alpha", np.geomspace(0.05, 2.0, 7), 1e-12)
        assert h.crossing == "destabilizing"
        assert [x.value for x in hopf_in_alpha(p, inv)] == pytest.approx([0.17376268480427987],
                                                                         rel=0.0, abs=1e-15)
        assert h.value == pytest.approx(0.17376268480427987, rel=0.0, abs=1e-12)
        _assert_eigenvalues_cross(p, inv, h, 1e-12)


class TestCoarseGridCensus:
    """On grids of 3 to 32 points, for kernel orders 1 to 12: every point
    in g and alpha is a crossing of the leading pair, the orders solved
    together give the points of each order alone, and a crossing that a
    grid 8 times finer finds alone in a coarse interval is found there
    too where the interval starts with a pair on the axis and ends with
    one or without a positive equilibrium.  In g, on grids of 8 to 64
    points, so is every crossing alone in an interval that starts with a
    positive equilibrium, on the axis or off it."""

    @staticmethod
    def _intervals(p, inv, name, grid):
        """The grid intervals that start with a pair on the axis and end
        with one or without a positive equilibrium, as (lo, hi) pairs."""
        a, b, c, e = hopf_locator._loop_coefficients(
            p, inv, *(np.broadcast_to(grid if key == name else getattr(p, key), grid.shape)
                      for key in ("alpha", "g")))
        on = (b * c) ** 2 > (a * e) ** 2
        kept = on[:-1] & (on[1:] | np.isnan(e[1:]))
        return list(zip(grid[:-1][kept], grid[1:][kept]))

    @staticmethod
    def _check_found(intervals, coarse, fine, tol):
        for lo, hi in intervals:
            want = [h for h in fine if lo < h.value < hi]
            if len(want) == 1:
                got = [h for h in coarse if lo < h.value < hi]
                assert len(got) == 1, (lo, hi, want, got)
                assert got[0].value == pytest.approx(want[0].value, rel=0.0, abs=10.0 * tol)
                assert got[0].crossing == want[0].crossing

    def test_seeded_draws(self):
        rng = np.random.default_rng(5)
        orders = list(range(1, 13))
        points = 0
        for draw in range(260):
            inv, p, _ = random_model_draw(rng, t_hi=40.0)
            n = int(rng.integers(3, 33))
            gs, rows = hopf_locator._growth_hopf(p, inv, n, orders)
            by_g = [found for found, _, _ in rows]
            # two orders a draw, each order every sixth draw
            alone = orders[2 * (draw % 6):2 * (draw % 6) + 2]
            assert [_bits(by_g[m - 1]) for m in alone] == _one_by_one(p, inv, alone, n)[1], draw
            alphas = np.geomspace(0.05, 2.0, n)
            by_alpha = hopf_locator._param_crossings(p, inv, "alpha", alphas, 1e-12, orders)
            _, fine_g = hopf_locator._growth_hopf(p, inv, 8 * n, orders)
            fine_alpha = hopf_locator._param_crossings(
                p, inv, "alpha", np.geomspace(0.05, 2.0, 8 * n), 1e-12, orders)
            # the loop gains, and so the intervals, do not depend on m
            in_g, in_alpha = (self._intervals(p, inv, name, x) for name, x in (("g", gs), ("alpha", alphas)))
            for m, g_points, alpha_points, (fine, _, _), fine_a in zip(
                    orders, by_g, by_alpha, fine_g, fine_alpha):
                for h in g_points:
                    _assert_eigenvalues_cross(p.replace(m=m), inv, h, 1e-11)
                for h in alpha_points:
                    _assert_eigenvalues_cross(p.replace(m=m), inv, h, 1e-12)
                self._check_found(in_g, g_points, fine, 1e-11)
                self._check_found(in_alpha, alpha_points, fine_a, 1e-12)
                points += len(g_points) + len(alpha_points)
        assert points >= 2000

    def test_every_lone_crossing_in_g_is_found(self):
        rng = np.random.default_rng(19)
        alone = 0
        for _ in range(150):
            inv, p, _ = random_model_draw(rng, m=int(rng.integers(1, 13)), t_hi=40.0)
            fine = hopf_locator._growth_hopf(p, inv, hopf_locator.G_GRID)[1]
            for n in (8, 18, 37, 64):
                gs, coarse, _, _ = hopf_locator._growth_hopf(p, inv, n)
                # no point that the fine grid does not have
                for h in coarse:
                    assert any(abs(h.value - f.value) <= 1e-10 and h.crossing == f.crossing
                               for f in fine), (p, n, h)
                physical = ~np.isnan(hopf_locator._loop_coefficients(p, inv, np.full(n, p.alpha), gs)[0])
                intervals = list(zip(gs[:-1][physical[:-1]], gs[1:][physical[:-1]]))
                self._check_found(intervals, coarse, fine, 1e-11)
                alone += sum(sum(lo < f.value < hi for f in fine) == 1 for lo, hi in intervals)
        assert alone >= 300


class TestNewtonFromGridBrackets:
    """Every Hopf point is the root that Newton's method reaches from the
    secant point of its grid bracket, where that root passes the residual
    and bracket test, and otherwise the point that bisection by the root
    count reaches: until the ends are adjacent floats (T), or to the
    tolerance (g and alpha)."""

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
        # the acceptance test, and bisection, then Newton from its midpoint,
        # finds the root
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

    def test_a_coarse_g_grid_takes_the_bisection_route(self, inv_dm, baseline, monkeypatch):
        calls = _count_phase_calls(monkeypatch)
        _, points, _, _ = hopf_locator._growth_hopf(baseline, inv_dm, 3)
        assert calls[0] > 1  # the grid pass, then bisection
        assert [h.value for h in points] == [0.010119897982338439, 0.02032585520320571]
        assert [h.crossing for h in points] == ["destabilizing", "stabilizing"]

    def test_newton_takes_few_phase_evaluations(self, inv_dm, baseline, monkeypatch):
        # the routes before Newton from the secant point took 13, 24 and 6
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
        # every bracket at m = 8192 takes the bisection route, cut short at
        # a width of 1e-4 in T: the first crossing then misses the equation,
        # and is refused
        monkeypatch.setattr(hopf_locator, "NEWTON_TOL", 0.0)
        refine = hopf_locator._refine
        monkeypatch.setattr(hopf_locator, "_refine",
                            lambda label, grid, labels, tol, *rows: refine(label, grid, labels, 1e-4, *rows))
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


def _count_change(p, inv):
    """N(T = 1e300) - N(T = 1e-300), the change of the number of roots in
    the right half-plane over every delay, at the other parameters of p."""
    hi, lo = (int(hopf_locator._unstable_roots(p.replace(T=T), inv, np.array([p.g]))[0]) for T in (1e300, 1e-300))
    return hi - lo


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

    def test_a_grazing_pair_of_crossings(self):
        # draw 222 above (m = 3).  In the chain phase theta = m atan(omega T/m)
        # the two crossings lie 0.2 rad apart and G / 2 pi rises only 0.0013
        # above its level between them, so a uniform theta grid of spacing
        # pi/8 misses them: 7 intervals over [0, theta_max] hold both in one
        inv = InvestmentParams(a=12.343196408975983, c=0.034001149508811834,
                               d=0.0642160198483147, v=2.7351953833343847)
        p = MacroParams(alpha=2.2900257432143576, gamma=0.4841435810599087,
                        delta=0.01283669416697937, g=0.03753670654934749,
                        G0=4.546672540644948, T=6.590775211791767, m=3)
        points = hopf_in_T(p, inv)
        assert [h.value for h in points] == pytest.approx(
            [15.563761854117358, 22.10228937364236], rel=1e-12, abs=0.0)
        assert [h.crossing for h in points] == ["destabilizing", "stabilizing"]

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

    def test_the_far_crossing_at_m2(self, inv_dm, baseline):
        # a = -1.26e-6 here, and the pair turns back left at omega = 1.1e-8,
        # inside the last interval of the omega grid, which ends at T = inf
        p = baseline.replace(m=2, g=0.023124938994631524)
        near, far = hopf_in_T(p, inv_dm)
        assert near.value == pytest.approx(24.444418, abs=1e-6)
        assert far.value == pytest.approx(3.8669478e10, rel=1e-7)
        assert [near.crossing, far.crossing] == ["destabilizing", "stabilizing"]
        for h in (near, far):
            assert characteristic_residual(p.replace(T=h.value), inv_dm, h.omega) <= 1e-12
            assert h.residual <= 1e-12
        # the leading pair's real part changes sign across the far crossing
        assert pair_max_real(p.replace(T=3.8e10), inv_dm)[0] > 0.0 > pair_max_real(p.replace(T=3.9e10), inv_dm)[0]

    def test_a_grid_interval_with_several_crossings_is_refused(self, inv_dm, baseline):
        # at m = 10^7 the first interval of the omega grid holds three
        # crossings, where N changes by 6; one crossing per interval gave
        # 245, while N(T = 1e300) - N(T = 1e-300) is 1192
        p = baseline.replace(alpha=0.7, m=10**7)
        assert _count_change(p, inv_dm) == 1192
        with pytest.raises(InaccurateRoot, match="changes by 6 between T = 0 and 316.5"):
            hopf_in_T(p, inv_dm)

    def test_net_count_of_the_crossings_is_the_change_of_the_root_count(self, inv_dm, baseline):
        # N, counted from the phase at the delay alone, grows by 2 at every
        # destabilizing crossing and falls by 2 at every stabilizing one, so
        # it checks every crossing the scan in T could lose
        cases = [(inv_dm, baseline.replace(m=2, g=0.023124938994631524)),
                 (inv_dm, baseline.replace(alpha=0.7, m=8192)),
                 (inv_dm, baseline.replace(alpha=0.7, m=10**6))]
        rng = np.random.default_rng(3)
        for _ in range(1500):
            inv, p, _ = random_model_draw(rng, m=int(rng.integers(1, 13)))
            cases.append((inv, p))
        points = 0
        for inv, p in cases:
            try:
                found = hopf_in_T(p, inv)
            except NoHopf:
                found = []
            net = sum(1 if h.crossing == "destabilizing" else -1 for h in found)
            assert _count_change(p, inv) == 2 * net, p
            points += len(found)
        assert points >= 450

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
