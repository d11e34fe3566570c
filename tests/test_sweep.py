import json
import math
from pathlib import Path

import numpy as np
import pytest

from chaintrick import export, hopf_locator
from chaintrick.char_poly import coeffs_m1, routh_hurwitz_cubic
from chaintrick.errors import (
    DegenerateTransversality,
    GrowthOutOfRange,
    InaccurateRoot,
    NoHopf,
    NonPositiveEquilibrium,
    NoStableRegime,
)
from chaintrick.hopf_locator import (
    critical_delays,
    equilibrium_eigenvalues,
    hopf_in_T_m1,
    hopf_in_T_m2,
)
from chaintrick.model_core import InvestmentParams, MacroParams, equilibrium, growth_interval
import chaintrick.sweep as sweep_module
from chaintrick.sweep import (
    curve_T_vs_alpha,
    curve_T_vs_g,
    sidecar_path,
    smallest_critical_delay,
    surface_T,
    table_g_bifurcations,
    write_curve_csv,
    write_surface_csv,
    write_table_csv,
)
from oracles import random_model_draw

PAPER_FIT = (-11.137983, 8.512805)


@pytest.fixture(scope="module")
def alpha_curve():
    from chaintrick.model_core import DANA_MALGRANGE, MacroParams

    baseline = MacroParams(
        alpha=1.0, gamma=0.15, delta=0.007, g=0.016, G0=2.0, T=1.0, m=1
    )
    alphas = np.linspace(0.6, 0.764, 83)
    return curve_T_vs_alpha(baseline, DANA_MALGRANGE, 1, alphas)


class TestCurveTVsAlpha:
    def test_fit_matches_published_coefficients(self, alpha_curve):
        c0, c1 = alpha_curve.fit.coefficients
        assert abs(c0 - PAPER_FIT[0]) / abs(PAPER_FIT[0]) < 0.03
        assert abs(c1 - PAPER_FIT[1]) / abs(PAPER_FIT[1]) < 0.03

    def test_threshold_alpha(self, alpha_curve):
        assert abs(alpha_curve.fit.threshold_alpha - 0.7644) < 0.002

    def test_fit_quality_on_interior_window(self, inv_dm, baseline):
        alphas = np.linspace(0.62, 0.75, 53)
        curve = curve_T_vs_alpha(baseline, inv_dm, 1, alphas)
        assert curve.fit.relative_residual < 0.01

    def test_m2_curve_lies_below_m1(self, inv_dm, baseline):
        alphas = np.linspace(0.6, 0.75, 41)
        c1 = curve_T_vs_alpha(baseline, inv_dm, 1, alphas)
        c2 = curve_T_vs_alpha(baseline, inv_dm, 2, alphas)
        mask = np.isfinite(c1.t_bi) & np.isfinite(c2.t_bi)
        assert mask.sum() == len(alphas)
        assert np.all(c2.t_bi[mask] < c1.t_bi[mask])

    def test_gap_handling_beyond_threshold(self, inv_dm, baseline):
        alphas = np.linspace(0.7, 0.85, 16)
        curve = curve_T_vs_alpha(baseline, inv_dm, 1, alphas)
        assert np.isnan(curve.t_bi[-1])  # alpha = 0.85 has no stable regime
        assert np.isfinite(curve.t_bi[0])
        # a gap is never encoded as zero
        assert not np.any(curve.t_bi[np.isfinite(curve.t_bi)] == 0.0)


class TestCurveTVsG:
    def test_quadratic_fit_quality(self, inv_dm, baseline):
        # interior window: near the edges of the cycle region the boundary
        # steepens and a quadratic stops being a good description
        gs = np.linspace(0.012, 0.019, 48)
        curve = curve_T_vs_g(baseline.replace(alpha=0.6), inv_dm, 1, gs)
        assert np.all(np.isfinite(curve.t_bi))
        assert curve.fit.relative_residual < 0.02
        assert curve.fit.model == "a0 + a1*g + a2*g^2"

    def test_cycle_region_wider_at_higher_alpha(self, inv_dm, baseline):
        gs = np.linspace(0.011, 0.02, 24)
        lo = curve_T_vs_g(baseline.replace(alpha=0.6), inv_dm, 1, gs)
        hi = curve_T_vs_g(baseline.replace(alpha=0.9), inv_dm, 1, gs)
        both = np.isfinite(lo.t_bi) & np.isfinite(hi.t_bi)
        assert np.all(hi.t_bi[both] < lo.t_bi[both])
        # and the all-T-unstable region exists only for the higher alpha
        assert np.isnan(hi.t_bi).sum() > np.isnan(lo.t_bi).sum()

    def test_admissibility_boundary_is_a_gap(self, inv_dm, baseline):
        g_lo, _ = growth_interval(inv_dm, baseline.delta)
        curve = curve_T_vs_g(
            baseline.replace(alpha=0.6), inv_dm, 1, np.array([g_lo, 0.015])
        )
        assert np.isnan(curve.t_bi[0])
        assert np.isfinite(curve.t_bi[1])


class TestSurface:
    def test_slices_match_curves_exactly(self, inv_dm, baseline):
        alphas = np.linspace(0.6, 0.75, 16)
        gs = np.linspace(0.012, 0.019, 16)
        surf = surface_T(baseline, inv_dm, 1, alphas, gs)
        curve_a = curve_T_vs_alpha(baseline.replace(g=float(gs[3])), inv_dm, 1, alphas)
        np.testing.assert_array_equal(surf.t_bi[:, 3], curve_a.t_bi)
        curve_g = curve_T_vs_g(baseline.replace(alpha=float(alphas[5])), inv_dm, 1, gs)
        np.testing.assert_array_equal(surf.t_bi[5, :], curve_g.t_bi)

    def test_below_surface_is_stable_above_is_not(self, inv_dm, baseline):
        alphas = np.linspace(0.62, 0.72, 16)
        gs = np.linspace(0.013, 0.018, 16)
        surf = surface_T(baseline, inv_dm, 1, alphas, gs)
        for i in (0, 5, 10, 15):
            for j in (0, 7, 15):
                tb = surf.t_bi[i, j]
                if not np.isfinite(tb):
                    continue
                al, g = float(alphas[i]), float(gs[j])
                p_lo = baseline.replace(alpha=al, g=g, T=0.5 * tb)
                p_hi = baseline.replace(alpha=al, g=g, T=1.5 * tb)
                v_lo = routh_hurwitz_cubic(coeffs_m1(equilibrium(p_lo, inv_dm), p_lo))
                v_hi = routh_hurwitz_cubic(coeffs_m1(equilibrium(p_hi, inv_dm), p_hi))
                assert v_lo.stable
                assert not v_hi.stable

    @pytest.mark.parametrize("n_alpha, n_g", [(1, 1), (4, 2), (3, 16)])
    def test_any_grid_size_is_accepted(self, inv_dm, baseline, n_alpha, n_g):
        # every cell is computed on its own, so a small grid holds the
        # same values as one cell at a time
        alphas, gs = np.linspace(0.6, 0.7, n_alpha), np.linspace(0.012, 0.018, n_g)
        surf = surface_T(baseline, inv_dm, 1, alphas, gs)
        assert surf.t_bi.shape == (n_alpha, n_g)
        for i, al in enumerate(alphas):
            for j, g in enumerate(gs):
                p = baseline.replace(alpha=float(al), g=float(g))
                assert surf.t_bi[i, j] == smallest_critical_delay(p, inv_dm)

    def test_empty_grid_rejected(self, inv_dm, baseline):
        alphas, gs = np.linspace(0.6, 0.7, 4), np.linspace(0.012, 0.018, 4)
        calls = [
            lambda: curve_T_vs_alpha(baseline, inv_dm, 1, []),
            lambda: curve_T_vs_g(baseline, inv_dm, 1, np.array([])),
            lambda: surface_T(baseline, inv_dm, 1, [], gs),
            lambda: surface_T(baseline, inv_dm, 1, alphas, []),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="grid is empty"):
                call()


class TestTable:
    def test_m1_row(self, inv_dm, baseline):
        rows = table_g_bifurcations(baseline, inv_dm, [1])
        (m, g1, g2) = rows[0]
        assert m == 1
        assert g1 == pytest.approx(0.01011989, abs=2e-6)
        assert g2 == pytest.approx(0.02032586, abs=2e-6)


class TestCsvExport:
    def test_curve_csv_format(self, inv_dm, baseline, tmp_path):
        alphas = np.linspace(0.7, 0.8, 5)
        curve = curve_T_vs_alpha(baseline, inv_dm, 1, alphas)
        path = tmp_path / "curve.csv"
        write_curve_csv(curve, path)
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "param,T_bi"
        assert len(lines) == 6
        assert any(ln.endswith(",NA") for ln in lines[1:])  # gaps past threshold
        meta = (tmp_path / "curve.meta.json").read_text(encoding="utf-8")
        assert '"version": "0.1.0"' in meta
        assert '"fit"' in meta

    def test_sidecar_path(self):
        assert sidecar_path("out/run.csv") == "out/run.meta.json"

    def test_surface_csv_and_determinism_across_workers(
        self, inv_dm, baseline, tmp_path, monkeypatch
    ):
        alphas = np.linspace(0.62, 0.72, 16)
        gs = np.linspace(0.013, 0.018, 16)

        def emit(tag):
            surf = surface_T(baseline, inv_dm, 1, alphas, gs)
            path = tmp_path / f"{tag}.csv"
            write_surface_csv(surf, path)
            return path.read_bytes()

        monkeypatch.setenv("CHAINTRICK_THREADS", "1")
        serial = emit("serial")
        monkeypatch.setenv("CHAINTRICK_THREADS", "4")
        threaded = emit("threaded")
        monkeypatch.setenv("CHAINTRICK_THREADS", "0")
        auto = emit("auto")
        assert serial == threaded == auto
        header = serial.decode().split("\n")[0]
        assert header == "alpha,g,T_bi"

    def test_table_csv(self, inv_dm, baseline, tmp_path):
        rows = [(1, 0.0101, 0.0203), (2, math.nan, 0.02)]
        path = tmp_path / "table.csv"
        write_table_csv(rows, path, fixed={"alpha": 1.0})
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "m,g_bi1,g_bi2"
        assert lines[2].split(",")[1] == "NA"

    def test_seventeen_digit_round_trip(self, inv_dm, baseline, tmp_path):
        alphas = np.linspace(0.65, 0.7, 3)
        curve = curve_T_vs_alpha(baseline, inv_dm, 1, alphas)
        path = tmp_path / "c.csv"
        write_curve_csv(curve, path)
        lines = path.read_text(encoding="utf-8").strip().split("\n")[1:]
        parsed = np.array([[float(tok) for tok in ln.split(",")] for ln in lines])
        np.testing.assert_array_equal(parsed[:, 0], curve.values)
        np.testing.assert_array_equal(parsed[:, 1], curve.t_bi)


def _write_fixed_results(directory):
    """Write a curve, a surface, two tables and a trajectory, each built from
    fixed numbers (NaN, infinities, -0, subnormal and huge values, the
    integer m), with the package's CSV writers; returns the file names."""
    from chaintrick.model_core import DANA_MALGRANGE, MacroParams
    from chaintrick.simulator import Trajectory
    from chaintrick.sweep import BifurcationCurve, SurfaceResult

    directory = Path(directory)
    values = np.array([0.05, 1e-300, 123456789.123456789, -0.0, 2.0 / 3.0, 1e300, 0.1])
    t_bi = np.array([np.nan, 3.321018342272489, np.inf, -np.inf, 5e-324, np.nan, 7.0])
    curve = BifurcationCurve(parameter="alpha", values=values, t_bi=t_bi, m=3,
                             fixed={"g": 0.016}, fit=None)
    write_curve_csv(curve, directory / "curve.csv")
    surface = SurfaceResult(alphas=np.array([0.6, 0.65, 0.7]), gs=np.array([0.012, 0.0155]),
                            t_bi=np.array([[1.5, np.nan], [np.inf, 0.0], [2.0 / 7.0, 1e-17]]),
                            m=2, fixed={})
    write_surface_csv(surface, directory / "surface.csv")
    write_table_csv([(1, 0.010119897983666451, math.nan), (2, math.nan, 0.0203267334953874),
                     (12, 1e-5, 2.5)], directory / "table.csv")
    write_table_csv([], directory / "table_empty.csv")
    states = np.outer(np.arange(1.0, 12.0) ** 1.5, [1.0, -2.5e-7, 3.0e12, 1.0 / 3.0])
    states[5, 1], states[7, 2] = np.nan, np.inf
    traj = Trajectory(times=np.linspace(0.0, 3.0, 11), states=states,
                      params=MacroParams(alpha=0.9, gamma=0.15, delta=0.007, g=0.016, G0=2.0,
                                        T=3.0, m=2), inv=DANA_MALGRANGE)
    traj.write_csv(directory / "trajectory.csv")
    return ["curve.csv", "surface.csv", "table.csv", "table_empty.csv", "trajectory.csv"]


@pytest.mark.parametrize("block", [None, 4])
def test_csv_bytes_match_the_recorded_files(tmp_path, monkeypatch, block):
    # recorded with the writer that formatted one cell at a time; a block of
    # 4 rows splits every file but the empty table across blocks
    if block:
        monkeypatch.setattr(export, "CSV_BLOCK", block)
    recorded = Path(__file__).parent / "data" / "csv"
    for name in _write_fixed_results(tmp_path):
        assert (tmp_path / name).read_bytes() == (recorded / name).read_bytes(), name


def test_smallest_critical_delay_returns_nan_outside_range(inv_dm, baseline):
    assert math.isnan(
        smallest_critical_delay(baseline.replace(g=0.001), inv_dm, m=1)
    )
    assert math.isnan(
        smallest_critical_delay(baseline.replace(alpha=0.9), inv_dm, m=1)
    )


# the grids of acceptance criterion 8 (m = 1), of the benchmark's surfaces
# and a wide (alpha, g) grid
CURVE_ALPHAS = np.linspace(0.6, 0.764, 83)
BENCH = (np.linspace(0.6, 0.75, 16), np.linspace(0.012, 0.019, 16))
WIDE = (np.linspace(0.05, 2.0, 40), np.linspace(0.004, 0.028, 23))


def _closed_form_delays(p, inv, m, alphas, gs):
    """Smallest critical delay of every cell from the m = 1 and m = 2 closed
    forms, one call per cell: NaN where a cell has no Hopf point, -1 where
    the closed form refuses a crossing as degenerate."""
    locate = hopf_in_T_m1 if m == 1 else hopf_in_T_m2
    out = np.empty((len(alphas), len(gs)))
    for i, al in enumerate(alphas):
        for j, g in enumerate(gs):
            q = p.replace(alpha=float(al), g=float(g), m=m)
            try:
                out[i, j] = min(h.value for h in locate(equilibrium(q, inv), q))
            except (NoHopf, NoStableRegime, NonPositiveEquilibrium, GrowthOutOfRange):
                out[i, j] = math.nan
            except DegenerateTransversality:
                out[i, j] = -1.0
    return out


def _assert_same_cells(got, want):
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    finite = np.isfinite(want)
    assert np.all(np.abs(got[finite] - want[finite]) <= 1e-12 * want[finite])


class TestBatchedCells:
    """Every cell of one batched sweep against the per-cell routes it
    replaced: the closed forms for m = 1 and m = 2, and pinned values of
    one hopf_in_T call per cell for m >= 3."""

    def test_m1_and_m2_match_the_closed_forms(self, inv_dm, baseline):
        curve = curve_T_vs_alpha(baseline, inv_dm, 1, CURVE_ALPHAS)
        want = _closed_form_delays(baseline, inv_dm, 1, CURVE_ALPHAS, [baseline.g])
        _assert_same_cells(curve.t_bi, want[:, 0])
        # only the m = 2 quartic refuses crossings, at 9 cells of the wide grid
        for m, (alphas, gs), n_refused in ((1, BENCH, 0), (2, BENCH, 0), (1, WIDE, 0), (2, WIDE, 9)):
            got = surface_T(baseline, inv_dm, m, alphas, gs).t_bi
            want = _closed_form_delays(baseline, inv_dm, m, alphas, gs)
            refused = want == -1.0
            assert refused.sum() == n_refused
            assert np.all(np.isfinite(got[refused]))
            _assert_same_cells(got[~refused], want[~refused])

    def test_m3_to_m6_match_the_per_cell_values(self, inv_dm, baseline):
        path = Path(__file__).parent / "data" / "smallest_delays_m3_to_m6.json"
        pinned = json.loads(path.read_text(encoding="utf-8"))["t_bi"]
        cases = [("bench_m3", 3, BENCH)] + [(f"wide_m{m}", m, WIDE) for m in (3, 4, 5, 6)]
        for name, m, (alphas, gs) in cases:
            got = surface_T(baseline, inv_dm, m, alphas, gs).t_bi
            _assert_same_cells(got, np.array(pinned[name], dtype=float))

    def test_cells_the_m2_quartic_refuses_are_true_crossings(self, inv_dm, baseline):
        alphas, gs = WIDE
        surf = surface_T(baseline, inv_dm, 2, alphas, gs)
        refused = _closed_form_delays(baseline, inv_dm, 2, alphas, gs) == -1.0
        for i, j in zip(*np.nonzero(refused)):
            tb = surf.t_bi[i, j]
            p = baseline.replace(alpha=float(alphas[i]), g=float(gs[j]), m=2)
            below = equilibrium_eigenvalues(p.replace(T=0.999 * tb), inv_dm)
            above = equilibrium_eigenvalues(p.replace(T=1.001 * tb), inv_dm)
            assert np.max(below.real) < 0.0 < np.max(above.real)


def test_a_refused_later_crossing_leaves_the_first_of_its_cell(inv_dm, baseline, monkeypatch):
    # at m = 3 this cell of the wide grid has a first crossing more exact
    # than its second: a tolerance between their residuals refuses only the
    # second, which the cell's smallest delay does not use
    p = baseline.replace(alpha=float(WIDE[0][20]), g=float(WIDE[1][18]), m=3)
    points = critical_delays(p, inv_dm)
    first, later = points[0].residual, max(h.residual for h in points[1:])
    assert first < later
    monkeypatch.setattr(hopf_locator, "RESIDUAL_TOL", math.sqrt(first * later))
    assert surface_T(p, inv_dm, 3, [p.alpha], [p.g]).t_bi[0, 0] == points[0].value
    assert smallest_critical_delay(p, inv_dm) == points[0].value
    with pytest.raises(InaccurateRoot):
        critical_delays(p, inv_dm)


def _alpha_with_a_zero(p, inv):
    """An alpha next to g / (Iy* - gamma) at which the gain
    a = alpha (Iy* - gamma) - g of the cell (alpha, p.g) is exactly 0, so
    that ae = 0; None where no float near it gives 0."""
    iy = hopf_locator._loop_coefficients(p, inv, np.float64(p.alpha), np.float64(p.g))[2]
    guess = p.g / (iy - p.gamma)
    if not guess > 0.0:
        return None
    alphas = guess + np.arange(-8, 9) * np.spacing(guess)
    a = hopf_locator._loop_coefficients(p, inv, alphas, np.full(alphas.shape, p.g))[0]
    return next(iter(alphas[a == 0.0]), None)


class TestFirstCrossingScan:
    """With ``first`` the omega grid is scanned a block at a time and each
    cell leaves the scan at its first settled crossing: the same crossing,
    bit for bit, as the first of its cell in a scan of the whole grid."""

    @staticmethod
    def _check(p, inv, alphas, gs):
        """Compares both scans on the cells (alphas[i], gs[i]); returns the
        number of cells with a crossing."""
        every = hopf_locator._axis_crossings(p, inv, alphas, gs)
        first = hopf_locator._axis_crossings(p, inv, alphas, gs, first=True)
        _, head = np.unique(every[0], return_index=True)
        for got, want in zip(first, every):
            assert got.tobytes() == want[head].tobytes()
        return first[0].size

    # a block of 3 intervals takes most crossings past the first block
    @pytest.mark.parametrize("block", [hopf_locator.SCAN_BLOCK, 3])
    def test_the_first_crossing_is_that_of_the_whole_grid(self, monkeypatch, block):
        monkeypatch.setattr(hopf_locator, "SCAN_BLOCK", block)
        rng = np.random.default_rng(1717)
        cells = found = zeros = 0
        for _ in range(300):
            inv, p, _ = random_model_draw(rng, m=int(rng.integers(1, 13)))
            alphas = np.append(p.alpha, p.alpha * rng.uniform(0.2, 2.0, 4))
            gs = np.append(p.g, p.g * rng.uniform(0.9, 1.1, 4))
            zero = _alpha_with_a_zero(p, inv)
            if zero is not None:
                alphas, gs = np.append(alphas, zero), np.append(gs, p.g)
                zeros += 1
            cells += alphas.size
            found += self._check(p, inv, alphas, gs)
        assert zeros >= 50 and found >= 250 and cells - found >= 1000

    def test_a_first_bracket_newton_does_not_settle(self, monkeypatch):
        # the m = 12 cell of test_hopf_locator's bisection-route test, whose
        # first bracket Newton does not settle: the sweep bisects it too
        inv = InvestmentParams(a=12.872673088718981, c=0.021369158765164868,
                               d=0.07640355547789085, v=3.2728254540027493)
        p = MacroParams(alpha=0.11017309628440969, gamma=0.45035772212228664,
                        delta=0.023011763759519167, g=0.01716349444756876,
                        G0=1.7891032911526168, T=0.5145770153485768, m=12)
        brackets = []
        refine = hopf_locator._refine
        monkeypatch.setattr(hopf_locator, "_refine",
                            lambda *args: brackets.append(len(args[4])) or refine(*args))
        assert self._check(p, inv, [p.alpha], [p.g]) == 1
        assert smallest_critical_delay(p, inv) == pytest.approx(29.821917385408238, rel=1e-13)
        assert brackets[-1] == 1

    def test_a_surface_labels_few_grid_points_per_cell(self, inv_dm, baseline, monkeypatch):
        # a scan of the whole grid labels all 256 points of every cell and
        # then the ends of its bracket: 258 phase points a cell
        points = [0]
        phase = hopf_locator._phase

        def counted(omega, *args, **kwargs):
            points[0] += np.size(omega)
            return phase(omega, *args, **kwargs)

        monkeypatch.setattr(hopf_locator, "_phase", counted)
        surface = surface_T(baseline, inv_dm, 3, *BENCH)
        assert np.isfinite(surface.t_bi).all()
        assert points[0] <= 64 * surface.t_bi.size


class TestGridValues:
    """Bad alpha or g values are refused before any cell is computed."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a cell was computed")

        monkeypatch.setattr(sweep_module, "_axis_crossings", fail)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", [0.0, -0.5, math.nan, math.inf, -math.inf])
    def test_alpha_must_be_finite_and_positive(self, inv_dm, baseline, alpha):
        gs = np.linspace(0.012, 0.018, 3)
        for call in (
            lambda: curve_T_vs_alpha(baseline, inv_dm, 1, [0.6, alpha, 0.7]),
            lambda: surface_T(baseline, inv_dm, 1, [alpha], gs),
        ):
            with pytest.raises(ValueError, match="alpha must be finite and > 0"):
                call()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("g", [math.nan, math.inf, -math.inf])
    def test_g_must_be_finite(self, inv_dm, baseline, g):
        alphas = np.linspace(0.6, 0.7, 3)
        for call in (
            lambda: curve_T_vs_g(baseline, inv_dm, 1, [g, 0.015]),
            lambda: surface_T(baseline, inv_dm, 1, alphas, [0.015, g]),
        ):
            with pytest.raises(ValueError, match="g must be finite"):
                call()
