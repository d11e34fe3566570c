import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaintrick import char_poly, cli
from chaintrick.chain_system import build, constant_history_state
from chaintrick.cli import _SETTINGS, _build_parser, _resolve_config, _table, main
from chaintrick.hopf_locator import critical_delays, hopf_in_g, pair_max_real
from chaintrick.model_core import DANA_MALGRANGE, MacroParams, equilibrium
from chaintrick.simulator import integrate
from oracles import random_model_draw


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEquilibriumCmd:
    def test_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "equilibrium")
        assert code == 0
        doc = json.loads(out)
        assert doc["x_star"] == pytest.approx(0.236407, abs=1e-6)
        assert doc["y_star"] == pytest.approx(29.1078, abs=1e-3)
        assert doc["k_star"] == pytest.approx(123.126, abs=1e-2)

    def test_json_flag_agrees_with_default(self, capsys):
        _, out_pretty, _ = run_cli(capsys, "equilibrium")
        _, out_compact, _ = run_cli(capsys, "equilibrium", "--json")
        assert json.loads(out_pretty) == json.loads(out_compact)
        assert "\n" not in out_compact.strip()

    def test_out_of_range_exit_and_message(self, capsys):
        code, _, err = run_cli(capsys, "equilibrium", "--g", "0.001")
        assert code == 2
        assert "0.003" in err and "0.029" in err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_investment_parameter_is_domain_error(self, capsys, value):
        code, out, err = run_cli(capsys, "equilibrium", "--a", value)
        assert code == 2
        assert out == ""
        assert err.startswith("error: InvestmentParams.a must be finite and > 0")


class TestStabilityCmd:
    def test_stable_below_first_crossing(self, capsys):
        code, out, _ = run_cli(capsys, "stability", "--g", "0.005")
        doc = json.loads(out)
        assert code == 0
        assert doc["stable"] is True

    def test_stable_above_second_crossing(self, capsys):
        _, out, _ = run_cli(capsys, "stability", "--g", "0.025")
        doc = json.loads(out)
        assert doc["stable"] is True
        assert doc["classification"] == "1 negative, pair with negative real part"

    def test_unstable_inside_window(self, capsys):
        _, out, _ = run_cli(capsys, "stability", "--g", "0.015")
        doc = json.loads(out)
        assert doc["stable"] is False
        assert doc["classification"] == "1 negative, pair with positive real part"
        assert {c["name"] for c in doc["conditions"]} == {
            "a1 > 0",
            "a3 > 0",
            "a1*a2 - a3 > 0",
        }

    def test_m2_coefficients_present(self, capsys):
        _, out, _ = run_cli(capsys, "stability", "--g", "0.015", "--m", "2")
        doc = json.loads(out)
        assert {"a1", "a2", "a3", "a4", "M", "N", "P"} <= set(doc["coefficients"])

    def test_m3_numeric_path(self, capsys):
        code, out, _ = run_cli(capsys, "stability", "--g", "0.015", "--m", "3")
        doc = json.loads(out)
        assert code == 0
        assert doc["stable"] is False
        assert len(doc["eigenvalues"]) == 5

    def test_scan_mode_three_regimes(self, capsys):
        code, out, _ = run_cli(capsys, "stability", "--scan-g", "200")
        doc = json.loads(out)
        assert code == 0
        regimes = doc["regimes"]
        assert [r["stable"] for r in regimes] == [True, False, True]
        assert doc["boundaries"][0] == pytest.approx(0.0101199, abs=2e-6)
        assert doc["boundaries"][1] == pytest.approx(0.0203259, abs=2e-6)


    def test_scan_is_pinned(self, capsys):
        # reference boundaries and regimes from a per-point scan (one
        # eigenvalue call per grid point and per bisection step)
        _, out, _ = run_cli(capsys, "stability", "--scan-g", "500")
        doc = json.loads(out)
        assert doc["boundaries"] == pytest.approx(
            [0.010119897978272504, 0.020325855206824582], abs=1e-9
        )
        assert [(r["stable"], r["classification"]) for r in doc["regimes"]] == [
            (True, "1 negative, pair with negative real part"),
            (False, "1 negative, pair with positive real part"),
            (True, "1 negative, pair with negative real part"),
        ]

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_scan_needs_a_point(self, capsys, n):
        code, out, err = run_cli(capsys, "stability", "--scan-g", n)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --scan-g needs at least 1 point")

    def test_scan_matches_recorded_outputs(self, capsys):
        path = Path(__file__).parent / "data" / "stability_scan_g.json"
        cases = json.loads(path.read_text(encoding="utf-8"))["cases"]
        assert len(cases) == 108
        for case in cases:
            argv = ["--m", str(case["m"]), "--alpha", repr(case["alpha"]), "--T", repr(case["T"])]
            code, out, _ = run_cli(capsys, "stability", "--scan-g", str(case["n_grid"]), *argv)
            assert code == 0
            got, want = json.loads(out), case["out"]
            assert got["boundaries"] == pytest.approx(want["boundaries"], rel=0, abs=1e-12)
            assert len(got["regimes"]) == len(want["regimes"])
            assert [(r["stable"], r["classification"]) for r in got["regimes"]] == [
                (r["stable"], r["classification"]) for r in want["regimes"]
            ]
            assert got["regimes"][0]["g_lo"] == want["regimes"][0]["g_lo"]
            assert got["regimes"][-1]["g_hi"] == want["regimes"][-1]["g_hi"]
            for key in ("g_min", "g_max", "n_grid"):
                assert got[key] == want[key]

    @pytest.mark.parametrize("T", ["1e-5", "1e-7", "1e-9"])
    def test_m2_classification_at_tiny_delay(self, capsys, T):
        # the m = 2 chain roots form a complex pair near -2/T, which the
        # eigenvalue solve splits into two reals at T = 1e-9; the counts do not
        code, out, err = run_cli(capsys, "stability", "--m", "2", "--T", T)
        assert code == 0, err
        assert json.loads(out)["classification"] == "pair with positive real part"

    def test_a_far_crossing_does_not_refuse_the_classification(self, capsys):
        # the axis scan in T finds an inaccurate crossing at T* ~ 3.9e10 here,
        # far above T = 1, where no crossing is needed for the count
        code, out, err = run_cli(capsys, "stability", "--m", "2", "--g", "0.023124938994631524")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["classification"] == "pair with negative real part"
        assert doc["stable"] is True

    @pytest.mark.parametrize("T", ["1e-5", "1e-7", "1e-9"])
    def test_m2_verdict_at_tiny_delay(self, capsys, T):
        # the equilibrium is unstable there: a3 < 0 and the eigenvalues agree
        code, out, err = run_cli(capsys, "stability", "--m", "2", "--T", T)
        assert code == 0, err
        doc = json.loads(out)
        assert doc["stable"] is False
        assert max(re for re, _ in doc["eigenvalues"]) > 0.0

    def test_a_pair_between_close_crossings_in_T(self, capsys):
        # T = 38.4 lies between the critical delays 38.113489 and 38.715841,
        # closer together than one interval of the omega grid, so that
        # hopf --vary T finds neither of them
        code, out, err = run_cli(
            capsys, "stability", "--m", "2", "--T", "38.4", "--alpha", "2.0682142228223594",
            "--gamma", "0.40909974419042383", "--delta", "0.02926925127739697",
            "--g", "0.002101850387924124", "--G0", "1.5871337651802013", "--a", "11.161564963517655",
            "--c", "0.025567859623014055", "--d", "0.030079552617508474", "--v", "7.283449862298589")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["classification"] == "pair with positive real part"
        assert doc["stable"] is False
        assert max(re for re, _ in doc["eigenvalues"]) > 0.0

    @pytest.mark.parametrize("m, T", [("1", "1e-200"), ("1", "1e-120"), ("2", "1e200"), ("2", "1e-200")])
    def test_a_delay_beyond_the_closed_forms_is_refused_by_name(self, capsys, m, T):
        # powers of 1/T there overflow, or underflow to a zero divisor
        code, out, err = run_cli(capsys, "stability", "--m", m, "--T", T)
        assert (code, out) == (3, "")
        assert err == (f"numeric failure: the m = {m} Routh-Hurwitz quantities leave the float range"
                       f" at T = {float(T):g}\n")

    @pytest.mark.parametrize("m", ["3", "6"])
    def test_coefficients_beyond_the_float_range_are_refused_by_name(self, capsys, m):
        # the coefficients from the eigenvalues grow as powers of m/T
        code, out, err = run_cli(capsys, "stability", "--json", "--m", m, "--T", "1e-200")
        assert (code, out) == (3, "")
        assert err == (f"numeric failure: the m = {m} characteristic coefficients leave the float"
                       f" range at T = 1e-200\n")

    @pytest.mark.parametrize("m, T", [("1", "1e-320"), ("2", "5e-324"), ("3", "1e-320"), ("4", "1e-310")])
    @pytest.mark.filterwarnings("error")
    def test_an_infinite_m_over_T_is_refused_before_the_eigenvalues(self, capsys, m, T):
        # r = m/T overflows, and the Jacobian holds it as every coefficient does
        code, out, err = run_cli(capsys, "stability", "--json", "--m", m, "--T", T)
        assert (code, out) == (3, "")
        what = "characteristic coefficients" if int(m) > 2 else "Routh-Hurwitz quantities"
        assert err == f"numeric failure: the m = {m} {what} leave the float range at T = {float(T):g}\n"

    def test_an_order_too_large_for_the_eigenvalue_solve_runs_out_of_memory(self, capsys):
        # numpy refuses the (m+2)-square Jacobian as a dimension, not a size
        code, out, err = run_cli(capsys, "stability", "--json", "--m", "99999999999999999999")
        assert (code, out) == (3, "")
        assert err == ("numeric failure: stability ran out of memory (the 100000000000000000001-square"
                       " eigenvalue solve is larger than an array can be)\n")

    @pytest.mark.parametrize("argv", [["stability"], ["equilibrium"], ["hopf", "--vary", "g"],
                                      ["simulate", "--horizon", "10"]])
    def test_an_order_beyond_the_float_range_is_a_domain_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--json", "--m", str(10**400))
        assert (code, out) == (2, "")
        assert err == "error: MacroParams.m must be an integer >= 1 within the float range, got one of 1329 bits\n"

    def test_scan_at_a_huge_delay_counts_without_locating_crossings(self, capsys):
        # the count locates no critical delay, and hopf --vary T refuses some
        # of those below T = 1e12 here as off the equation
        code, out, err = run_cli(capsys, "stability", "--scan-g", "200", "--m", "1000", "--T", "1e12")
        assert code == 0, err
        assert [r["stable"] for r in json.loads(out)["regimes"]] == [True, False, True]

    @pytest.mark.parametrize("m", ["1", "2", "3", "4", "6", "8"])
    def test_the_verdict_as_the_delay_vanishes_does_not_depend_on_m(self, capsys, m):
        # as T -> 0 the chain collapses onto the 2-D system, stable here for
        # every m; the eigenvalue solve of the chain cluster near -m/T is not
        code, out, err = run_cli(capsys, "stability", "--json", "--m", m, "--g", "0.0101",
                                 "--alpha", "0.6", "--T", "1e-30")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["stable"] is True
        assert "positive" not in doc["classification"]

    def test_the_verdict_follows_the_count_at_a_tiny_delay(self, capsys):
        code, out, err = run_cli(capsys, "stability", "--json", "--m", "6", "--T", "1e-20",
                                 "--g", "0.015")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["classification"] == "pair with positive real part"
        assert doc["stable"] is False

    @pytest.mark.parametrize("m", [1, 3])
    def test_marginal_at_a_critical_delay_alone(self, capsys, m):
        # marginal means a crossing within a relative 1e-8 of T; quantities
        # that scale with powers of 1/T, tested against an absolute 1e-8,
        # would call every huge T marginal
        (first, *_) = critical_delays(MacroParams(alpha=0.7, gamma=0.15, delta=0.007, g=0.016,
                                                  G0=2.0, T=1.0, m=m), DANA_MALGRANGE)
        marginal = {}
        for T in (first.value, 1e9):
            code, out, err = run_cli(capsys, "stability", "--json", "--alpha", "0.7", "--m", str(m),
                                     "--T", repr(T))
            assert code == 0, err
            marginal[T] = json.loads(out)["marginal"]
        assert marginal == {first.value: True, 1e9: False}

    @pytest.mark.parametrize("m", ["3", "8"])
    def test_coefficients_that_underflow_are_refused_by_name(self, capsys, m):
        # the low coefficients hold powers of m/T ~ 1e-200 and underflow to 0
        code, out, err = run_cli(capsys, "stability", "--json", "--m", m, "--T", "1e200")
        assert (code, out) == (3, "")
        assert err == (f"numeric failure: the m = {m} characteristic coefficients leave the float"
                       f" range at T = 1e+200\n")

    def test_the_verdict_is_routh_hurwitz_on_a_census(self):
        # m = 1 and 2, T log-uniform on [1e-6, 1e4]
        rng = np.random.default_rng(24)
        verdicts = []
        for _ in range(500):
            m = int(rng.integers(1, 3))
            inv, p, _ = random_model_draw(rng, m=m)
            p = p.replace(T=float(10.0 ** rng.uniform(-6.0, 4.0)))
            eq = equilibrium(p, inv)
            if m == 1:
                verdict = char_poly.routh_hurwitz_cubic(char_poly.coeffs_m1(eq, p))
            else:
                verdict = char_poly.routh_hurwitz_quartic(char_poly.coeffs_m2(eq, p))
            assert cli._stability_point(inv, p)["stable"] == verdict.stable, p
            verdicts.append(verdict.stable)
        # both verdicts are well represented (417 stable at this seed)
        assert 50 < sum(verdicts) < 450


def _point_dict(h):
    return {"parameter": h.parameter, "value": h.value, "omega": h.omega, "crossing": h.crossing,
            "transversality": h.transversality, "residual": h.residual}


class TestNestedRecordsInJson:
    """The JSON of the growth-rate commands equals dicts built field by
    field from the GIntervalReport, its GSegments and its HopfPoints."""

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_hopf_vary_g(self, capsys, baseline, inv_dm, m):
        code, out, _ = run_cli(capsys, "hopf", "--vary", "g", "--json", "--m", str(m))
        rep = hopf_in_g(baseline.replace(m=m), inv_dm)
        want = {
            "vary": "g", "m": m, "g_min": rep.g_min, "g_max": rep.g_max, "g1": rep.g1,
            "g1_hopf": rep.g1_hopf, "g2_hopf": rep.g2_hopf, "g2": rep.g2,
            "segments": [
                {"g_lo": s.lo, "g_hi": s.hi, "physical": s.physical, "n_real_neg": s.n_real_neg,
                 "n_real_pos": s.n_real_pos, "pair_real_sign": s.pair_real_sign,
                 "has_pair": s.has_pair}
                for s in rep.segments
            ],
            "hopf_points": [_point_dict(h) for h in rep.hopf_points],
        }
        assert code == 0 and len(rep.hopf_points) == 2
        assert json.loads(out) == want

    @pytest.mark.parametrize("m", [1, 3])
    def test_stability_scan_g(self, capsys, baseline, inv_dm, m):
        code, out, _ = run_cli(capsys, "stability", "--scan-g", "64", "--json", "--m", str(m))
        macro = baseline.replace(m=m)
        rep = hopf_in_g(macro, inv_dm, n_grid=64)
        regimes = []
        for s in rep.segments:
            if regimes and regimes[-1]["stable"] == s.stable:
                regimes[-1]["g_hi"] = s.hi
            else:
                regimes.append({"g_lo": s.lo, "g_hi": s.hi, "stable": s.stable})
        words = iter(cli._classifications(inv_dm, macro, [
            0.5 * (r["g_lo"] + r["g_hi"]) for r in regimes if r["stable"] is not None]))
        for r in regimes:
            r["classification"] = "no positive equilibrium" if r["stable"] is None else next(words)
        want = {"g_min": rep.g_min, "g_max": rep.g_max, "n_grid": 64,
                "boundaries": [r["g_lo"] for r in regimes[1:]], "regimes": regimes}
        assert code == 0 and len(regimes) >= 3
        assert json.loads(out) == want


class TestHopfCmd:
    def test_vary_g_matches_table(self, capsys):
        code, out, _ = run_cli(capsys, "hopf", "--vary", "g", "--m", "1")
        doc = json.loads(out)
        assert code == 0
        values = [h["value"] for h in doc["hopf_points"]]
        assert values[0] == pytest.approx(0.01011989, abs=2e-6)
        assert values[1] == pytest.approx(0.02032586, abs=2e-6)
        assert doc["g1_hopf"] == values[0]

    def test_vary_T_closed_form(self, capsys):
        _, out, _ = run_cli(capsys, "hopf", "--vary", "T", "--alpha", "0.7")
        doc = json.loads(out)
        assert doc["hopf_points"][0]["value"] == pytest.approx(1.0248, abs=1e-3)

    def test_vary_T_no_stable_regime_is_note_not_error(self, capsys):
        code, out, _ = run_cli(capsys, "hopf", "--vary", "T", "--alpha", "0.9")
        doc = json.loads(out)
        assert code == 0
        assert doc["hopf_points"] == []
        assert "note" in doc

    @pytest.mark.parametrize(
        "flag, value, verdict",
        [("--alpha", "0.9", "unstable for every delay"), ("--g", "0.005", "stable for every delay")],
    )
    def test_vary_T_without_crossing_says_why(self, capsys, flag, value, verdict):
        code, out, _ = run_cli(capsys, "hopf", "--vary", "T", flag, value)
        doc = json.loads(out)
        assert code == 0
        assert doc["hopf_points"] == []
        assert doc["note"].endswith(f"equilibrium {verdict}")

    def test_vary_T_any_order_through_critical_delays(self, capsys):
        _, out, _ = run_cli(capsys, "hopf", "--vary", "T", "--alpha", "0.7", "--m", "3")
        doc = json.loads(out)
        assert doc["hopf_points"][0]["value"] == pytest.approx(1.0227, abs=1e-3)

    def test_vary_T_reports_every_delay_by_default(self, capsys):
        _, out, _ = run_cli(capsys, "hopf", "--vary", "T", "--alpha", "0.2")
        doc = json.loads(out)
        assert doc["hopf_points"][0]["value"] == pytest.approx(146.409, abs=1e-3)
        assert "note" not in doc
        _, out, _ = run_cli(capsys, "hopf", "--vary", "T", "--alpha", "0.18", "--m", "3")
        assert json.loads(out)["hopf_points"][0]["value"] == pytest.approx(60.514, abs=1e-3)

    def test_vary_T_window_applies_to_every_order(self, capsys):
        # m = 1 at alpha = 0.2 crosses at T ~ 146
        code, out, _ = run_cli(capsys, "hopf", "--vary", "T", "--alpha", "0.2", "--t-max", "50")
        doc = json.loads(out)
        assert code == 0
        assert doc["hopf_points"] == []
        assert "note" in doc
        _, out, _ = run_cli(
            capsys, "hopf", "--vary", "T", "--alpha", "0.18", "--m", "3", "--t-max", "50"
        )
        assert json.loads(out)["hopf_points"] == []
        _, out, _ = run_cli(
            capsys, "hopf", "--vary", "T", "--alpha", "0.7", "--m", "2", "--t-min", "2"
        )
        assert json.loads(out)["hopf_points"] == []

    def test_vary_T_m2_where_the_quartic_refuses_the_crossing_speed(self, capsys):
        code, out, _ = run_cli(
            capsys, "hopf", "--vary", "T", "--m", "2", "--alpha", "0.6",
            "--g", "0.008363636363636365",
        )
        assert code == 0
        points = json.loads(out)["hopf_points"]
        assert [h["crossing"] for h in points] == ["destabilizing", "stabilizing"]
        assert points[0]["value"] == pytest.approx(29.156, abs=1e-3)
        assert points[1]["value"] == pytest.approx(38716, rel=1e-4)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("alpha", [0.62, 0.7])
    def test_vary_T_transversality_is_re_dlambda_dT(self, capsys, inv_dm, baseline, m, alpha):
        _, out, _ = run_cli(capsys, "hopf", "--vary", "T", "--m", str(m), "--alpha", str(alpha))
        (h,) = json.loads(out)["hopf_points"]
        p, step = baseline.replace(alpha=alpha, m=m), 1e-4 * h["value"]
        up = pair_max_real(p.replace(T=h["value"] + step), inv_dm)[0]
        dn = pair_max_real(p.replace(T=h["value"] - step), inv_dm)[0]
        assert h["transversality"] == pytest.approx((up - dn) / (2.0 * step), rel=1e-6)

    def test_vary_T_at_a_large_order_finds_the_first_crossing(self, capsys):
        # the crossing lies inside the first grid interval below omega_max;
        # an earlier bisection route reported 1.0256987 (residual 2e-4)
        code, out, _ = run_cli(capsys, "hopf", "--vary", "T", "--alpha", "0.7", "--m", "8192")
        assert code == 0
        first = json.loads(out)["hopf_points"][0]
        assert first["value"] == pytest.approx(1.0220545439165, rel=1e-12)
        assert first["residual"] <= 1e-12

    @pytest.mark.filterwarnings("error")
    def test_vary_T_at_a_huge_order_is_right_or_refused(self, capsys):
        code, out, err = run_cli(capsys, "hopf", "--vary", "T", "--alpha", "0.7", "--m", "1000000")
        if code == 0:
            assert err == ""
            assert all(h["residual"] <= 1e-10 for h in json.loads(out)["hopf_points"])
        else:
            assert code == 3 and out == ""
            assert err.startswith("numeric failure: relative residual") and err.count("\n") == 1

    def test_vary_T_at_a_million_stages_settles_every_crossing(self, capsys):
        # raising a rounded q = 1 + i omega/r to the power m multiplies its
        # rounding by m, which gives a residual of 1.1e-10 at T* = 340.476
        code, out, err = run_cli(capsys, "hopf", "--vary", "T", "--alpha", "0.7", "--m", "1000000")
        assert code == 0, err
        points = json.loads(out)["hopf_points"]
        assert points[0]["value"] == pytest.approx(1.0220543445454333, rel=1e-12)
        assert max(h["residual"] for h in points) <= 1e-12

    def test_vary_T_finds_the_far_crossing_at_m2(self, capsys):
        code, out, err = run_cli(capsys, "hopf", "--json", "--vary", "T", "--m", "2",
                                 "--g", "0.023124938994631524")
        assert code == 0, err
        points = json.loads(out)["hopf_points"]
        assert [h["crossing"] for h in points] == ["destabilizing", "stabilizing"]
        assert points[0]["value"] == pytest.approx(24.444418, abs=1e-6)
        assert points[1]["value"] == pytest.approx(3.8669478e10, rel=1e-7)
        assert max(h["residual"] for h in points) <= 1e-10

    def test_vary_T_gives_each_crossing_of_a_grid_interval_with_several(self, capsys):
        # the first omega interval holds three crossings at m = 10^7
        code, out, err = run_cli(capsys, "hopf", "--vary", "T", "--alpha", "0.7", "--m", "10000000")
        assert (code, err) == (0, "")
        points = json.loads(out)["hopf_points"]
        assert len(points) == 596
        assert points[0]["value"] == pytest.approx(1.02205434306, abs=1e-11)

    def test_vary_T_refuses_crossings_between_adjacent_floats_of_the_grid(self, capsys):
        code, out, err = run_cli(capsys, "hopf", "--vary", "T", "--alpha", "0.7", "--m", "1000000000")
        assert (code, out) == (3, "")
        assert err.startswith("numeric failure: the number of roots in the right half-plane changes by 6")

    def test_vary_T_empty_window_is_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys, "hopf", "--vary", "T", "--t-min", "5", "--t-max", "1"
        )
        assert code == 2
        assert err.startswith("error:")

    def test_vary_alpha(self, capsys):
        _, out, _ = run_cli(
            capsys, "hopf", "--vary", "alpha", "--T", "0.001",
            "--alpha-min", "0.3", "--alpha-max", "1.5",
        )
        doc = json.loads(out)
        assert doc["hopf_points"][0]["value"] == pytest.approx(0.7644, abs=1e-3)

    def test_vary_alpha_skips_a_pair_turning_real(self, capsys):
        # near alpha = 1.79 the unstable pair 0.0737 +- 0.0006i splits into
        # two positive real eigenvalues: a jump of the leading pair's real
        # part, not a crossing of the imaginary axis
        _, out, _ = run_cli(capsys, "hopf", "--vary", "alpha", "--m", "2", "--T", "5")
        (h,) = json.loads(out)["hopf_points"]
        assert h["value"] == pytest.approx(0.531748, abs=1e-6)
        assert h["crossing"] == "destabilizing"

    def test_vary_g_skips_a_pair_collapsing_onto_the_real_axis(self, capsys):
        # near g = 0.0127398 the leading pair has |Im| ~ 1.6e-6 and changes
        # identity; only the two genuine crossings remain
        _, out, _ = run_cli(capsys, "hopf", "--vary", "g", "--m", "2", "--alpha", "3", "--T", "1")
        doc = json.loads(out)
        values = [h["value"] for h in doc["hopf_points"]]
        assert all(abs(v - 0.0127398) > 1e-5 for v in values)
        assert [h["crossing"] for h in doc["hopf_points"]] == ["destabilizing", "stabilizing"]
        assert values == [doc["g1_hopf"], doc["g2_hopf"]]

    @pytest.mark.filterwarnings("error")
    def test_huge_alpha_range_finds_the_point_without_warnings(self, capsys):
        # (bc)^2 overflows on the top of the grid, where no pair is on the axis
        code, out, err = run_cli(capsys, "hopf", "--vary", "alpha", "--alpha-max", "1e200")
        assert code == 0 and err == ""
        [point] = json.loads(out)["hopf_points"]
        assert point["value"] == pytest.approx(0.70142, abs=1e-5)
        assert point["omega"] > 0.0

    @pytest.mark.parametrize("bound", ["inf", "1e309"])
    @pytest.mark.filterwarnings("error")
    def test_an_infinite_alpha_range_is_a_domain_error(self, capsys, bound):
        code, out, err = run_cli(capsys, "hopf", "--json", "--vary", "alpha", "--alpha-max", bound)
        assert (code, out) == (2, "")
        assert err == "error: alpha_range must satisfy 0 < lo < hi < inf\n"

    @pytest.mark.parametrize("vary, want", [("g", [0.0101188789587, 0.0203273223499]),
                                            ("alpha", [0.701274611257])])
    @pytest.mark.filterwarnings("error")
    def test_an_order_beyond_int64_is_solved_as_its_limit(self, capsys, vary, want):
        # the orders are carried as floats, so m = 1e20 gives the limit of a
        # fixed delay, within 1e-10 of m = 10^6
        code, out, err = run_cli(capsys, "hopf", "--json", "--vary", vary, "--m", "99999999999999999999")
        assert code == 0 and err == ""
        assert [h["value"] for h in json.loads(out)["hopf_points"]] == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("vary", ["g", "alpha"])
    @pytest.mark.filterwarnings("error")
    def test_frequency_underflow_reports_no_point(self, capsys, vary):
        # at T = 1e300 the pair's omega ~ m/T has a square that underflows
        code, out, err = run_cli(capsys, "hopf", "--vary", vary, "--T", "1e300")
        assert code == 0 and err == ""
        assert json.loads(out)["hopf_points"] == []


class TestSimulateCmd:
    def test_cycle_metrics_m2(self, capsys, tmp_path):
        out_csv = tmp_path / "traj.csv"
        code, out, _ = run_cli(
            capsys, "simulate", "--m", "2", "--alpha", "0.9", "--T", "3",
            "--horizon", "4000", "--out", str(out_csv),
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["metrics"]["kind"] == "limit_cycle"
        assert doc["metrics"]["period"] == pytest.approx(116.45, rel=0.02)
        header = out_csv.read_text(encoding="utf-8").split("\n")[0]
        assert header == "t,y,u1,u2,k"

    def test_reports_the_integrators_work(self, capsys):
        argv = ["--m", "2", "--alpha", "0.9", "--T", "3", "--horizon", "500"]
        code, out, _ = run_cli(capsys, "simulate", "--json", *argv)
        assert code == 0
        doc = json.loads(out)
        p = MacroParams(alpha=0.9, gamma=0.15, delta=0.007, g=0.016, G0=2.0, T=3.0, m=2)
        sys_ = build(p, DANA_MALGRANGE)
        traj = integrate(sys_, constant_history_state(sys_, 15.0, 100.0), 500.0, sample_dt=0.2)
        for key in ("rhs_evaluations", "accepted_steps", "rejected_steps"):
            assert type(doc[key]) is int and doc[key] > 0, key
            assert doc[key] == getattr(traj, key), key

    @pytest.mark.parametrize(
        "flag, value, name",
        [("--sample-dt", "0", "sample_dt"), ("--T", "nan", "T"), ("--T", "inf", "T"),
         ("--horizon", "inf", "horizon")],
    )
    def test_invalid_input_is_domain_error(self, capsys, flag, value, name):
        code, out, err = run_cli(capsys, "simulate", flag, value)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.strip().split("\n")) == 1
        assert name in err
        assert "division" not in err and "underflow" not in err

    @pytest.mark.parametrize(
        "horizon, sample_dt", [("1", "1e-300"), ("1e308", "1e-10"), ("1", "1e-18")]
    )
    def test_sample_grid_too_long_to_index_is_domain_error(self, capsys, horizon, sample_dt):
        code, out, err = run_cli(
            capsys, "simulate", "--json", "--horizon", horizon, "--sample-dt", sample_dt
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: horizon ") and err.count("\n") == 1
        assert f"sample_dt {float(sample_dt)!r}" in err
        assert "Maximum allowed dimension" not in err

    def test_bad_capital_is_numeric_failure(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--k0", "-5")
        assert code == 3
        assert "capital" in err.lower()

    @pytest.mark.parametrize(
        "flag, value, name",
        [("--y0", "nan", "initial state"), ("--k0", "nan", "initial state"),
         ("--y0", "inf", "initial state"), ("--transient", "2", "--transient"),
         ("--transient", "-1", "--transient"), ("--transient", "nan", "--transient"),
         ("--transient", "1", "--transient")],
    )
    @pytest.mark.filterwarnings("error")
    def test_bad_start_or_transient_names_it(self, capsys, tmp_path, flag, value, name):
        out_csv = tmp_path / "traj.csv"
        code, out, err = run_cli(
            capsys, "simulate", flag, value, "--horizon", "100", "--out", str(out_csv)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert name in err
        assert list(tmp_path.iterdir()) == []


class TestSweepCmd:
    def test_alpha_curve_fit(self, capsys, tmp_path):
        out_csv = tmp_path / "curve.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--curve", "T-vs-alpha", "--out", str(out_csv)
        )
        doc = json.loads(out)
        assert code == 0
        c0, c1 = doc["fit"]["coefficients"]
        assert abs(c0 + 11.137983) / 11.137983 < 0.03
        assert abs(c1 - 8.512805) / 8.512805 < 0.03
        assert out_csv.exists()
        assert (tmp_path / "curve.meta.json").exists()

    def test_missing_out_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--curve", "T-vs-alpha")
        assert code == 2
        assert "--out" in err

    @pytest.mark.parametrize(
        "curve, flag, count",
        [("T-vs-alpha", "--alpha-count", "0"), ("T-vs-g", "--g-count", "0"),
         ("T-vs-alpha", "--alpha-count", "-1"), ("surface", "--g-count", "0")],
    )
    def test_count_below_one_names_the_flag(self, capsys, tmp_path, curve, flag, count):
        out_csv = tmp_path / "c.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--curve", curve, flag, count, "--out", str(out_csv)
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} needs at least 1 point, got {count}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [(["--curve", "T-vs-alpha", "--alpha-min", "0", "--alpha-count", "3"],
          "alpha must be finite and > 0, got 0.0"),
         (["--curve", "surface", "--alpha-min", "-1", "--alpha-count", "3"],
          "alpha must be finite and > 0, got -1.0"),
         (["--curve", "T-vs-g", "--g-min", "nan", "--g-count", "3"], "--g-min nan"),
         (["--curve", "T-vs-alpha", "--alpha-max", "inf", "--alpha-count", "3"], "--alpha-max inf"),
         (["--curve", "surface", "--g-max", "inf", "--g-count", "2"], "--g-max inf"),
         (["--curve", "T-vs-g", "--g-min=-1e308", "--g-max", "1e308"], "not a finite grid")],
    )
    @pytest.mark.filterwarnings("error")
    def test_bad_grid_values_are_domain_errors(self, capsys, tmp_path, argv, message):
        out_csv = tmp_path / "z.csv"
        code, out, err = run_cli(capsys, "sweep", *argv, "--out", str(out_csv))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert list(tmp_path.iterdir()) == []

    def test_surface_takes_any_grid_size(self, capsys, tmp_path):
        out_csv = tmp_path / "s.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--curve", "surface", "--alpha-count", "2", "--g-count", "3",
            "--out", str(out_csv),
        )
        assert code == 0
        assert json.loads(out)["cells"] == 6
        assert len(out_csv.read_text(encoding="utf-8").strip().split("\n")) == 7


class TestTable2Cmd:
    def test_rows_and_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys, "table2", "--m-list", "1,2", "--out", str(out_csv)
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["rows"][0]["g_bi1"] == pytest.approx(0.01011989, abs=2e-6)
        assert doc["rows"][1]["g_bi2"] == pytest.approx(0.02032671, abs=2e-6)
        lines = out_csv.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "m,g_bi1,g_bi2"
        assert len(lines) == 3

    @pytest.mark.filterwarnings("error")
    def test_frequency_underflow_gives_empty_rows(self, capsys):
        code, out, err = run_cli(capsys, "table2", "--T", "1e300")
        assert code == 0 and err == ""
        rows = json.loads(out)["rows"]
        assert [r["m"] for r in rows] == [1, 2, 3, 4]
        assert all(r["g_bi1"] is None and r["g_bi2"] is None for r in rows)

    @pytest.mark.filterwarnings("error")
    def test_an_order_beyond_int64_is_solved_as_its_limit(self, capsys):
        code, out, err = run_cli(capsys, "table2", "--json", "--m-list", "99999999999999999999")
        assert code == 0 and err == ""
        [row] = json.loads(out)["rows"]
        assert row["m"] == 99999999999999999999
        assert [row["g_bi1"], row["g_bi2"]] == pytest.approx([0.0101188789587, 0.0203273223499], rel=1e-9)


class TestConfigRoundTrip:
    def test_emitted_config_reproduces_output(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        code1, out1, _ = run_cli(
            capsys, "stability", "--g", "0.015", "--emit-config", str(cfg)
        )
        assert code1 == 0
        code2, out2, _ = run_cli(capsys, "stability", "--config", str(cfg))
        assert code2 == 0
        assert out1 == out2

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        run_cli(capsys, "equilibrium", "--g", "0.012", "--emit-config", str(cfg))
        _, out, _ = run_cli(
            capsys, "equilibrium", "--config", str(cfg), "--g", "0.016"
        )
        doc = json.loads(out)
        assert doc["x_star"] == pytest.approx(0.236407, abs=1e-6)

    def test_wrong_command_in_config_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        run_cli(capsys, "equilibrium", "--emit-config", str(cfg))
        code, _, err = run_cli(capsys, "stability", "--config", str(cfg))
        assert code == 2

    def test_backend_option_rejected(self, capsys, tmp_path):
        # simulate always runs the active backend; the option is gone
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"version": 1, "options": {"backend": "python"}}), encoding="utf-8"
        )
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "options.backend" in err

    def test_bad_version_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"version": 99}), encoding="utf-8")
        code, _, _ = run_cli(capsys, "equilibrium", "--config", str(cfg))
        assert code == 2

    def test_repeated_runs_bit_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "hopf", "--vary", "g")
        _, out2, _ = run_cli(capsys, "hopf", "--vary", "g")
        assert out1 == out2


def write_config(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return str(path)


class TestBadInput:
    """Every bad flag or config value exits 2 with one error line naming it."""

    @pytest.mark.parametrize(
        "command, text, key",
        [
            ("equilibrium", None, "--config"),
            ("equilibrium", "{not json", "--config"),
            ("equilibrium", "[1, 2]", "--config"),
            ("sweep", {"options": {"alpha_count": 2.5}}, "options.alpha_count"),
            ("equilibrium", {"macro": {"alpha": "x"}}, "macro.alpha"),
            ("equilibrium", {"macro": {"alpha": True}}, "macro.alpha"),
            ("equilibrium", {"macro": {"alpha": None}}, "macro.alpha"),
            ("hopf", {"options": {"vary": "q"}}, "options.vary"),
            ("sweep", {"options": {"curve": "cube"}}, "options.curve"),
            ("table2", {"options": {"m_list": [1, 2.5]}}, "options.m_list"),
            ("equilibrium", {"investment": {"a": 10**400}}, "investment.a"),
            ("equilibrium", {"version": True}, "config version"),
            ("equilibrium", {"options": []}, "config section options"),
            ("table2", {"options": {"m_list": []}}, "options.m_list"),
        ],
    )
    def test_config_file(self, capsys, tmp_path, command, text, key):
        cfg = tmp_path / "cfg.json"
        if isinstance(text, dict):
            write_config(cfg, {"version": 1, **text})
        elif text is not None:
            cfg.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key in err

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["equilibrium", "--out", "x.csv"], "--out"),
            (["stability", "--out", "x.csv"], "--out"),
            (["hopf", "--vary", "q"], "--vary"),
            (["sweep", "--alpha-count", "2.5", "--out", "x.csv"], "--alpha-count"),
            (["table2", "--m-list", "1,x"], "--m-list"),
            (["simulate", "--T", "fast"], "--T"),
            (["table2", "--m-list", ""], "--m-list"),
            (["table2", "--m-list", " , "], "--m-list"),
            (["hopf", "--vary", "g", "--T", "0"], "chain reduction needs T > 0"),
        ],
    )
    def test_flag(self, capsys, tmp_path, monkeypatch, argv, key):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["simulate", "--horizon", "10", "--out"], "--out"),
            (["sweep", "--alpha-count", "3", "--out"], "--out"),
            (["table2", "--m-list", "1", "--out"], "--out"),
            (["equilibrium", "--emit-config"], "--emit-config"),
        ],
    )
    @pytest.mark.parametrize("target", ["missing directory", "directory"])
    def test_unwritable_output(self, capsys, tmp_path, argv, flag, target):
        path = str(tmp_path / "missing" / "x.csv" if target == "missing directory" else tmp_path)
        code, out, err = run_cli(capsys, *argv, path)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag} {path}: ") and err.count("\n") == 1

    def test_m_list_text_in_config(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {"version": 1, "options": {"m_list": "1,2"}})
        code, out, _ = run_cli(capsys, "table2", "--config", cfg)
        assert code == 0
        _, by_flag, _ = run_cli(capsys, "table2", "--m-list", "1,2")
        assert json.loads(out)["rows"] == json.loads(by_flag)["rows"]
        assert len(json.loads(out)["rows"]) == 2

    def test_m_list_list_in_config(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {"version": 1, "options": {"m_list": [1, 2]}})
        code, out, _ = run_cli(capsys, "table2", "--config", cfg)
        assert code == 0
        _, by_flag, _ = run_cli(capsys, "table2", "--m-list", "1,2")
        assert json.loads(out)["rows"] == json.loads(by_flag)["rows"]


#: the largest array the ``small_memory`` fixture lets numpy allocate
_MEMORY = 1 << 22


@pytest.fixture
def small_memory(monkeypatch):
    """numpy's ``empty`` and ``zeros`` refuse any array above 4 MiB with a
    MemoryError worded like numpy's own."""
    for name in ("empty", "zeros"):
        def alloc(shape, dtype=float, *args, _real=getattr(np, name), **kwargs):
            nbytes = np.prod(shape, dtype=float) * np.dtype(dtype).itemsize
            if nbytes > _MEMORY:
                raise MemoryError(
                    f"Unable to allocate {nbytes / 2**30:.3g} GiB for an array"
                    f" with shape {shape} and data type {np.dtype(dtype)}"
                )
            return _real(shape, dtype, *args, **kwargs)

        monkeypatch.setattr(np, name, alloc)


@pytest.mark.parametrize(
    "argv, size",
    [
        (["simulate", "--json", "--horizon", "1e6", "--sample-dt", "1e-3"], "7.45 GiB"),
        (["stability", "--json", "--m", "100000"], "74.5 GiB"),
    ],
)
def test_out_of_memory_is_one_numeric_failure_line(capsys, small_memory, argv, size):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith(f"numeric failure: {argv[0]} ran out of memory (Unable to allocate ")
    assert err.count("\n") == 1
    assert size in err


def test_vary_g_at_m_1000_fits_in_small_memory(capsys, small_memory):
    # the growth-rate structure needs no (m+2)-square matrix
    code, out, err = run_cli(capsys, "hopf", "--json", "--vary", "g", "--m", "1000")
    assert code == 0, err
    doc = json.loads(out)
    assert [h["crossing"] for h in doc["hopf_points"]] == ["destabilizing", "stabilizing"]
    assert [s["g_hi"] for s in doc["segments"] if s["pair_real_sign"] > 0] == [doc["g2_hopf"]]


def test_out_of_memory_without_a_message(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np, "empty", refuse)
    code, out, err = run_cli(capsys, "simulate", "--horizon", "10")
    assert (code, out, err) == (3, "", "numeric failure: simulate ran out of memory\n")


_COMMON_FLAGS = {
    "-h", "--help", "--a", "--c", "--d", "--v", "--alpha", "--gamma", "--delta", "--g",
    "--G0", "--T", "--m", "--config", "--emit-config", "--json",
}
_INVESTMENT = {"a": 9.0, "c": 0.01, "d": 0.026, "v": 4.23}
_MACRO = {"G0": 2.0, "T": 1.0, "alpha": 1.0, "delta": 0.007, "g": 0.016, "gamma": 0.15, "m": 1}
_SURFACE = {
    "equilibrium": (set(), {}),
    "stability": ({"--scan-g"}, {"scan_g": None}),
    "hopf": (
        {"--vary", "--alpha-min", "--alpha-max", "--t-min", "--t-max"},
        {"alpha_max": 2.0, "alpha_min": 0.05, "t_max": None, "t_min": None, "vary": "T"},
    ),
    "simulate": (
        {"--out", "--y0", "--k0", "--horizon", "--sample-dt", "--transient"},
        {"horizon": 4000.0, "k0": 100.0, "sample_dt": 0.2, "transient": 0.5, "y0": 15.0},
    ),
    "sweep": (
        {"--out", "--curve", "--alpha-min", "--alpha-max", "--alpha-count", "--g-min",
         "--g-max", "--g-count"},
        {"alpha_count": 83, "alpha_max": 0.764, "alpha_min": 0.6, "curve": "T-vs-alpha",
         "g_count": 64, "g_max": 0.02, "g_min": 0.01},
    ),
    "table2": ({"--out", "--m-list"}, {"m_list": [1, 2, 3, 4]}),
}


@pytest.mark.parametrize("command", sorted(_SURFACE))
def test_cli_surface_is_pinned(capsys, tmp_path, command):
    """Each subcommand's flags and the bytes of its default configuration."""
    extra, options = _SURFACE[command]
    (subs,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {s for action in subs.choices[command]._actions for s in action.option_strings}
    assert flags == _COMMON_FLAGS | extra
    cfg = tmp_path / "cfg.json"
    run_cli(capsys, command, "--emit-config", str(cfg))
    want = {"command": command, "investment": _INVESTMENT, "macro": _MACRO,
            "options": options, "version": 1}
    assert cfg.read_text(encoding="utf-8") == json.dumps(want, indent=2, sort_keys=True) + "\n"


_COMMANDS = ["equilibrium", "stability", "hopf", "simulate", "sweep", "table2"]


def _subcommands(parser):
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return subs.choices


def _flags(parser):
    return {s for action in parser._actions for s in action.option_strings}


# runs main() in a fresh interpreter, with the parser of every subcommand's
# flags when the first argument is "full"
_MAIN = """
import sys
from chaintrick import cli
if sys.argv[1] == "full":
    build = cli._build_parser
    cli._build_parser = lambda only=None: build()
sys.exit(cli.main(sys.argv[2:]))
"""


class TestParserPerCommand:
    """``main`` adds the flags of the invoked subcommand alone, with the
    output of the parser that has every subcommand's flags."""

    def test_main_adds_the_flags_of_the_invoked_command_alone(self, capsys, monkeypatch):
        built = []

        def spy(*args, **kwargs):
            built.append(_build_parser(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(cli, "_build_parser", spy)
        code, out, _ = run_cli(capsys, "hopf", "--json", "--vary", "T", "--alpha", "0.7")
        assert code == 0 and json.loads(out)["hopf_points"]
        (parser,) = built
        subs = _subcommands(parser)
        assert list(subs) == _COMMANDS
        assert _flags(subs["hopf"]) == _COMMON_FLAGS | _SURFACE["hopf"][0]
        for command in _COMMANDS:
            if command != "hopf":
                assert _flags(subs[command]) == {"-h", "--help"}

    def test_the_full_parser_has_every_commands_flags(self):
        subs = _subcommands(_build_parser())
        assert list(subs) == _COMMANDS
        for command in _COMMANDS:
            assert _flags(subs[command]) == _COMMON_FLAGS | _SURFACE[command][0]

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], *([c, "--help"] for c in _COMMANDS)],
                             ids=" ".join)
    def test_help_is_the_full_parsers(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        text = capsys.readouterr().out
        with pytest.raises(SystemExit):
            _build_parser().parse_args(argv)
        assert capsys.readouterr().out == text
        assert text.startswith(f"usage: chaintrick {argv[0] if len(argv) > 1 else ''}")

    @pytest.mark.parametrize("argv", [["nosuch"], ["nosuch", "--m", "2"], [], ["--json"]],
                             ids=repr)
    def test_a_bad_command_is_the_full_parsers_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        with pytest.raises(ValueError) as exc:
            _build_parser().parse_args(argv)
        assert (code, out, err) == (2, "", f"error: {exc.value}\n")

    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0), (["hopf", "--help"], 0), (["--version"], 0), (["nosuch"], 2),
        (["equilibrium", "--json"], 0), (["--", "hopf", "--json"], 2),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_a_process_exits_as_with_the_full_parser(self, argv, code):
        runs = [subprocess.run([sys.executable, "-c", _MAIN, parser, *argv],
                               capture_output=True, text=True) for parser in ("invoked", "full")]
        invoked, full = [(r.returncode, r.stdout, r.stderr) for r in runs]
        assert invoked == full
        assert invoked[0] == code and (invoked[1] == "") == (code != 0)
        if argv == ["nosuch"]:
            assert invoked[2].startswith("error: argument command: invalid choice: 'nosuch'")


def _conforms(spec, value):
    kind, default, *_ = spec
    if value is None:
        return default is None
    if isinstance(kind, tuple):
        return value in kind
    if kind is list:
        return type(value) is list and all(type(x) is int for x in value)
    return type(value) is kind


_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(["1.5", "-2", "7", "nan", "1e400", "1,2", "0, 3", "T", "alpha", "surface", ""]),
    st.lists(st.one_of(st.integers(-3, 6), st.booleans(), st.floats(), st.text(max_size=2)),
             max_size=4),
)


@st.composite
def _config_docs(draw, commands=tuple(_SETTINGS["options"])):
    """(command, config document) with random JSON values for random keys."""
    command = draw(st.sampled_from(commands))
    doc = {"version": 1}
    for section, entries in _table(command).items():
        keys = draw(st.lists(st.sampled_from(sorted(entries)), unique=True)) if entries else []
        doc[section] = {key: draw(_JSON_VALUES) for key in keys}
    return command, doc


def _main_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestConfigProperty:
    @given(case=_config_docs())
    @settings(max_examples=300, deadline=None)
    def test_resolved_values_have_their_declared_kind(self, case):
        command, doc = case
        with tempfile.TemporaryDirectory() as tmp:
            path = write_config(os.path.join(tmp, "cfg.json"), doc)
            args = _build_parser().parse_args([command, "--config", path])
            try:
                config = _resolve_config(args)
            except ValueError:
                return
        for section, entries in _table(command).items():
            for key, spec in entries.items():
                assert _conforms(spec, config[section][key]), (section, key)

    @given(case=_config_docs(commands=("equilibrium",)))
    @settings(max_examples=200, deadline=None)
    def test_equilibrium_exits_0_2_or_3(self, case):
        _, doc = case
        with tempfile.TemporaryDirectory() as tmp:
            path = write_config(os.path.join(tmp, "cfg.json"), doc)
            code, out, err = _main_quietly(["equilibrium", "--config", path])
        assert code in (0, 2, 3)
        assert (out == "") == (code != 0)
        if code:
            assert err.count("\n") == 1
