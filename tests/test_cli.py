import argparse
import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaintrick.chain_system import build, constant_history_state
from chaintrick.cli import _SETTINGS, _build_parser, _resolve_config, _table, main
from chaintrick.hopf_locator import pair_max_real
from chaintrick.model_core import DANA_MALGRANGE, MacroParams
from chaintrick.simulator import integrate


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
    def test_m2_verdict_at_tiny_delay(self, capsys, T):
        # the equilibrium is unstable there: a3 < 0 and the eigenvalues agree
        code, out, err = run_cli(capsys, "stability", "--m", "2", "--T", T)
        assert code == 0, err
        doc = json.loads(out)
        assert doc["stable"] is False
        assert max(re for re, _ in doc["eigenvalues"]) > 0.0


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
        # bisection with its polish reported 1.0256987 (residual 2e-4)
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

    def test_m_list_text_in_config(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {"version": 1, "options": {"m_list": "1,2"}})
        code, out, _ = run_cli(capsys, "table2", "--config", cfg)
        assert code == 0
        _, by_flag, _ = run_cli(capsys, "table2", "--m-list", "1,2")
        assert json.loads(out)["rows"] == json.loads(by_flag)["rows"]
        assert len(json.loads(out)["rows"]) == 2


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
