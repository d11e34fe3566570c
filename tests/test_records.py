"""The package's records: construction, immutability, equality, hashing,
repr, copies and pickles, ``MacroParams.replace``, and the kernel order's
type."""

import copy
import pickle

import numpy as np
import pytest

from chaintrick.chain_system import ChainSystem, build, constant_history_state, jacobian
from chaintrick.char_poly import CharCoeffsM1, CharCoeffsM2, StabilityVerdict
from chaintrick.errors import NoHopf
from chaintrick.hopf_locator import GIntervalReport, GSegment, HopfPoint, hopf_in_T
from chaintrick.model_core import (
    DANA_MALGRANGE, Equilibrium, InvestmentParams, MacroParams, Record,
)
from chaintrick.simulator import CycleMetrics, Trajectory, integrate
from chaintrick.sweep import BifurcationCurve, FitResult, SurfaceResult

MACRO = MacroParams(1.0, 0.15, 0.007, 0.016, 2.0, 1.0, 1)
POINT = HopfPoint("T", 1.5, 0.25, "destabilizing", 0.125, 1e-12)
SEGMENT = GSegment(0.004, 0.01, True, 1, 0, -1, True)
FIT = FitResult("quadratic", (1.5, -0.25, 0.125), 0.01, 0.001, 0.6)

#: class -> (field names in constructor order, sample values, defaults of
#: the trailing fields); the field names and defaults pin the signatures
RECORDS = {
    InvestmentParams: (("a", "c", "d", "v"), (9.0, 0.01, 0.026, 4.23), {}),
    MacroParams: (("alpha", "gamma", "delta", "g", "G0", "T", "m"),
                  (0.7, 0.15, 0.007, 0.016, 2.0, 1.5, 3), {"m": 1}),
    Equilibrium: (("x_star", "y_star", "k_star", "Iy_star", "Ik_star"),
                  (0.25, 29.0, 116.0, 0.5, -0.1), {}),
    ChainSystem: (("params", "inv"), (MACRO, DANA_MALGRANGE), {}),
    CharCoeffsM1: (("a1", "a2", "a3", "A", "B", "alpha_ik_iy", "T"),
                   (1.0, 2.0, 3.0, -0.5, 0.25, -0.125, 1.5), {}),
    CharCoeffsM2: (("a1", "a2", "a3", "a4", "M", "N", "P", "T"),
                   (1.0, 2.0, 3.0, 4.0, -0.5, -0.25, 0.125, 1.5), {}),
    StabilityVerdict: (("stable", "marginal", "conditions", "notes"),
                       (True, False, (("a1 > 0", 1.0, True),), {"A": -0.5}), {}),
    HopfPoint: (("parameter", "value", "omega", "crossing", "transversality", "residual"),
                ("g", 0.01, 0.057, "destabilizing", 6.3, 3.8e-10), {}),
    GSegment: (("lo", "hi", "physical", "n_real_neg", "n_real_pos", "pair_real_sign",
                "has_pair"), (0.01, 0.02, True, 1, 2, 1, True),
               {"n_real_neg": 0, "n_real_pos": 0, "pair_real_sign": 0, "has_pair": False}),
    GIntervalReport: (("g_min", "g_max", "g1", "g1_hopf", "g2_hopf", "g2", "segments",
                       "hopf_points"),
                      (0.003, 0.029, 0.0058, 0.0101, None, 0.0254, (SEGMENT,), (POINT,)), {}),
    Trajectory: (("times", "states", "params", "inv", "diverged", "rhs_evaluations",
                  "accepted_steps", "rejected_steps"),
                 (np.arange(3.0), np.ones((3, 3)), MACRO, DANA_MALGRANGE, True, 70, 11, 2),
                 {"diverged": False, "rhs_evaluations": 0, "accepted_steps": 0,
                  "rejected_steps": 0}),
    CycleMetrics: (("kind", "period", "amplitude", "decay_rate"),
                   ("limit_cycle", 40.0, 2.5, -0.01),
                   {"period": None, "amplitude": None, "decay_rate": None}),
    FitResult: (("model", "coefficients", "residual_norm", "relative_residual",
                 "threshold_alpha"), ("quadratic", (1.0, 2.0), 0.1, 0.01, 0.6),
                {"threshold_alpha": None}),
    BifurcationCurve: (("parameter", "values", "t_bi", "m", "fixed", "fit"),
                       ("alpha", np.linspace(0.6, 0.7, 3), np.array([1.0, np.nan, 2.0]), 1,
                        {"g": 0.016}, FIT), {}),
    SurfaceResult: (("alphas", "gs", "t_bi", "m", "fixed"),
                    (np.linspace(0.6, 0.7, 2), np.linspace(0.01, 0.02, 3), np.ones((2, 3)), 2,
                     {"T": 1.0}), {}),
}
CLASSES = list(RECORDS)


def _hashable(values):
    try:
        hash(tuple(values))
    except TypeError:
        return False
    return True


def _other(value):
    """A valid value of the same type as ``value`` but unequal to it."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, float):
        return 2.0 * value + 1.0
    if isinstance(value, str):
        return value + "s"
    return value.replace(m=value.m + 1)


def _same(a, b):
    """Field values equal, arrays by content."""
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b, equal_nan=True)
    return a == b


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
class TestRecord:
    def test_is_a_record(self, cls):
        assert issubclass(cls, Record)

    def test_positional_and_keyword_construction(self, cls):
        fields, values, _ = RECORDS[cls]
        rec = cls(*values)
        for name, value in zip(fields, values):
            assert getattr(rec, name) is value or getattr(rec, name) == value
        by_name = cls(**dict(zip(fields, values)))
        for name in fields:
            assert _same(getattr(by_name, name), getattr(rec, name))

    def test_defaults(self, cls):
        fields, values, defaults = RECORDS[cls]
        required = len(fields) - len(defaults)
        rec = cls(*values[:required])
        for name, default in defaults.items():
            assert getattr(rec, name) == default
        assert list(defaults) == list(fields[required:])

    def test_a_missing_argument_is_a_type_error(self, cls):
        fields, values, defaults = RECORDS[cls]
        required = len(fields) - len(defaults)
        with pytest.raises(TypeError):
            cls(*values[:required - 1])
        with pytest.raises(TypeError):
            cls(*values, "one too many")

    def test_equality_and_hash(self, cls):
        fields, values, _ = RECORDS[cls]
        rec, twin = cls(*values), cls(*values)
        assert rec == rec and not rec != rec
        assert rec != tuple(getattr(rec, name) for name in fields)
        if not _hashable(values):
            return
        assert rec == twin and hash(rec) == hash(twin)
        # the hash of a frozen dataclass: that of the tuple of its fields
        assert hash(rec) == hash(tuple(getattr(rec, name) for name in fields))
        changed = list(values)
        changed[0] = _other(values[0])
        assert rec != cls(*changed)

    def test_repr_in_the_dataclass_format(self, cls):
        fields, values, _ = RECORDS[cls]
        rec = cls(*values)
        text = ", ".join(f"{name}={getattr(rec, name)!r}" for name in fields)
        assert repr(rec) == f"{cls.__name__}({text})"

    def test_fields_can_be_neither_assigned_nor_deleted(self, cls):
        fields, values, _ = RECORDS[cls]
        rec = cls(*values)
        for name in (fields[0], fields[-1], "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(rec, name, 1.0)
            with pytest.raises(AttributeError):
                delattr(rec, name)
        assert all(_same(getattr(rec, n), v) for n, v in zip(fields, values))

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda r: pickle.loads(pickle.dumps(r))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_and_pickles(self, cls, clone):
        fields, values, _ = RECORDS[cls]
        rec = cls(*values)
        twin = clone(rec)
        assert type(twin) is cls
        for name in fields:
            assert _same(getattr(twin, name), getattr(rec, name))
        if _hashable(values):
            assert twin == rec and hash(twin) == hash(rec)
        with pytest.raises(AttributeError):
            setattr(twin, fields[0], 1.0)


def test_reprs_of_the_published_values():
    assert repr(DANA_MALGRANGE) == "InvestmentParams(a=9.0, c=0.01, d=0.026, v=4.23)"
    assert repr(MACRO) == (
        "MacroParams(alpha=1.0, gamma=0.15, delta=0.007, g=0.016, G0=2.0, T=1.0, m=1)"
    )
    assert repr(SEGMENT) == (
        "GSegment(lo=0.004, hi=0.01, physical=True, n_real_neg=1, n_real_pos=0,"
        " pair_real_sign=-1, has_pair=True)"
    )


def test_as_dict_nests_records():
    report = GIntervalReport(0.003, 0.029, None, 0.01, 0.02, None, (SEGMENT,), (POINT,))
    assert report.as_dict() == {
        "g_min": 0.003, "g_max": 0.029, "g1": None, "g1_hopf": 0.01, "g2_hopf": 0.02,
        "g2": None,
        "segments": ({"lo": 0.004, "hi": 0.01, "physical": True, "n_real_neg": 1,
                      "n_real_pos": 0, "pair_real_sign": -1, "has_pair": True},),
        "hopf_points": ({"parameter": "T", "value": 1.5, "omega": 0.25,
                         "crossing": "destabilizing", "transversality": 0.125,
                         "residual": 1e-12},),
    }
    curve = BifurcationCurve("g", np.zeros(2), np.ones(2), 1, {"alpha": 0.6}, FIT)
    assert curve.as_dict()["fit"] == {
        "model": "quadratic", "coefficients": (1.5, -0.25, 0.125), "residual_norm": 0.01,
        "relative_residual": 0.001, "threshold_alpha": 0.6,
    }


class TestReplace:
    def test_changes_only_the_named_fields(self):
        q = MACRO.replace(m=4, alpha=0.7)
        assert q == MacroParams(0.7, 0.15, 0.007, 0.016, 2.0, 1.0, 4)
        assert MACRO.m == 1 and MACRO.alpha == 1.0

    @pytest.mark.parametrize("change", [{"m": 0}, {"T": -1.0}, {"alpha": 0.0},
                                        {"gamma": float("nan")}, {"m": True}])
    def test_revalidates(self, change):
        with pytest.raises(ValueError):
            MACRO.replace(**change)

    def test_unknown_field_is_a_type_error(self):
        with pytest.raises(TypeError):
            MACRO.replace(beta=1.0)


class TestKernelOrderType:
    """An integral kernel order is stored as an int, and a bool is refused."""

    @pytest.mark.parametrize("m", [2.0, np.int64(2), np.float64(2.0)], ids=repr)
    def test_integral_orders_run_as_int(self, m):
        p = MACRO.replace(alpha=0.7, m=m)
        assert type(p.m) is int and p.m == 2
        ref = MACRO.replace(alpha=0.7, m=2)
        assert p == ref
        sys_, ref_sys = build(p, DANA_MALGRANGE), build(ref, DANA_MALGRANGE)
        state = np.array([30.0, 29.0, 28.0, 120.0])
        assert np.array_equal(jacobian(sys_, state), jacobian(ref_sys, state))
        traj = integrate(sys_, constant_history_state(sys_, 15.0, 100.0), 20.0)
        ref_traj = integrate(ref_sys, constant_history_state(ref_sys, 15.0, 100.0), 20.0)
        assert np.array_equal(traj.states, ref_traj.states)
        assert hopf_in_T(p, DANA_MALGRANGE) == hopf_in_T(ref, DANA_MALGRANGE)
        with pytest.raises(NoHopf, match=r"for m = 2: "):
            hopf_in_T(p.replace(g=0.005), DANA_MALGRANGE)
        assert hopf_in_T(ref.replace(m=1), DANA_MALGRANGE, m=m) == hopf_in_T(ref, DANA_MALGRANGE)

    @pytest.mark.parametrize("m", [True, False, np.True_, 2.5, float("nan"), float("inf"),
                                   "2", 0.0, -2], ids=repr)
    def test_other_orders_are_refused(self, m):
        with pytest.raises(ValueError, match="MacroParams.m must be an integer >= 1"):
            MacroParams(0.7, 0.15, 0.007, 0.016, 2.0, 1.0, m)
        with pytest.raises(ValueError, match="MacroParams.m must be an integer >= 1"):
            hopf_in_T(MACRO.replace(alpha=0.7), DANA_MALGRANGE, m=m)

    def test_a_missing_order_is_refused(self):
        with pytest.raises(ValueError, match="MacroParams.m must be an integer >= 1"):
            MacroParams(0.7, 0.15, 0.007, 0.016, 2.0, 1.0, None)
