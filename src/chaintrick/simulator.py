"""Trajectory integration and limit-cycle measurement.

Integration uses an adaptive embedded Runge-Kutta 5(4) pair (the C kernel
``_core/_chain.c`` when it is built, the pure-Python ``_core/_dopri.py``
otherwise) with dense output sampled on a uniform grid.  Cycle measurement
works on the sampled output series: local maxima are refined by quadratic
interpolation, the period is the mean spacing of the last five maxima, and
the amplitude is the peak-to-trough excursion of y over the final period.
"""

import math

import numpy as np

from ._core import (
    STATUS_CAPITAL,
    STATUS_DIVERGED,
    STATUS_STEP_UNDERFLOW,
    get_integrator,
)
from .errors import CapitalNonPositive, InsufficientOscillations, StepFailure
from .export import _write_lines
from .model_core import Record, equilibrium

#: maximum |state component| before integration halts with diverged status
DIVERGENCE_LIMIT = 1e9

#: limit-cycle rule: last-5 peak heights vary by less than this fraction
PEAK_SPREAD_FRAC = 1e-3

#: and the variation is also small relative to the peak excess over y*
EXCESS_SPREAD_FRAC = 2e-3

#: damped rule: the peak excess must have at least halved overall
#: (convergence to a cycle from outside stalls at the cycle amplitude and
#: never halves, so it cannot masquerade as damping)
DECAY_DROP = 0.5


class Trajectory(Record):
    """Sampled solution with its parameter snapshot.

    ``times`` and ``states`` are arrays, ``params`` the MacroParams and
    ``inv`` the InvestmentParams of the run.  ``states[:, 0]`` is y,
    ``states[:, -1]`` is k and the middle columns are the chain stages
    u_1..u_m.  The integrator's work is recorded in ``rhs_evaluations``,
    ``accepted_steps`` and ``rejected_steps``; both backends count it the
    same way.
    """

    def __init__(self, times, states, params, inv, diverged=False, rhs_evaluations=0,
                 accepted_steps=0, rejected_steps=0):
        self._keep(locals())

    @property
    def y(self):
        return self.states[:, 0]

    @property
    def k(self):
        return self.states[:, -1]

    @property
    def u(self):
        return self.states[:, 1:-1]

    def write_csv(self, path):
        """Write `t,y,u1..um,k` rows at 17 significant digits."""
        m = self.params.m
        header = ",".join(["t", "y"] + [f"u{i}" for i in range(1, m + 1)] + ["k"])
        _write_lines(path, header, (self.times, *self.states.T))


class CycleMetrics(Record):
    """Outcome of :func:`cycle_metrics`.

    ``kind`` is "limit_cycle", "damped" or "diverged"; ``period`` and
    ``amplitude`` are set for limit cycles, ``decay_rate`` (the slope of a
    log-linear envelope fit, negative) for damped oscillations, and the
    others are None.
    """

    def __init__(self, kind, period=None, amplitude=None, decay_rate=None):
        self._keep(locals())


def integrate(
    sys,
    s0,
    horizon,
    sample_dt=None,
    rtol=1e-9,
    atol=1e-11,
    t0=0.0,
    backend="auto",
):
    """Integrate ``sys`` from state ``s0`` over ``horizon`` time units.

    Dense output is sampled every ``sample_dt`` (default horizon/8192).
    Raises CapitalNonPositive when the solution leaves k > 0 and
    StepFailure on step-size underflow; divergence (any component beyond
    1e9) truncates the trajectory and sets ``diverged`` instead.
    """
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and > 0, got {horizon!r}")
    if sample_dt is None:
        sample_dt = horizon / 8192.0
    if not 0.0 < sample_dt < math.inf:
        raise ValueError(f"sample_dt must be finite and > 0, got {sample_dt!r}")
    s0 = np.asarray(s0, dtype=float)
    if s0[-1] <= 0.0:
        raise CapitalNonPositive(f"initial capital {s0[-1]:g} <= 0", t=t0)
    p, inv = sys.params, sys.inv
    run = get_integrator(backend)
    counts = np.zeros(3, dtype=np.int64)
    times, states, status, t_stop = run(
        s0,
        p.m,
        p.alpha,
        p.gamma,
        p.delta,
        p.g,
        p.G0,
        p.T,
        inv.a,
        inv.c,
        inv.d,
        inv.v,
        float(t0),
        float(t0) + float(horizon),
        float(sample_dt),
        float(rtol),
        float(atol),
        DIVERGENCE_LIMIT,
        counts=counts,
    )
    if status == STATUS_CAPITAL:
        raise CapitalNonPositive(
            f"capital reached k <= 0 at t = {t_stop:g}", t=t_stop
        )
    if status == STATUS_STEP_UNDERFLOW:
        raise StepFailure(f"step size underflow at t = {t_stop:g}", t=t_stop)
    return Trajectory(
        times=times,
        states=states,
        params=p,
        inv=inv,
        diverged=status == STATUS_DIVERGED,
        rhs_evaluations=int(counts[0]),
        accepted_steps=int(counts[1]),
        rejected_steps=int(counts[2]),
    )


def find_local_maxima(times, values):
    """Local maxima refined by a three-point quadratic fit.

    A maximum is a sample with v[i-1] < v[i] >= v[i+1].  Returns
    (peak_times, peak_values).  Assumes a uniform sample grid.
    """
    v = np.asarray(values)
    t = np.asarray(times)
    i = np.nonzero((v[:-2] < v[1:-1]) & (v[1:-1] >= v[2:]))[0] + 1
    y0, y1, y2 = v[i - 1], v[i], v[i + 1]
    denom = y0 - 2.0 * y1 + y2
    with np.errstate(divide="ignore", invalid="ignore"):
        offset = np.where(denom != 0.0, 0.5 * (y0 - y2) / denom, 0.0)
    # clamp to [-1, 1]; a NaN offset (from inf samples) becomes -1
    offset = np.where(offset > -1.0, offset, -1.0)
    offset = np.where(offset < 1.0, offset, 1.0)
    dt = t[i + 1] - t[i]
    return t[i] + offset * dt, y1 - 0.25 * (y0 - y2) * offset


def check_transient_fraction(fraction, name="transient_fraction"):
    """Raise ValueError naming ``name`` unless 0 <= fraction < 1."""
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"{name} must be finite and in [0, 1), got {fraction!r}")


def _post_transient(traj, transient_fraction):
    check_transient_fraction(transient_fraction)
    t = traj.times
    cut = t[0] + transient_fraction * (t[-1] - t[0])
    mask = t >= cut
    return t[mask], traj.y[mask]


def cycle_metrics(traj, transient_fraction=0.5):
    """Classify the post-transient behaviour of y and measure it.

    After discarding the leading ``transient_fraction`` of the horizon the
    local maxima of y are found.  A limit cycle requires the last five
    peak heights to agree within 0.1% and to be stationary relative to
    their excess over the equilibrium level; a damped oscillation requires
    monotonically decaying peak excesses with a consistent log-linear
    envelope.  Trajectories flagged diverged classify as "diverged".
    Raises InsufficientOscillations when fewer than six maxima exist or
    the peaks have not settled into either pattern (extend the horizon).
    """
    if traj.diverged:
        return CycleMetrics(kind="diverged")
    t, y = _post_transient(traj, transient_fraction)
    pk_t, pk_y = find_local_maxima(t, y)
    if len(pk_t) < 6:
        raise InsufficientOscillations(
            f"found {len(pk_t)} maxima after the transient, need at least 6"
        )
    y_star = equilibrium(traj.params, traj.inv).y_star
    excess = pk_y - y_star

    p5_t, p5_y = pk_t[-5:], pk_y[-5:]
    spread = float(p5_y.max() - p5_y.min())
    mean_height = float(np.abs(p5_y).mean())
    mean_excess = float(excess[-5:].mean())
    settled = (
        spread < PEAK_SPREAD_FRAC * mean_height
        and mean_excess > 0.0
        and spread < EXCESS_SPREAD_FRAC * mean_excess
    )
    if settled:
        period = float(np.mean(np.diff(p5_t)))
        window = (traj.times >= p5_t[-1] - period) & (traj.times <= p5_t[-1])
        seg = traj.y[window]
        amplitude = float(seg.max() - seg.min())
        return CycleMetrics(kind="limit_cycle", period=period, amplitude=amplitude)

    # damped: drop the first two (possibly transient-contaminated) peaks
    d = excess[2:]
    dt_pk = pk_t[2:]
    if len(d) >= 6 and np.all(np.diff(d) < 0.0) and d[-1] > 0.0:
        if d[-1] < DECAY_DROP * d[0]:
            half = len(d) // 2
            s1 = _loglin_slope(dt_pk[:half], d[:half])
            s2 = _loglin_slope(dt_pk[half:], d[half:])
            if s1 < 0.0 and s2 < 0.5 * s1:
                rate = _loglin_slope(dt_pk, d)
                return CycleMetrics(kind="damped", decay_rate=rate)
    # decayed into the noise floor: oscillation indistinguishable from rest
    if abs(mean_excess) < 1e-6 * max(1.0, abs(y_star)) and spread < 1e-6:
        return CycleMetrics(kind="damped", decay_rate=-math.inf)
    raise InsufficientOscillations(
        "oscillations have not settled into a cycle or a monotone decay;"
        " extend the horizon"
    )


def _loglin_slope(tt, dd):
    return float(np.polyfit(tt, np.log(dd), 1)[0])
