"""Pure-Python adaptive Dormand-Prince 5(4) integrator for chain systems.

Reference implementation of the compiled kernel in ``_chain.c``, which is a
line-for-line port of :func:`chain_integrate` here: same argument list and
buffer protocol, same tableau, step control, dense-output interpolant,
status codes and work counters, so the two kernels are interchangeable up
to roundoff.  Neither allocates the output, checks the inputs or defaults
the step cap: the one front end in ``_core/__init__.py`` does that for
both.  This kernel is also the fallback when no C compiler built the
other one, and :func:`make_chain_rhs` is the one Python copy of the chain
equations.

Status codes returned alongside the sampled trajectory:

====  =======================================================
0     reached t_end
1     diverged (a state component exceeded ``max_abs``)
2     capital k <= 0 reached (domain exit)
3     minimum step size underflow
====  =======================================================
"""

import math

import numpy as np

STATUS_OK = 0
STATUS_DIVERGED = 1
STATUS_CAPITAL = 2
STATUS_STEP_UNDERFLOW = 3

# Dormand-Prince 5(4) tableau, FSAL form: 6 derivative stages plus the
# first stage of the next step.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
]
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_E = np.array(
    [
        -71 / 57600,
        0.0,
        71 / 16695,
        -71 / 1920,
        17253 / 339200,
        -22 / 525,
        1 / 40,
    ]
)
# 4th-order dense-output interpolant: y(t + theta h) = y + h K^T P [theta..theta^4]
_P = np.array(
    [
        [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


class _DomainExit(Exception):
    pass


def _sigmoid(t):
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def make_chain_rhs(m, alpha, gamma, delta, g, G0, T, a, c, d, v):
    """Autonomous right-hand side of the (m+2)-dimensional chain system."""
    rate = m / T
    gd = g + delta

    def f(s):
        k = s[m + 1]
        if k <= 0.0:
            raise _DomainExit
        y = s[0]
        out = np.empty(m + 2)
        out[0] = alpha * (k * (c + d * _sigmoid(a * (v * y / k - 1.0))) - gamma * y + G0) - g * y
        prev = y
        for i in range(1, m + 1):
            out[i] = rate * (prev - s[i])
            prev = s[i]
        out[m + 1] = k * (c + d * _sigmoid(a * (v * s[m] / k - 1.0))) - gd * k
        return out

    return f


def _rms(x):
    # overflow to inf is fine: a non-finite norm simply rejects the step
    with np.errstate(over="ignore", invalid="ignore"):
        return math.sqrt(float(np.mean(x * x)))


def _initial_step(f, y0, f0, rtol, atol):
    scale = atol + rtol * np.abs(y0)
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    try:
        f1 = f(y0 + h0 * f0)
    except _DomainExit:
        return h0 * 1e-3
    d2 = _rms((f1 - f0) / scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h = min(100.0 * h0, h1)
    if not math.isfinite(h) or h <= 0.0:
        h = 1e-6
    return h


def chain_integrate(y, m, par, t0, t_end, sample_dt, rtol, atol, max_abs, max_step,
                    times, states, counts):
    """Integrate the chain system from state ``y``, sampling on the uniform
    grid t0 + j * sample_dt via the dense-output interpolant.

    The buffer protocol of ``chain_integrate`` in ``_chain.c``: ``par`` is
    (alpha, gamma, delta, g, G0, T, a, c, d, v); the caller sizes ``times``
    to the grid and ``states`` to (len(times), m + 2), and every step is
    capped at ``max_step``.  ``counts`` receives the work done: RHS
    evaluations, accepted steps and rejected steps (the error test failed
    or a stage left k > 0).  Returns (status, n_written, t_stop).
    """
    n_samples = len(times)
    rhs = make_chain_rhs(m, *map(float, par))
    work = [0, 0, 0]  # RHS evaluations, accepted steps, rejected steps

    def f(s):
        work[0] += 1
        return rhs(s)

    t = float(t0)
    times[0] = t
    states[0] = y
    j = 1

    K = np.empty((7, m + 2))
    try:
        K[0] = f(y)
    except _DomainExit:
        counts[:] = work
        return STATUS_CAPITAL, j, t
    h = min(_initial_step(f, y, K[0], rtol, atol), max_step)
    status = STATUS_OK

    while t < t_end:
        final = t + h >= t_end
        h_step = t_end - t if final else h
        if not final and h_step < 1e-14 * max(1.0, abs(t)):
            status = STATUS_STEP_UNDERFLOW
            break
        try:
            for i in range(1, 6):
                K[i] = f(y + h_step * (_A[i] @ K[:i]))
            y_new = y + h_step * (_B @ K[:6])
            K[6] = f(y_new)
        except _DomainExit:
            work[2] += 1
            h = 0.5 * h_step
            if h < 1e-14 * max(1.0, abs(t)):
                status = STATUS_CAPITAL
                break
            continue
        err = h_step * (_E @ K)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = _rms(err / scale)
        if not err_norm <= 1.0:  # NaN-safe: a non-finite norm rejects the step
            work[2] += 1
            factor = _SAFETY * err_norm**-0.2
            if not math.isfinite(factor):
                factor = _MIN_FACTOR
            h = h_step * max(_MIN_FACTOR, factor)
            continue

        # accept; emit every grid point inside (t, t_new]
        work[1] += 1
        t_new = t_end if final else t + h_step
        while j < n_samples:
            ts = t0 + j * sample_dt
            if ts > t_new + 1e-12 * max(1.0, abs(t_new)):
                break
            theta = (ts - t) / h_step
            powers = np.array([theta, theta**2, theta**3, theta**4])
            times[j] = ts
            states[j] = y + h_step * (K.T @ (_P @ powers))
            j += 1

        y = y_new
        t = t_new
        K[0] = K[6]  # FSAL
        if err_norm == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR, _SAFETY * err_norm**-0.2)
        h = min(h_step * factor, max_step)

        if np.abs(y).max() > max_abs:
            status = STATUS_DIVERGED
            break
        if y[-1] <= 0.0:
            status = STATUS_CAPITAL
            break

    counts[:] = work
    return status, j, t

