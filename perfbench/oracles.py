"""Independent checks of the program's outputs.

Nothing here imports chaintrick, and nothing imports a module the program
would not load anyway (numpy and the standard library only), so an
import-time change in the program is never masked by the checks.  Each
check recomputes its quantity by a route the program does not take:

* x* by bisection on Phi instead of the closed-form inverse;
* Hopf points by the residual of the characteristic equation
  ``(l - a)(l - e)(l + m/T)^m - b c (m/T)^m`` at ``l = i omega``, with
  a, e, b, c assembled from the equilibrium formulas;
* crossing directions by the eigenvalues of a finite-difference Jacobian
  of a separate transcription of the chain right-hand side;
* cycle periods by upward zero crossings of the sampled output.

Parameters travel as plain dicts with the keys a, c, d, v (investment)
and alpha, gamma, delta, g, G0 (macro).  Every ``check_*`` function
returns a list of problems; an empty list means the output passed.
"""

import json
import math
import os

import numpy as np

#: Growth-rate Hopf points (g_bi1, g_bi2) per kernel order, the paper's Table 2.
TABLE2 = {
    1: (0.01011989, 0.02032586),
    2: (0.01011919, 0.02032671),
    3: (0.01011909, 0.02032693),
    4: (0.01011906, 0.02032703),
}
TABLE2_TOL = 2e-6

#: Published zero of the hyperbolic fit T_bi = c0 + c1/alpha (m = 1).
ALPHA_THRESHOLD = 0.7644
ALPHA_THRESHOLD_TOL = 0.002

#: Published cycle (period, amplitude) at alpha=0.9, g=0.016, T=3 per order,
#: with the relative tolerances of the paper's figures.
PUBLISHED_CYCLE = {1: (114.85, 12.9555), 2: (116.45, 12.966)}
PERIOD_TOL, AMPLITUDE_TOL = 0.02, 0.03

#: |P(i omega)| relative to the size of its two terms at a Hopf point.
RESIDUAL_TOL = 1e-7

#: Relative offset of the parameter for the finite-difference sign check.
SIDE_OFFSET = 1e-3

#: Delay range over which a sweep cell or a ``hopf --vary T`` call must find
#: a crossing whenever the stability of its ends differs (the program's
#: documented T scan range).
T_RANGE = (1e-4, 50.0)

#: Stability margins below this are too close to call at a range end.
MARGIN_TOL = 1e-7


def phi(x, p):
    return p["c"] + p["d"] / (1.0 + math.exp(-p["a"] * (p["v"] * x - 1.0)))


def phi_prime(x, p):
    s = 1.0 / (1.0 + math.exp(-p["a"] * (p["v"] * x - 1.0)))
    return p["a"] * p["d"] * p["v"] * s * (1.0 - s)


def x_star_bisect(p):
    """Solve Phi(x) = g + delta by plain bisection."""
    target = p["g"] + p["delta"]
    lo, hi = -10.0, 10.0
    if not phi(lo, p) < target < phi(hi, p):
        raise ValueError("g + delta outside the range of Phi")
    while hi - lo > 1e-15 * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if phi(mid, p) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def equilibrium(p):
    """(x*, y*, k*, Iy*, Ik*) from bisection x* and the equilibrium formulas."""
    x = x_star_bisect(p)
    k = p["alpha"] * p["G0"] / (
        p["g"] * x + p["alpha"] * (p["gamma"] * x - (p["g"] + p["delta"]))
    )
    iy = phi_prime(x, p)
    ik = p["g"] + p["delta"] - x * iy
    return x, x * k, k, iy, ik


def _char_constants(p):
    x, _, _, iy, ik = equilibrium(p)
    a = p["alpha"] * (iy - p["gamma"]) - p["g"]
    e = -x * iy
    return a, e, p["alpha"] * ik, iy


def char_residual(p, m, T, omega):
    """|P(i omega)| / (|first term| + |second term|)."""
    a, e, b, c = _char_constants(p)
    r = m / T
    lam = 1j * omega
    first = (lam - a) * (lam - e) * (lam + r) ** m
    second = b * c * r**m
    return abs(first - second) / (abs(first) + abs(second))


def char_roots(p, m, T):
    """Roots of the characteristic polynomial, expanded by hand."""
    a, e, b, c = _char_constants(p)
    r = m / T
    poly = np.polymul([1.0, -a], [1.0, -e])
    for _ in range(m):
        poly = np.polymul(poly, [1.0, r])
    poly[-1] -= b * c * r**m
    return np.roots(poly)


def axis_omega(p, m, T):
    """Frequency of the complex root closest to the imaginary axis."""
    roots = char_roots(p, m, T)
    upper = roots[roots.imag > 1e-12]
    if upper.size == 0:
        return None
    return float(upper[np.argmin(np.abs(upper.real))].imag)


def chain_rhs(p, m, T, s):
    """The (m+2)-dimensional chain system, transcribed from the model."""
    y, k = s[0], s[-1]
    out = np.empty(m + 2)
    out[0] = p["alpha"] * (k * phi(y / k, p) - p["gamma"] * y + p["G0"]) - p["g"] * y
    rate = m / T
    prev = y
    for i in range(1, m + 1):
        out[i] = rate * (prev - s[i])
        prev = s[i]
    out[-1] = k * phi(s[m] / k, p) - (p["g"] + p["delta"]) * k
    return out


def fd_jacobian(p, m, T):
    """Central-difference Jacobian of :func:`chain_rhs` at the equilibrium."""
    _, y, k, _, _ = equilibrium(p)
    s = np.array([y] * (m + 1) + [k])
    n = m + 2
    J = np.empty((n, n))
    for j in range(n):
        h = 1e-6 * max(1.0, abs(s[j]))
        up, dn = s.copy(), s.copy()
        up[j] += h
        dn[j] -= h
        J[:, j] = (chain_rhs(p, m, T, up) - chain_rhs(p, m, T, dn)) / (2.0 * h)
    return J


def pair_real(p, m, T, omega):
    """Real part of the finite-difference eigenvalue nearest to i omega."""
    eig = np.linalg.eigvals(fd_jacobian(p, m, T))
    return float(eig[np.argmin(np.abs(eig - 1j * omega))].real)


def _side_values(p, m, T, name, value, omega):
    """Pair real part just below and just above ``name = value``."""
    out = []
    for factor in (1.0 - SIDE_OFFSET, 1.0 + SIDE_OFFSET):
        if name == "T":
            out.append(pair_real(p, m, value * factor, omega))
        else:
            out.append(pair_real(dict(p, **{name: value * factor}), m, T, omega))
    return out


def check_hopf(p, m, T, name, value, omega, crossing=None):
    """Check a Hopf point in ``name`` (T, alpha or g) at ``value``.

    The residual of the characteristic equation at i omega must vanish and
    the pair nearest i omega must change sign across the point, in the
    direction ``crossing`` when it is given.
    """
    label = f"{name}={value!r} (m={m})"
    if not (math.isfinite(value) and value > 0.0 and math.isfinite(omega) and omega > 0.0):
        return [f"{label}: non-finite or non-positive value/omega {omega!r}"]
    at = dict(p, **{name: value}) if name != "T" else p
    T_at = value if name == "T" else T
    problems = []
    res = char_residual(at, m, T_at, omega)
    if not res < RESIDUAL_TOL:
        problems.append(f"{label}: characteristic residual {res:.3e} at i*{omega:.6g}")
    below, above = _side_values(p, m, T, name, value, omega)
    if not below * above < 0.0:
        problems.append(f"{label}: pair real part {below:.3e} -> {above:.3e} has no sign change")
    elif crossing is not None:
        want = "destabilizing" if above > 0.0 else "stabilizing"
        if crossing != want:
            problems.append(f"{label}: labelled {crossing}, finite differences say {want}")
    return problems


def check_cell(p, m, T_bi):
    """Check a sweep cell, whose omega is not reported.

    A finite T_bi must be a crossing with the equilibrium stable just below
    it (the edge of the small-T stable region); a NaN cell must have the
    same stability at both ends of :data:`T_RANGE`, so no crossing was
    missed.
    """
    if isinstance(T_bi, float) and math.isnan(T_bi):
        return check_found(p, m, None, "T", *T_RANGE, found=False, label=f"cell NaN (m={m})")
    if not (math.isfinite(T_bi) and T_bi > 0.0):
        return [f"cell T_bi={T_bi!r} is not a positive number"]
    omega = axis_omega(p, m, T_bi)
    if omega is None:
        return [f"cell T_bi={T_bi!r} (m={m}): no complex root"]
    problems = check_hopf(p, m, T_bi, "T", T_bi, omega)
    stable, _ = stable_by_fd(p, m, T_bi * (1.0 - SIDE_OFFSET))
    if not stable:
        problems.append(f"cell T_bi={T_bi!r} (m={m}): unstable just below, not the smallest crossing")
    return problems


def check_found(p, m, T, name, lo, hi, found, label):
    """When the equilibrium's stability differs between ``name = lo`` and
    ``name = hi`` a crossing lies between them, so ``found`` must be true."""
    ends = []
    for value in (lo, hi):
        if name == "T":
            ends.append(stable_by_fd(p, m, value))
        else:
            ends.append(stable_by_fd(dict(p, **{name: value}), m, T))
    (s_lo, m_lo), (s_hi, m_hi) = ends
    if s_lo != s_hi and min(m_lo, m_hi) > MARGIN_TOL and not found:
        state = lambda s: "stable" if s else "unstable"
        return [f"{label}: no Hopf point reported, but the equilibrium is {state(s_lo)} at "
                f"{name}={lo!r} and {state(s_hi)} at {name}={hi!r}"]
    return []


def check_equilibrium(p, x_star, y_star, k_star, iy, ik, tol=1e-9):
    want = equilibrium(p)
    problems = []
    for name, got, ref in zip(("x*", "y*", "k*", "Iy*", "Ik*"), (x_star, y_star, k_star, iy, ik), want):
        if not abs(got - ref) <= tol * max(1.0, abs(ref)):
            problems.append(f"{name} = {got!r}, bisection oracle gives {ref!r}")
    return problems


def stable_by_fd(p, m, T):
    """(stable, margin): all finite-difference eigenvalues in the left half-plane."""
    eig = np.linalg.eigvals(fd_jacobian(p, m, T))
    top = float(eig.real.max())
    return top < 0.0, abs(top)


def check_table2(rows):
    problems = []
    for m, g1, g2 in rows:
        ref = TABLE2.get(int(m))
        if ref is None:
            problems.append(f"no published row for m={m}")
            continue
        for got, want in zip((g1, g2), ref):
            if not abs(got - want) < TABLE2_TOL:
                problems.append(f"m={m}: g_bi {got!r} vs published {want}")
    return problems


def check_threshold(threshold):
    if not abs(threshold - ALPHA_THRESHOLD) < ALPHA_THRESHOLD_TOL:
        return [f"alpha threshold {threshold!r} vs published {ALPHA_THRESHOLD}"]
    return []


def zero_crossing_period(times, y, transient_fraction=0.5):
    """Mean spacing of upward crossings of y - mean(y) after the transient."""
    times, y = np.asarray(times), np.asarray(y)
    keep = times >= times[0] + transient_fraction * (times[-1] - times[0])
    t, yc = times[keep], y[keep] - y[keep].mean()
    idx = np.nonzero((yc[:-1] < 0.0) & (yc[1:] >= 0.0))[0]
    if len(idx) < 3:
        return None
    tc = t[idx] + (t[idx + 1] - t[idx]) * (-yc[idx]) / (yc[idx + 1] - yc[idx])
    return float(np.mean(np.diff(tc)))


def check_cycle(times, y, period, amplitude, m=None, omega=None):
    """A measured limit cycle: period against zero crossings, amplitude
    against the last period's extent, and against the published figures
    (``m``) or the Hopf frequency (``omega``, 3%) when given."""
    problems = []
    zc = zero_crossing_period(times, y)
    if zc is None or not abs(zc - period) < 0.01 * period:
        problems.append(f"period {period!r} vs zero-crossing period {zc!r}")
    times, y = np.asarray(times), np.asarray(y)
    last = y[times >= times[-1] - period]
    extent = float(last.max() - last.min())
    if not abs(extent - amplitude) < 0.01 * amplitude:
        problems.append(f"amplitude {amplitude!r} vs last-period extent {extent!r}")
    if m in PUBLISHED_CYCLE:
        p_ref, a_ref = PUBLISHED_CYCLE[m]
        if not abs(period - p_ref) < PERIOD_TOL * p_ref:
            problems.append(f"period {period!r} vs published {p_ref}")
        if not abs(amplitude - a_ref) < AMPLITUDE_TOL * a_ref:
            problems.append(f"amplitude {amplitude!r} vs published {a_ref}")
    if omega is not None and not abs(2.0 * math.pi / period - omega) < 0.03 * omega:
        problems.append(f"2*pi/period {2.0 * math.pi / period!r} vs Hopf omega {omega!r}")
    return problems


def check_csv(path, header, rows):
    """Header line and row count of a CSV file."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    problems = []
    if not lines or lines[0] != header:
        problems.append(f"{path}: header {lines[:1]!r}, expected {header!r}")
    if len(lines) - 1 != rows:
        problems.append(f"{path}: {len(lines) - 1} rows, expected {rows}")
    return problems


def check_sidecar(path):
    """The ``<name>.meta.json`` sidecar next to a sweep CSV parses as JSON."""
    meta = os.path.splitext(str(path))[0] + ".meta.json"
    try:
        with open(meta, encoding="utf-8") as fh:
            json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"sidecar {meta}: {exc}"]
    return []
