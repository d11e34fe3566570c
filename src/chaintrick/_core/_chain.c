/* Adaptive Dormand-Prince 5(4) integrator for chain systems, in plain C.
 *
 * Line-for-line port of ``chain_integrate`` in ``_dopri.py``: same argument
 * list and buffer protocol, chain RHS (the float operations of
 * ``make_chain_rhs``, in its order), tableau, FSAL step, step control,
 * initial-step heuristic, dense-output interpolant, status codes and work
 * counters, so the two take the same steps.  Like the reference it fills
 * buffers its caller sized and checks nothing.  C needs a few arguments
 * more: ``n_samples`` (the length of ``times``), ``work`` (8 * (m + 2)
 * doubles of scratch) and pointers for the three results ``status``,
 * ``n_written`` and ``t_stop``; the ctypes adapter in ``_core/__init__.py``
 * supplies them.  The file includes no CPython or numpy header, so the
 * state dimension m + 2 has no compile-time cap.
 *
 * Build by hand (``python setup.py build_ext --inplace`` does the same):
 *     cc -O3 -shared -fPIC _chain.c -o _chain.so -lm
 */

#include <math.h>
#include <stdint.h>

#if defined(_WIN32)
#define EXPORT __declspec(dllexport)
#else
#define EXPORT
#endif

enum { STATUS_OK, STATUS_DIVERGED, STATUS_CAPITAL, STATUS_STEP_UNDERFLOW };

#define SAFETY 0.9
#define MIN_FACTOR 0.2
#define MAX_FACTOR 5.0

/* Python's min/max: the first argument unless the second compares past it
 * (so NaN handling matches the reference). */
static double py_min(double a, double b) { return b < a ? b : a; }
static double py_max(double a, double b) { return b > a ? b : a; }

static const double C_A[6][5] = {
    {0},
    {1.0 / 5},
    {3.0 / 40, 9.0 / 40},
    {44.0 / 45, -56.0 / 15, 32.0 / 9},
    {19372.0 / 6561, -25360.0 / 2187, 64448.0 / 6561, -212.0 / 729},
    {9017.0 / 3168, -355.0 / 33, 46732.0 / 5247, 49.0 / 176, -5103.0 / 18656},
};
static const double C_B[6] = {35.0 / 384, 0.0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84};
static const double C_E[7] = {-71.0 / 57600, 0.0, 71.0 / 16695, -71.0 / 1920,
                              17253.0 / 339200, -22.0 / 525, 1.0 / 40};
/* 4th-order dense output: y(t + theta h) = y + h K^T P [theta..theta^4] */
static const double C_P[7][4] = {
    {1.0, -8048581381.0 / 2820520608, 8663915743.0 / 2820520608, -12715105075.0 / 11282082432},
    {0.0, 0.0, 0.0, 0.0},
    {0.0, 131558114200.0 / 32700410799, -68118460800.0 / 10900136933, 87487479700.0 / 32700410799},
    {0.0, -1754552775.0 / 470086768, 14199869525.0 / 1410260304, -10690763975.0 / 1880347072},
    {0.0, 127303824393.0 / 49829197408, -318862633887.0 / 49829197408, 701980252875.0 / 199316789632},
    {0.0, -282668133.0 / 205662961, 2019193451.0 / 616988883, -1453857185.0 / 822651844},
    {0.0, 40617522.0 / 29380423, -110615467.0 / 29380423, 69997945.0 / 29380423},
};

/* The model's constants, folded once per run as in ``make_chain_rhs``. */
typedef struct {
    int m, n;
    double rate, a, av, ad, ac, ag, aG0, d, cgd;
    int64_t n_rhs;
} Chain;

/* Chain-system derivative; returns -1 when k <= 0 (domain exit).  Each
 * investment term is one quotient; an exp that overflows to inf gives the
 * exact limit 0. */
static int rhs(Chain *ch, const double *s, double *out)
{
    int m = ch->m, i;
    double k = s[m + 1], y, ik, prev;
    ch->n_rhs++;
    if (k <= 0.0)
        return -1;
    y = s[0];
    ik = 1.0 / k;
    out[0] = ch->ac * k - ch->ag * y + ch->aG0
             + ch->ad * k / (1.0 + exp(ch->a - ch->av * (y * ik)));
    prev = y;
    for (i = 1; i <= m; i++) {
        out[i] = ch->rate * (prev - s[i]);
        prev = s[i];
    }
    out[m + 1] = ch->cgd * k + ch->d * k / (1.0 + exp(ch->a - ch->av * (s[m] * ik)));
    return 0;
}

/* Root mean square of x / scale; overflow to inf rejects the step. */
static double rms_scaled(const double *x, const double *scale, int n)
{
    double acc = 0.0, r;
    int i;
    for (i = 0; i < n; i++) {
        r = x[i] / scale[i];
        acc += r * r;
    }
    return sqrt(acc / n);
}

/* Hairer's initial-step heuristic; uses K[1], K[2] and ``stage`` as scratch. */
static double initial_step(Chain *ch, const double *y, double **K, double *stage,
                           double rtol, double atol)
{
    int n = ch->n, i;
    double *scale = K[2], d0, d1, d2, h0, h1, h;
    for (i = 0; i < n; i++)
        scale[i] = atol + rtol * fabs(y[i]);
    d0 = rms_scaled(y, scale, n);
    d1 = rms_scaled(K[0], scale, n);
    h0 = (d0 < 1e-5 || d1 < 1e-5) ? 1e-6 : 0.01 * d0 / d1;
    for (i = 0; i < n; i++)
        stage[i] = y[i] + h0 * K[0][i];
    if (rhs(ch, stage, K[1]) != 0)
        return h0 * 1e-3;
    for (i = 0; i < n; i++)
        stage[i] = K[1][i] - K[0][i];
    d2 = rms_scaled(stage, scale, n) / h0;
    if (py_max(d1, d2) <= 1e-15)
        h1 = py_max(1e-6, h0 * 1e-3);
    else
        h1 = pow(0.01 / py_max(d1, d2), 0.2);
    h = py_min(100.0 * h0, h1);
    if (!isfinite(h) || h <= 0.0)
        h = 1e-6;
    return h;
}

/* Integrate from y (updated in place to the last accepted state) and sample
 * the dense output on t0 + j * sample_dt into times[n_samples] and
 * states[n_samples][m + 2].
 *
 * par:   alpha, gamma, delta, g, G0, T, a, c, d, v
 * work:  (8, m + 2) scratch: the seven FSAL stages and one stage state
 * counts: RHS evaluations, accepted steps, rejected steps
 * status, n_written and t_stop are written on return.
 */
EXPORT void chain_integrate(double *y, int m, const double *par, double t0, double t_end,
                            double sample_dt, double rtol, double atol, double max_abs,
                            double max_step, int64_t n_samples, double *times,
                            double *states, double *work, int64_t *counts, int *status,
                            int64_t *n_written, double *t_stop)
{
    Chain ch = {.m = m, .n = m + 2, .rate = m / par[5], .a = par[6], .av = par[6] * par[9],
                .ad = par[0] * par[8], .ac = par[0] * par[7], .ag = par[0] * par[1] + par[3],
                .aG0 = par[0] * par[4], .d = par[8], .cgd = par[7] - (par[3] + par[2]),
                .n_rhs = 0};
    int n = m + 2, i, s, q, final, failed;
    double *K[7], *stage = work + 7 * n;
    double t = t0, h, h_step, t_new, ts, theta, acc, err_norm, factor, big, pw[4], b[7];
    int64_t j = 1, n_accepted = 0, n_rejected = 0;

    for (s = 0; s < 7; s++)
        K[s] = work + s * n;
    times[0] = t;
    for (i = 0; i < n; i++)
        states[i] = y[i];
    *status = STATUS_OK;

    if (rhs(&ch, y, K[0]) != 0) {
        *status = STATUS_CAPITAL;
        goto done;
    }
    h = py_min(initial_step(&ch, y, K, stage, rtol, atol), max_step);

    while (t < t_end) {
        final = t + h >= t_end;
        h_step = final ? t_end - t : h;
        if (!final && h_step < 1e-14 * py_max(1.0, fabs(t))) {
            *status = STATUS_STEP_UNDERFLOW;
            break;
        }
        failed = 0;
        for (s = 1; s < 6 && !failed; s++) {
            for (i = 0; i < n; i++) {
                acc = 0.0;
                for (q = 0; q < s; q++)
                    acc += C_A[s][q] * K[q][i];
                stage[i] = y[i] + h_step * acc;
            }
            failed = rhs(&ch, stage, K[s]) != 0;
        }
        if (!failed) {
            for (i = 0; i < n; i++) {
                acc = 0.0;
                for (q = 0; q < 6; q++)
                    acc += C_B[q] * K[q][i];
                stage[i] = y[i] + h_step * acc;  /* y_new */
            }
            failed = rhs(&ch, stage, K[6]) != 0;
        }
        if (failed) {
            n_rejected++;
            h = 0.5 * h_step;
            if (h < 1e-14 * py_max(1.0, fabs(t))) {
                *status = STATUS_CAPITAL;
                break;
            }
            continue;
        }
        err_norm = 0.0;
        for (i = 0; i < n; i++) {
            acc = 0.0;
            for (q = 0; q < 7; q++)
                acc += C_E[q] * K[q][i];
            acc = h_step * acc / (atol + rtol * py_max(fabs(y[i]), fabs(stage[i])));
            err_norm += acc * acc;
        }
        err_norm = sqrt(err_norm / n);
        if (!(err_norm <= 1.0)) {  /* NaN-safe: a non-finite norm rejects the step */
            n_rejected++;
            factor = SAFETY * pow(err_norm, -0.2);
            if (!isfinite(factor))
                factor = MIN_FACTOR;
            h = h_step * py_max(MIN_FACTOR, factor);
            continue;
        }

        /* accept; emit every grid point inside (t, t_new] */
        n_accepted++;
        t_new = final ? t_end : t + h_step;
        while (j < n_samples) {
            ts = t0 + j * sample_dt;
            if (ts > t_new + 1e-12 * py_max(1.0, fabs(t_new)))
                break;
            theta = (ts - t) / h_step;
            /* powers as products: within an ulp of the reference's theta**k,
             * without two pow() calls per sample */
            pw[0] = theta;
            pw[1] = theta * theta;
            pw[2] = pw[1] * theta;
            pw[3] = pw[1] * pw[1];
            for (s = 0; s < 7; s++)
                b[s] = C_P[s][0] * pw[0] + C_P[s][1] * pw[1]
                       + C_P[s][2] * pw[2] + C_P[s][3] * pw[3];
            times[j] = ts;
            for (i = 0; i < n; i++) {
                acc = 0.0;
                for (s = 0; s < 7; s++)
                    acc += K[s][i] * b[s];
                states[j * n + i] = y[i] + h_step * acc;
            }
            j++;
        }

        big = 0.0;
        for (i = 0; i < n; i++) {
            y[i] = stage[i];
            K[0][i] = K[6][i];  /* FSAL */
            big = py_max(big, fabs(y[i]));
        }
        t = t_new;
        factor = err_norm == 0.0 ? MAX_FACTOR : py_min(MAX_FACTOR, SAFETY * pow(err_norm, -0.2));
        h = py_min(h_step * factor, max_step);

        if (big > max_abs) {
            *status = STATUS_DIVERGED;
            break;
        }
    }
done:
    counts[0] = ch.n_rhs;
    counts[1] = n_accepted;
    counts[2] = n_rejected;
    *n_written = j;
    *t_stop = t;
}
