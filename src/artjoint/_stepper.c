/* The joint stepper of artjoint.dynamics._advance, statement for statement,
   with two additions: it skips the drive on frozen ticks (the frozen skip,
   below), and against an observed series it writes residuals and returns
   their SSE, which dynamics._run computes around the Python loop.

   artjoint._native builds this file, with _csv.c, into one library with
       cc -O2 -fPIC -shared -ffp-contract=off -D_GNU_SOURCE -lm
   and dynamics calls it through ctypes from dynamics._run; the dynamics module
   doc says which runs reach it.
   The flags keep the arithmetic Python's: every operation is one IEEE double
   operation in the order written (no fused multiply-add, no -ffast-math),
   and exp is the C library's, the function math.exp calls. A change to the
   model changes _advance and this function together; tests/test_rollout.py
   holds both to the same reference bit for bit.

   record:   the packed joint record, slots as in dynamics.RECORD_SLOTS.
   start:    the state the run starts from: q, q_dot, s_open, regime
             (0 static, 1 kinetic), held_target.
   end:      receives the state after the last step, or is NULL; it may be
             start.
   forces:   n external efforts, one per step (not read when n is 0).
   observed: n + 1 observed positions, or NULL.
   out:      receives n + 1 positions, the start's and one after each step;
             with observed, each minus its observed sample.
   out_dot:  receives the n + 1 velocities likewise, or is NULL.
   Returns the sum of squares of out with observed, as np.add.reduce on
   out * out gives it (pairwise_squares), and 0.0 without.

   The frozen skip: a step that freezes leaves q at rest with q_dot = +0.0,
   so the next step evaluates the same stiffness, target and |tau| (a signed
   zero in tau changes no magnitude), and so the same breakaway threshold.
   Every following step whose |f| stays within it freezes again; those are
   written without evaluating the drive, and the first step past it runs
   the loop body in full. */

#include <math.h>

enum { LO, HI, DAMPING, V_TARGET, MU_S, FLOOR, INERTIA, K, K_HIGH, K_LOW, K_MAX, ALPHA, LAMBDA, K_EDGE, TARGET,
       SCHEDULED, LATCHED };
enum { Q, Q_DOT, S_OPEN, REGIME, HELD_TARGET };
enum { STATIC, KINETIC };

static inline void put(long i, double q, double q_dot, const double *observed, double *out, double *out_dot)
{
    out[i] = observed ? q - observed[i] : q;
    if (out_dot)
        out_dot[i] = q_dot;
}

/* numpy's pairwise summation of the squares of a[0 .. m-1]: 8 accumulators
   up to 128 terms, else the halves split at m / 2 rounded down to a
   multiple of 8. */
static double pairwise_squares(const double *a, long m)
{
    if (m < 8) {
        double s = 0.0;
        for (long i = 0; i < m; i++)
            s += a[i] * a[i];
        return s;
    }
    if (m <= 128) {
        double r[8];
        long i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j] * a[j];
        for (i = 8; i < m - m % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j] * a[i + j];
        double s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < m; i++)
            s += a[i] * a[i];
        return s;
    }
    long half = m / 2;
    half -= half % 8;
    return pairwise_squares(a, half) + pairwise_squares(a + half, m - half);
}

double artjoint_advance(const double *record, const double *start, double *end, const double *forces, long n,
                        double dt, const double *observed, double *out, double *out_dot)
{
    const double lo = record[LO], hi = record[HI];
    const double damping = record[DAMPING], v_target = record[V_TARGET];
    const double mu_s = record[MU_S], floor_ = record[FLOOR], inertia = record[INERTIA];
    const int scheduled = record[SCHEDULED] != 0.0, latched = record[LATCHED] != 0.0;
    const double k_high = record[K_HIGH], k_low = record[K_LOW], k_max = record[K_MAX];
    const double alpha = record[ALPHA], lam = record[LAMBDA], k_edge = record[K_EDGE];
    const double t_edge = record[TARGET];
    double k = record[K] > 0.0 ? record[K] : 0.0;
    double q_target = latched ? start[HELD_TARGET] : record[TARGET]; /* a latch keeps its last target */
    double q = start[Q], q_dot = start[Q_DOT];
    const int s_open = start[S_OPEN] != 0.0;
    double regime = start[REGIME];
    put(0, q, q_dot, observed, out, out_dot);
    for (long i = 1; i <= n; i++) {
        const double f = forces[i - 1];
        if (scheduled) {
            if (q <= lo)
                k = k_high;
            else if (q <= k_edge)
                k = s_open ? k_high - alpha * (q - lo) : k_low + k_max * exp(-lam * (q - lo));
            else
                k = k_low;
            if (!(k > 0.0))
                k = 0.0;
        }
        if (latched) {
            if (s_open)
                q_target = q > t_edge ? hi : q_target;
            else
                q_target = q < t_edge ? lo : q_target;
        }
        const double tau = k * (q_target - q) + damping * (v_target - q_dot);
        double friction;
        if (q_dot == 0.0) {
            const double breakaway = mu_s * fabs(tau) + floor_;
            if (fabs(f) <= breakaway) {
                q_dot = 0.0, regime = STATIC; /* frozen, velocity exactly +0.0 */
                put(i, q, 0.0, observed, out, out_dot);
                while (i < n && fabs(forces[i]) <= breakaway) /* the frozen skip */
                    put(++i, q, 0.0, observed, out, out_dot);
                continue;
            }
            friction = f > 0.0 ? -breakaway : breakaway;
        } else {
            friction = -damping * q_dot;
        }
        regime = KINETIC;
        q_dot = q_dot + dt * ((tau + f) + friction) / inertia;
        q = q + dt * q_dot;
        if (q <= lo)
            q = lo, q_dot = 0.0;
        else if (q >= hi)
            q = hi, q_dot = 0.0;
        put(i, q, q_dot, observed, out, out_dot);
    }
    if (end) {
        end[Q] = q, end[Q_DOT] = q_dot, end[S_OPEN] = s_open, end[REGIME] = regime;
        end[HELD_TARGET] = q_target;
    }
    return observed ? 0.0 + pairwise_squares(out, n + 1) : 0.0;
}
