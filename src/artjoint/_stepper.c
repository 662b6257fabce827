/* The joint stepper of artjoint.dynamics._advance, statement for statement.

   artjoint.dynamics builds this file with
       cc -O2 -fPIC -shared -ffp-contract=off -lm
   and calls it through ctypes from dynamics._run; the dynamics module doc says
   which runs reach it.
   The flags keep the arithmetic Python's: every operation is one IEEE double
   operation in the order written (no fused multiply-add, no -ffast-math),
   and exp is the C library's, the function math.exp calls. A change to the
   model changes _advance and this function together; tests/test_rollout.py
   holds both to the same reference bit for bit.

   record: the packed joint record, slots as in dynamics.RECORD_SLOTS.
   state:  q, q_dot, s_open, regime (0 static, 1 kinetic), held_target;
           advanced in place.
   forces: n external efforts, one per step.
   out:    receives the n new positions.
   out_dot: receives the n new velocities, or is NULL for positions only. */

#include <math.h>

enum { LO, HI, DAMPING, V_TARGET, MU_S, FLOOR, INERTIA, K, K_HIGH, K_LOW, K_MAX, ALPHA, LAMBDA, K_EDGE, TARGET,
       SCHEDULED, LATCHED };
enum { Q, Q_DOT, S_OPEN, REGIME, HELD_TARGET };
enum { STATIC, KINETIC };

void artjoint_advance(const double *record, double *state, const double *forces, long n, double dt, double *out,
                      double *out_dot)
{
    const double lo = record[LO], hi = record[HI];
    const double damping = record[DAMPING], v_target = record[V_TARGET];
    const double mu_s = record[MU_S], floor_ = record[FLOOR], inertia = record[INERTIA];
    const int scheduled = record[SCHEDULED] != 0.0, latched = record[LATCHED] != 0.0;
    const double k_high = record[K_HIGH], k_low = record[K_LOW], k_max = record[K_MAX];
    const double alpha = record[ALPHA], lam = record[LAMBDA], k_edge = record[K_EDGE];
    const double t_edge = record[TARGET];
    double k = record[K] > 0.0 ? record[K] : 0.0;
    double q_target = latched ? state[HELD_TARGET] : record[TARGET]; /* a latch keeps its last target */
    double q = state[Q], q_dot = state[Q_DOT];
    const int s_open = state[S_OPEN] != 0.0;
    double regime = state[REGIME];
    for (long i = 0; i < n; i++) {
        const double f = forces[i];
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
                out[i] = q;
                if (out_dot)
                    out_dot[i] = 0.0;
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
        out[i] = q;
        if (out_dot)
            out_dot[i] = q_dot;
    }
    state[Q] = q, state[Q_DOT] = q_dot, state[REGIME] = regime, state[HELD_TARGET] = q_target;
}
