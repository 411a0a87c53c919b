/* Lane-major, destination-grouped pull kernels: the min and `+` families.
 *
 * Each kernel folds the edges of a block that arrive already sorted by
 * destination: group g spans [group_starts[g], group_starts[g + 1])
 * (the last group ends at `edges`), edge e reads the message of source
 * column cols[e] in every lane.  `x` is the (k, n) lane-major message
 * block and `out` the (k, n_groups) lane-major result, both C order.
 * Groups are non-empty and start at 0 — the shape
 * repro.core.spmv.run_block_batch hands to _tiled_process_reduce.
 *
 * Every fold runs left to right in stored order.
 *
 * min: starts at the first message and keeps the accumulator when it
 * is <= the new value or NaN, so the first of equal values and the
 * first NaN win (NaN propagates, as in NumPy).  `min` is exactly
 * associative on every other input, so the result equals
 * np.minimum.reduceat bit for bit except, possibly, in the sign of a
 * zero and the payload of a NaN (docs/KERNELS.md).
 *
 * +: starts at +0.0 and adds each message in turn — the loop of
 * np.bincount(ids, weights=...) and of scipy's csr_matvec, so it equals
 * both bit for bit, the sign of a zero included (a NaN's payload is not
 * fixed).  `+` is not associative in floating point; this order is the
 * engine's one `+` contract (docs/KERNELS.md, "The `+` fold").
 *
 * min accumulate (the `*_accum` entries, GraphBLAS's
 * `w<mask> min= A (min.+) u`): instead of writing `out`, each lane's
 * fold of group g lands in row rows[g] of the lane-major (k, n)
 * property block `w`, in the same pass.  The arguments follow the
 * descriptor: the semiring's operands (the common head, the edge
 * values or constant, `x`), then the mask (`rows`, `every_group`,
 * `seen`), then the accumulate's outputs (`w`, `active`, `counts`).
 * A group is received when `every_group` is set (every lane sent from
 * every swept column) or its fold is not +inf, the identity (a real
 * message never folds to it: the `batch_received_by_value` rule);
 * other groups are skipped.  A received group writes
 * w = fold_min(acc, old), which is np.minimum(acc, old), sets the
 * lane's `active` byte when the new value != the old (a NaN always
 * does), and marks seen[g] when `seen` is not NULL.  counts[2 * lane]
 * gains the received rows, counts[2 * lane + 1] the activated ones.
 * Rows belong to one block and messages are read from `x`, never from
 * `w`, so blocks may run on threads and no write leaks into the sweep.
 *
 * Build with -O2 -ffp-contract=off; never -ffast-math, which would
 * drop the NaN test and reassociate the sums, nor -march=native, whose
 * FMA contraction would fuse plus_times' multiply into its add (see
 * repro/core/ckernels.py).
 */
#include <math.h>
#include <stdint.h>

static inline double fold_min(double acc, double v)
{
    return (acc <= v || acc != acc) ? acc : v;
}

#define MIN_SWEEP(MESSAGE)                                             \
    for (int64_t lane = 0; lane < k; lane++) {                         \
        const double *xl = x + lane * n;                               \
        double *ol = out + lane * n_groups;                            \
        for (int64_t g = 0; g < n_groups; g++) {                       \
            int64_t e = group_starts[g];                               \
            int64_t end = g + 1 < n_groups ? group_starts[g + 1] : edges; \
            double acc = MESSAGE;                                      \
            for (e++; e < end; e++)                                    \
                acc = fold_min(acc, MESSAGE);                          \
            ol[g] = acc;                                               \
        }                                                              \
    }

#define MIN_ACCUM_SWEEP(MESSAGE)                                       \
    for (int64_t lane = 0; lane < k; lane++) {                         \
        const double *xl = x + lane * n;                               \
        double *wl = w + lane * n;                                     \
        uint8_t *al = active + lane * n;                               \
        int64_t received = 0, activated = 0;                           \
        for (int64_t g = 0; g < n_groups; g++) {                       \
            int64_t e = group_starts[g];                               \
            int64_t end = g + 1 < n_groups ? group_starts[g + 1] : edges; \
            double acc = MESSAGE;                                      \
            for (e++; e < end; e++)                                    \
                acc = fold_min(acc, MESSAGE);                          \
            if (!every_group && acc == INFINITY)                       \
                continue;                                              \
            double old = wl[rows[g]];                                  \
            double new = fold_min(acc, old);                           \
            wl[rows[g]] = new;                                         \
            received++;                                                \
            if (new != old) {                                          \
                al[rows[g]] = 1;                                       \
                activated++;                                           \
            }                                                          \
            if (seen)                                                  \
                seen[g] = 1;                                           \
        }                                                              \
        counts[2 * lane] += received;                                  \
        counts[2 * lane + 1] += activated;                             \
    }

#define PLUS_SWEEP(MESSAGE)                                            \
    for (int64_t lane = 0; lane < k; lane++) {                         \
        const double *xl = x + lane * n;                               \
        double *ol = out + lane * n_groups;                            \
        for (int64_t g = 0; g < n_groups; g++) {                       \
            int64_t end = g + 1 < n_groups ? group_starts[g + 1] : edges; \
            double acc = 0.0;                                          \
            for (int64_t e = group_starts[g]; e < end; e++)            \
                acc += MESSAGE;                                        \
            ol[g] = acc;                                               \
        }                                                              \
    }

/* SSSP: message + edge value. */
void min_plus(int64_t k, int64_t n_groups, int64_t n,
              const int64_t *group_starts, int64_t edges,
              const int64_t *cols, const double *vals,
              const double *x, double *out)
{
    MIN_SWEEP(xl[cols[e]] + vals[e])
}

/* BFS (c = 1.0), label propagation (c = stride): message + constant. */
void min_plus_c(int64_t k, int64_t n_groups, int64_t n,
                const int64_t *group_starts, int64_t edges,
                const int64_t *cols, double c,
                const double *x, double *out)
{
    MIN_SWEEP(xl[cols[e]] + c)
}

/* SSSP's superstep: min-plus folded into the distances. */
void min_plus_accum(int64_t k, int64_t n_groups, int64_t n,
                    const int64_t *group_starts, int64_t edges,
                    const int64_t *cols, const double *vals,
                    const double *x,
                    const int64_t *rows, int64_t every_group, uint8_t *seen,
                    double *w, uint8_t *active, int64_t *counts)
{
    MIN_ACCUM_SWEEP(xl[cols[e]] + vals[e])
}

/* BFS's superstep: min-plus-c folded into the distances. */
void min_plus_c_accum(int64_t k, int64_t n_groups, int64_t n,
                      const int64_t *group_starts, int64_t edges,
                      const int64_t *cols, double c,
                      const double *x,
                      const int64_t *rows, int64_t every_group, uint8_t *seen,
                      double *w, uint8_t *active, int64_t *counts)
{
    MIN_ACCUM_SWEEP(xl[cols[e]] + c)
}

/* Connected components: the message unchanged. */
void min_first(int64_t k, int64_t n_groups, int64_t n,
               const int64_t *group_starts, int64_t edges,
               const int64_t *cols, const double *x, double *out)
{
    MIN_SWEEP(xl[cols[e]])
}

/* SpMV over (+, *): message * edge value. */
void plus_times(int64_t k, int64_t n_groups, int64_t n,
                const int64_t *group_starts, int64_t edges,
                const int64_t *cols, const double *vals,
                const double *x, double *out)
{
    PLUS_SWEEP(xl[cols[e]] * vals[e])
}

/* PageRank, personalized and delta PageRank: the message unchanged. */
void plus_first(int64_t k, int64_t n_groups, int64_t n,
                const int64_t *group_starts, int64_t edges,
                const int64_t *cols, const double *x, double *out)
{
    PLUS_SWEEP(xl[cols[e]])
}
