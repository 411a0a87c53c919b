/* Lane-major, destination-grouped pull kernels for the min family.
 *
 * Each kernel folds the edges of a block that arrive already sorted by
 * destination: group g spans [group_starts[g], group_starts[g + 1])
 * (the last group ends at `edges`), edge e reads the message of source
 * column cols[e] in every lane.  `x` is the (k, n) lane-major message
 * block and `out` the (k, n_groups) lane-major result, both C order.
 * Groups are non-empty and start at 0 — the shape
 * repro.core.spmv.run_block_batch hands to _tiled_process_reduce.
 *
 * The fold runs left to right in stored order and keeps the
 * accumulator when it is <= the new value or NaN, so the first of
 * equal values and the first NaN win (NaN propagates, as in NumPy).
 * `min` is exactly associative on every other input, so the result
 * equals np.minimum.reduceat bit for bit except, possibly, in the sign
 * of a zero and the payload of a NaN (docs/KERNELS.md).
 *
 * Build with -O2 -ffp-contract=off; never -ffast-math, which would
 * drop the NaN test, nor -march=native (see repro/core/ckernels.py).
 */
#include <stdint.h>

static inline double fold_min(double acc, double v)
{
    return (acc <= v || acc != acc) ? acc : v;
}

#define LANE_SWEEP(MESSAGE)                                            \
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

/* SSSP: message + edge value. */
void min_plus(int64_t k, int64_t n_groups, int64_t n,
              const int64_t *group_starts, int64_t edges,
              const int64_t *cols, const double *vals,
              const double *x, double *out)
{
    LANE_SWEEP(xl[cols[e]] + vals[e])
}

/* BFS (c = 1.0), label propagation (c = stride): message + constant. */
void min_plus_c(int64_t k, int64_t n_groups, int64_t n,
                const int64_t *group_starts, int64_t edges,
                const int64_t *cols, double c,
                const double *x, double *out)
{
    LANE_SWEEP(xl[cols[e]] + c)
}

/* Connected components: the message unchanged. */
void min_first(int64_t k, int64_t n_groups, int64_t n,
               const int64_t *group_starts, int64_t edges,
               const int64_t *cols, const double *x, double *out)
{
    LANE_SWEEP(xl[cols[e]])
}
