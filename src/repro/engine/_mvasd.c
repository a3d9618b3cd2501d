/*
 * Fused MVASD population recursion: the native twin of the NumPy loop in
 * repro/engine/batched.py (_mvasd_levels_numpy).
 *
 * The scenario loop is outermost, so one scenario's K x (N+1) marginal
 * vectors stay in L1 for all N population levels, and no (S, n)
 * temporaries are built.  The results are bit-identical to the NumPy
 * loop because every value is computed with the same floating-point
 * operations in the same order:
 *
 *   - every reduction the loop does with ndarray.sum() goes through
 *     pairwise_sum / pairwise_dot, which reproduce NumPy's pairwise
 *     summation (plain accumulation below 8 elements, 8 accumulators up
 *     to 128, recursive halving above);
 *   - x*D / min(j, C) is the same quotient for every j >= C, so it is
 *     computed once;
 *   - the renormalisation is a true division by the total;
 *   - the file is compiled with -ffp-contract=off (no fused multiply-add)
 *     and without -ffast-math or -march=native.
 */

#include <stdint.h>
#include <string.h>

#define PW_BLOCKSIZE 128

/* NumPy's pairwise summation of a[0..n) (numpy/_core/src/umath/loops_utils.h.src). */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.;
        for (int64_t i = 0; i < n; i++) {
            res += a[i];
        }
        return res;
    }
    if (n <= PW_BLOCKSIZE) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++) {
            r[j] = a[j];
        }
        for (i = 8; i < n - (n % 8); i += 8) {
            for (int j = 0; j < 8; j++) {
                r[j] += a[i + j];
            }
        }
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) {
            res += a[i];
        }
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* pairwise_sum of the products w[j] * p[j], without storing them. */
static double pairwise_dot(const double *w, const double *p, int64_t n)
{
    if (n < 8) {
        double res = 0.;
        for (int64_t i = 0; i < n; i++) {
            res += w[i] * p[i];
        }
        return res;
    }
    if (n <= PW_BLOCKSIZE) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++) {
            r[j] = w[j] * p[j];
        }
        for (i = 8; i < n - (n % 8); i += 8) {
            for (int j = 0; j < 8; j++) {
                r[j] += w[i + j] * p[i + j];
            }
        }
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) {
            res += w[i] * p[i];
        }
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_dot(w, p, n2) + pairwise_dot(w + n2, p + n2, n - n2);
}

/*
 * Advance one station's marginals p(0..n-1 | n-1) to p(0..n | n), given
 * xd = X^n * D.  On entry the caller has moved the window down one slot,
 * so p[j] already holds the old p(j-1 | n-1) for j = 1..n and the new
 * tail p(j | n) = (xd / min(j, C)) * p(j-1 | n-1) is an in-place scaling.
 */
static void update_marginals(double *p, int64_t n, double xd, int64_t servers)
{
    int64_t j = 1;
    for (; j <= n && j < servers; j++) {
        p[j] = (xd / (double)j) * p[j];
    }
    const double scale = xd / (double)servers;
    for (; j <= n; j++) {
        p[j] = scale * p[j];
    }
    const double head = 1.0 - pairwise_sum(p + 1, n);
    p[0] = (0.0 >= head) ? 0.0 : head; /* np.maximum(0.0, head), NaN kept */
    const double total = pairwise_sum(p, n + 1);
    /* Dividing by exactly 1.0 changes nothing, so that case is skipped. */
    if (total > 0 && total != 1.0) {
        for (j = 0; j <= n; j++) {
            p[j] /= total;
        }
    }
}

/*
 * MVASD over S scenarios of N levels and K stations, from level `start`.
 *
 * demands   (S, N, K)  per-level demands SS_k^n
 * think     (S,)       think times
 * servers   (K,)       server counts, as doubles
 * is_queue  (K,)       1 for a queueing station, 0 for a delay station
 * weights   (K, N)     j / min(j, C_k) for j = 1..N, per station
 * init_p    (S, K, start+1)  p(0..start | start), per station
 * init_q    (S, K)     queue lengths at level `start`
 * marginals (K, N+1)   marginal windows, one per station (work space)
 * r_k, q    (K,)       work space
 * xs, rs    (S, N)     throughput, response time, from row `start` on
 * qs, rks, utils (S, N, K)
 * hist      (S, N, K, c_max) or NULL: p(0..C_k-1 | n) of every queueing
 *           station with C_k > 1, zero above n
 * final_p   (S, K, N+1) or NULL: every station's p(0..N | N)
 */
void mvasd_recursion(int64_t s, int64_t n_levels, int64_t k,
                     const double *demands, const double *think,
                     const double *servers, const int8_t *is_queue,
                     int single_server, const double *weights,
                     int64_t start, const double *init_p, const double *init_q,
                     double *marginals, double *r_k, double *q,
                     double *xs, double *rs, double *qs, double *rks,
                     double *utils, int64_t c_max, double *hist, double *final_p)
{
    const int64_t stride = n_levels + 1;
    for (int64_t si = 0; si < s; si++) {
        const double *dm = demands + si * n_levels * k;
        const double z = think[si];
        /* Each station's p(0..n | n) starts at marginals[N - n]: a level's
         * update moves the window one slot down, which is the j -> j-1
         * shift of the recursion without moving any data. */
        for (int64_t st = 0; st < k; st++) {
            memcpy(marginals + st * stride + n_levels - start,
                   init_p + (si * k + st) * (start + 1), (start + 1) * sizeof(double));
            q[st] = init_q[si * k + st];
        }
        for (int64_t i = start; i < n_levels; i++) {
            const int64_t n = i + 1;
            const double *d = dm + i * k;
            for (int64_t st = 0; st < k; st++) {
                if (!is_queue[st]) {
                    r_k[st] = d[st];
                } else if (single_server) {
                    r_k[st] = (d[st] / servers[st]) * (1.0 + q[st]);
                } else {
                    const double *p = marginals + st * stride + (n_levels - i);
                    r_k[st] = d[st] * pairwise_dot(weights + st * n_levels, p, n);
                }
            }
            const double r_total = pairwise_sum(r_k, k);
            const double x = (double)n / (r_total + z);
            const int64_t out = (si * n_levels + i) * k;
            for (int64_t st = 0; st < k; st++) {
                q[st] = x * r_k[st];
                qs[out + st] = q[st];
                rks[out + st] = r_k[st];
                utils[out + st] = x * d[st] / servers[st];
            }
            xs[si * n_levels + i] = x;
            rs[si * n_levels + i] = r_total;
            if (!single_server) {
                for (int64_t st = 0; st < k; st++) {
                    if (is_queue[st]) {
                        double *p = marginals + st * stride + (n_levels - n);
                        update_marginals(p, n, x * d[st], (int64_t)servers[st]);
                    }
                }
            }
            for (int64_t st = 0; st < k && hist != NULL; st++) {
                if (is_queue[st] && servers[st] > 1) {
                    const double *p = marginals + st * stride + (n_levels - n);
                    double *row = hist + ((si * n_levels + i) * k + st) * c_max;
                    for (int64_t j = 0; j < (int64_t)servers[st]; j++) {
                        row[j] = (j <= n) ? p[j] : 0.0;
                    }
                }
            }
        }
        if (final_p != NULL) {
            memcpy(final_p + si * k * stride, marginals, k * stride * sizeof(double));
        }
    }
}
