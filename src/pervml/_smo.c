/* SMO on the epsilon-insensitive dual: the loop behind _kernels.smo_solve.

   Built with -ffp-contract=off and without -ffast-math, so every operation
   below rounds once, as an IEEE double, in the order written: the result is
   bit for bit the one the same loop gives on Python floats or numpy scalars.
   See smo_solve's docstring for the method. Every run starts cold, at
   beta = 0, from the problem alone. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* K: n x n, row-major, read by column (K[t*n + i] is K[t, i]): a Gram
   matrix from BLAS need not be exactly symmetric. beta: n doubles that
   receive the coefficients. iter: the step count on return. bounds:
   max_up and min_low on return.
   Returns 1 when converged, 0 at the cap, or -1 when memory runs out. */
int pervml_smo(int64_t n, const double *K, const double *y, double C,
               double eps, double tol, int64_t max_iter, double *beta,
               int64_t *iter, double *bounds)
{
    double *v = malloc((size_t)(3 * n + 1) * sizeof(double)); /* v = K @ beta */
    double *up = v + n, *low = up + n;
    const double *col_i = beta, *col_j = beta; /* the first move is zero along beta */
    int64_t stride = 1, i = -1, j = -1, t, it = 0;
    double neg_C = -C, two_eps = 2.0 * eps, d_i = 0.0, d_j = 0.0;
    double up_best, low_best;

    if (v == NULL)
        return -1;
    /* beta = 0: every coefficient is in the up set at -eps and the low set at +eps. */
    for (t = 0; t < n; t++) {
        beta[t] = v[t] = 0.0;
        up[t] = -eps;
        low[t] = eps;
    }
    for (;;) {
        /* Add the last move to v; pick the maximal violating pair, i up, j down. */
        i = -1;
        up_best = -INFINITY;
        j = -1;
        low_best = INFINITY;
        for (t = 0; t < n; t++) {
            double vt = v[t] + (col_i[t * stride] * d_i + col_j[t * stride] * d_j);
            double e = y[t] - vt;
            v[t] = vt;
            if (e + up[t] > up_best) {
                up_best = e + up[t];
                i = t;
            }
            if (e + low[t] < low_best) {
                low_best = e + low[t];
                j = t;
            }
        }
        if (i < 0 || j < 0 || up_best - low_best <= tol || it >= max_iter)
            break;
        it += 1;

        double bi = beta[i], bj = beta[j];
        col_i = K + i;
        col_j = K + j;
        stride = n;
        /* Direction beta[i] += s, beta[j] -= s preserves sum(beta). */
        double rho = col_i[i * n] + col_j[j * n] - 2.0 * col_j[i * n];
        double deriv = up_best - low_best;
        double s_box = C - bi;
        if (bj + C < s_box)
            s_box = bj + C;
        /* Kinks where a coefficient crosses zero drop the derivative by
           2*eps each; at most two of them inside (0, s_box). */
        double k1 = bi < 0.0 ? -bi : INFINITY;
        double k2 = bj > 0.0 ? bj : INFINITY;
        if (k2 < k1) {
            double k = k1;
            k1 = k2;
            k2 = k;
        }

        double ends[3] = {k1, k2, s_box};
        double s_opt = s_box, s_prev = 0.0;
        for (int seg = 0; seg < 3; seg++) {
            double seg_end = ends[seg];
            if (seg_end > s_box)
                seg_end = s_box;
            double seg_len = seg_end - s_prev;
            if (seg_len > 0.0) {
                if (rho > 0.0) {
                    double q = deriv / rho;
                    if (q <= seg_len) {
                        s_opt = s_prev + q;
                        break;
                    }
                }
                deriv -= rho * seg_len;
                s_prev = seg_end;
            }
            if (seg_end == s_box) {
                s_opt = s_box;
                break;
            }
            deriv -= two_eps;
            if (deriv <= 0.0) {
                s_opt = seg_end;
                break;
            }
        }

        /* Land exactly on box / zero boundaries hit by s_opt. */
        double bi_new, bj_new;
        if (s_opt == C - bi)
            bi_new = C;
        else if (s_opt == -bi)
            bi_new = 0.0;
        else
            bi_new = bi + s_opt;
        if (s_opt == bj + C)
            bj_new = neg_C;
        else if (s_opt == bj)
            bj_new = 0.0;
        else
            bj_new = bj - s_opt;
        beta[i] = bi_new;
        beta[j] = bj_new;
        d_i = bi_new - bi;
        d_j = bj_new - bj;
        /* Only beta[i] and beta[j] moved, so only their offsets change. */
        up[i] = bi_new < C ? (bi_new >= 0.0 ? -eps : eps) : -INFINITY;
        low[i] = bi_new > neg_C ? (bi_new > 0.0 ? -eps : eps) : INFINITY;
        up[j] = bj_new < C ? (bj_new >= 0.0 ? -eps : eps) : -INFINITY;
        low[j] = bj_new > neg_C ? (bj_new > 0.0 ? -eps : eps) : INFINITY;
    }
    free(v);
    *iter = it;
    bounds[0] = up_best;
    bounds[1] = low_best;
    return i < 0 || j < 0 || up_best - low_best <= tol;
}
