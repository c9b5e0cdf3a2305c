"""Hot numeric kernels: exact-greedy split search and the SMO dual solver.

Both are plain scalar loops on Python floats. Each kernel turns its numpy
inputs into lists once per call with `.tolist()`: at the study's sizes
(tree nodes of a few to 19 rows, 19-row Gram matrices) reading one element
of a numpy array creates a numpy scalar, which costs more than the
arithmetic it feeds. Python floats are IEEE doubles like float64, so these
loops return, bit for bit, what the same loops return on numpy scalars;
the tests keep those as oracles. These loops are the only implementation.
"""

from __future__ import annotations

import numpy as np

# Run records note which kernel path ran; these loops are the only one.
NUMBA_ENABLED = False


def best_split_kernel(xt, g, reg_lambda, reg_alpha, gamma):
    """Scan every (column, midpoint) candidate and return the best split.

    xt: (n_cols, n_rows) array, one candidate feature per row.
    g: per-sample gradient array. Under squared error every hessian is 1,
    so a side's hessian sum in the second-order gain is its row count.
    Returns (gain, column index into xt, threshold); column is -1 when no
    candidate exists (all columns constant). Ties keep the first candidate
    in (column, ascending threshold) order, so callers must pass columns in
    ascending original-feature order. Rows are ordered by a stable sort, so
    equal values (0.0 and -0.0 among them) keep their row order.
    """
    n = xt.shape[1]
    g = g.tolist()
    total_g = 0.0
    for gi in g:
        total_g += gi
    total_h = float(n)
    # hl and hr are whole numbers, so hl + hr is exactly total_h at every
    # candidate and the parent's denominator is one number.
    parent_den = total_h + reg_lambda

    best_gain = -np.inf
    best_col = -1
    best_thr = 0.0
    for j, col in enumerate(xt.tolist()):
        order = sorted(range(n), key=col.__getitem__)
        xs = [col[k] for k in order]
        gl = 0.0
        for pos, (k, v, v_next) in enumerate(zip(order, xs, xs[1:])):
            gl += g[k]
            if v == v_next:
                continue
            hl = pos + 1.0
            gr = total_g - gl
            hr = total_h - hl
            # Each `0.0 if x < 0.0 else x` is max(x, 0.0) without the
            # cost of a builtin call.
            tl = abs(gl) - reg_alpha
            tl = 0.0 if tl < 0.0 else tl
            tr = abs(gr) - reg_alpha
            tr = 0.0 if tr < 0.0 else tr
            tp = abs(gl + gr) - reg_alpha
            tp = 0.0 if tp < 0.0 else tp
            gain = (
                0.5
                * (
                    tl * tl / (hl + reg_lambda)
                    + tr * tr / (hr + reg_lambda)
                    - tp * tp / parent_den
                )
                - gamma
            )
            if gain > best_gain:
                best_gain = gain
                best_col = j
                best_thr = (v + v_next) * 0.5
    return best_gain, best_col, best_thr


def smo_solve(K, y, C, eps, tol, max_iter):
    """Pairwise coordinate ascent on the epsilon-insensitive dual.

    Works on the signed coefficients beta = alpha - alpha*, box [-C, C],
    sum(beta) = 0. Each iteration picks the maximal violating pair, then
    maximizes the dual exactly along the feasible direction (the objective
    is piecewise quadratic with kinks where a coefficient crosses zero).
    K and y are float64 arrays; C, eps and tol are floats.

    Returns (beta, max_up, min_low, n_iter, converged): beta is a float64
    array; max_up / min_low bracket the feasible bias interval at
    termination; their gap is the stopping measure compared against tol.
    """
    # cols[j][t] is K[t, j]. The update of v reads columns of K, and a Gram
    # matrix from BLAS need not be exactly symmetric, so rows would not do.
    cols = K.T.tolist()
    y = y.tolist()
    n = len(y)
    beta = [0.0] * n
    v = [0.0] * n  # K @ beta, maintained incrementally
    neg_C = -C
    it = 0
    while True:
        # Maximal violating pair: i may move up, j may move down.
        i_up = -1
        up_best = -np.inf
        i_low = -1
        low_best = np.inf
        for t, (yt, vt, bt) in enumerate(zip(y, v, beta)):
            e = yt - vt
            if bt < C:
                s = e - eps if bt >= 0.0 else e + eps
                if s > up_best:
                    up_best = s
                    i_up = t
            if bt > neg_C:
                s = e - eps if bt > 0.0 else e + eps
                if s < low_best:
                    low_best = s
                    i_low = t
        if i_up < 0 or i_low < 0 or up_best - low_best <= tol:
            return np.array(beta, dtype=float), up_best, low_best, it, True
        if it >= max_iter:
            return np.array(beta, dtype=float), up_best, low_best, it, False
        it += 1

        i = i_up
        j = i_low
        bi = beta[i]
        bj = beta[j]
        col_i = cols[i]
        col_j = cols[j]
        # Direction beta[i] += s, beta[j] -= s preserves sum(beta).
        rho = col_i[i] + col_j[j] - 2.0 * col_j[i]
        deriv = up_best - low_best
        s_box = min(C - bi, bj + C)
        # Kinks where a coefficient crosses zero drop the derivative by
        # 2*eps each; at most two of them inside (0, s_box).
        k1 = -bi if bi < 0.0 else np.inf
        k2 = bj if bj > 0.0 else np.inf
        if k2 < k1:
            k1, k2 = k2, k1

        s_opt = s_box
        s_prev = 0.0
        for seg_end in (k1, k2, s_box):
            if seg_end > s_box:
                seg_end = s_box
            seg_len = seg_end - s_prev
            if seg_len > 0.0:
                if rho > 0.0 and deriv / rho <= seg_len:
                    s_opt = s_prev + deriv / rho
                    break
                deriv -= rho * seg_len
                s_prev = seg_end
            if seg_end == s_box:
                s_opt = s_box
                break
            deriv -= 2.0 * eps
            if deriv <= 0.0:
                s_opt = seg_end
                break

        # Land exactly on box / zero boundaries hit by s_opt.
        if s_opt == C - bi:
            beta[i] = C
        elif s_opt == -bi:
            beta[i] = 0.0
        else:
            beta[i] = bi + s_opt
        if s_opt == bj + C:
            beta[j] = neg_C
        elif s_opt == bj:
            beta[j] = 0.0
        else:
            beta[j] = bj - s_opt

        d_i = beta[i] - bi
        d_j = beta[j] - bj
        v = [vt + (a * d_i + b * d_j) for vt, a, b in zip(v, col_i, col_j)]
