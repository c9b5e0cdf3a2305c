"""Hot numeric kernels: exact-greedy split search and the SMO dual solver.

Both are plain scalar loops over numpy arrays. At the study's sizes (tree
nodes of a few to 19 rows, 19-row Gram matrices) a vectorised split scan
measured no faster than this one, so these loops are the only
implementation.
"""

from __future__ import annotations

import numpy as np

# Run records note which kernel path ran; these loops are the only one.
NUMBA_ENABLED = False


def best_split_kernel(xt, g, reg_lambda, reg_alpha, gamma):
    """Scan every (column, midpoint) candidate and return the best split.

    xt: (n_cols, n_rows) array, one candidate feature per row, C order.
    g: per-sample gradient. Under squared error every hessian is 1, so a
    side's hessian sum in the second-order gain is its row count.
    Returns (gain, column index into xt, threshold); column is -1 when no
    candidate exists (all columns constant). Ties keep the first candidate
    in (column, ascending threshold) order, so callers must pass columns in
    ascending original-feature order.
    """
    n_cols, n = xt.shape
    total_g = 0.0
    for i in range(n):
        total_g += g[i]
    total_h = float(n)

    best_gain = -np.inf
    best_col = -1
    best_thr = 0.0
    for j in range(n_cols):
        col = xt[j]
        order = np.argsort(col, kind="mergesort")
        gl = 0.0
        for pos in range(n - 1):
            idx = order[pos]
            gl += g[idx]
            v = col[idx]
            v_next = col[order[pos + 1]]
            if v == v_next:
                continue
            hl = pos + 1.0
            gr = total_g - gl
            hr = total_h - hl
            tl = max(abs(gl) - reg_alpha, 0.0)
            tr = max(abs(gr) - reg_alpha, 0.0)
            tp = max(abs(gl + gr) - reg_alpha, 0.0)
            gain = (
                0.5
                * (
                    tl * tl / (hl + reg_lambda)
                    + tr * tr / (hr + reg_lambda)
                    - tp * tp / (hl + hr + reg_lambda)
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

    Returns (beta, max_up, min_low, n_iter, converged): max_up / min_low
    bracket the feasible bias interval at termination; their gap is the
    stopping measure compared against tol.
    """
    n = y.shape[0]
    beta = np.zeros(n)
    v = np.zeros(n)  # K @ beta, maintained incrementally
    max_up = -np.inf
    min_low = np.inf
    it = 0
    while True:
        # Maximal violating pair: i may move up, j may move down.
        i_up = -1
        up_best = -np.inf
        i_low = -1
        low_best = np.inf
        for t in range(n):
            e = y[t] - v[t]
            bt = beta[t]
            if bt < C:
                s = e - eps if bt >= 0.0 else e + eps
                if s > up_best:
                    up_best = s
                    i_up = t
            if bt > -C:
                s = e - eps if bt > 0.0 else e + eps
                if s < low_best:
                    low_best = s
                    i_low = t
        max_up = up_best
        min_low = low_best
        if i_up < 0 or i_low < 0 or up_best - low_best <= tol:
            return beta, max_up, min_low, it, True
        if it >= max_iter:
            return beta, max_up, min_low, it, False
        it += 1

        i = i_up
        j = i_low
        bi = beta[i]
        bj = beta[j]
        # Direction beta[i] += s, beta[j] -= s preserves sum(beta).
        rho = K[i, i] + K[j, j] - 2.0 * K[i, j]
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
        for stop_idx in range(3):
            if stop_idx == 0:
                seg_end = k1
            elif stop_idx == 1:
                seg_end = k2
            else:
                seg_end = s_box
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
            beta[j] = -C
        elif s_opt == bj:
            beta[j] = 0.0
        else:
            beta[j] = bj - s_opt

        d_i = beta[i] - bi
        d_j = beta[j] - bj
        for t in range(n):
            v[t] += K[t, i] * d_i + K[t, j] * d_j

