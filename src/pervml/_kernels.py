"""Hot numeric kernels: exact-greedy split search and the SMO dual solver.

Both are plain scalar loops on Python floats: at the study's sizes (tree
nodes of a few to 19 rows, 19-row Gram matrices) reading one element of a
numpy array creates a numpy scalar, which costs more than the arithmetic it
feeds. The split scan takes lists that `gbrt.fit` builds once per fit: the
feature columns, each candidate column's rows presorted by value and
partitioned down to the node, and the gradients, so it neither sorts nor
converts; its per-candidate denominators depend only on the node's row
count and reg_lambda, and come from a small cache.

The scan prices a candidate's parent term only when the candidate can
still win. Its gain is 0.5 * (s - p) - gamma, computed in that order, with
s the sum of the two side terms and p >= 0 the parent term. IEEE rounding
is monotone, so the computed s - p is at most s (or NaN) and the computed
gain is at most the computed 0.5 * s - gamma (or NaN). When that bound is
<= best_gain, the gain cannot pass the strict `gain > best_gain`, and the
candidate is skipped; a NaN bound fails the `<=` and is priced as before.

SMO turns its numpy inputs into lists once per call with `.tolist()`, and
each of its iterations walks the coefficients once: that pass both adds the
last step to v = K @ beta and selects the next pair. SMO keeps each
coefficient's set membership as two offsets beside beta, reset only for the
two coefficients a step moves, so that pass adds an offset to e instead of
branching on beta. The pass zips its index with its lists, unpacking one
flat tuple, and stores e + offset only when it beats the best so far.
Python floats are IEEE doubles like float64, so these loops return, bit for
bit, what the same loops return on numpy scalars; the tests keep those as
oracles. These loops are the only implementation.

SMO runs at different C on one problem (K, y, eps, tol, max_iter) share a
prefix. Call a step box-free when s_opt < s_box and both new coefficients
lie strictly inside (-C, C). Such a step, and the offsets it sets, are the
same under every C' >= C: a step reads C only in s_box = min(C - bi,
bj + C), in the two landing tests and in the offsets' comparisons with
+-C. IEEE rounding is monotone, so s_box' >= s_box, and each segment
before the one that breaks ends at an unclipped kink below s_box, the same
under C'. The breaking segment is at least as long under C' (a quadratic
break keeps its q, a kink break its kink). s_opt < s_box <= C' - bi and
<= bj + C' fails both landing tests under C' as under C. Coefficients
inside (-C, C) are inside (-C', C'), so the offsets agree. The pass reads
C only through the offsets. So a run at C' repeats, bit for bit, every
step of a run at C up to that run's first step that is not box-free, or
its return if there is none. There the run at C stores the state the step
starts from: n_iter, beta and v. Every coefficient of that state is inside
the box, so its offsets follow from beta's signs alone and are not stored.
A run at C' >= C resumes from it with a zero step: v is never -0.0 (a sum
is -0.0 only when both terms are, and v starts at +0.0), so v + 0.0 keeps
its bits, and the first pass picks the pair the stored run picked, or
returns where it returned.
"""

from __future__ import annotations

import functools
import struct
from array import array

import numpy as np

INF = float("inf")

# Run records note which kernel path ran; these loops are the only one.
NUMBA_ENABLED = False

# SMO prefixes shared across C, or None: {(K bytes, y bytes): {(eps and tol
# bytes, max_iter): (C, n_iter, beta + v as doubles)}}, one entry per key,
# from the largest C so far. tuning.grid_search makes it a dict while it
# scores its grid and sets it back to None, so every other call is cold.
_smo_prefixes = None


@functools.lru_cache(maxsize=256)
def _side_denominators(total_h, reg_lambda):
    """The split scan's side denominators: hl + reg_lambda and
    total_h - hl + reg_lambda for hl = 1.0, 2.0, ... below total_h, as two
    tuples. They depend only on the node's row count and reg_lambda, so
    split searches share them. reg_lambda's sign of zero, which the cache
    does not tell apart, changes no entry: hl and total_h - hl are >= 1."""
    den_l = []
    den_r = []
    hl = 1.0
    while hl < total_h:
        den_l.append(hl + reg_lambda)
        den_r.append(total_h - hl + reg_lambda)
        hl += 1.0
    return tuple(den_l), tuple(den_r)


def best_split_kernel(cols, orders, rows, g, reg_lambda, reg_alpha, gamma):
    """Scan every (column, midpoint) candidate of one node and return the best split.

    cols: candidate feature columns, each a list of values for every row
    of the fit. orders[j]: the node's rows in ascending order of cols[j]
    (stable, so equal values, 0.0 and -0.0 among them, keep row order).
    rows: the node's rows in ascending order. g: every row's gradient.
    Under squared error every hessian is 1, so a side's hessian sum in the
    second-order gain is its row count.
    Returns (gain, column index into cols, threshold); column is -1 when no
    candidate exists (all columns constant). The threshold is the midpoint
    of the two neighbouring values v < v_next, or v where the midpoint is
    not in [v, v_next), so a split never leaves a side empty. Ties keep the
    first candidate in (column, ascending threshold) order, so callers must
    pass columns in ascending original-feature order.
    """
    total_g = 0.0
    for r in rows:
        total_g += g[r]
    total_h = float(len(rows))
    # hl and hr are whole numbers, so hl + hr is exactly total_h at every
    # candidate and the parent's denominator is one number. The candidate
    # after the i-th row of any column has hl = i rows on its left, so the
    # sides' denominators are the same for every column, and for every node
    # with as many rows.
    parent_den = total_h + reg_lambda
    den_l, den_r = _side_denominators(total_h, reg_lambda)

    best_gain = -INF
    best_col = -1
    best_thr = 0.0
    for j, (col, order) in enumerate(zip(cols, orders)):
        xs = [col[k] for k in order]
        gl = 0.0
        for k, v, v_next, dl, dr in zip(order, xs, xs[1:], den_l, den_r):
            gl += g[k]
            if v == v_next:
                continue
            gr = total_g - gl
            # `x if x >= 0.0 else -x` is abs(x) up to the sign of a zero,
            # which squaring drops, and `0.0 if t < 0.0 else t` is
            # max(t, 0.0); neither pays for a builtin call.
            tl = (gl if gl >= 0.0 else -gl) - reg_alpha
            tl = 0.0 if tl < 0.0 else tl
            tr = (gr if gr >= 0.0 else -gr) - reg_alpha
            tr = 0.0 if tr < 0.0 else tr
            s = tl * tl / dl + tr * tr / dr
            # The parent term only lowers the gain (module docstring), so a
            # candidate whose bound cannot beat best_gain is not priced.
            if 0.5 * s - gamma <= best_gain:
                continue
            tp = gl + gr
            tp = (tp if tp >= 0.0 else -tp) - reg_alpha
            tp = 0.0 if tp < 0.0 else tp
            gain = 0.5 * (s - tp * tp / parent_den) - gamma
            if gain > best_gain:
                best_gain = gain
                best_col = j
                best_thr = (v + v_next) * 0.5
                # The midpoint of neighbouring subnormals can round up to
                # v_next, and near the largest float it overflows; then
                # only v itself still sends v left and v_next right.
                if not v <= best_thr < v_next:
                    best_thr = v
    return best_gain, best_col, best_thr


def smo_solve(K, y, C, eps, tol, max_iter):
    """Pairwise coordinate ascent on the epsilon-insensitive dual.

    Works on the signed coefficients beta = alpha - alpha*, box [-C, C],
    sum(beta) = 0. Each iteration picks the maximal violating pair, then
    maximizes the dual exactly along the feasible direction (the objective
    is piecewise quadratic with kinks where a coefficient crosses zero).
    K and y are float64 arrays; C, eps and tol are floats, C > 0 (SvrParams
    checks it). K and y must be finite, which svr.fit guarantees by raising
    otherwise; an inf or nan entry leaves the dual undefined.

    Each iteration walks the coefficients once. That pass adds the last
    step to v = K @ beta, as `v[t] + (K[t, i]*d_i + K[t, j]*d_j)`, and picks
    the next pair from e = y - v, the first index winning a tie. The first
    pass adds a zero step read from beta itself, not from K, so an empty
    problem reads no column.

    The pass does not branch on beta: it reads each coefficient's offsets
    up[t] and low[t] and tests s = e + up[t] and s = e + low[t], computing
    s again, to the same bits, only when it becomes the best so far. up[t] is
    -eps for 0 <= beta[t] < C, +eps for beta[t] < 0 and -inf for
    beta[t] >= C; low[t] is -eps for beta[t] > 0, +eps for
    -C < beta[t] <= 0 and +inf for beta[t] <= -C. After a step only
    beta[i] and beta[j] have moved, so only their offsets are reset. This
    is bit for bit the branching selection: e + (-eps) is exactly e - eps
    in IEEE 754, signed zeros included, and a coefficient that a set leaves
    out gets s = e - inf (up) or e + inf (low), an infinity or nan, which
    fails the strict `>` / `<` tests just as skipping it does.

    While `_smo_prefixes` is a dict, a run starts where an earlier run on
    the same K, y, eps, tol and max_iter at a C no larger than its own
    first touched its box (module docstring), and leaves there the point
    where it first touched its own box. The result is the cold run's, bit
    for bit; n_iter counts the steps of both runs' shared prefix.

    Returns (beta, max_up, min_low, n_iter, converged): beta is a float64
    array; max_up / min_low bracket the feasible bias interval at
    termination; their gap is the stopping measure compared against tol.
    """
    store = _smo_prefixes
    prefixes = prefix = None
    if store is not None:
        prefixes = store.setdefault((K.tobytes(), y.tobytes()), {})
        key = (struct.pack("2d", eps, tol), max_iter)
        prefix = prefixes.get(key)
    # Only a run at a larger C than the stored prefix's can lengthen it.
    sharing = prefixes is not None and (prefix is None or C > prefix[0])
    # cols[j][t] is K[t, j]. The update of v reads columns of K, and a Gram
    # matrix from BLAS need not be exactly symmetric, so rows would not do.
    cols = K.T.tolist()
    y = y.tolist()
    n = len(y)
    if prefix is not None and C >= prefix[0]:
        _, it, state = prefix
        state = state.tolist()
        beta = state[:n]
        v = state[n:]  # K @ beta, maintained incrementally
    else:
        it = 0
        beta = [0.0] * n
        v = [0.0] * n
    neg_C = -C
    two_eps = 2.0 * eps
    # Every coefficient of a start is strictly inside the box.
    up = [-eps if b >= 0.0 else eps for b in beta]
    low = [-eps if b > 0.0 else eps for b in beta]
    col_i = col_j = beta  # the first move is zero along beta
    d_i = d_j = 0.0
    while True:
        # Add the last move to v; pick the maximal violating pair, i up, j down.
        i = -1
        up_best = -INF
        j = -1
        low_best = INF
        for t, yt, vt, ut, lt, a, b in zip(range(n), y, v, up, low, col_i, col_j):
            v[t] = vt = vt + (a * d_i + b * d_j)
            e = yt - vt
            if e + ut > up_best:
                up_best = e + ut
                i = t
            if e + lt < low_best:
                low_best = e + lt
                j = t
        if i < 0 or j < 0 or up_best - low_best <= tol or it >= max_iter:
            break
        it += 1

        bi = beta[i]
        bj = beta[j]
        col_i = cols[i]
        col_j = cols[j]
        # Direction beta[i] += s, beta[j] -= s preserves sum(beta).
        rho = col_i[i] + col_j[j] - 2.0 * col_j[i]
        deriv = up_best - low_best
        s_box = C - bi
        if bj + C < s_box:
            s_box = bj + C
        # Kinks where a coefficient crosses zero drop the derivative by
        # 2*eps each; at most two of them inside (0, s_box).
        k1 = -bi if bi < 0.0 else INF
        k2 = bj if bj > 0.0 else INF
        if k2 < k1:
            k1, k2 = k2, k1

        s_opt = s_box
        s_prev = 0.0
        for seg_end in (k1, k2, s_box):
            if seg_end > s_box:
                seg_end = s_box
            seg_len = seg_end - s_prev
            if seg_len > 0.0:
                if rho > 0.0:
                    q = deriv / rho
                    if q <= seg_len:
                        s_opt = s_prev + q
                        break
                deriv -= rho * seg_len
                s_prev = seg_end
            if seg_end == s_box:
                s_opt = s_box
                break
            deriv -= two_eps
            if deriv <= 0.0:
                s_opt = seg_end
                break

        # Land exactly on box / zero boundaries hit by s_opt.
        if s_opt == C - bi:
            bi_new = C
        elif s_opt == -bi:
            bi_new = 0.0
        else:
            bi_new = bi + s_opt
        if s_opt == bj + C:
            bj_new = neg_C
        elif s_opt == bj:
            bj_new = 0.0
        else:
            bj_new = bj - s_opt
        # The first step that is not box-free ends the prefix that every
        # larger C shares: store the state this step starts from.
        if sharing and not (
            s_opt < s_box and neg_C < bi_new < C and neg_C < bj_new < C
        ):
            prefixes[key] = (C, it - 1, array("d", beta + v))
            sharing = False

        beta[i] = bi_new
        beta[j] = bj_new
        d_i = bi_new - bi
        d_j = bj_new - bj
        # Only beta[i] and beta[j] moved, so only their offsets change.
        up[i] = (-eps if bi_new >= 0.0 else eps) if bi_new < C else -INF
        low[i] = (-eps if bi_new > 0.0 else eps) if bi_new > neg_C else INF
        up[j] = (-eps if bj_new >= 0.0 else eps) if bj_new < C else -INF
        low[j] = (-eps if bj_new > 0.0 else eps) if bj_new > neg_C else INF

    if sharing:
        prefixes[key] = (C, it, array("d", beta + v))
    converged = i < 0 or j < 0 or up_best - low_best <= tol
    return np.array(beta, dtype=float), up_best, low_best, it, converged
