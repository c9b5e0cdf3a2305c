"""Hot numeric kernels: exact-greedy split search and the SMO dual solver.

The split scan is a plain scalar loop on Python floats: at the study's
sizes (tree nodes of a few to 19 rows) reading one element of a numpy array
creates a numpy scalar, which costs more than the arithmetic it feeds. It
takes lists that `gbrt.fit` builds once per fit: the feature columns, each
candidate column's rows presorted by value and partitioned down to the
node, and the gradients, so it neither sorts nor converts; its
per-candidate denominators depend only on the node's row count and
reg_lambda, and come from a small cache.

The scan prices a candidate's parent term only when the candidate can
still win. Its gain is 0.5 * (s - p) - gamma, computed in that order, with
s the sum of the two side terms and p >= 0 the parent term. IEEE rounding
is monotone, so the computed s - p is at most s (or NaN) and the computed
gain is at most the computed 0.5 * s - gamma (or NaN). When that bound is
<= best_gain, the gain cannot pass the strict `gain > best_gain`, and the
candidate is skipped; a NaN bound fails the `<=` and is priced as before.

SMO runs in C (`_smo.c`), built with `cc` at the first solve and cached in
this package's `__pycache__` under the hash of its source, its flags and
the machine. Each iteration walks the coefficients once: that pass both
adds the last step to v = K @ beta and selects the next pair. SMO keeps
each coefficient's set membership as two offsets beside beta, reset only
for the two coefficients a step moves, so that pass adds an offset to e
instead of branching on beta. C doubles are IEEE doubles like float64, and
with contraction off (no fused multiply-add) and no fast-math each
operation rounds once, in the order written, so the loop returns bit for
bit what the same loop returns on numpy scalars; the tests keep that loop
as the oracle. The compiled loop is the only implementation.

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

import ctypes
import functools
import os
import platform
import shutil
import struct
import tempfile
from pathlib import Path

import numpy as np

INF = float("inf")

# Kept only because perfbench/run.py records it; nothing in pervml reads it.
NUMBA_ENABLED = False

# SMO prefixes shared across C, or None: {(K bytes, y bytes): {(eps and tol
# bytes, max_iter): (C, n_iter, beta then v as one float64 array)}}, one
# entry per key, from the largest C so far. tuning.grid_search makes it a
# dict while it scores its grid and sets it back to None, so every other
# call is cold.
_smo_prefixes = None

# The compiled SMO loop. Contraction off keeps every product rounded on its
# own; -ffast-math or -march could fuse or reorder and change the bits.
_SMO_SOURCE = Path(__file__).with_name("_smo.c")
_SMO_CACHE = Path(__file__).with_name("__pycache__")
_CC = ("cc", "-std=c99", "-O2", "-pipe", "-fPIC", "-shared", "-ffp-contract=off")
_INT64_MAX = 2**63 - 1
_smo = None  # pervml_smo from the loaded library, once the first solve loads it


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


def _load_smo(cache):
    """pervml_smo from the library in `cache` that matches this source, these
    flags and this machine, built first if there is none. A cache that cannot
    be written is replaced by a private temporary directory."""
    # Imported here, at the first solve: they add about 9 ms to `import pervml`.
    import hashlib
    import subprocess

    source = _SMO_SOURCE.read_bytes()
    tag = "\0".join((*_CC, platform.machine())).encode()
    name = f"_smo-{hashlib.sha256(source + tag).hexdigest()[:16]}.so"
    path = os.path.join(cache, name)
    private = None
    if not os.path.exists(path):
        try:
            os.makedirs(cache, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix=name + ".", dir=cache)
        except OSError:
            private = tempfile.mkdtemp(prefix="pervml-")
            path = os.path.join(private, name)
            fd, tmp = tempfile.mkstemp(prefix=name + ".", dir=private)
        os.close(fd)
        command = [*_CC, "-o", tmp, str(_SMO_SOURCE)]
        try:
            try:
                done = subprocess.run(command, capture_output=True, text=True)
                failure = done.returncode and f"exited {done.returncode}: {done.stderr.strip()}"
            except OSError as exc:
                failure = f"failed: {exc}"
            if failure:
                raise RuntimeError(
                    f"svr needs a C compiler to build its solver: `{' '.join(command)}` {failure}"
                )
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    try:
        smo = ctypes.CDLL(path).pervml_smo
    finally:
        if private is not None:
            # A loaded library stays mapped after its file is removed.
            shutil.rmtree(private, ignore_errors=True)
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    p64 = ctypes.POINTER(i64)
    smo.argtypes = (i64, ptr, ptr, f64, f64, f64, i64, ptr, p64, ptr, ptr, p64)
    smo.restype = ctypes.c_int
    return smo


def smo_solve(K, y, C, eps, tol, max_iter):
    """Pairwise coordinate ascent on the epsilon-insensitive dual.

    Works on the signed coefficients beta = alpha - alpha*, box [-C, C],
    sum(beta) = 0. Each iteration picks the maximal violating pair, then
    maximizes the dual exactly along the feasible direction (the objective
    is piecewise quadratic with kinks where a coefficient crosses zero).
    K is (n, n) and y has n entries, both taken as C-ordered float64 (a
    mismatch raises ValueError); C, eps and tol are floats, C > 0 (SvrParams
    checks it). max_iter is clamped to [0, 2**63 - 1]. K and y must be
    finite, which svr.fit guarantees by raising otherwise; an inf or nan
    entry leaves the dual undefined. The loop runs in C (`_smo.c`); the
    first call builds or loads it and raises RuntimeError, naming the
    command, when no C compiler can build it.

    Each iteration walks the coefficients once. That pass adds the last
    step to v = K @ beta, as `v[t] + (K[t, i]*d_i + K[t, j]*d_j)`, and picks
    the next pair from e = y - v, the first index winning a tie. The first
    pass adds a zero step read from beta itself, not from K, so an empty
    problem reads no column. K is read by column, since a Gram matrix from
    BLAS need not be exactly symmetric.

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
    global _smo
    K = np.ascontiguousarray(K, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    n = y.shape[0] if y.ndim == 1 else -1
    if K.shape != (n, n):
        raise ValueError(f"K must be (n, n) for y of n entries; got K {K.shape}, y {y.shape}")
    store = _smo_prefixes
    prefixes = prefix = None
    if store is not None:
        prefixes = store.setdefault((K.tobytes(), y.tobytes()), {})
        key = (struct.pack("2d", eps, tol), max_iter)
        prefix = prefixes.get(key)
    # Only a run at a larger C than the stored prefix's can lengthen it.
    sharing = prefixes is not None and (prefix is None or C > prefix[0])
    if prefix is not None and C >= prefix[0]:
        n_iter = ctypes.c_int64(prefix[1])
        state = prefix[2].copy()
    else:
        n_iter = ctypes.c_int64(0)
        state = np.zeros(2 * n)
    snap = np.empty(2 * n) if sharing else None
    snap_iter = ctypes.c_int64()
    bounds = (ctypes.c_double * 2)()
    if _smo is None:
        _smo = _load_smo(_SMO_CACHE)
    flags = _smo(
        n, K.ctypes.data, y.ctypes.data, C, eps, tol, min(max(max_iter, 0), _INT64_MAX),
        state.ctypes.data, ctypes.byref(n_iter), bounds,
        None if snap is None else snap.ctypes.data, ctypes.byref(snap_iter),
    )
    if flags < 0:
        raise MemoryError("SMO could not allocate its offsets")
    if sharing:
        prefixes[key] = (C, snap_iter.value, snap) if flags & 2 else (C, n_iter.value, state)
    return state[:n].copy(), bounds[0], bounds[1], n_iter.value, bool(flags & 1)
