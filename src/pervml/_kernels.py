"""The compiled kernels: gbrt's boosting rounds and tree walk, and the SMO solver.

The loops are C (`_gbrt.c`, `_smo.c`), built into one library with `cc`
at the first call that needs it and cached in this package's `__pycache__`
under the hash of the sources, the flags and the machine. Without a C
compiler the first call raises RuntimeError naming the command, and every
later call in the process raises it again without running `cc`. C doubles
are IEEE doubles like float64, and with contraction off (no fused
multiply-add) and no fast-math each operation rounds once, in the order
written, so each loop returns bit for bit what the same loop returns on
Python floats or numpy scalars; the tests keep those loops as the oracles.
The compiled loops are the only implementation.

`gbrt.fit` makes one call per fit, which runs every boosting round, and
`gbrt.TreeEnsemble.predict_stages` one, which walks every row through the
node tables; `best_split_kernel` enters the same scan for one node, and
`gbrt.build_tree` makes the fit's call for one round.

SMO's pass walks the coefficients once per iteration: that pass both adds
the last step to v = K @ beta and selects the next pair. SMO keeps each
coefficient's set membership as two offsets beside beta, reset only for
the two coefficients a step moves, so that pass adds an offset to e
instead of branching on beta.

Every SMO run starts cold, at beta = 0, and depends only on (K, y, C,
eps, tol, max_iter); `svr.stage_predictions` solves each distinct C of a
path cold on the path's one Gram matrix.
"""

from __future__ import annotations

import ctypes
import os
import platform
import shutil
import tempfile
from pathlib import Path

import numpy as np

# Kept only because perfbench/run.py records it; nothing in pervml reads it.
NUMBA_ENABLED = False

# The compiled loops. Contraction off keeps every product rounded on its
# own; -ffast-math or -march could fuse or reorder and change the bits.
_SOURCES = (Path(__file__).with_name("_smo.c"), Path(__file__).with_name("_gbrt.c"))
_CACHE = Path(__file__).with_name("__pycache__")
_CC = ("cc", "-std=c99", "-O2", "-pipe", "-fPIC", "-shared", "-ffp-contract=off")
INT64_MAX = 2**63 - 1
_lib = None  # the loaded library, once the first call that needs it loads it
_build_error = None  # the RuntimeError of a failed build, raised again by every later call


def library():
    """The compiled kernels, built or loaded at the first call. A failed build
    is remembered, so later calls raise the same RuntimeError at once."""
    global _lib, _build_error
    if _lib is None:
        if _build_error is not None:
            raise _build_error
        try:
            _lib = _load(_CACHE)
        except RuntimeError as exc:
            _build_error = exc
            raise
    return _lib


def _load(cache):
    """The library in `cache` that matches these sources, these flags and this
    machine, built first if there is none. A cache that cannot be written is
    replaced by a private temporary directory."""
    # Imported here, at the first load: they add about 9 ms to `import pervml`.
    import hashlib
    import subprocess

    source = b"".join(path.read_bytes() for path in _SOURCES)
    tag = "\0".join((*_CC, platform.machine())).encode()
    name = f"_kernels-{hashlib.sha256(source + tag).hexdigest()[:16]}.so"
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
        command = [*_CC, "-o", tmp, *map(str, _SOURCES)]
        try:
            try:
                done = subprocess.run(command, capture_output=True, text=True)
                failure = done.returncode and f"exited {done.returncode}: {done.stderr.strip()}"
            except OSError as exc:
                failure = f"failed: {exc}"
            if failure:
                raise RuntimeError(
                    f"pervml needs a C compiler to build its kernels: `{' '.join(command)}` {failure}"
                )
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    try:
        lib = ctypes.CDLL(path)
    finally:
        if private is not None:
            # A loaded library stays mapped after its file is removed.
            shutil.rmtree(private, ignore_errors=True)
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    p64 = ctypes.POINTER(i64)
    lib.pervml_smo.argtypes = (i64, ptr, ptr, f64, f64, f64, i64, ptr, p64, ptr)
    lib.pervml_smo.restype = ctypes.c_int
    lib.pervml_gbrt_best_split.argtypes = (i64, ptr, i64, ptr, ptr, i64, ptr, ptr, f64, f64, f64, ptr)
    lib.pervml_gbrt_fit.argtypes = (
        i64, ptr, ptr, ptr, i64, ptr, i64, ptr, i64, i64, ptr,
        i64, f64, f64, f64, f64, f64, i64, ptr, ptr, ptr, ptr,
    )
    lib.pervml_gbrt_predict.argtypes = (i64, i64, ptr, i64, ptr, ptr, ptr, f64, i64, ptr, ptr)
    for name in ("best_split", "fit", "predict"):
        getattr(lib, f"pervml_gbrt_{name}").restype = i64
    return lib


def indices(a, n, what) -> np.ndarray:
    """a as a C-ordered int64 array of numbers in [0, n); the compiled loops
    index by them, so any other value raises ValueError."""
    a = np.ascontiguousarray(a, dtype=np.int64)
    if a.size and not (a.min() >= 0 and a.max() < n):
        raise ValueError(f"{what} must lie in [0, {n})")
    return a


def best_split_kernel(cols, orders, rows, g, reg_lambda, reg_alpha, gamma):
    """Scan every (column, midpoint) candidate of one node and return the best split.

    cols: candidate feature columns, each holding a value for every row
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

    This is the scan `gbrt.fit` runs at every node, in C (`_gbrt.c`).
    """
    g = np.ascontiguousarray(g, dtype=np.float64)
    rows = indices(rows, len(g), "rows")
    # Reshaped, since an empty list of columns has no shape to take.
    cols = np.ascontiguousarray(cols, dtype=np.float64).reshape(len(cols), len(g))
    orders = indices(orders, len(g), "orders").reshape(len(cols), len(rows))
    columns = np.arange(len(cols), dtype=np.int64)
    best = (ctypes.c_double * 2)()
    col = library().pervml_gbrt_best_split(
        len(g), cols.ctypes.data, len(cols), columns.ctypes.data, orders.ctypes.data,
        len(rows), rows.ctypes.data, g.ctypes.data, reg_lambda, reg_alpha, gamma, best,
    )
    return best[0], col, best[1]


def smo_solve(K, y, C, eps, tol, max_iter):
    """Pairwise coordinate ascent on the epsilon-insensitive dual.

    Works on the signed coefficients beta = alpha - alpha*, box [-C, C],
    sum(beta) = 0. Each iteration picks the maximal violating pair, then
    maximizes the dual exactly along the feasible direction (the objective
    is piecewise quadratic with kinks where a coefficient crosses zero).
    K is (n, n) and y has n entries, both taken as C-ordered float64 (a
    mismatch raises ValueError); C, eps and tol are floats, C > 0 (SvrParams
    checks it). max_iter is clamped to [0, 2**63 - 1]. K and y must be
    finite, which svr guarantees by raising otherwise; an inf or nan
    entry leaves the dual undefined. The loop runs in C (`_smo.c`); the
    first call builds or loads the library (module docstring).

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

    Each call starts cold at beta = 0 and n_iter = 0, so its result
    depends on its arguments alone.

    Returns (beta, max_up, min_low, n_iter, converged): beta is a float64
    array; max_up / min_low bracket the feasible bias interval at
    termination; their gap is the stopping measure compared against tol.
    """
    K = np.ascontiguousarray(K, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    n = y.shape[0] if y.ndim == 1 else -1
    if K.shape != (n, n):
        raise ValueError(f"K must be (n, n) for y of n entries; got K {K.shape}, y {y.shape}")
    beta = np.empty(n)
    n_iter = ctypes.c_int64()
    bounds = (ctypes.c_double * 2)()
    converged = library().pervml_smo(
        n, K.ctypes.data, y.ctypes.data, C, eps, tol, min(max(max_iter, 0), INT64_MAX),
        beta.ctypes.data, ctypes.byref(n_iter), bounds,
    )
    if converged < 0:
        raise MemoryError("SMO could not allocate its work arrays")
    return beta, bounds[0], bounds[1], n_iter.value, bool(converged)
