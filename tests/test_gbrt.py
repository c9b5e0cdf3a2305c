import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pervml import _kernels, gbrt
from pervml._kernels import best_split_kernel
from pervml.gbrt import GbrtParams, Tree, TreeEnsemble, build_tree, presort
from pervml.modelio import ModelIOError

from test_tuning import mse

STUMP_X = np.array([[0.0], [1.0]])
STUMP_Y = np.array([0.0, 1.0])


@dataclass(frozen=True)
class GradStats:
    """Accumulated first/second derivatives over a set of samples."""

    grad_sum: float
    hess_sum: float
    count: int


def split_gain(left: GradStats, right: GradStats, params: GbrtParams) -> float:
    """Regularized loss reduction of a split, minus the per-leaf penalty gamma.

    Uses the same expression, in the same operation order, as the split
    kernel so that enumerating candidates through this function reproduces
    the kernel's scores exactly.
    """
    gl, hl = left.grad_sum, left.hess_sum
    gr, hr = right.grad_sum, right.hess_sum
    alpha = params.reg_alpha
    lam = params.reg_lambda
    tl = max(abs(gl) - alpha, 0.0)
    tr = max(abs(gr) - alpha, 0.0)
    tp = max(abs(gl + gr) - alpha, 0.0)
    return (
        0.5 * (tl * tl / (hl + lam) + tr * tr / (hr + lam) - tp * tp / (hl + hr + lam))
        - params.gamma
    )


def leaf_weight(grad_sum: float, count: float, params: GbrtParams) -> float:
    """Optimal leaf value under the L1/L2-regularized second-order objective:
    -soft_threshold(G, alpha) / (count + lambda)."""
    shrunk = math.copysign(max(abs(grad_sum) - params.reg_alpha, 0.0), grad_sum)
    return -shrunk / (count + params.reg_lambda)


def pairwise_sum(values: list) -> float:
    """`float(np.sum(values))` for float64 values, bit for bit, on Python floats.

    numpy sums fewer than 8 values left to right from 0.0; up to 128 values
    with 8 interleaved accumulators combined pairwise, then the remainder
    left to right; longer runs by splitting them at a multiple of 8 near
    the middle. The reduction adds the result to 0.0, so a sum of only
    -0.0 values is 0.0.
    """
    return 0.0 + pairwise_block(values, 0, len(values))


def pairwise_block(v: list, lo: int, n: int) -> float:
    if n < 8:
        total = 0.0
        for i in range(lo, lo + n):
            total += v[i]
        return total
    if n > 128:
        half = n // 2
        half -= half % 8
        return pairwise_block(v, lo, half) + pairwise_block(v, lo + half, n - half)
    r = v[lo : lo + 8]
    end = lo + n - n % 8
    for i in range(lo + 8, end, 8):
        for lane in range(8):
            r[lane] += v[i + lane]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for i in range(end, lo + n):
        total += v[i]
    return total


def leaf_tree(value: float) -> Tree:
    """A tree that is one leaf."""
    return Tree(
        feature=[-1],
        threshold=[0.0],
        gain=[0.0],
        cover=[0.0],
        value=[value],
        right=[-1],
    )


def add_node(
    tree: Tree, parent: int, feature=-1, threshold=0.0, gain=0.0, cover=0.0, value=0.0
) -> int:
    """Append the next node in pre-order; `parent` >= 0 marks a right child."""
    node = len(tree.feature)
    if parent >= 0:
        tree.right[parent] = node
    tree.feature.append(feature)
    tree.threshold.append(threshold)
    tree.gain.append(gain)
    tree.cover.append(cover)
    tree.value.append(value)
    tree.right.append(-1)
    return node


def predict_tree(tree: Tree, X) -> list[float]:
    """Each row's leaf value, by a walk on Python floats: the oracle of the
    compiled walk behind `TreeEnsemble.predict_stages`."""
    feature, threshold, right, value = tree.feature, tree.threshold, tree.right, tree.value
    out = []
    for row in np.asarray(X, dtype=float).tolist():
        node = 0
        while feature[node] >= 0:
            node = node + 1 if row[feature[node]] <= threshold[node] else right[node]
        out.append(value[node])
    return out


def ensemble_of(trees, base_score=0.5, eta=1.0, feature_names=("f0",)) -> TreeEnsemble:
    """The ensemble whose rounds are trees, each in a span of its own."""

    def joined(*names):
        return [[x for tree in trees for x in getattr(tree, name)] for name in names]

    sizes = [len(tree.feature) for tree in trees]
    stops = np.cumsum(sizes, dtype=np.int64)
    return TreeEnsemble(
        base_score, eta, tuple(feature_names),
        np.reshape(joined("feature", "right"), (2, -1)),
        np.reshape(joined("threshold", "gain", "cover", "value"), (4, -1)),
        np.stack([stops - sizes, stops], axis=1).reshape(-1, 2),
    )


def grown_rounds(model: TreeEnsemble) -> list[bool]:
    """Whether each round grew its tree: a grown tree's span starts where the
    tables ended before it, a repeated tree's points back at an earlier one."""
    grown, end = [], 0
    for start, stop in model.spans.tolist():
        grown.append(start == end)
        end = max(end, stop)
    return grown


def node_depths(tree: Tree) -> list[int]:
    """Depth of every node; one forward pass works because children follow parents."""
    depth = [0] * len(tree.feature)
    for i, feature in enumerate(tree.feature):
        if feature >= 0:
            depth[i + 1] = depth[tree.right[i]] = depth[i] + 1
    return depth


def stump_params(**overrides):
    base = dict(
        n_estimators=1,
        max_depth=6,
        eta=1.0,
        gamma=0.0,
        reg_lambda=0.0,
        reg_alpha=0.0,
        base_score=0.5,
    )
    base.update(overrides)
    return GbrtParams(**base)


def grow(X, g, params) -> Tree:
    """build_tree on every row and column of X, as `fit` grows a draw-free tree."""
    X = np.asarray(X, dtype=float)
    g = np.asarray(g, dtype=float).tolist()
    tree, _ = build_tree(*presort(X), range(len(X)), g, params)
    return tree


def root_leaf(g, **params) -> float:
    """The value of the one leaf build_tree grows at depth 0 from gradients g."""
    return grow(np.zeros((len(g), 1)), g, stump_params(max_depth=0, **params)).value[0]


class TestLeafWeight:
    def test_plain(self):
        assert root_leaf([0.5]) == leaf_weight(0.5, 1.0, stump_params()) == -0.5

    def test_soft_threshold(self):
        assert root_leaf([0.5], reg_alpha=0.2) == pytest.approx(-0.3)
        assert root_leaf([-0.5], reg_alpha=0.2) == pytest.approx(0.3)
        assert root_leaf([0.1], reg_alpha=0.2) == 0.0

    def test_equals_mean_residual(self, rng):
        y = rng.uniform(size=6)
        y_hat = rng.uniform(size=6)
        assert root_leaf(y_hat - y) == pytest.approx((y - y_hat).mean())


class TestSplitGain:
    def test_hand_value(self):
        p = GbrtParams(reg_lambda=0.0, reg_alpha=0.0, gamma=0.0)
        gain = split_gain(GradStats(0.5, 1, 1), GradStats(-0.5, 1, 1), p)
        assert gain == pytest.approx(0.25)

    def test_gamma_subtracts(self):
        p = GbrtParams(reg_lambda=0.0, reg_alpha=0.0, gamma=0.25)
        gain = split_gain(GradStats(0.5, 1, 1), GradStats(-0.5, 1, 1), p)
        assert gain == pytest.approx(0.0)

    def test_proportional_children_never_gain(self):
        p = GbrtParams(reg_lambda=0.0, reg_alpha=0.0, gamma=0.1)
        gain = split_gain(GradStats(0.4, 2, 2), GradStats(0.4, 2, 2), p)
        assert gain == pytest.approx(-0.1)


class TestBuildTree:
    def test_stump_split(self):
        tree = grow(STUMP_X, 0.5 - STUMP_Y, stump_params())
        assert tree.feature == [0, -1, -1]
        assert tree.threshold[0] == 0.5
        assert tree.gain[0] == pytest.approx(0.25)
        assert tree.cover[0] == 2.0
        assert tree.right == [2, -1, -1]
        assert tree.value == [0.0, -0.5, 0.5]

    def test_gamma_suppresses_split(self):
        tree = grow(STUMP_X, 0.5 - STUMP_Y, stump_params(gamma=0.3))
        assert tree.feature == [-1]
        assert tree.value == [0.0]

    def test_depth_zero_is_leaf(self, rng):
        X = rng.uniform(size=(10, 3))
        g = -rng.uniform(size=10)
        tree = grow(X, g, stump_params(max_depth=0))
        assert tree.feature == [-1]

    def test_depth_bound_holds(self, rng):
        X = rng.uniform(size=(30, 3))
        g = -rng.uniform(size=30)
        tree = grow(X, g, stump_params(max_depth=3))
        assert max(node_depths(tree)) <= 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            grow(np.empty((0, 2)), np.empty(0), stump_params())

    # build_tree's round takes 0.0 - (-g) as its gradients, so it grows a
    # -0.0 gradient as 0.0: 3 and 9 rows sum below and above numpy's 8
    # lanes, and the split's left leaf holds only -0.0.
    @pytest.mark.parametrize(
        "x, g, max_depth",
        [([0.0] * 3, [-0.0] * 3, 0), ([0.0] * 9, [-0.0] * 9, 0),
         ([0.0, 0.0, 1.0], [-0.0, -0.0, -1.0], 1)],
        ids=["leaf_of_3", "leaf_of_9", "split"],
    )
    def test_negative_zero_gradients_keep_the_reference_bits(self, x, g, max_depth):
        X, g, params = np.array(x)[:, None], np.array(g), stump_params(max_depth=max_depth)
        tree = grow(X, g, params)
        assert tree_bits(tree) == tree_bits(reference_build_tree(X, g, params))
        assert len(tree.feature) == 2 * max_depth + 1

    # The compiled grower indexes by every row and column number it is given.
    @pytest.mark.parametrize(
        "bad",
        [
            {"rows": [0, 3]},
            {"rows": [1, 0]},
            {"rows": [0, 0]},
            {"left_out": [-1]},
            {"columns": [1]},
            {"orders": [[0, 0, 2]]},
        ],
        ids=["row_beyond_n", "descending", "repeated", "negative", "column_beyond_d", "order_repeats"],
    )
    def test_bad_numbers_raise(self, bad):
        cols, orders = presort([[0.0], [1.0], [2.0]])
        args = {"rows": [0, 1], "left_out": [2], "columns": [0], "orders": orders, **bad}
        with pytest.raises(ValueError, match="must"):
            build_tree(
                cols, args["orders"], args["rows"], [0.1, -0.2, 0.3], stump_params(),
                args["columns"], args["left_out"],
            )


def enumerate_best_split(X, g, params):
    """Exhaustive oracle: score every (feature, midpoint) with split_gain.

    Iterates features then thresholds in ascending order and keeps strictly
    better gains only, mirroring the documented tie-break. Under squared
    error each row's hessian is 1, so a side's hessian sum is its row count.
    """
    n, d = X.shape
    best = None  # (gain, feature, threshold)
    for j in range(d):
        distinct = sorted(set(X[:, j]))
        for lo, hi in zip(distinct, distinct[1:]):
            with np.errstate(over="ignore"):
                thr = (lo + hi) * 0.5
            if not lo <= thr < hi:
                thr = lo
            mask = X[:, j] <= thr
            left = GradStats(float(g[mask].sum()), float(mask.sum()), int(mask.sum()))
            right = GradStats(
                float(g[~mask].sum()), float((~mask).sum()), int((~mask).sum())
            )
            gain = split_gain(left, right, params)
            if best is None or gain > best[0]:
                best = (gain, j, thr)
    if best is None or best[0] <= 0:
        return None
    return best


def random_split_case(rng):
    n = int(rng.integers(2, 9))
    d = int(rng.integers(1, 4))
    # Coarse feature values provoke duplicates (shared partitions across
    # features), and dyadic targets make every gradient sum exact, so the
    # greedy scan and the enumeration oracle must agree bit for bit.
    X = rng.integers(0, 5, size=(n, d)) / 4.0
    if d > 1 and rng.uniform() < 0.3:
        X[:, rng.integers(1, d)] = X[:, 0]
    y = rng.integers(-128, 129, size=n) / 64.0
    y_hat = rng.integers(-128, 129, size=n) / 64.0
    params = GbrtParams(
        max_depth=6,
        reg_lambda=float(rng.uniform(0, 2)),
        reg_alpha=float(rng.uniform(0, 0.5)),
        gamma=float(rng.uniform(0, 0.2)),
    )
    return X, y_hat - y, params


class TestGreedyMatchesEnumeration:
    def test_root_split_oracle(self, rng):
        checked_splits = 0
        for _ in range(200):
            X, g, params = random_split_case(rng)
            tree = grow(X, g, params)
            expected = enumerate_best_split(X, g, params)
            if expected is None:
                assert tree.feature == [-1]
                continue
            gain, feature, threshold = expected
            assert tree.feature[0] == feature
            assert tree.threshold[0] == threshold
            assert tree.gain[0] == gain
            checked_splits += 1
        assert checked_splits > 50  # the generator must exercise real splits

    def test_rows_beyond_n_raise(self):
        cols, _ = presort([[0.0], [1.0], [2.0]])
        with pytest.raises(ValueError, match=r"rows must lie in \[0, 3\)"):
            best_split_kernel(cols, [[0, 3]], [0, 3], [0.1, -0.2, 0.3], 1.0, 0.0, 0.0)

    def test_constant_columns_yield_no_split(self):
        cols, orders = presort(np.zeros((5, 2)))
        g = [0.0, 1.0, 2.0, 3.0, 4.0]
        gain, col, thr = best_split_kernel(cols, orders, range(5), g, 1.0, 0.0, 0.0)
        assert col == -1


def best_split_oracle(xt, g, reg_lambda, reg_alpha, gamma):
    """Reference split search: the same scan on numpy scalars, reading one
    array element at a time. best_split_kernel must return its result bit
    for bit."""
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
                with np.errstate(over="ignore"):
                    best_thr = (v + v_next) * 0.5
                if not v <= best_thr < v_next:
                    best_thr = v
    return best_gain, best_col, best_thr


# A few values, -0.0 among them, so columns repeat values and tie 0.0 with
# -0.0. Thirds are not dyadic, so the order of a gradient sum shows in its bits.
split_values = st.sampled_from([0.0, -0.0, 0.25, 1.0]) | st.floats(-4.0, 4.0)
gradients = st.floats(-1e3, 1e3).map(lambda x: x / 3.0)


@st.composite
def split_problems(draw):
    n = draw(st.integers(1, 12))
    d = draw(st.integers(0, 4))
    rows = st.lists(st.lists(split_values, min_size=d, max_size=d), min_size=n, max_size=n)
    X = np.array(draw(rows), dtype=float).reshape(n, d)
    g = np.array(draw(st.lists(gradients, min_size=n, max_size=n)), dtype=float)
    reg = (
        # reg_lambda; the kernel's cached denominators for 0.0 serve -0.0
        draw(st.sampled_from([0.0, -0.0, 0.5, 1.0])),
        draw(st.sampled_from([0.0, 0.3])),  # reg_alpha
        draw(st.sampled_from([0.0, 0.1])),  # gamma
    )
    # A node holds any subset of the fit's rows.
    rows = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    return X, g, reg, rows


def split_bits(result) -> str:
    gain, col, threshold = result
    return repr((float(gain), col, float(threshold)))


def split_example(X, g, reg):
    """An explicit split problem on every row."""
    return np.array(X, dtype=float), np.array(g, dtype=float), reg, list(range(len(g)))


class TestSplitKernelMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(split_problems())
    # Column 1 repeats column 0, so its one candidate ties the best gain
    # exactly and is skipped, its bound equal to that gain: the parent term
    # is 0 because the gradients cancel (first example) or |G| <= reg_alpha
    # (second), or it is below half an ulp of side terms near 1e16 (third).
    @example(split_example([[0.0, 0.0], [1.0, 1.0]], [1.0, -1.0], (1.0, 0.0, 0.0)))
    @example(split_example([[0.0, 0.0], [1.0, 1.0]], [1.0, -0.8], (1.0, 0.3, 0.1)))
    @example(split_example([[0.0, 0.0], [1.0, 1.0]], [1e8, 1 / 3 - 1e8], (1.0, 0.0, 0.0)))
    # The second candidate wins only through its right side: its left
    # term alone (0.667) is below the first candidate's gain (0.792).
    @example(split_example([[0.0], [1.0], [2.0]], [1.0, 1.0, -3.0], (1.0, 0.0, 0.0)))
    # Subnormal side terms make 0.5 * (s - p) inexact (1.5 units of 5e-324,
    # rounded to 2), so this split gains 5e-324 and is kept; subtracting
    # gamma in one fused multiply-subtract would round the gain to 0.
    @example(split_example([[0.0], [1.0]], [2.0**-537, -1.5 * 2.0**-537], (0.0, 0.0, 5e-324)))
    def test_bit_identical(self, problem):
        X, g, reg, rows = problem
        # The kernel reads the fit's presorted orders cut down to the node's
        # rows; the oracle sorts a C-order copy of the node's own rows.
        cols, orders = presort(X)
        node_orders = [[r for r in order if r in rows] for order in orders]
        got = best_split_kernel(cols, node_orders, rows, g.tolist(), *reg)
        want = best_split_oracle(np.ascontiguousarray(X[rows].T), g[rows], *reg)
        assert split_bits(got) == split_bits(want)

    def test_tie_order_sets_the_gradient_sum(self):
        # Nine tied rows, -0.0 among them, form the left side of the one
        # split. Near 1e16 an added 1.0 is lost to rounding, so the left sum
        # depends on the order its rows are added in; in row order it is 6.0.
        xt = np.array([[0.0, -0.0, 0.0, 0.0, -0.0, 0.0, 0.0, -0.0, 0.0, 1.0]])
        g = np.array([1e16, 1.0, -1e16, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5])
        got = best_split_kernel(*presort(xt.T), range(10), g.tolist(), 1.0, 0.0, 0.0)
        assert split_bits(got) == split_bits(best_split_oracle(xt, g, 1.0, 0.0, 0.0))
        assert got[0] == 0.5 * (6.0**2 / 10.0 + 0.5**2 / 2.0 - 6.5**2 / 11.0)


def node_reach(tree: Tree, X) -> list[int]:
    """How many rows of X reach each node of tree."""
    reached = [0] * len(tree.feature)
    for row in np.asarray(X, dtype=float).tolist():
        node = 0
        reached[node] += 1
        while tree.feature[node] >= 0:
            f, t = tree.feature[node], tree.threshold[node]
            node = node + 1 if row[f] <= t else tree.right[node]
            reached[node] += 1
    return reached


# (one feature column, targets) whose only useful split sits between two
# values with no usable midpoint: -5e-324 and 0.0, whose midpoint rounds
# to -0.0 (and 0.0 <= -0.0), and two values whose sum overflows to inf.
UNSPLITTABLE_MIDPOINTS = {
    "subnormal": ([0.0] * 9 + [-5e-324], [0.0] * 9 + [1.0]),
    "overflow": ([1.7e308] * 3 + [1.79e308] * 3, [0.0] * 3 + [1.0] * 3),
}


class TestThresholdSeparates:
    """A kept split's threshold sends its lower value left and the next
    value right, even where their midpoint rounds out of the gap."""

    @pytest.mark.parametrize("case", UNSPLITTABLE_MIDPOINTS)
    def test_kernel_and_oracles_take_the_lower_value(self, case):
        x, y = UNSPLITTABLE_MIDPOINTS[case]
        X = np.array(x)[:, None]
        g = 0.5 - np.array(y)
        got = best_split_kernel(*presort(X), range(len(x)), g.tolist(), 0.0, 0.0, 0.0)
        assert got[1] == 0 and got[2] == min(x)
        assert split_bits(got) == split_bits(best_split_oracle(X.T.copy(), g, 0.0, 0.0, 0.0))
        assert split_bits(got) == split_bits(enumerate_best_split(X, g, stump_params()))

    @pytest.mark.parametrize("case", UNSPLITTABLE_MIDPOINTS)
    def test_fit_grows_no_empty_child_and_saves(self, case, tmp_path):
        x, y = UNSPLITTABLE_MIDPOINTS[case]
        X = np.array(x)[:, None]
        # reg_lambda 0: an empty leaf would divide 0 by 0.
        model = gbrt.fit(X, np.array(y), stump_params(n_estimators=3, max_depth=1))
        assert model.trees[0].feature[0] == 0
        for tree in model.trees:
            assert all(node_reach(tree, X))
        np.testing.assert_array_equal(model.predict(X), y)
        path = tmp_path / "model.json"
        gbrt.save_model(model, path)
        assert gbrt.load_model(path).trees == model.trees


class TestFit:
    def test_zero_estimators_predicts_base(self, rng):
        X = rng.uniform(size=(5, 2))
        model = gbrt.fit(X, rng.uniform(size=5), stump_params(n_estimators=0))
        np.testing.assert_array_equal(model.predict(X), np.full(5, 0.5))

    def test_stump_eta_one(self):
        model = gbrt.fit(STUMP_X, STUMP_Y, stump_params())
        np.testing.assert_allclose(model.predict(STUMP_X), [0.0, 1.0])

    def test_stump_eta_half(self):
        model = gbrt.fit(STUMP_X, STUMP_Y, stump_params(eta=0.5))
        np.testing.assert_allclose(model.predict(STUMP_X), [0.25, 0.75])

    def test_training_mse_monotone(self, bundled, train_slices):
        train = train_slices["compressive"]
        params = GbrtParams(
            n_estimators=40,
            max_depth=4,
            eta=0.3,
            reg_lambda=1.0,
            subsample=1.0,
            colsample_bytree=1.0,
        )
        model = gbrt.fit(train.X, train.y, params)
        preds = np.full(train.y.shape, params.base_score)
        last = mse(train.y, preds)
        for tree in model.trees:
            preds = preds + predict_tree(tree, train.X)
            current = mse(train.y, preds)
            assert current <= last + 1e-12
            last = current

    def test_zero_weight_tree_is_identity(self, rng):
        X = rng.uniform(size=(6, 2))
        model = gbrt.fit(X, rng.uniform(size=6), stump_params(n_estimators=3))
        more = ensemble_of(model.trees + [leaf_tree(0.0)], feature_names=model.feature_names)
        np.testing.assert_array_equal(more.predict(X), model.predict(X))

    def test_deterministic_under_seed(self, train_slices, tmp_path):
        train = train_slices["density"]
        params = GbrtParams(n_estimators=10, subsample=0.7, colsample_bytree=0.7, seed=5)
        a = gbrt.fit(train.X, train.y, params)
        b = gbrt.fit(train.X, train.y, params)
        gbrt.save_model(a, tmp_path / "a.json")
        gbrt.save_model(b, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            gbrt.fit(rng.uniform(size=(4, 2)), rng.uniform(size=5), stump_params())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_rejected(self, bad):
        # A NaN target used to give a model whose every prediction is NaN.
        with pytest.raises(ValueError, match="target must be finite"):
            gbrt.fit([[0.0], [1.0], [2.0]], [0.0, bad, 1.0], stump_params(n_estimators=3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected(self, bad):
        with pytest.raises(ValueError, match="features must be finite"):
            gbrt.fit([[0.0], [bad], [2.0]], [0.0, 1.0, 1.0], stump_params(n_estimators=3))

    def test_subsample_rows_still_updated(self, rng):
        # With row subsampling, every row must keep receiving updates.
        X = rng.uniform(size=(10, 2))
        y = rng.uniform(size=10)
        model = gbrt.fit(X, y, stump_params(n_estimators=5, subsample=0.5, eta=0.3))
        assert not np.allclose(model.predict(X), 0.5)


unit_interval = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


class TestStagedPrefix:
    """The first k trees of an m-tree fit are the k-tree fit, which is what
    lets grid search score every n_estimators value from one fit."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 12).flatmap(lambda m: st.tuples(st.integers(0, m), st.just(m))),
        unit_interval,
        unit_interval,
        st.integers(0, 2**32 - 1),
    )
    def test_k_tree_fit_is_prefix_of_m_tree_fit(self, k_m, subsample, colsample, seed):
        k, m = k_m
        data = np.random.default_rng(seed)
        X, y = data.uniform(size=(12, 3)), data.uniform(size=12)
        X_new = data.uniform(size=(5, 3))
        params = GbrtParams(
            n_estimators=m, max_depth=3, subsample=subsample,
            colsample_bytree=colsample, seed=seed,
        )
        big = gbrt.fit(X, y, params)
        small = gbrt.fit(X, y, replace(params, n_estimators=k))
        assert small.trees == big.trees[:k]
        stages = big.predict_stages(X_new, range(m + 1))
        assert len(stages) == m + 1
        assert (small.predict(X_new) == stages[k]).all()
        assert (big.predict(X_new) == stages[m]).all()


def schedule_of(X, params):
    """The `_sample_schedule` a fit of params on X takes its draws from."""
    return gbrt._sample_schedule(
        params.seed, *X.shape, params.subsample, params.colsample_bytree, params.n_estimators
    )


class TestCoverIsRowCount:
    """Squared error has hessian 1 per row, so an internal node's cover (its
    hessian sum) is the number of the tree's sampled rows that reach it."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 20),
        st.integers(1, 4),
        st.integers(0, 5),
        unit_interval,
        unit_interval,
        st.integers(0, 2**32 - 1),
    )
    def test_internal_cover_counts_rows(self, n, d, depth, subsample, colsample, seed):
        data = np.random.default_rng(seed)
        # Coarse values give tied feature values, which a split keeps on one side.
        X, y = data.integers(0, 6, size=(n, d)) / 5.0, data.uniform(size=n)
        params = GbrtParams(
            n_estimators=4, max_depth=depth, subsample=subsample,
            colsample_bytree=colsample, seed=seed,
        )
        model = gbrt.fit(X, y, params)
        trees = model.trees
        assert grown_rounds(model) == [True] * len(trees)
        sampled, _, draw = schedule_of(X, params)
        for tree, rows in zip(trees, (X[sampled[i]] for i in draw)):
            reached = [0] * len(tree.feature)
            for row in rows:
                node = 0
                while tree.feature[node] >= 0:
                    reached[node] += 1
                    f, t = tree.feature[node], tree.threshold[node]
                    node = node + 1 if row[f] <= t else tree.right[node]
            internal = [i for i, f in enumerate(tree.feature) if f >= 0]
            assert [tree.cover[i] for i in internal] == [float(reached[i]) for i in internal]


def reference_build_tree(X, g, params, rng=None) -> Tree:
    """The per-node grower that preceded presorting, kept as the reference
    build_tree must match bit for bit: each node slices its rows out of numpy
    arrays, the numpy-scalar scan sorts them, and a leaf sums with numpy."""
    d = X.shape[1]
    if params.colsample_bytree < 1.0 and rng is not None:
        n_cols = math.ceil(params.colsample_bytree * d)
        columns = np.sort(rng.choice(d, size=n_cols, replace=False))
    else:
        columns = np.arange(d)
    tree = Tree()
    stack = [(X, g, 0, -1)]
    while stack:
        X, g, depth, parent = stack.pop()
        gain, col_local = 0.0, -1
        if depth < params.max_depth and X.shape[0] >= 2:
            gain, col_local, threshold = best_split_oracle(
                np.ascontiguousarray(X[:, columns].T), g,
                params.reg_lambda, params.reg_alpha, params.gamma,
            )
        if col_local < 0 or gain <= 0.0:
            value = leaf_weight(float(g.sum()), float(len(g)), params)
            add_node(tree, parent, value=value)
            continue
        feature = int(columns[col_local])
        node = add_node(
            tree, parent, feature, float(threshold), float(gain), float(len(g))
        )
        mask = X[:, feature] <= threshold
        stack.append((X[~mask], g[~mask], depth + 1, node))
        stack.append((X[mask], g[mask], depth + 1, -1))
    return tree


def reference_fit(X, y, params) -> list[Tree]:
    """The trees of the per-node `fit`: every round grows a full tree and
    walks it for every row."""
    X = np.array(X, dtype=float)
    rng = np.random.default_rng(params.seed)
    n = X.shape[0]
    trees = []
    preds = np.full(n, params.base_score, dtype=float)
    for _ in range(params.n_estimators):
        g = preds - y
        if params.subsample < 1.0:
            n_rows = math.ceil(params.subsample * n)
            rows = np.sort(rng.choice(n, size=n_rows, replace=False))
        else:
            rows = np.arange(n)
        tree = reference_build_tree(X[rows], g[rows], params, rng)
        tree.value = [v * params.eta for v in tree.value]
        trees.append(tree)
        preds += predict_tree(tree, X)
    return trees


def tree_bits(tree: Tree) -> list:
    """All 7 node lists, floats by their bits."""
    return [
        [x.hex() if isinstance(x, float) else x for x in getattr(tree, f.name)]
        for f in fields(Tree)
    ]


# Few distinct values, -0.0 among them, give tied features and targets; a
# base score of -0.0 makes a leaf of +0.0 change the predictions' bits.
tie_values = st.sampled_from([0.0, -0.0, 0.25, 1.0]) | st.floats(-4.0, 4.0)


@st.composite
def boosting_problems(draw):
    # A third of the fits draw no random numbers and a third draw only
    # columns, from d >= 2 of them; both kinds can reach predictions that
    # stop changing and then reuse trees. Column-only fits run 20 rounds or
    # more and favour reg_alpha 1.1, under which a leaf is 0 once its
    # |G| <= 1.1, so that many of them get there.
    draws = draw(st.sampled_from(["none", "columns", "rows and columns"]))
    n = draw(st.integers(1, 19))
    d = draw(st.integers(2 if draws == "columns" else 1, 4))
    X = np.array(
        draw(st.lists(tie_values, min_size=n * d, max_size=n * d)), dtype=float
    ).reshape(n, d)
    y = np.array(draw(st.lists(tie_values, min_size=n, max_size=n)), dtype=float)
    alphas, rounds = [0.0, 0.11, 1.1], st.integers(0, 40)
    subsample = colsample = 1.0
    if draws == "columns":
        alphas, rounds = alphas + [1.1] * 3, st.integers(20, 40)
        colsample = draw(st.sampled_from([0.5, 0.6]))
    elif draws == "rows and columns":
        subsample = draw(st.sampled_from([0.7, 1.0]))
        colsample = draw(st.sampled_from([0.6, 1.0]))
    params = GbrtParams(
        n_estimators=draw(rounds),
        max_depth=draw(st.integers(0, 4)),
        eta=draw(st.sampled_from([0.3, 0.95, 1.0])),
        gamma=draw(st.sampled_from([0.0, 0.005])),
        reg_lambda=draw(st.sampled_from([0.0, 0.81, 1.65])),
        reg_alpha=draw(st.sampled_from(alphas)),
        subsample=subsample,
        colsample_bytree=colsample,
        base_score=draw(st.sampled_from([0.5, 0.0, -0.0])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    m = draw(st.integers(1, 4))
    X_new = np.array(draw(st.lists(tie_values, min_size=m * d, max_size=m * d)), dtype=float)
    return X, y, params, X_new.reshape(m, d)


def oracle_stages(trees, base_score, X) -> np.ndarray:
    """The predictions after 0, 1, ..., len(trees) trees, each tree's leaf
    values added in round order."""
    stage = np.full(len(X), base_score, dtype=float)
    stages = [stage]
    for tree in trees:
        stage = stage + predict_tree(tree, X)
        stages.append(stage)
    return np.array(stages).reshape(len(trees) + 1, len(X))


def assert_matches_reference(X, y, params, X_new):
    want = reference_fit(X, y, params)
    model = gbrt.fit(X, y, params)
    assert [tree_bits(t) for t in model.trees] == [tree_bits(t) for t in want]
    stages = model.predict_stages(X_new, range(len(want) + 1))
    assert stages.tobytes() == oracle_stages(want, params.base_score, X_new).tobytes()


# Five rows of two columns, tied values and -0.0 among them, for explicit cases.
SMALL_X = np.array([[0.0, 1.0], [0.25, 0.0], [0.5, 1 / 3], [1.0, 0.25], [-0.0, 1.0]])
SMALL_Y = np.array([0.1, 0.4, 0.2, 0.9, 0.0])
SMALL_PARAMS = GbrtParams(n_estimators=6, max_depth=3, eta=0.95, subsample=0.7, seed=5)

# fit takes X in any layout and dtype as float64 rows.
LAYOUTS = {
    "fortran": np.asfortranarray,
    "float32": lambda a: a.astype(np.float32),
    "strided": lambda a: np.repeat(a, 2, axis=-1)[..., ::2],
}


def small_problem(X=SMALL_X, **params):
    return X, SMALL_Y, replace(SMALL_PARAMS, **params), SMALL_X


class TestMatchesPerNodeReference:
    """Presorted growth, leaf updates from the partition and the reuse of
    trees while the predictions keep their bits give the trees and staged
    predictions of the per-node reference, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(boosting_problems())
    @example(small_problem(LAYOUTS["fortran"](SMALL_X)))
    @example(small_problem(LAYOUTS["float32"](SMALL_X)))
    @example(small_problem(LAYOUTS["strided"](SMALL_X)))
    # 2**64 + 5 wraps to 5 in a 64-bit integer.
    @example(small_problem(max_depth=2**64 + 5))
    @example(small_problem(n_estimators=0))
    # ceil(0.1 * 5) = 1: each tree is grown on one row and routes the other four.
    @example(small_problem(subsample=0.1, n_estimators=12))
    def test_bit_identical(self, problem):
        assert_matches_reference(*problem)

    @pytest.mark.parametrize(
        "reg_alpha, gamma, grown_trees",
        # Once every |G| <= alpha, gamma > 0 leaves a single leaf of -0.0.
        # Without gamma, a split gaining only rounding noise (4.9e-33) with
        # two leaves of +-0.0 is a fixed point as well.
        [(0.11, 0.005, 4), (1.1, 0.0, 25)],
    )
    def test_fixed_point_stop_matches(self, reg_alpha, gamma, grown_trees):
        X = np.array([[0.0], [0.25], [0.5], [1.0], [-0.0]])
        y = np.array([0.1, 0.4, 0.2, 0.9, 0.0])
        params = GbrtParams(
            n_estimators=60, max_depth=2, eta=0.95, reg_alpha=reg_alpha, gamma=gamma
        )
        model = gbrt.fit(X, y, params)
        assert grown_rounds(model) == [True] * grown_trees + [False] * (60 - grown_trees)
        # Every later round shares the last grown tree's span: no node is copied.
        spans = model.spans.tolist()
        assert spans[grown_trees:] == [spans[grown_trees - 1]] * (60 - grown_trees)
        assert model.links.shape[1] == spans[grown_trees - 1][1]
        # It predicts as the same trees each in a span of its own, at any stages.
        copies = ensemble_of(model.trees, model.base_score, feature_names=model.feature_names)
        stages = [60, 0, grown_trees, 3, 60, 17]
        want = copies.predict_stages(X, stages).tobytes()
        assert model.predict_stages(X, stages).tobytes() == want
        assert_matches_reference(X, y, params, X)

    @staticmethod
    def grown_columns(X, y, params):
        """The candidate columns of every tree `fit` grows, in order."""
        grown = grown_rounds(gbrt.fit(X, y, params))
        _, columns, draw = schedule_of(X, params)
        return [tuple(columns[i].tolist()) for i, grew in zip(draw, grown) if grew]

    def test_column_draws_reuse_their_trees(self):
        # Each round draws one of the 2 columns. Rounds 5 and 6 grow, from
        # either column, a leaf of -0.0 that changes no prediction's bits, so
        # the 34 later rounds reuse the tree their draw grew.
        X = np.array([[0.0, 1.0], [0.25, 0.0], [0.5, 0.5], [1.0, 0.25], [-0.0, 1.0]])
        y = np.array([0.1, 0.4, 0.2, 0.9, 0.0])
        params = GbrtParams(
            n_estimators=40, max_depth=2, eta=0.95, reg_alpha=0.11, gamma=0.005,
            colsample_bytree=0.5, seed=0,
        )
        grown = self.grown_columns(X, y, params)
        model = gbrt.fit(X, y, params)
        assert grown == [(1,), (1,), (1,), (0,), (0,), (1,)]
        reused = model.trees[len(grown):]
        assert [tree_bits(tree) for tree in reused] == [tree_bits(leaf_tree(-0.0))] * 34
        # Each reused round shares the span of the last tree its draw grew.
        spans = [tuple(span) for span in model.spans.tolist()]
        _, _, draw = schedule_of(X, params)
        latest = {}
        for r, grew in enumerate(grown_rounds(model)):
            if grew:
                latest[draw[r]] = spans[r]
            assert spans[r] == latest[draw[r]]
        assert len(set(spans)) == 6
        assert_matches_reference(X, y, params, X)

    def test_a_changed_prediction_drops_the_reusable_trees(self):
        # Round 1 draws column 0, which is constant: a leaf of -0.0 that
        # changes no prediction. Round 2 draws column 1 and its split moves
        # every prediction, so the gradients' sum is no longer 0 and round
        # 3, drawing column 0 again, grows a leaf of another value.
        X = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        y = np.array([1.0, 1.0, 1.0, -1.5, -1.5])
        params = GbrtParams(
            n_estimators=3, max_depth=1, eta=1.0, reg_alpha=0.11,
            colsample_bytree=0.5, base_score=0.0, seed=21,
        )
        grown = self.grown_columns(X, y, params)
        model = gbrt.fit(X, y, params)
        assert grown == [(0,), (1,), (0,)]
        first, _, third = model.trees
        assert tree_bits(first) == tree_bits(leaf_tree(-0.0)) and third.value[0] != 0.0
        assert_matches_reference(X, y, params, X)

    def test_positive_zero_leaf_on_negative_zero_prediction_is_not_a_fixed_point(self):
        # p + 0.0 turns a prediction of -0.0 into 0.0, so the first tree,
        # a leaf of +0.0, changes bits and the second is grown from new
        # gradients; numerically both rounds look the same.
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 0.0])
        params = GbrtParams(n_estimators=3, max_depth=1, base_score=-0.0, reg_alpha=0.5)
        assert_matches_reference(X, y, params, X)


@st.composite
def subsampled_growth(draw):
    """A tree's inputs under row subsampling: tied features (0.0 and -0.0
    among them), gradients, and one round's draw from `_sample_schedule`."""
    n = draw(st.integers(4, 19))
    d = draw(st.integers(1, 4))
    X = np.array(
        draw(st.lists(tie_values, min_size=n * d, max_size=n * d)), dtype=float
    ).reshape(n, d)
    g = draw(st.lists(gradients, min_size=n, max_size=n))
    subsample = draw(st.sampled_from([0.3, 0.5, 0.7]))
    colsample = draw(st.sampled_from([0.6, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    rows, columns, _ = gbrt._sample_schedule(seed, n, d, subsample, colsample, 1)
    rows, columns = rows[0].tolist(), columns[0].tolist()
    left_out = [r for r in range(n) if r not in rows]
    params = GbrtParams(
        max_depth=draw(st.integers(0, 4)),
        gamma=draw(st.sampled_from([0.0, 0.005])),
        reg_lambda=draw(st.sampled_from([0.0, 0.81])),
        reg_alpha=draw(st.sampled_from([0.0, 0.11])),
    )
    return X, g, rows, left_out, columns, params


class TestLeftOutRouting:
    """Growth routes the rows subsampling left out with the split test, so
    `fit` updates them from the leaves and walks no tree."""

    @settings(max_examples=100, deadline=None)
    @given(subsampled_growth())
    def test_leaf_rows_are_the_rows_predict_tree_sends_there(self, problem):
        X, g, rows, left_out, columns, params = problem
        tree, leaves = build_tree(*presort(X), rows, g, params, columns, left_out)
        # The same tree with each leaf's node number as its value.
        numbered = replace(tree, value=[float(node) for node in range(len(tree.value))])
        X_rows = X.tolist()

        def sent_to(part):
            """Each leaf's rows of part, in ascending order, by predict_tree."""
            reached = predict_tree(numbered, [X_rows[r] for r in part])
            return {node: [r for r, to in zip(part, reached) if to == node] for node, *_ in leaves}

        assert {node: list(out) for node, _, out in leaves} == sent_to(left_out)
        assert {node: list(leaf_rows) for node, leaf_rows, _ in leaves} == sent_to(rows)
        assert sorted(r for _, _, out in leaves for r in out) == list(left_out)

    def test_subsampled_fit_walks_no_tree(self, monkeypatch, rng):
        X = rng.integers(0, 4, size=(15, 3)) / 4.0
        y = rng.uniform(size=15)
        params = GbrtParams(n_estimators=12, max_depth=3, subsample=0.6, seed=7)

        def no_walk(*args):
            raise AssertionError("fit walked a tree")

        monkeypatch.setattr(gbrt.TreeEnsemble, "predict_stages", no_walk)
        model = gbrt.fit(X, y, params)
        want = reference_fit(X, y, params)
        assert [tree_bits(t) for t in model.trees] == [tree_bits(t) for t in want]


class TestFitInputs:
    """fit reads X in any layout and dtype as C-ordered float64, and clamps a
    max_depth that a 64-bit integer cannot hold."""

    params = GbrtParams(
        n_estimators=20, max_depth=4, subsample=0.7, colsample_bytree=0.7, seed=3
    )

    @pytest.mark.parametrize("convert", LAYOUTS.values(), ids=LAYOUTS.keys())
    def test_any_layout_gives_the_same_trees(self, train_slices, convert):
        train = train_slices["compressive"]
        X, y = convert(train.X), convert(train.y)
        want = gbrt.fit(np.array(X, dtype=np.float64), np.array(y, dtype=np.float64), self.params)
        got = gbrt.fit(X, y, self.params)
        assert [tree_bits(t) for t in got.trees] == [tree_bits(t) for t in want.trees]

    def test_huge_max_depth_is_not_wrapped(self, train_slices):
        # Unregularized compressive trees grow to depth 7, deeper than the 5
        # that 2**64 + 5 wraps to.
        train = train_slices["compressive"]
        params = GbrtParams(n_estimators=5, max_depth=10**6, reg_lambda=0.0, gamma=0.0)
        want = gbrt.fit(train.X, train.y, params)
        huge = gbrt.fit(train.X, train.y, replace(params, max_depth=2**64 + 5))
        assert [tree_bits(t) for t in huge.trees] == [tree_bits(t) for t in want.trees]
        assert max(max(node_depths(tree)) for tree in huge.trees) == 7

    def test_feature_names_must_match_columns(self):
        with pytest.raises(ValueError, match="feature_names length must match column count"):
            gbrt.fit(STUMP_X, STUMP_Y, stump_params(), feature_names=("a", "b"))

    def test_zero_estimators(self, train_slices):
        train = train_slices["compressive"]
        model = gbrt.fit(train.X, train.y, replace(self.params, n_estimators=0))
        assert (model.links.shape, model.nodes.shape, model.spans.shape) == ((2, 0), (4, 0), (0, 2))

    def test_a_single_sampled_row(self, train_slices):
        # ceil(0.05 * 19) = 1 row per tree: every tree is one leaf.
        train = train_slices["compressive"]
        params = replace(self.params, subsample=0.05)
        model = gbrt.fit(train.X, train.y, params)
        assert all(tree.feature == [-1] for tree in model.trees)
        assert [tree_bits(t) for t in model.trees] == [
            tree_bits(t) for t in reference_fit(train.X, train.y, params)
        ]


class TestSampleSchedule:
    """A fit's draws come from one cached schedule per (seed, n, d, rates,
    rounds); sharing it changes no bit of any tree."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 20),
        st.integers(1, 4),
        unit_interval,
        unit_interval,
        st.integers(0, 2**32 - 1),
    )
    def test_cold_and_warm_fits_are_identical(self, n, d, subsample, colsample, seed):
        data = np.random.default_rng(seed)
        X, y = data.integers(0, 6, size=(n, d)) / 5.0, data.uniform(size=n)
        params = GbrtParams(
            n_estimators=6, max_depth=3, subsample=subsample,
            colsample_bytree=colsample, seed=seed,
        )
        gbrt._sample_schedule.cache_clear()
        cold = gbrt.fit(X, y, params)
        warm = gbrt.fit(X, y, params)
        assert [tree_bits(t) for t in warm.trees] == [tree_bits(t) for t in cold.trees]
        assert gbrt._sample_schedule.cache_info().hits == 1

    @pytest.mark.parametrize("seed", [42, -1])  # default_rng refuses -1
    def test_draw_free_fit_makes_no_rng(self, monkeypatch, rng, seed):
        def no_rng(*args, **kwargs):
            raise AssertionError("a draw-free fit made an rng")

        gbrt._sample_schedule.cache_clear()
        monkeypatch.setattr(np.random, "default_rng", no_rng)
        X, y = rng.uniform(size=(8, 3)), rng.uniform(size=8)
        gbrt.fit(X, y, GbrtParams(n_estimators=5, seed=seed))
        rows, columns, draw = gbrt._sample_schedule(seed, 8, 3, 1.0, 1.0, 5)
        assert (rows.tolist(), columns.tolist(), draw.tolist()) == (
            [list(range(8))], [[0, 1, 2]], [0] * 5
        )

    def test_fits_on_different_data_share_one_schedule(self, rng):
        params = GbrtParams(n_estimators=5, subsample=0.7, colsample_bytree=0.7, seed=3)
        gbrt._sample_schedule.cache_clear()
        gbrt.fit(rng.uniform(size=(10, 3)), rng.uniform(size=10), params)
        gbrt.fit(rng.uniform(size=(10, 3)), rng.uniform(size=10), replace(params, eta=0.5))
        info = gbrt._sample_schedule.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert info.maxsize is not None

    def test_entries_are_immutable_and_consistent(self):
        n, d = 10, 3
        schedule = gbrt._sample_schedule(7, n, d, 0.7, 0.6, 4)
        assert isinstance(schedule, tuple) and len(schedule) == 3
        rows, columns, draw = schedule
        assert not any(part.flags.writeable for part in schedule)
        assert rows.shape == (len(set(draw.tolist())), 7) and columns.shape == (len(rows), 2)
        assert draw.shape == (4,) and sorted(set(draw.tolist())) == list(range(len(rows)))
        for part in (rows, columns):
            assert (np.diff(part, axis=1) > 0).all()
        assert rows.min() >= 0 and rows.max() < n and columns.max() < d

    def test_rounds_with_equal_draws_share_one(self):
        # One column of two drawn per round: 40 rounds draw 2 distinct subsets.
        rows, columns, draw = gbrt._sample_schedule(0, 5, 2, 1.0, 0.5, 40)
        assert rows.tolist() == [list(range(5))] * 2
        assert sorted(columns.tolist()) == [[0], [1]]
        rng = np.random.default_rng(0)
        drawn = [rng.choice(2, size=1, replace=False).tolist() for _ in range(40)]
        assert [columns[i].tolist() for i in draw] == drawn


def assert_leaf_sums_as_numpy(values):
    """The depth-0 leaf of build_tree divides its gradient sum by
    count + reg_lambda, here a power of two, so the division is exact and the
    leaf's bits show the sum's: they must be numpy's, as is the emulation's."""
    n = len(values)
    params = stump_params(max_depth=0, reg_lambda=float(2 ** math.ceil(math.log2(n)) - n))
    want = leaf_weight(float(np.sum(values)), float(n), params).hex()
    assert leaf_weight(pairwise_sum(values), float(n), params).hex() == want
    assert root_leaf(values, reg_lambda=params.reg_lambda).hex() == want


class TestPairwiseSum:
    """The leaf's gradient sum is numpy's pairwise sum."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0]) | gradients, min_size=1, max_size=19))
    def test_matches_numpy_sum(self, values):
        assert_leaf_sums_as_numpy(values)

    @pytest.mark.parametrize("n", range(1, 20))
    def test_signed_zeros(self, n):
        for values in ([-0.0] * n, [(-0.0, 0.0)[i % 2] for i in range(n)]):
            assert_leaf_sums_as_numpy(values)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(gradients, min_size=120, max_size=400))
    def test_long_runs_split_as_numpy_does(self, values):
        assert_leaf_sums_as_numpy(values)


class TestPredict:
    def test_empty_ensemble(self):
        model = ensemble_of([], base_score=0.7, eta=0.3, feature_names=("a", "b"))
        np.testing.assert_array_equal(
            model.predict(np.zeros((3, 2))), np.full(3, 0.7)
        )

    def test_pure_function(self):
        model = gbrt.fit(STUMP_X, STUMP_Y, stump_params())
        first = model.predict(STUMP_X)
        second = model.predict(STUMP_X)
        np.testing.assert_array_equal(first, second)

    def test_arity_checked(self):
        model = gbrt.fit(STUMP_X, STUMP_Y, stump_params())
        with pytest.raises(ValueError, match="feature column"):
            model.predict(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected(self, bad):
        # NaN fails every <= test, so it would silently take every right branch.
        model = gbrt.fit(STUMP_X, STUMP_Y, stump_params())
        with pytest.raises(ValueError, match="features must be finite"):
            model.predict([[0.0], [bad]])


@st.composite
def random_trees(draw, d):
    """A tree of up to depth 3 on d features, numbered in pre-order; tied
    thresholds and values, -0.0 among them."""
    tree = Tree()
    stack = [(0, -1)]  # (depth, parent of a right child)
    while stack:
        depth, parent = stack.pop()
        if depth < 3 and draw(st.booleans()):
            node = add_node(tree, parent, draw(st.integers(0, d - 1)), draw(tie_values))
            stack.append((depth + 1, node))
            stack.append((depth + 1, -1))
        else:
            add_node(tree, parent, value=draw(tie_values))
    return tree


@st.composite
def staged_walks(draw):
    """An ensemble of random trees, rows drawn from the thresholds' values,
    and stages that hold 0 and the last stage, unsorted and with repeats."""
    d = draw(st.integers(1, 3))
    trees = draw(st.lists(random_trees(d), max_size=8))
    n = draw(st.integers(0, 6))
    X = np.array(draw(st.lists(tie_values, min_size=n * d, max_size=n * d))).reshape(n, d)
    more = draw(st.lists(st.integers(0, len(trees)), max_size=6))
    stages = draw(st.permutations([0, len(trees), *more, *more[:1]]))
    base_score = draw(st.sampled_from([0.5, 0.0, -0.0]))
    return ensemble_of(trees, base_score, feature_names=[f"f{j}" for j in range(d)]), X, stages


def stump(feature=0, threshold=0.25, right=2) -> Tree:
    """A split on feature at threshold with leaves -1.0 (left) and 1.0."""
    return Tree([feature, -1, -1], [threshold, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0],
                [0.0, -1.0, 1.0], [right, -1, -1])


class TestPredictStages:
    """One compiled walk gives every stage, bit for bit the Python walk's."""

    @settings(max_examples=200, deadline=None)
    @given(staged_walks())
    def test_random_ensembles_match_the_oracle(self, walk):
        model, X, stages = walk
        want = oracle_stages(model.trees, model.base_score, X)[stages]
        assert model.predict_stages(X, stages).tobytes() == want.tobytes()
        assert model.predict(X).tobytes() == want[stages.index(len(model.trees))].tobytes()

    def test_negative_zero_plus_a_zero_leaf_is_zero(self):
        model = ensemble_of([leaf_tree(0.0)], base_score=-0.0)
        got = model.predict_stages([[1.0]], [1, 0])
        assert [x.hex() for x in got.ravel()] == ["0x0.0p+0", "-0x0.0p+0"]

    def test_a_reloaded_model_predicts_the_same_bits(self, train_slices, tmp_path):
        train = train_slices["tensile"]
        params = GbrtParams(n_estimators=30, subsample=0.7, colsample_bytree=0.7, seed=3)
        model = gbrt.fit(train.X, train.y, params)
        gbrt.save_model(model, tmp_path / "model.json")
        loaded = gbrt.load_model(tmp_path / "model.json")
        assert not any(t.flags.writeable for t in (loaded.links, loaded.nodes, loaded.spans))
        stages = range(31)
        got = loaded.predict_stages(train.X, stages)
        assert got.tobytes() == model.predict_stages(train.X, stages).tobytes()
        assert loaded.predict(train.X).tobytes() == model.predict(train.X).tobytes()

    @pytest.mark.parametrize("threshold, x", [(0.25, 0.25), (-0.0, 0.0), (0.0, -0.0)])
    def test_a_value_equal_to_its_threshold_goes_left(self, threshold, x):
        model = ensemble_of([stump(threshold=threshold)], base_score=0.0)
        above = np.nextafter(threshold, 1.0)
        assert model.predict([[x], [above]]).tolist() == [-1.0, 1.0]

    @pytest.mark.parametrize(
        "trees, spans",
        [
            ([stump()], [[0, 4]]),  # a span past the tables' end
            ([stump()], [[1, 1]]),  # an empty span
            ([stump(feature=1)], None),  # a split feature of only one
            ([stump(right=0)], None),  # a right child that loops back to the root
            ([stump(right=3)], None),  # a right child past its tree's last node
            ([Tree([0], [0.5], [1.0], [1.0], [0.0], [1])], None),  # a left child past it
        ],
        ids=["span_past_end", "empty_span", "feature_beyond_d", "child_loops", "right_past_tree",
             "left_past_tree"],
    )
    def test_tables_that_lead_outside_raise(self, trees, spans):
        model = ensemble_of(trees)
        if spans is not None:
            model = replace(model, spans=spans)
        with pytest.raises(ValueError, match="outside the node tables"):
            model.predict([[0.0], [1.0]])

    @pytest.mark.parametrize(
        "table, shape", [("links", (1, 3)), ("nodes", (4, 2)), ("spans", (1, 3)), ("links", (6,))]
    )
    def test_tables_of_the_wrong_shape_raise(self, table, shape):
        model = ensemble_of([stump()])
        with pytest.raises(ValueError, match="node tables must be"):
            replace(model, **{table: np.zeros(shape)})

    def test_tables_are_read_only_copies(self):
        links = np.array([[-1], [-1]])
        model = TreeEnsemble(0.5, 1.0, ("f0",), links, [[0.0]] * 4, [[0, 1]])
        links[0, 0] = 7
        assert model.links.tolist() == [[-1], [-1]]
        for table in (model.links, model.nodes, model.spans):
            assert table.flags.c_contiguous and not table.flags.writeable

    @pytest.mark.parametrize("stage", [-1, 2])
    def test_stages_outside_the_rounds_raise(self, stage):
        with pytest.raises(ValueError, match=r"stages must lie in \[0, 2\)"):
            ensemble_of([stump()]).predict_stages([[0.0]], [0, stage])


class TestCompiledErrors:
    """The compiled fit's error codes, as `_nodes_written` raises them."""

    def test_a_full_node_table_raises(self):
        # Two rows that split need three nodes; a table of one holds the root
        # only. One round, on every row and the one column, from base score 0.
        cols, orders = presort(STUMP_X)
        y, rows, columns = np.array([-0.5, 0.5]), np.arange(2), np.zeros(1, dtype=np.int64)
        links, nodes = np.empty((2, 1), dtype=np.int64), np.empty((4, 1))
        spans, draw = np.empty(2, dtype=np.int64), np.zeros(1, dtype=np.int64)
        size = _kernels.library().pervml_gbrt_fit(
            2, cols.ctypes.data, orders.ctypes.data, y.ctypes.data, 2, rows.ctypes.data,
            1, columns.ctypes.data, 1, 1, draw.ctypes.data, 6, 1.0, 0.0, 0.0, 0.0, 0.0,
            1, links.ctypes.data, nodes.ctypes.data, spans.ctypes.data, None,
        )
        assert size == -1
        with pytest.raises(RuntimeError, match="more nodes than its node table holds"):
            gbrt._nodes_written(size)

    def test_work_space_that_cannot_be_allocated_raises_memory_error(self):
        # 2**58 rows ask malloc for about 7e18 bytes, more than an address
        # space holds; the fit returns before it reads any table.
        size = _kernels.library().pervml_gbrt_fit(
            2**58, None, None, None, 1, None, 1, None, 1, 0, None,
            1, 1.0, 0.0, 1.0, 0.0, 0.5, 0, None, None, None, None,
        )
        assert size == -2
        with pytest.raises(MemoryError, match="could not allocate"):
            gbrt._nodes_written(size)


class TestTreeTable:
    @pytest.fixture(scope="class")
    def model(self, train_slices):
        train = train_slices["compressive"]
        params = GbrtParams(
            n_estimators=30, max_depth=5, subsample=0.7, colsample_bytree=0.7, seed=11
        )
        return gbrt.fit(train.X, train.y, params)

    def test_children_follow_parents_once(self, model):
        for tree in model.trees:
            n = len(tree.feature)
            fields = (tree.threshold, tree.gain, tree.cover, tree.value, tree.right)
            assert all(len(f) == n for f in fields)
            parents = [0] * n
            for i, feature in enumerate(tree.feature):
                if feature < 0:
                    assert tree.right[i] == -1
                    continue
                # Pre-order, left child first: the left child is node i + 1.
                assert i + 1 < tree.right[i] < n
                parents[i + 1] += 1
                parents[tree.right[i]] += 1
            assert parents == [0] + [1] * (n - 1)

    def test_one_more_leaf_than_internal_nodes(self, model):
        for tree in model.trees:
            leaves = tree.feature.count(-1)
            assert leaves == len(tree.feature) - leaves + 1

    def test_save_load_save_identical(self, model, tmp_path):
        assert max(max(node_depths(tree)) for tree in model.trees) >= 2
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        gbrt.save_model(model, first)
        loaded = gbrt.load_model(first)
        gbrt.save_model(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert loaded.trees == model.trees


class TestPersistence:
    def test_round_trip_predictions(self, train_slices, tmp_path):
        train = train_slices["tensile"]
        params = GbrtParams(n_estimators=8, colsample_bytree=0.7, seed=3)
        model = gbrt.fit(train.X, train.y, params)
        path = tmp_path / "model.json"
        gbrt.save_model(model, path)
        loaded = gbrt.load_model(path)
        np.testing.assert_allclose(
            loaded.predict(train.X), model.predict(train.X), atol=1e-12
        )
        assert loaded.feature_names == model.feature_names

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        model = gbrt.fit(STUMP_X, STUMP_Y, stump_params())
        gbrt.save_model(model, path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(ModelIOError, match="corrupt"):
            gbrt.load_model(path)

    def test_empty_ensemble_round_trips(self, tmp_path):
        model = gbrt.fit(STUMP_X, STUMP_Y, stump_params(n_estimators=0, base_score=0.9))
        path = tmp_path / "empty.json"
        gbrt.save_model(model, path)
        loaded = gbrt.load_model(path)
        assert loaded.base_score == 0.9
        assert loaded.trees == []

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        gbrt.save_model(gbrt.fit(STUMP_X, STUMP_Y, stump_params()), path)
        path.write_text(path.read_text().replace('"format_version": 1', '"format_version": 99'))
        with pytest.raises(ModelIOError, match="format_version"):
            gbrt.load_model(path)

    @pytest.mark.parametrize("feature", [9, -3])
    def test_split_feature_out_of_range_rejected(self, tmp_path, feature):
        path = tmp_path / "model.json"
        gbrt.save_model(gbrt.fit(STUMP_X, STUMP_Y, stump_params()), path)
        payload = json.loads(path.read_text())
        payload["trees"][0]["feature"] = feature
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelIOError, match="out of range"):
            gbrt.load_model(path)

    def test_wrong_model_type_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        gbrt.save_model(gbrt.fit(STUMP_X, STUMP_Y, stump_params()), path)
        path.write_text(path.read_text().replace('"model_type": "gbrt"', '"model_type": "svr"'))
        with pytest.raises(ModelIOError, match="model_type"):
            gbrt.load_model(path)


class TestParamValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            {"eta": 0.0},
            {"eta": 1.5},
            {"n_estimators": -1},
            {"max_depth": -2},
            {"gamma": -0.1},
            {"subsample": 0.0},
            {"colsample_bytree": 1.2},
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            GbrtParams(**bad)
