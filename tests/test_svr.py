import json
import subprocess
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pervml import _kernels, gbrt, svr
from pervml._kernels import smo_solve
from pervml.data import fit_scaler, load_bundled, reference_split, split
from pervml.modelio import ModelIOError
from pervml.pipeline import load_reference
from pervml.svr import (
    KERNEL_FIELDS,
    SvrConvergenceWarning,
    SvrModel,
    SvrParams,
    gram_matrix,
)
from pervml.tuning import kfold_indices, target_slice


def kernel_eval(params: SvrParams, x1, x2) -> float:
    """Pairwise oracle: one kernel value straight from its formula."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if params.kernel == "linear":
        return float(x1 @ x2)
    if params.kernel == "polynomial":
        return float((params.gamma * (x1 @ x2) + params.coef0) ** params.degree)
    if params.kernel == "sigmoid":
        return float(np.tanh(params.gamma * (x1 @ x2) + params.coef0))
    d = x1 - x2
    return float(np.exp(-params.gamma * (d @ d)))


def kernel_value(params: SvrParams, x1, x2) -> float:
    """One entry of gram_matrix on one-row inputs."""
    return float(gram_matrix(params, [x1], [x2])[0, 0])


def kkt_violation(model: SvrModel, X, y) -> float:
    """KKT oracle: the largest violation of the epsilon-optimality
    conditions on (X, y).

    Training rows are matched to support vectors by value to recover their
    coefficients (rows absent from the model have coefficient zero). The
    sum-to-zero equality residual is included in the maximum.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    coef_by_row: dict[bytes, list[float]] = {}
    for sv, coef in zip(model.support_vectors, model.dual_coefs):
        coef_by_row.setdefault(np.ascontiguousarray(sv).tobytes(), []).append(coef)
    beta = np.zeros(X.shape[0])
    for i in range(X.shape[0]):
        stack = coef_by_row.get(np.ascontiguousarray(X[i]).tobytes())
        if stack:
            beta[i] = stack.pop(0)

    residual = model.predict(X) - y
    C, eps = model.params.C, model.params.epsilon
    worst = abs(float(beta.sum()))
    for i in range(X.shape[0]):
        b, r = beta[i], residual[i]
        if b == 0.0:
            viol = max(0.0, abs(r) - eps)
        elif b >= C:
            viol = max(0.0, r + eps)
        elif b > 0.0:
            viol = abs(r + eps)
        elif b <= -C:
            viol = max(0.0, eps - r)
        else:
            viol = abs(r - eps)
        worst = max(worst, viol)
    return worst


class TestKernels:
    def test_rbf_self_is_one(self):
        p = SvrParams(kernel="rbf", gamma=0.7)
        assert kernel_value(p, [1.0, 2.0], [1.0, 2.0]) == 1.0

    def test_linear_dot(self):
        p = SvrParams(kernel="linear")
        assert kernel_value(p, [1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_polynomial(self):
        p = SvrParams(kernel="polynomial", gamma=0.5, degree=2, coef0=1.0)
        # (0.5 * 2 + 1)^2 = 4
        assert kernel_value(p, [1.0, 1.0], [1.0, 1.0]) == pytest.approx(4.0)

    def test_sigmoid(self):
        p = SvrParams(kernel="sigmoid", gamma=0.5, coef0=0.0)
        assert kernel_value(p, [1.0, 0.0], [1.0, 0.0]) == pytest.approx(np.tanh(0.5))

    def test_symmetry(self, rng):
        p = SvrParams(kernel="rbf", gamma=1.3)
        for _ in range(20):
            a, b = rng.normal(size=4), rng.normal(size=4)
            assert kernel_value(p, a, b) == pytest.approx(kernel_value(p, b, a), abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            kernel_value(SvrParams(), [1.0], [1.0, 2.0])

    def test_gram_symmetric_unit_diagonal(self, rng):
        X = rng.uniform(size=(12, 3))
        K = gram_matrix(SvrParams(kernel="rbf", gamma=0.4), X, X)
        np.testing.assert_allclose(K, K.T, atol=1e-12)
        np.testing.assert_allclose(np.diag(K), 1.0, atol=1e-12)

    def test_gram_matches_pairwise_eval(self, rng):
        X = rng.uniform(size=(5, 2))
        for kind in ("linear", "polynomial", "rbf", "sigmoid"):
            p = SvrParams(kernel=kind, gamma=0.3, degree=3, coef0=0.1)
            K = gram_matrix(p, X, X)
            for i in range(5):
                for j in range(5):
                    assert K[i, j] == pytest.approx(
                        kernel_eval(p, X[i], X[j]), abs=1e-12
                    )


class TestFitBasics:
    def test_constant_target(self):
        X = np.linspace(0, 1, 6).reshape(-1, 1)
        y = np.full(6, 0.37)
        model = svr.fit(X, y, SvrParams(C=2.0, epsilon=0.1, kernel="rbf", gamma=1.0))
        assert model.dual_coefs.size == 0
        assert model.bias == pytest.approx(0.37)
        np.testing.assert_allclose(model.predict(X), 0.37)
        assert kkt_violation(model, X, y) == 0.0

    def test_flat_tube(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 1.0])
        model = svr.fit(X, y, SvrParams(C=10.0, epsilon=0.5, kernel="linear"))
        assert model.dual_coefs.size == 0
        assert model.bias == pytest.approx(0.5)
        assert model.predict(np.array([[0.7]]))[0] == pytest.approx(0.5)

    def test_empty_support_set_predicts_bias(self):
        model = SvrModel(
            support_vectors=np.empty((0, 2)),
            dual_coefs=np.empty(0),
            bias=1.5,
            params=SvrParams(),
        )
        assert model.n_features == 2
        np.testing.assert_array_equal(model.predict(np.zeros((4, 2))), np.full(4, 1.5))

    def test_interpolation_quality(self, rng):
        X = rng.uniform(size=(20, 1))
        y = np.sin(4 * X[:, 0])
        model = svr.fit(X, y, SvrParams(C=100.0, epsilon=0.01, kernel="rbf", gamma=10.0))
        np.testing.assert_allclose(model.predict(X), y, atol=0.05)

    def test_nonconvergence_warns_and_flags(self, rng):
        X = rng.uniform(size=(15, 2))
        y = rng.uniform(size=15)
        params = SvrParams(C=100.0, epsilon=0.001, kernel="rbf", gamma=5.0, max_passes=3)
        with pytest.warns(SvrConvergenceWarning):
            model = svr.fit(X, y, params)
        assert not model.converged

    @pytest.mark.filterwarnings("ignore::pervml.svr.SvrConvergenceWarning")
    def test_stage_predictions_are_each_members_own_fit(self, train_slices):
        # C ascends, descends and repeats; linear ignores gamma, so equal C
        # share one fit. At 300 passes C = 200 stops at the cap and C = 1 does not.
        sl = train_slices["compressive"]
        X, y, X_new = sl.X[:16], sl.y[:16], sl.X[16:]
        members = [
            SvrParams(C=C, epsilon=0.01, kernel="linear", gamma=gamma, max_passes=300)
            for C, gamma in [(1.0, 0.1), (39.0, 0.1), (200.0, 0.1), (39.0, 0.5), (3.0, 0.1),
                             (1.0, 0.5), (200.0, 0.1)]
        ]
        own = [svr.fit(X, y, params) for params in members]
        assert {model.converged for model in own} == {True, False}
        staged = svr.stage_predictions(X, y, members, X_new)
        assert staged.flags.c_contiguous and staged.shape == (len(members), len(X_new))
        for row, model in zip(staged, own):
            assert row.tobytes() == model.predict(X_new).tobytes()

    def test_shape_errors(self, rng):
        with pytest.raises(ValueError):
            svr.fit(rng.uniform(size=(3, 2)), rng.uniform(size=4), SvrParams())
        with pytest.raises(ValueError, match="at least one"):
            svr.fit(np.empty((0, 2)), np.empty(0), SvrParams())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_rejected(self, bad):
        # NaN fails every SMO comparison, so its row used to be silently ignored.
        with pytest.raises(ValueError, match="target must be finite"):
            svr.fit([[0.0], [1.0], [2.0]], [0.0, bad, 1.0], SvrParams())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected(self, bad):
        # Named as a feature, not as the kernel overflow the NaN would cause.
        with pytest.raises(ValueError, match="features must be finite"):
            svr.fit([[0.0], [bad], [2.0]], [0.0, 1.0, 1.0], SvrParams())

    def test_predict_arity_checked(self):
        model = svr.fit([[0.0], [1.0], [2.0]], [0.0, 1.0, 1.0], SvrParams())
        with pytest.raises(ValueError, match="expected 1 feature column"):
            model.predict(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_predict_rejects_non_finite_feature(self, bad):
        model = svr.fit([[0.0], [1.0], [2.0]], [0.0, 1.0, 1.0], SvrParams())
        with pytest.raises(ValueError, match="features must be finite"):
            model.predict([[0.0], [bad]])


def smo_oracle(K, y, C, eps, tol, max_iter):
    """Reference solver: the same SMO loop on numpy scalars, reading one
    array element at a time. smo_solve must return its result bit for bit."""
    n = y.shape[0]
    beta = np.zeros(n)
    v = np.zeros(n)  # K @ beta, maintained incrementally
    max_up = -np.inf
    min_low = np.inf
    it = 0
    while True:
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
        rho = K[i, i] + K[j, j] - 2.0 * K[i, j]
        deriv = up_best - low_best
        s_box = min(C - bi, bj + C)
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


def smo_bits(result) -> tuple:
    """The bits of smo_solve's or smo_oracle's result."""
    beta, max_up, min_low, n_iter, converged = result
    assert isinstance(beta, np.ndarray) and beta.dtype == np.float64
    return beta.tobytes(), repr(float(max_up)), repr(float(min_low)), n_iter, converged


@st.composite
def smo_problems(draw):
    """(K, y, C, eps, tol, max_iter) over every kernel, n up to the 19 rows
    of a training slice. A K may have one off-diagonal entry an ulp away
    from its mirror, small C puts coefficients on the box, and small
    max_iter hits the cap."""
    n = draw(st.integers(1, 19))
    unit = st.floats(-1.0, 1.0)
    rows = st.lists(st.lists(unit, min_size=3, max_size=3), min_size=n, max_size=n)
    X = np.array(draw(rows))
    y = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    params = SvrParams(
        kernel=draw(st.sampled_from(list(KERNEL_FIELDS))),
        gamma=draw(st.sampled_from([0.1, 1.0])),
        coef0=1.0,
    )
    K = gram_matrix(params, X, X)
    if n >= 2 and draw(st.booleans()):
        a, b = draw(st.permutations(range(n)))[:2]
        K[a, b] = np.nextafter(K[a, b], np.inf)
    return (
        K,
        y,
        draw(st.sampled_from([1e-3, 0.01, 0.1, 1.0, 10.0, 100.0])),
        draw(st.sampled_from([0.0, 0.01, 0.1])),
        draw(st.sampled_from([1e-3, 1e-6])),
        draw(st.sampled_from([0, 1, 3, 20, 10_000])),
    )


def compressive_fold_problem():
    """The tune-svr combination behind most cap hits: linear kernel, C = 200,
    epsilon = 0.01, on the compressive training slice less its last fold at
    fold seed 42 (16 rows). SMO needs 32,475 iterations here; the cap is 300."""
    ds = load_bundled()
    train, _ = split(ds, reference_split(ds))
    sl = target_slice(train, "compressive", fit_scaler(ds))
    keep = np.ones(sl.y.shape[0], dtype=bool)
    keep[kfold_indices(sl.y.shape[0], 5, 42)[-1]] = False
    X = sl.X[keep]
    return gram_matrix(SvrParams(kernel="linear"), X, X), sl.y[keep], 200.0, 0.01, 1e-3, 300


class TestSmoMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(smo_problems())
    @example((np.array([[1.0]]), np.array([0.5]), 1.0, 0.1, 1e-3, 100))
    @example(  # K[1, 0] is an ulp above K[0, 1], so reading rows shows
        (np.array([[1.0, 0.5], [np.nextafter(0.5, 1.0), 2.0]]), np.array([1.0, -1.0]),
         10.0, 0.0, 1e-3, 100)
    )
    @example(  # the first pair lands on the box, then the cap stops the second
        (np.eye(4), np.array([1.0, -1.0, 0.5, -0.5]), 0.01, 0.0, 1e-3, 1)
    )
    @example(  # every coefficient ends on the box
        (np.eye(4), np.array([1.0, -1.0, 0.5, -0.5]), 0.01, 0.0, 1e-3, 100)
    )
    @example(  # after one step every e is a signed zero: the first index wins
        # the tie, so max_up is -0.0 and min_low 0.0
        (np.eye(6), np.array([-0.0, 0.0, 1.0, -0.0, -1.0, 0.0]), 1.0, 0.0, 1e-3, 100)
    )
    @example(  # coefficient 2 lands on +C and its e, 0.5, stays the largest:
        # it must leave the up set, so max_up is coefficient 1's -0.5
        (np.eye(3), np.array([-0.75, -1.0, 0.75]), 0.25, 0.25, 1e-3, 100)
    )
    @example(  # coefficient 1 lands on -C with the smallest s, 0.375: it must
        # leave the low set, so min_low is 0.625 and the first step converges
        (np.eye(3), np.array([1.0, 0.0, 0.75]), 0.25, 0.125, 1e-3, 100)
    )
    @example(  # the second step stops at the kink where coefficient 0 returns
        # to exactly 0.0; the cap then reports its s = e - eps as max_up
        (np.array([[6.0, 2.0, -2.0], [2.0, 3.0, -1.0], [-2.0, -1.0, 3.0]]),
         np.array([0.25, 0.25, -1.0]), 1.0, 0.25, 1e-3, 2)
    )
    @example(  # duplicate rows: rho is 0.0, so the step skips the quadratic
        # optimum and runs to the box
        (np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, -1.0]), 1.0, 0.0, 1e-3, 100)
    )
    @example(  # a K that is not PSD: rho < 0, so the dual has no maximum
        # inside the segment and the step runs to the box
        (np.array([[0.1, 0.9], [0.9, 0.1]]), np.array([1.0, -1.0]), 1.0, 0.0, 1e-3, 100)
    )
    @example(  # the second step's q = deriv / rho equals, to the bit, the
        # length to the kink where coefficient 0 returns to 0.0: the step
        # stops there; carrying the rounding residue of deriv - rho * q past
        # the kink would leave coefficient 0 at -5.6e-17
        (np.array([[1.0, 0.0, 0.52], [0.0, 1.0, 0.57], [0.52, 0.57, 1.0]]),
         np.array([0.22, -0.3, 0.19660000000000002]), 10.0, 0.0, 1e-3, 2)
    )
    @example(compressive_fold_problem())
    def test_bit_identical(self, problem):
        assert smo_bits(smo_solve(*problem)) == smo_bits(smo_oracle(*problem))

    def test_empty_problem(self):
        problem = (np.empty((0, 0)), np.empty(0), 1.0, 0.1, 1e-3, 100)
        beta, max_up, min_low, n_iter, converged = smo_solve(*problem)
        assert beta.shape == (0,)
        assert (max_up, min_low, n_iter, converged) == (-np.inf, np.inf, 0, True)
        assert smo_bits(smo_solve(*problem)) == smo_bits(smo_oracle(*problem))


ASYMMETRIC_PROBLEM = (  # K[1, 0] is an ulp above K[0, 1]: reading K[j, i] for K[i, j] shows
    np.array([[1.0, 0.5], [np.nextafter(0.5, 1.0), 2.0]]), np.array([1.0, -1.0]),
    10.0, 0.0, 1e-3, 100,
)


class TestSmoInputs:
    @pytest.mark.parametrize(
        "K, y",
        [(np.eye(2), np.zeros(3)), (np.eye(3)[:2], np.zeros(3)), (np.eye(2), np.zeros((2, 1)))],
        ids=["2x2_for_3", "2x3", "column_y"],
    )
    def test_mismatched_shapes_raise(self, K, y):
        with pytest.raises(ValueError, match=r"K must be \(n, n\)"):
            smo_solve(K, y, 1.0, 0.1, 1e-3, 100)

    @pytest.mark.parametrize(
        "convert",
        [np.asfortranarray, lambda a: a.astype(np.float32), lambda a: np.repeat(a, 2, axis=-1)[..., ::2]],
        ids=["fortran", "float32", "strided"],
    )
    @pytest.mark.parametrize("problem", [ASYMMETRIC_PROBLEM, compressive_fold_problem()], ids=["ulp", "fold"])
    def test_any_layout_gives_the_oracle_bits(self, problem, convert):
        K, y, *rest = problem
        K, y = convert(K), convert(y)
        oracle = smo_oracle(np.array(K, dtype=np.float64), np.array(y, dtype=np.float64), *rest)
        assert smo_bits(smo_solve(K, y, *rest)) == smo_bits(oracle)

    def test_huge_max_iter_is_not_wrapped(self):
        # 2**64 + 5 wraps to 5 in a 64-bit integer; this problem needs 32,475 steps.
        K, y, C, eps, tol, _ = compressive_fold_problem()
        huge = smo_solve(K, y, C, eps, tol, 2**64 + 5)
        assert smo_bits(huge) == smo_bits(smo_solve(K, y, C, eps, tol, 10**6))
        assert huge[3] == 32_475 and huge[4]


def count_compiles(monkeypatch):
    """The commands subprocess.run is asked to run from here on."""
    commands = []
    run = subprocess.run

    def counting_run(command, *args, **kwargs):
        commands.append(command)
        return run(command, *args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counting_run)
    return commands


class TestSmoLibrary:
    problem = (np.eye(3), np.array([-0.2, 0.9, 0.1]), 1.0, 0.0, 1e-3, 100)

    def test_cold_cache_builds_once(self, cold_smo_cache, monkeypatch):
        commands = count_compiles(monkeypatch)
        assert smo_bits(smo_solve(*self.problem)) == smo_bits(smo_oracle(*self.problem))
        assert [c[0] for c in commands] == ["cc"]
        assert [p.suffix for p in cold_smo_cache.iterdir()] == [".so"]  # no temporary left
        monkeypatch.setattr(_kernels, "_lib", None)
        assert smo_bits(smo_solve(*self.problem)) == smo_bits(smo_oracle(*self.problem))
        assert len(commands) == 1

    def test_changed_source_is_rebuilt(self, cold_smo_cache, monkeypatch, tmp_path):
        commands = count_compiles(monkeypatch)
        expected = smo_oracle(*self.problem)
        smo_solve(*self.problem)
        changed = tmp_path / "_smo.c"
        smo_source, gbrt_source = _kernels._SOURCES
        source = smo_source.read_text()
        assert source.count("it += 1;") == 1
        changed.write_text(source.replace("it += 1;", "it += 2;"))
        monkeypatch.setattr(_kernels, "_SOURCES", (changed, gbrt_source))
        monkeypatch.setattr(_kernels, "_lib", None)
        assert smo_solve(*self.problem)[3] == 2 * expected[3] > 0
        assert len(commands) == 2
        assert len(list(cold_smo_cache.glob("_kernels-*.so"))) == 2

    def test_unwritable_cache_still_solves(self, monkeypatch, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")  # a file, so no directory can be made under it
        private = tmp_path / "tmp"
        private.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(private))
        monkeypatch.setattr(_kernels, "_CACHE", blocker / "__pycache__")
        monkeypatch.setattr(_kernels, "_lib", None)
        assert smo_bits(smo_solve(*self.problem)) == smo_bits(smo_oracle(*self.problem))
        assert list(private.iterdir()) == []  # the private build is removed once loaded

    def test_missing_compiler_names_cc(self, no_compiler, cold_smo_cache):
        with pytest.raises(RuntimeError, match="pervml needs a C compiler.*`cc -std=c99 "):
            smo_solve(*self.problem)
        assert list(cold_smo_cache.iterdir()) == []

    def test_failed_build_is_not_retried(self, no_compiler, cold_smo_cache, monkeypatch):
        commands = count_compiles(monkeypatch)
        with pytest.raises(RuntimeError, match="pervml needs a C compiler") as first:
            smo_solve(*self.problem)
        with pytest.raises(RuntimeError) as again:
            gbrt.fit(np.eye(2), np.zeros(2), gbrt.GbrtParams(n_estimators=1))
        assert again.value is first.value
        assert len(commands) == 1


def fit_reference_setting(train_slices, target):
    ref = load_reference()["settings"]["svr"][target]
    params = SvrParams(
        C=ref["C"], epsilon=ref["epsilon"], gamma=ref["gamma"], kernel=ref["kernel"]
    )
    train = train_slices[target]
    return svr.fit(train.X, train.y, params), train, params


class TestDualInvariants:
    @pytest.mark.parametrize("target", ["density", "compressive", "tensile", "porosity"])
    def test_reference_settings_kkt(self, train_slices, target):
        model, train, params = fit_reference_setting(train_slices, target)
        assert model.converged
        assert kkt_violation(model, train.X, train.y) <= params.tol
        assert abs(model.dual_coefs.sum()) <= 1e-8
        assert np.all(np.abs(model.dual_coefs) <= params.C + 1e-12)
        assert np.all(model.dual_coefs != 0.0)

    def test_perturbed_coefficient_violates(self, train_slices):
        model, train, params = fit_reference_setting(train_slices, "tensile")
        assert model.dual_coefs.size > 0
        model.dual_coefs = model.dual_coefs.copy()
        model.dual_coefs[0] += 0.1 * params.C
        assert kkt_violation(model, train.X, train.y) > params.tol

    def test_interior_points_have_zero_coefficient(self, train_slices):
        model, train, params = fit_reference_setting(train_slices, "compressive")
        residual = np.abs(model.predict(train.X) - train.y)
        sv_rows = {sv.tobytes() for sv in model.support_vectors}
        for i in range(train.X.shape[0]):
            if residual[i] < params.epsilon - params.tol:
                assert np.ascontiguousarray(train.X[i]).tobytes() not in sv_rows

    def test_epsilon_monotonicity(self, train_slices):
        train = train_slices["compressive"]
        counts = []
        for eps in (0.01, 0.05, 0.1, 0.2, 0.4):
            model = svr.fit(
                train.X,
                train.y,
                SvrParams(C=39.0, epsilon=eps, kernel="rbf", gamma=0.11, tol=1e-4),
            )
            counts.append(model.dual_coefs.size)
        assert counts == sorted(counts, reverse=True)


class TestPersistence:
    def test_round_trip(self, train_slices, tmp_path):
        model, train, _ = fit_reference_setting(train_slices, "porosity")
        path = tmp_path / "svr.json"
        svr.save_model(model, path)
        loaded = svr.load_model(path)
        np.testing.assert_allclose(
            loaded.predict(train.X), model.predict(train.X), atol=1e-12
        )
        assert loaded.params == model.params
        assert loaded.converged == model.converged

    def test_corrupt_rejected(self, tmp_path):
        path = tmp_path / "svr.json"
        path.write_text("{ not json")
        with pytest.raises(ModelIOError, match="corrupt"):
            svr.load_model(path)

    def test_dual_coefs_count_mismatch_rejected(self, train_slices, tmp_path):
        model, _, _ = fit_reference_setting(train_slices, "porosity")
        path = tmp_path / "svr.json"
        svr.save_model(model, path)
        payload = json.loads(path.read_text())
        payload["dual_coefs"].pop()
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelIOError, match="dual coefficient"):
            svr.load_model(path)

    def test_constant_model_round_trips(self, tmp_path):
        X = np.zeros((3, 2))
        model = svr.fit(X, np.full(3, 0.9), SvrParams(epsilon=0.2))
        path = tmp_path / "svr.json"
        svr.save_model(model, path)
        loaded = svr.load_model(path)
        assert loaded.bias == model.bias
        assert loaded.dual_coefs.size == 0
        np.testing.assert_array_equal(loaded.predict(X), model.predict(X))


class TestParamValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            {"C": 0.0},
            {"epsilon": -0.1},
            {"kernel": "cubic"},
            {"kernel": "rbf", "gamma": 0.0},
            {"tol": 0.0},
            {"max_passes": 0},
            {"kernel": "polynomial", "degree": -1},
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            SvrParams(**bad)
