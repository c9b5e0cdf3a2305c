"""The benchmark's three workloads, each driven through ``pervml.cli.run``.

A workload has a set-up step (import pervml, load and scale the bundled
table, build the grid) and a pass that is timed. ``run_pass`` runs one pass
into an output directory and then checks what it wrote; the checks run
outside the timed region.

Timings are taken on a shared host whose speed drifts by up to 40% over
tens of seconds, as other tenants load the physical cores. ``HostSpeed``
tracks that drift while a pass runs by timing a fixed calibration loop from
a timer signal, so each pass time can also be given at the reference host
speed (see ``REFERENCE_MS``).

Run as a script, this module times one set-up in a fresh interpreter and
prints it as JSON, which is how ``setup_s`` is sampled:

    python3 perfbench/workloads.py --setup tune-gbrt
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import resource
import shutil
import signal
import statistics
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("tune-gbrt", "tune-svr", "study")
TUNE_FAMILY = {"tune-gbrt": "gbrt", "tune-svr": "svr"}
TUNE_TARGET = "compressive"
FOLDS = 5
STUDY_FITS = 16  # 8 in reproduce, 8 by train
REPRO_BAND_EXIT = 3  # reproduce --strict with a failed acceptance band

# Median time (ms) of each part of host_slowdown() on the 2-CPU host the
# benchmark was defined on (Python 3.11, numpy 2.4): 1.0 is that host's
# typical speed.
REFERENCE_MS = (0.31, 0.31, 0.30)
SAMPLE_INTERVAL_S = 0.05
SLOWDOWN_SAMPLES_AFTER_SETUP = 9


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, bad grid file)."""


def use_checkout_source():
    """Import pervml from this checkout's ``src`` and nowhere else."""
    if not (SRC / "pervml" / "__init__.py").is_file():
        raise BenchError(f"no pervml package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def host_slowdown() -> float:
    """How much slower than the reference host this host runs now (~1 ms).

    Times three fixed loops like pervml's inner loops (integer arithmetic,
    small numpy calls, numpy scalar indexing) and returns the geometric
    mean of their times over REFERENCE_MS. Host contention slows these
    about as much as it slows a pass; pervml changes do not touch them.
    """
    import numpy as np

    values = np.linspace(1.0, 0.0, 20) ** 2
    times = []
    start = time.perf_counter()
    total = 0
    for i in range(4000):
        total += i * i
    times.append(time.perf_counter() - start)
    start = time.perf_counter()
    for _ in range(30):
        np.cumsum(values[np.argsort(values, kind="mergesort")]).argmax()
    times.append(time.perf_counter() - start)
    start = time.perf_counter()
    for _ in range(10):
        order = np.argsort(values, kind="mergesort")
        acc = 0.0
        for pos in range(19):
            acc += values[order[pos]]
            if values[order[pos]] != values[order[pos + 1]]:
                acc = max(abs(acc) - 0.1, 0.0)
    times.append(time.perf_counter() - start)
    ratio = 1.0
    for seconds, ref_ms in zip(times, REFERENCE_MS):
        ratio *= seconds * 1e3 / ref_ms
    return ratio ** (1 / len(times))


class HostSpeed:
    """Host slowdown sampled every SAMPLE_INTERVAL_S during each pass.

    A SIGALRM handler runs ``host_slowdown`` between bytecodes of the pass;
    ``passes`` holds, per pass, the samples and the seconds the handler
    took, which the caller subtracts from the pass time.
    """

    def __init__(self):
        self.passes: list[tuple[list, float]] = []
        self._samples: list = []
        self._spent = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self._samples.append(host_slowdown())
        self._spent += time.perf_counter() - start

    @contextlib.contextmanager
    def sampling(self):
        self._samples, self._spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.passes.append((self._samples, self._spent))


def grid_path(workload: str) -> Path:
    return HERE / "grids" / f"{workload.replace('-', '_')}.ini"


def check_grid_subset(grid, full) -> None:
    """Every axis and value of the reduced grid must be in the shipped grid."""
    for axis, values in grid.axes.items():
        if axis not in full.axes:
            raise BenchError(f"{grid.family} grid axis {axis!r} is not in default_grid")
        extra = [v for v in values if v not in full.axes[axis]]
        if extra:
            raise BenchError(
                f"{grid.family} grid axis {axis!r} has values {extra} not in default_grid"
            )


@dataclass
class Context:
    """What set-up leaves for the passes."""

    workload: str
    n_combinations: int = 0
    fits_per_pass: int = STUDY_FITS
    study_direct: dict = field(default_factory=dict)  # eval file name -> bytes


def setup(workload: str) -> Context:
    """Import pervml, load and scale the bundled table, build the grid."""
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    use_checkout_source()
    import pervml
    from pervml import data, pipeline, tuning

    if not Path(pervml.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"pervml imported from {pervml.__file__}, not from {SRC}")
    ds = data.load_bundled()
    train_ds, _ = data.split(ds, data.reference_split(ds))
    scaler = data.fit_scaler(ds)
    ctx = Context(workload=workload)
    if workload in TUNE_FAMILY:
        family = TUNE_FAMILY[workload]
        tuning.target_slice(train_ds, TUNE_TARGET, scaler)
        grid = tuning.read_grid_file(grid_path(workload))[family]
        check_grid_subset(grid, tuning.default_grid(family))
        ctx.n_combinations = grid.n_combinations
        ctx.fits_per_pass = grid.n_combinations * FOLDS + 1
    else:
        pipeline.load_reference()
    return ctx


def study_settings():
    from pervml.data import TARGET_COLUMNS

    return [(family, target) for target in TARGET_COLUMNS for family in ("gbrt", "svr")]


@dataclass
class Call:
    argv: list
    code: int
    stdout: str
    stderr: str


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    attempted: int
    failed: int
    problems: list
    digests: dict
    cap_warnings: int
    best_cv_mse: float | None = None
    bands_failed: int | None = None


def _cpu_now() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _cli(argv) -> Call:
    from pervml import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run([str(a) for a in argv])
    return Call(list(argv), code, out.getvalue(), err.getvalue())


def _digests(out_dir: Path) -> dict:
    found = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            found[path.relative_to(out_dir).as_posix()] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return found


def _tune_argv(ctx: Context, seed: int, out: Path) -> list:
    family = TUNE_FAMILY[ctx.workload]
    return [
        "tune", "--model", family, "--target", TUNE_TARGET,
        "--grid", grid_path(ctx.workload), "--folds", FOLDS,
        "--seed", seed, "--out", out,
    ]


def _study_argvs(seed: int, out: Path) -> list:
    argvs = [
        ["reproduce", "--strict", "--seed", seed, "--out", out / "repro"],
        ["sensitivity", "--out", out / "sensitivity"],
        ["importance", "--target", TUNE_TARGET, "--seed", seed, "--out", out / "importance"],
    ]
    for family, target in study_settings():
        argvs.append(
            ["train", "--model", family, "--target", target, "--seed", seed, "--out", out / "models"]
        )
        argvs.append(
            [
                "evaluate", "--model", family, "--target", target, "--seed", seed,
                "--model-file", out / "models" / f"model_{family}_{target}.json",
                "--out", out / "evaluate",
            ]
        )
    return argvs


def _eval_files(family: str, target: str) -> tuple[str, str]:
    return f"metrics_{family}_{target}.csv", f"predictions_{family}_{target}.csv"


def prepare_study(ctx: Context, seed: int, out: Path) -> list:
    """Fit each published setting directly with ``evaluate`` (no model file).

    Its metrics and predictions are what ``evaluate --model-file`` must
    reproduce byte for byte in every pass. Returns problems found.
    """
    problems = []
    for family, target in study_settings():
        call = _cli(
            ["evaluate", "--model", family, "--target", target, "--seed", seed, "--out", out]
        )
        if call.code != 0:
            problems.append(f"direct evaluate {family} {target} exited {call.code}: {call.stderr}")
            continue
        for name in _eval_files(family, target):
            ctx.study_direct[name] = (out / name).read_bytes()
    return problems


def run_pass(ctx: Context, seed: int, out: Path, timed=contextlib.nullcontext) -> PassResult:
    """One timed pass into a fresh ``out``, then its output checks (untimed).

    ``timed`` is entered around exactly the timed region; the traced run
    passes its root span there.
    """
    from pervml.svr import SvrConvergenceWarning

    shutil.rmtree(out, ignore_errors=True)

    argvs = (
        [_tune_argv(ctx, seed, out)] if ctx.workload in TUNE_FAMILY else _study_argvs(seed, out)
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with timed():
            cpu0 = _cpu_now()
            start = time.perf_counter()
            calls = [_cli(argv) for argv in argvs]
            wall = time.perf_counter() - start
            cpu = _cpu_now() - cpu0
    cap_warnings = sum(issubclass(w.category, SvrConvergenceWarning) for w in caught)
    result = PassResult(
        wall_s=wall, cpu_s=cpu, attempted=0, failed=0, problems=[],
        digests=_digests(out), cap_warnings=cap_warnings,
    )
    if ctx.workload in TUNE_FAMILY:
        _check_tune(ctx, calls[0], out, result)
    else:
        _check_study(ctx, calls, out, result)
    return result


def run_passes(
    ctx: Context, seed: int, out: Path, budget_s: float,
    timed=contextlib.nullcontext, after=None,
) -> list:
    """Passes until the next one would likely end after ``budget_s``; at least one.

    ``after`` is called with each pass's result before the next pass starts.
    """
    results = []
    start = time.perf_counter()
    while True:
        results.append(run_pass(ctx, seed, out, timed))
        if after is not None:
            after(results[-1])
        typical = statistics.median(r.wall_s for r in results)
        if time.perf_counter() - start + typical > budget_s:
            return results


def _check_tune(ctx: Context, call: Call, out: Path, result: PassResult):
    from pervml import gbrt, svr

    family = TUNE_FAMILY[ctx.workload]
    result.attempted = ctx.n_combinations
    if call.code != 0:
        result.failed = ctx.n_combinations
        result.problems.append(f"tune exited {call.code}: {call.stderr.strip()}")
        return
    with open(out / f"cv_results_{family}_{TUNE_TARGET}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    result.failed = sum(1 for row in rows if row["error"])
    if len(rows) != ctx.n_combinations:
        result.problems.append(f"cv_results has {len(rows)} rows, expected {ctx.n_combinations}")
        return
    ranks = sorted(int(row["rank"]) for row in rows)
    if ranks != list(range(1, len(rows) + 1)):
        result.problems.append("cv_results ranks are not 1..n")
        return
    scores = [float(row["mean_mse"]) for row in rows]
    best = next(row for row in rows if row["rank"] == "1")
    result.best_cv_mse = float(best["mean_mse"])
    if result.best_cv_mse != min(scores):
        result.problems.append("rank-1 combination does not have the lowest mean MSE")
    best_params = (out / f"best_params_{family}_{TUNE_TARGET}.txt").read_text()
    if f"CV mean MSE {best['mean_mse']};" not in best_params:
        result.problems.append("best_params does not quote the rank-1 mean MSE")
    model_path = out / f"model_{family}_{TUNE_TARGET}.json"
    try:
        (gbrt if family == "gbrt" else svr).load_model(model_path)
    except ValueError as exc:  # ModelIOError is a ValueError
        result.problems.append(f"tuned model does not load: {exc}")


def _check_study(ctx: Context, calls: list, out: Path, result: PassResult):
    result.attempted = len(calls)
    failed = set()  # indices into calls
    for i, call in enumerate(calls):
        allowed = (0, REPRO_BAND_EXIT) if call.argv[0] == "reproduce" else (0,)
        if call.code not in allowed:
            failed.add(i)
            result.problems.append(
                f"{' '.join(map(str, call.argv))} exited {call.code}: {call.stderr.strip()}"
            )
    repro = calls[0]
    result.bands_failed = repro.stdout.count("BAND FAILURE:")
    if (repro.code == REPRO_BAND_EXIT) != (result.bands_failed > 0):
        failed.add(0)
        result.problems.append(
            f"reproduce exited {repro.code} but reported {result.bands_failed} band failure(s)"
        )
    for i, call in enumerate(calls):
        if call.argv[0] != "evaluate" or i in failed:
            continue
        family, target = call.argv[2], call.argv[4]
        for name in _eval_files(family, target):
            path = out / "evaluate" / name
            if not path.is_file() or path.read_bytes() != ctx.study_direct.get(name):
                failed.add(i)
                result.problems.append(f"evaluate --model-file wrote {name} unlike a direct fit")
    result.failed = len(failed)


def _main(argv) -> int:
    if len(argv) != 2 or argv[0] != "--setup":
        print("usage: workloads.py --setup <workload>", file=sys.stderr)
        return 1
    start = time.perf_counter()
    setup(argv[1])
    setup_s = time.perf_counter() - start
    samples = [host_slowdown() for _ in range(SLOWDOWN_SAMPLES_AFTER_SETUP)]
    print(json.dumps({"setup_s": setup_s, "host_slowdown": statistics.mean(samples)}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(_main(sys.argv[1:]))
    except BenchError as exc:
        print(f"workloads.py: {exc}", file=sys.stderr)
        sys.exit(2)
