#!/usr/bin/env python3
"""The pervml benchmark: three workloads driven through ``pervml.cli.run``.

    python3 perfbench/run.py --workload tune-gbrt --seed 42 --seconds 40 --trace 0

Workloads (one client, one process, closed loop; see perfbench/README.md):
``tune-gbrt`` and ``tune-svr`` run ``pervml tune`` on the reduced grids in
perfbench/grids; ``study`` runs reproduce, sensitivity, importance, and
train + ``evaluate --model-file`` for the 8 published settings.

With ``--trace 0`` the end-to-end metrics are measured untraced. With
``--trace 1`` untraced passes fill half the time, and a separate process
(perfbench/tracing.py) runs traced passes for the other half and gives the
per-layer metrics. Every pass's outputs are checked. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when an output check failed
and 2 when the benchmark cannot run (no pervml source in this checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

import workloads
from workloads import HERE, ROOT

DEFAULT_SEED = 42
HELD_OUT_SEED = 1009
SETUP_SAMPLES = 7
WORK_DIR = ROOT / ".perfbench_out"
CHILD_TIMEOUT_S = 150


def host_probe() -> float:
    """Median of five host-slowdown samples: the host's speed now."""
    return statistics.median(workloads.host_slowdown() for _ in range(5))


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy
    from pervml import _kernels

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "numba_enabled": _kernels.NUMBA_ENABLED,
        "git_commit": git_commit(),
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
    }


def _run_child(argv: list, what: str) -> dict:
    """Run a Python child in the checkout; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, *map(str, argv)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise workloads.BenchError(f"{what} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(workload: str) -> list:
    """(set-up seconds, host slowdown) from fresh interpreters; the first
    one, which also compiles bytecode in a fresh checkout, is not counted."""
    argv = [HERE / "workloads.py", "--setup", workload]
    _run_child(argv, "set-up")
    samples = [_run_child(argv, "set-up") for _ in range(SETUP_SAMPLES)]
    return [(s["setup_s"], s["host_slowdown"]) for s in samples]


def pass_times(passes: list, host: workloads.HostSpeed) -> tuple[list, list, list]:
    """Per pass: wall and CPU seconds without the sampler's own time, and
    the mean host slowdown sampled during it (the run's mean when a pass
    took no sample)."""
    every = [x for samples, _ in host.passes for x in samples]
    fallback = statistics.mean(every) if every else 1.0
    walls, cpus, slowdowns = [], [], []
    for result, (samples, spent) in zip(passes, host.passes):
        walls.append(result.wall_s - spent)
        cpus.append(result.cpu_s - spent)
        slowdowns.append(statistics.mean(samples) if samples else fallback)
    return walls, cpus, slowdowns


def at_reference_speed(seconds: list, slowdowns: list) -> float:
    """Median of the times scaled to the reference host speed."""
    return statistics.median(t / x for t, x in zip(seconds, slowdowns))


def recorded_digests(workload: str, seed: int) -> dict | None:
    path = HERE / "digests.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())["digests"].get(workload, {}).get(str(seed))


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads.use_checkout_source()
    work = WORK_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    probe_start, load_start = host_probe(), os.getloadavg()[0]

    setup_samples = [] if args.trace else measure_setup(args.workload)
    ctx = workloads.setup(args.workload)
    problems = []
    if args.workload == "study":
        problems += workloads.prepare_study(ctx, args.seed, work / "direct")
    budget = args.seconds / 2 if args.trace else args.seconds
    host = workloads.HostSpeed()
    passes = workloads.run_passes(ctx, args.seed, work / "pass", budget, timed=host.sampling)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    traced = None
    if args.trace:
        traced = _run_child(
            [HERE / "tracing.py", args.workload, args.seed, budget, work / "traced"],
            "traced run",
        )
    probe_end, load_end = host_probe(), os.getloadavg()[0]

    problems += [p for r in passes for p in r.problems]
    digests = passes[0].digests
    if any(r.digests != digests for r in passes):
        problems.append("outputs differ between passes")
    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    walls, cpus, slowdowns = pass_times(passes, host)
    raw_wall_s = statistics.median(walls)
    wall_s = at_reference_speed(walls, slowdowns)
    if traced is not None:
        problems += traced["problems"]
        if traced["digests"] != digests:
            problems.append("traced outputs differ from untraced outputs")
        attempted += sum(p["attempted"] for p in traced["passes"])
        failed += sum(p["failed"] for p in traced["passes"])
        metrics = dict(traced["metrics"])
        traced_wall = statistics.median(p["wall_s"] for p in traced["passes"])
        metrics["trace.overhead_s"] = metric(traced_wall - raw_wall_s, "s")
    else:
        metrics = {
            "setup_s": metric(at_reference_speed(*zip(*setup_samples)), "s"),
            "wall_s": metric(wall_s, "s"),
            "models_per_s": metric(ctx.fits_per_pass / wall_s, "1/s"),
            "cpu_s": metric(at_reference_speed(cpus, slowdowns), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }

    expected = recorded_digests(args.workload, args.seed)
    recorded = {
        "error_rate": failed / attempted,
        "best_cv_mse": passes[0].best_cv_mse,
        "bands_failed": passes[0].bands_failed,
        "outputs_identical": None if expected is None else expected == digests,
        "smo_cap_warnings": passes[0].cap_warnings,
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "passes": len(passes),
        "raw": {
            "wall_s": raw_wall_s,
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(s for s, _ in setup_samples) if setup_samples else None,
        },
        "pass_wall_s": walls,
        "pass_host_slowdown": slowdowns,
        "setup_samples": setup_samples,
        "fits_per_pass": ctx.fits_per_pass,
        "recorded": recorded,
        "environment": {
            **environment(args.seed),
            "loadavg_1m": [load_start, load_end],
            "host_slowdown": [probe_start, probe_end],
        },
        "digests": digests,
        "problems": problems,
    }
    if traced is not None:
        record.update(
            traced_passes=len(traced["passes"]),
            absent=traced["absent"],
            layer_self_s=traced["layer_self_s"],
            spans_file=os.path.relpath(traced["spans_file"], ROOT),
        )

    print(f"{args.workload}  seed {args.seed}  {len(passes)} untraced pass(es)")
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:>16.6g} {m['unit']}")
    for name, value in recorded.items():
        unit = {"error_rate": "ratio", "best_cv_mse": "mse", "bands_failed": "count"}.get(name, "")
        print(f"  {name:<30} {str(value):>16} {unit}  (recorded, not gated)")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print("record " + json.dumps(record))
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (workloads.BenchError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        sys.exit(2)
