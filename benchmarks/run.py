"""gmmlor benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload study-7k --seed 1 --seconds 15 --trace 0

Each run starts fresh worker processes (``worker.py``) that import
gmmlor from ``src/`` of this checkout and issue the workload's CLI
commands, one at a time (a closed loop with one client).  The outputs
of every command are then checked here, and the last line printed is
one JSON object: ``correct``, ``attempted`` and ``failed`` operations,
and the metrics (end-to-end with ``--trace 0``, per layer with
``--trace 1``).  Scratch files live under ``.bench_out/`` and are
removed at exit, except the span file of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

#: Set-up-only processes started besides the workload's own, so that
#: setup_s is a median of SETUP_RUNS + 1 samples.
SETUP_RUNS = 14
#: Seconds from the start of a run after which a worker still running is
#: killed and the run fails, leaving time to check outputs within 180 s.
DEADLINE_S = 165.0
#: Thread-count variables of the BLAS libraries numpy may be built with.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "mean_err": "image_units",
    "cov_err": "image_units2",
    "weight_err": "1",
    "kl": "nats",
}


class BenchmarkError(Exception):
    """The run could not produce a result."""


def spawn_worker(args, work: Path, deadline, setup_only, trace_out=None):
    """Run worker.py in a fresh process and return its result JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # One client, one thread: a BLAS pool as wide as the host would
    # time how many cores other tenants leave free, not gmmlor.
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", str(work),
    ]
    if setup_only:
        argv.append("--setup-only")
    if trace_out is not None:
        argv += ["--trace-out", str(trace_out)]
    with open(work / "worker.log", "a", encoding="utf-8") as log:
        argv += ["--t0", repr(time.monotonic())]
        try:
            proc = subprocess.run(
                argv, env=env, stdout=log, check=False,
                timeout=max(deadline - time.monotonic(), 1.0),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(
                f"worker killed after {exc.timeout:.0f} s"
            ) from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with {proc.returncode}")
    result = json.loads(
        (work / ("setup.json" if setup_only else "result.json")).read_text(
            encoding="utf-8"
        )
    )
    expected = ROOT / "src" / "gmmlor" / "cli.py"
    if Path(result["gmmlor"]).resolve() != expected:
        raise BenchmarkError(
            f"worker imported {result['gmmlor']}, not {expected}"
        )
    return result


def check_rounds(rounds, truth_path):
    """(attempted, failed, correct) over every round.

    An operation fails if it exits non-zero or any check on its output
    fails.  ``correct`` turns false when a check fails for any reason but
    the known fault of a fit settling in a wrong optimum
    (``checks.WRONG_OPTIMUM``), which only counts in ``failed``.
    """
    attempted = failed = 0
    correct = True
    for rnd in rounds:
        for op in rnd["ops"]:
            attempted += 1
            if op["rc"] != 0:
                failed += 1
                print(f"{op['operation']}: exit code {op['rc']}",
                      file=sys.stderr)
                continue
            try:
                problems = workloads.check_operation(
                    op["operation"], op["argv"], truth_path
                )
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            if problems:
                failed += 1
                if not all(p.startswith(checks.WRONG_OPTIMUM) for p in problems):
                    correct = False
                for problem in problems:
                    print(f"{op['operation']}: {problem}", file=sys.stderr)
    return attempted, failed, correct


def end_to_end(setups, result):
    """End-to-end metrics: medians over set-ups and untraced rounds."""
    untraced = [r for r in result["rounds"] if not r["traced"]]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in untraced),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    per_round = [
        acc for acc in (workloads.accuracy(r["ops"]) for r in untraced)
        if acc is not None
    ]
    if not per_round:
        raise BenchmarkError("no round completed, so no accuracy to report")
    for name in workloads.ACCURACY:
        values[name] = statistics.median(acc[name] for acc in per_round)
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in END_TO_END_UNITS.items()
    }


def per_layer(result):
    traced = [r for r in result["rounds"] if r["traced"]]
    metrics = {}
    for name, (unit, _span, _kind) in tracing.LAYER_METRICS.items():
        value = statistics.median(r["layers"][name] for r in traced)
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead"] = {
        "value": statistics.median(
            r["wall_s"] / r["untraced_wall_s"] - 1.0 for r in traced
        ),
        "unit": "1",
    }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps its worker on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "gmmlor" / "cli.py").is_file():
        print(f"error: no gmmlor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    trace_out = None
    if args.trace:
        trace_out = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [
            spawn_worker(args, work, deadline, setup_only=True)["setup_s"]
            for _ in range(SETUP_RUNS)
        ]
        result = spawn_worker(
            args, work, deadline, setup_only=False, trace_out=trace_out
        )
        setups.append(result["setup_s"])
        truth_path = str(work / "truth.json")
        attempted, failed, correct = check_rounds(result["rounds"], truth_path)
        if args.trace:
            metrics = per_layer(result)
        else:
            metrics = end_to_end(setups, result)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
