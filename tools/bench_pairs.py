"""Paired before/after runs of the benchmark, written to a BENCH_<n>.json.

Runs ``benchmarks/run.py`` in two source checkouts, a parent and a
change, alternating which of the two goes first in each pair, and
summarises every end-to-end metric per side: median, quartiles, range,
the change-over-parent ratio of the medians and how many pairs the
change won.  Each metric also gets two verdicts: ``gain_rule_met``, the
change won at least 9 of 10 pairs and its median beats the parent's by
more than the parent's interquartile range; and ``within_bound``, the
change's median is worse than the parent's by no more than the
metric's ``bound`` in ``BENCHMARK.json``, a fraction of the parent's
median.  One extra ``--trace 1`` run per side gives the per-layer
figures.  Run it from anywhere; each checkout runs its own copy of the
benchmark::

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload study-7k --workload scan-1m \\
        --description "..." --out BENCH_6.json

The parent checkout must be a git clone: its commit is read from its
``HEAD``.  Every run lasts the ``run_seconds`` of the change's
``BENCHMARK.json``, so the two sides always run equally long.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
#: Pairs per workload, the fewest that can show a 9-of-10 win.
PAIRS = 10
#: Seed of the first pair; pair i runs with FIRST_SEED + i - 1.
FIRST_SEED = 201
#: Seed of the one --trace 1 run per side.
TRACE_SEED = 301


def run_once(checkout, workload, seed, seconds, trace):
    """One benchmark run in ``checkout``; returns its result object."""
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: no result from {argv}:\n{proc.stderr}")
    return json.loads(lines[-1])


def cpu_name():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def stats(values):
    q1, med, q3 = np.percentile(values, (25, 50, 75))
    return {"median": float(med), "q1": float(q1), "q3": float(q3),
            "min": float(min(values)), "max": float(max(values)),
            "n": len(values)}


def summarise(runs, end_to_end):
    """Per-metric statistics and verdicts of paired runs.

    ``end_to_end`` is the list of metric definitions of
    ``BENCHMARK.json``: each has a ``name``, ``better`` ("lower" or
    "higher") and a relative ``bound``.
    """
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run
    out = {}
    for definition in end_to_end:
        metric = definition["name"]
        values = {side: [p[side][metric] for p in by_pair.values()]
                  for side in SIDES}
        # sign * value is lower when better
        sign = 1.0 if definition["better"] == "lower" else -1.0
        wins = sum(sign * (c - p) < 0
                   for p, c in zip(values["parent"], values["change"]))
        ties = sum(c == p for p, c in zip(values["parent"], values["change"]))
        parent, change = stats(values["parent"]), stats(values["change"])
        gain = sign * (parent["median"] - change["median"])
        out[metric] = {
            "parent": parent,
            "change": change,
            "change_over_parent_median": (
                change["median"] / parent["median"] if parent["median"]
                else None),
            "change_wins": wins,
            "ties": ties,
            "pairs": len(by_pair),
            "gain_rule_met": bool(
                10 * wins >= 9 * len(by_pair)
                and gain > parent["q3"] - parent["q1"]),
            "within_bound": bool(
                -gain <= definition["bound"] * abs(parent["median"])),
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="changed checkout")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--description", default="")
    parser.add_argument("--claim", default="{}",
                        help="JSON object stored as the file's claim")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    definition = json.loads(
        (Path(args.change) / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = definition["run_seconds"]
    parent_commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=args.parent,
        capture_output=True, text=True, check=True).stdout.strip()

    workloads = {}
    for workload in args.workload:
        runs = []
        for pair in range(1, PAIRS + 1):
            seed = FIRST_SEED + pair - 1
            order = SIDES if pair % 2 else SIDES[::-1]
            for side in order:
                result = run_once(checkouts[side], workload, seed,
                                  seconds, 0)
                row = {"pair": pair, "side": side, "seed": seed}
                row.update({k: result[k]
                            for k in ("correct", "attempted", "failed")})
                row.update({k: v["value"]
                            for k, v in result["metrics"].items()})
                runs.append(row)
                print(workload, pair, side, row.get("wall_s"),
                      file=sys.stderr, flush=True)
        traced = {side: run_once(checkouts[side], workload, TRACE_SEED,
                                 seconds, 1) for side in SIDES}
        units = {}
        for side in SIDES:
            for name, metric in traced[side]["metrics"].items():
                units[name] = metric["unit"]
        workloads[workload] = {
            "end_to_end": summarise(runs, definition["end_to_end"]),
            "failed_of_attempted": {
                side: sorted({(r["failed"], r["attempted"], r["correct"])
                              for r in runs if r["side"] == side})
                for side in SIDES
            },
            "per_layer_trace": {
                "seed": TRACE_SEED,
                **{side: {k: traced[side][k]
                          for k in ("correct", "attempted", "failed")}
                   for side in SIDES},
                "metrics": {
                    name: {**{side: traced[side]["metrics"]
                              .get(name, {}).get("value")
                              for side in SIDES},
                           "unit": unit}
                    for name, unit in units.items()
                },
            },
            "runs": runs,
        }

    payload = {
        "description": args.description,
        "command": "python3 benchmarks/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0|1",
        "host": {
            "cpu": f"{cpu_name()}, {os.cpu_count()} cores",
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "parent_commit": parent_commit,
        "claim": json.loads(args.claim),
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(payload, indent=1) + "\n",
                              encoding="utf-8")


if __name__ == "__main__":
    main()
