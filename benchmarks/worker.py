"""One workload in one fresh process: set up, then timed CLI commands.

Started by ``run.py``; not meant to be run by hand.  Set-up runs from
process start (``--t0``, the parent's monotonic clock just before the
spawn) to the first timed command: imports, truth model and config
files.  Each round issues the workload's commands through
``gmmlor.cli.main(argv)`` and times each one; rounds repeat until
``--seconds`` have passed.  With ``--trace 1`` every untraced round is
followed by a traced one, and the spans of the traced rounds are
written to ``--trace-out`` when the run ends.  The result goes to
``<work>/result.json``; output checks are the parent's job, so they
neither slow the timed commands nor raise this process's peak RSS.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads


def run_round(workload, rdir, inputs, cli_main, tracer=None):
    """Run one round; a failed command ends it (later ones do not run)."""
    rdir.mkdir()
    ops = []
    for operation, argv in workloads.commands(workload, rdir, *inputs):
        if ops and ops[-1]["rc"] != 0:
            ops.append({"operation": operation, "argv": argv, "rc": None,
                        "wall_s": None})
            continue
        start = time.perf_counter()
        try:
            if tracer is None:
                rc = cli_main(argv)
            else:
                rc = tracer.call(tracing.COMMAND_SPAN, cli_main, argv)
        except Exception:  # a crash is a failed operation, not a lost run
            traceback.print_exc()
            rc = -1
        wall = time.perf_counter() - start
        ops.append({"operation": operation, "argv": argv, "rc": rc,
                    "wall_s": wall})
    return {
        "traced": tracer is not None,
        "ops": ops,
        "wall_s": sum(op["wall_s"] or 0.0 for op in ops),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    import gmmlor.cli

    work = Path(args.work)
    inputs = workloads.write_inputs(work)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "gmmlor": gmmlor.cli.__file__}
    if args.setup_only:
        (work / "setup.json").write_text(json.dumps(result), encoding="utf-8")
        return 0

    rounds = []
    spans = []
    start = time.monotonic()
    while True:
        rounds.append(run_round(
            args.workload, work / f"round{len(rounds)}", inputs,
            gmmlor.cli.main,
        ))
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_round(
                    args.workload, work / f"round{len(rounds)}", inputs,
                    gmmlor.cli.main, tracer,
                )
            finally:
                tracer.uninstall()
            traced["layers"] = tracer.layer_metrics()
            traced["summary"] = tracer.summary()
            traced["missing"] = sorted(tracer.missing)
            traced["untraced_wall_s"] = rounds[-1]["wall_s"]
            rounds.append(traced)
            spans.append(tracer.spans)
        if time.monotonic() - start >= args.seconds:
            break
    result["rounds"] = rounds
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    if args.trace_out:
        trace = {
            "workload": args.workload,
            "seed": args.seed,
            "rounds": [r for r in rounds if r["traced"]],
            "spans_fields": ["name", "parent", "start_s", "end_s"],
            "spans": spans,
        }
        Path(args.trace_out).write_text(json.dumps(trace), encoding="utf-8")
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
