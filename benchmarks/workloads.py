"""The two benchmark workloads: their inputs, commands and output checks.

Both use the test suite's three-component benchmark mixture
(``tests/conftest.py``) and the acceptance study's fit config.

* ``study-7k``: ``gmmlor replicate`` with the acceptance gate's protocol,
  100 replicates of 3500/2500/1000 events, KL on a 512 x 512 grid, run
  twice per round with the fixed master seeds ``STUDY_SEEDS``.
* ``scan-1m``: ``gmmlor generate`` of 10^6 shuffled events, ``gmmlor fit``
  of that CSV and ``gmmlor evaluate`` against the truth, with the fixed
  generator seed ``SCAN_DATA_SEED`` and fit seed ``SCAN_FIT_SEED``.

The workload seed changes neither.  Over master seeds, whether a study
holds a fit that settles in a wrong optimum (and so fails the per-replicate
KL limit) depends on the seed, so a seeded study would make the failed
count depend on the seed.  Over fit seeds the scan's fitted model agrees
to four digits but its iteration count varies by a fifth, and over event
sets its accuracy metrics vary fourfold: a seeded scan-1m would measure
its seed, not the code.
"""

from __future__ import annotations

import csv
import json
import statistics
from pathlib import Path

import checks

TRUTH = {
    "format_version": "1.0",
    "components": [
        {"mean": [0.0, 0.0], "cov": [[0.0625, 0.0], [0.0, 0.0625]],
         "weight": 0.5},
        {"mean": [-0.4, -0.4], "cov": [[0.04, 0.03], [0.03, 0.09]],
         "weight": 2.5 / 7.0},
        {"mean": [1.25, -1.0], "cov": [[0.04, 0.006], [0.006, 0.01]],
         "weight": 1.0 / 7.0},
    ],
}
K = len(TRUTH["components"])
CONFIG = {"K": 3, "weight_tol": 1e-3}

STUDY_COUNTS = "3500,2500,1000"
STUDY_REPLICATES = 100
#: Master seeds of the studies in a round.  Seed 0 is the acceptance
#: gate's, and all its fits pass.  In seed 11, replicate 72 converges to
#: a wrong optimum with KL 0.69, so that study fails the per-replicate KL
#: limit in every run: the program's fault stays in view, counted in
#: ``failed``, and its fit stays in the accuracy metrics.
STUDY_SEEDS = (0, 11)
KL_GRID = 512
SCAN_EVENTS = 1_000_000
SCAN_DATA_SEED = 0
SCAN_FIT_SEED = 0

WORKLOADS = ("study-7k", "scan-1m")


def write_inputs(work: Path) -> tuple[str, str]:
    """Truth model and fit config files; returns their paths."""
    truth_path = work / "truth.json"
    config_path = work / "fit-config.json"
    truth_path.write_text(json.dumps(TRUTH, indent=2) + "\n", encoding="utf-8")
    config_path.write_text(json.dumps(CONFIG) + "\n", encoding="utf-8")
    return str(truth_path), str(config_path)


def commands(workload, rdir: Path, truth_path, config_path):
    """[(operation, argv)] for one round, as a user would type them."""
    if workload == "study-7k":
        return [
            ("replicate", [
                "replicate", "--model", truth_path, "--counts", STUDY_COUNTS,
                "--replicates", str(STUDY_REPLICATES), "--grid", str(KL_GRID),
                "--jobs", "1", "--seed", str(seed),
                "--config", config_path, "--out", str(rdir / f"study{seed}.csv"),
            ])
            for seed in STUDY_SEEDS
        ]
    if workload == "scan-1m":
        events = str(rdir / "events.csv")
        fitted = str(rdir / "fitted.json")
        return [
            ("generate", [
                "generate", "--model", truth_path, "--n", str(SCAN_EVENTS),
                "--shuffle", "--seed", str(SCAN_DATA_SEED), "--out", events,
            ]),
            ("fit", [
                "fit", events, "--config", config_path,
                "--seed", str(SCAN_FIT_SEED), "--out", fitted,
            ]),
            ("evaluate", [
                "evaluate", fitted, "--model", truth_path,
                "--grid", str(KL_GRID), "--out", str(rdir / "report.json"),
            ]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _out(argv) -> Path:
    return Path(argv[argv.index("--out") + 1])


def check_operation(operation, argv, truth_path):
    """Failure messages for the outputs of one command that exited 0."""
    truth = checks.load_components(truth_path)
    out = _out(argv)
    if operation == "replicate":
        return checks.check_study(str(out), STUDY_REPLICATES, K)
    if operation == "generate":
        return checks.check_events(out, SCAN_EVENTS, truth)
    if operation == "fit":
        fitted = checks.load_components(out)
        return checks.check_model(fitted, K) or checks.check_accuracy(
            fitted, truth
        )
    if operation == "evaluate":
        fitted = checks.load_components(argv[1])
        return checks.check_report(out, fitted, truth)
    raise ValueError(f"unknown operation {operation!r}")


ACCURACY = ("mean_err", "cov_err", "weight_err", "kl")


def _fits(operation, argv):
    """Per-fit errors (averaged over components) and KL that one
    command reported; empty for commands that report none.  Replicates
    that died or failed numerically have empty cells and are skipped:
    the study check counts them."""
    if operation == "replicate":
        with open(_out(argv), encoding="utf-8", newline="") as fh:
            return [
                {name: statistics.fmean(
                    float(row[f"{name}_{i}"]) for i in range(K)
                ) for name in ACCURACY[:3]} | {"kl": float(row["kl"])}
                for row in csv.DictReader(fh)
                if row["kl"] and all(
                    row[f"{name}_{i}"] for name in ACCURACY[:3]
                    for i in range(K)
                )
            ]
    if operation == "evaluate":
        with open(_out(argv), encoding="utf-8") as fh:
            report = json.load(fh)
        if report["kl_divergence"] is None:
            return []
        return [{
            "mean_err": statistics.fmean(report["mean_errors"]),
            "cov_err": statistics.fmean(report["cov_errors"]),
            "weight_err": statistics.fmean(report["weight_errors"]),
            "kl": report["kl_divergence"],
        }]
    return []


def accuracy(ops):
    """Accuracy metrics, each the plain mean over every fit that a
    round's successful commands reported, or None if they reported none.

    A command whose output cannot be read adds no fits; the output
    checks count it as failed.
    """
    fits = []
    for op in ops:
        if op["rc"] != 0:
            continue
        try:
            fits += _fits(op["operation"], op["argv"])
        except (OSError, ValueError, KeyError, TypeError):
            continue
    if not fits:
        return None
    return {
        name: statistics.fmean(fit[name] for fit in fits) for name in ACCURACY
    }
