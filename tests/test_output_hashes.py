"""The byte-identity tool in tools/, run on a reduced protocol."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from gmmlor import save_model
from gmmlor.cli import main

TOOLS = Path(__file__).resolve().parents[1] / "tools"

SMALL = (
    ["replicate", "--model", "truth.json", "--config", "config.json",
     "--counts", "350,250,100", "--replicates", "2", "--grid", "16",
     "--seed", "0", "--out", "study.csv"],
    ["generate", "--model", "truth.json", "--n", "3000", "--shuffle",
     "--seed", "0", "--out", "events.csv"],
    ["fit", "events.csv", "--config", "config.json", "--seed", "0",
     "--out", "fit.json"],
)
OUTPUTS = [
    "study.csv", "study.csv.summary.json", "events.csv",
    "events.csv.manifest.json", "fit.json", "fit.json.trace.jsonl",
]


def run_tool(protocol):
    code = f"import output_hashes as tool; tool.main({list(protocol)!r})"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=TOOLS, capture_output=True,
        text=True, check=True,
    )
    return [line.split(" ") for line in proc.stdout.splitlines()]


def test_the_tool_prints_the_sha256_of_each_output_in_order(
    benchmark_mixture, tmp_path, monkeypatch
):
    # the same commands run here, on the suite's benchmark mixture
    monkeypatch.chdir(tmp_path)
    save_model(benchmark_mixture, "truth.json")
    (tmp_path / "config.json").write_text(
        json.dumps({"K": 3, "weight_tol": 1e-3})
    )
    for argv in SMALL:
        main(argv)
    want = [
        [name, hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16]]
        for name in OUTPUTS
    ]
    assert run_tool(SMALL) == want
