"""Hash every output of the byte-identity protocol.

Runs the commands of ``PROTOCOL`` through ``gmmlor.cli.main``, in order,
in a temporary directory that also holds the benchmark truth
(``truth.json``) and the fit config ``{"K": 3, "weight_tol": 1e-3}``
(``config.json``).  It prints one ``name sha256[:16]`` line for each
file a command writes, in the order the commands run.  The package is
imported from the ``src`` directory of the checkout the tool sits in,
with every BLAS thread variable set to 1 before NumPy is imported::

    python tools/output_hashes.py

Run it in two checkouts: every output keeps its bytes when the two
print the same lines.  It takes no options.  The protocol takes about
15 s on one thread of a 2-core Xeon.
"""

from __future__ import annotations

import os

# before NumPy is imported: its BLAS reads them once, at load
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gmmlor.cli import main as gmmlor_main  # noqa: E402

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
CONFIG = {"K": 3, "weight_tol": 1e-3}

#: The commands, each run in the temporary directory.
PROTOCOL = tuple(
    [
        "replicate", "--model", "truth.json",
        "--config", "config.json", "--counts", "3500,2500,1000",
        "--replicates", "100", "--grid", "64", "--jobs", "1",
        "--seed", str(seed), "--out", f"study{seed}.csv",
    ]
    for seed in (0, 11)
) + (
    ["generate", "--model", "truth.json", "--n", "300000",
     "--shuffle", "--seed", "0", "--out", "events300k.csv"],
    ["fit", "events300k.csv", "--config", "config.json",
     "--seed", "0", "--out", "fit300k.json"],
    ["fit", "events300k.csv", "--config", "config.json",
     "--seed", "0", "--restarts", "3", "--out", "fit300k_r3.json"],
    ["generate", "--model", "truth.json", "--n", "1000000",
     "--shuffle", "--seed", "0", "--out", "events1m.csv"],
    ["fit", "events1m.csv", "--config", "config.json",
     "--seed", "0", "--out", "fit1m.json"],
)


def output_hashes(protocol):
    """Run ``protocol`` and yield (name, sha256[:16]) for each file its
    commands write, command by command and by name within a command."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        # relative paths, so that no output names the directory
        os.chdir(work)
        try:
            for name, payload in (("truth.json", TRUTH),
                                  ("config.json", CONFIG)):
                Path(name).write_text(json.dumps(payload), encoding="utf-8")
            seen = {"truth.json", "config.json"}
            for argv in protocol:
                with contextlib.redirect_stdout(io.StringIO()):
                    gmmlor_main(list(argv))
                for name in sorted(set(os.listdir()) - seen):
                    seen.add(name)
                    digest = hashlib.sha256(Path(name).read_bytes())
                    yield name, digest.hexdigest()[:16]
        finally:
            os.chdir(home)


def main(protocol=PROTOCOL) -> int:
    for name, digest in output_hashes(protocol):
        print(name, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
