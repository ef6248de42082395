"""Command-line interface, exercised in process through main()."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from gmmlor import MixtureModel2D, load_model, read_lors_csv, save_model
from gmmlor.cli import main
from conftest import make_component


@pytest.fixture()
def truth_path(tmp_path, benchmark_mixture):
    path = tmp_path / "truth.json"
    save_model(benchmark_mixture, path)
    return str(path)


@pytest.fixture()
def single_path(tmp_path):
    model = MixtureModel2D(
        (make_component((0.3, -0.5), [[0.05, 0.01], [0.01, 0.03]], 1.0),)
    )
    path = tmp_path / "single.json"
    save_model(model, path)
    return str(path)


# ------------------------------------------------------------------- generate

def test_generate_writes_rows_and_manifest(tmp_path, truth_path):
    out = str(tmp_path / "ev.csv")
    rc = main([
        "generate", "--model", truth_path, "--counts", "35,25,10",
        "--seed", "0", "--labels", "--out", out,
    ])
    assert rc == 0
    s, phi, labels = read_lors_csv(out)
    assert len(s) == 70
    assert tuple(np.bincount(labels, minlength=3)) == (35, 25, 10)
    manifest = json.loads((tmp_path / "ev.csv.manifest.json").read_text())
    assert manifest["rows"] == 70
    assert manifest["counts"] == [35, 25, 10]
    assert manifest["seed"] == 0


def test_generate_is_deterministic(tmp_path, truth_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for out in (a, b):
        assert main([
            "generate", "--model", truth_path, "--counts", "30,20,10",
            "--seed", "7", "--out", out,
        ]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_generate_single_event(tmp_path, truth_path):
    out = str(tmp_path / "one.csv")
    rc = main([
        "generate", "--model", truth_path, "--counts", "0,0,1",
        "--labels", "--out", out,
    ])
    assert rc == 0
    s, phi, labels = read_lors_csv(out)
    assert len(s) == 1 and labels[0] == 2


def test_generate_usage_errors(tmp_path, truth_path):
    # generate and replicate resolve --counts / --n the same way
    out = tmp_path / "x.csv"
    for base in (
        ["generate", "--model", truth_path, "--out", str(out)],
        ["replicate", "--model", truth_path, "--replicates", "1",
         "--out", str(out)],
    ):
        assert main(base + ["--counts", "1,2,3", "--n", "10"]) == 2
        assert main(base) == 2
        assert main(base + ["--counts", "1,2"]) == 2  # wrong component count
        assert main(base + ["--counts", "1,two,3"]) == 2
        assert main(base + ["--counts", "1,-2,3"]) == 2
        assert not out.exists()


def test_generate_missing_model_is_input_error(tmp_path):
    rc = main([
        "generate", "--model", str(tmp_path / "nope.json"),
        "--n", "10", "--out", str(tmp_path / "x.csv"),
    ])
    assert rc == 3


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 2


# ------------------------------------------------------------------------ fit

def test_fit_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, truth_path):
    # a multi-threaded BLAS splits a long dot product across its threads,
    # which changes how the sum rounds; 20 000 events is past the length
    # where OpenBLAS starts to split
    lors = str(tmp_path / "ev.csv")
    assert main([
        "generate", "--model", truth_path, "--counts", "10000,7000,3000",
        "--seed", "7", "--out", lors,
    ]) == 0
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"K": 3, "weight_tol": 1e-3}))
    models = []
    for threads in ("1", "2"):
        out = tmp_path / f"fit{threads}.json"
        env = dict(
            os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
        )
        proc = subprocess.run(
            [sys.executable, "-m", "gmmlor", "fit", lors, "--config",
             str(cfg), "--seed", "7", "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        models.append(out.read_bytes())
    assert models[0] == models[1]


def test_fit_single_component(tmp_path, single_path):
    lors = str(tmp_path / "ev.csv")
    assert main([
        "generate", "--model", single_path, "--n", "500",
        "--seed", "1", "--out", lors,
    ]) == 0
    out = str(tmp_path / "fit.json")
    rc = main(["fit", lors, "--k", "1", "--seed", "0", "--out", out])
    assert rc == 0
    model = load_model(out)
    assert len(model.components) == 1
    assert np.allclose(model.components[0].mean, (0.3, -0.5), atol=0.05)
    trace_lines = open(out + ".trace.jsonl").read().splitlines()
    assert trace_lines
    for line in trace_lines:
        rec = json.loads(line)
        assert rec["phase"] in (1, 2)
        assert len(rec["weights"]) == 1


def test_fit_conflicting_k_and_config(tmp_path, single_path):
    lors = str(tmp_path / "ev.csv")
    main(["generate", "--model", single_path, "--n", "100", "--out", lors])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"K": 3}))
    rc = main([
        "fit", lors, "--k", "2", "--config", str(cfg),
        "--out", str(tmp_path / "m.json"),
    ])
    assert rc == 2


def test_fit_empty_csv_is_input_error(tmp_path):
    lors = tmp_path / "empty.csv"
    lors.write_text("s,phi\n")
    rc = main(["fit", str(lors), "--k", "1", "--out", str(tmp_path / "m.json")])
    assert rc == 3


def test_fit_iteration_cap_exit_code(tmp_path, truth_path):
    lors = str(tmp_path / "ev.csv")
    main([
        "generate", "--model", truth_path, "--counts", "350,250,100",
        "--seed", "0", "--out", lors,
    ])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "K": 3, "max_iters_phase2": 1, "weight_tol": 1e-12,
    }))
    rc = main([
        "fit", lors, "--config", str(cfg), "--seed", "0",
        "--out", str(tmp_path / "m.json"),
    ])
    assert rc == 5


# ------------------------------------------------------------------- evaluate

def test_evaluate_model_against_itself(tmp_path, truth_path, capsys):
    report = str(tmp_path / "report.json")
    rc = main([
        "evaluate", truth_path, "--model", truth_path,
        "--grid", "128", "--out", report,
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("component") == 3
    assert "kl=" in out
    payload = json.loads(open(report).read())
    assert payload["matching"] == [0, 1, 2]
    assert max(payload["mean_errors"]) == 0.0
    assert abs(payload["kl_divergence"]) < 1e-6


def test_evaluate_component_count_mismatch(tmp_path, truth_path, single_path):
    assert main(["evaluate", single_path, "--model", truth_path]) == 2


def test_evaluate_plot_data_rasters(tmp_path, truth_path):
    prefix = str(tmp_path / "viz")
    rc = main([
        "evaluate", truth_path, "--model", truth_path,
        "--grid", "64", "--plot-data", prefix, "--plot-grid", "16",
    ])
    assert rc == 0
    t_lines = open(prefix + "_truth.csv").read().splitlines()
    e_lines = open(prefix + "_estimate.csv").read().splitlines()
    # shared grid header, then a column header, then 16x16 samples
    assert t_lines[0] == e_lines[0]
    assert t_lines[0].startswith("# nx=16 ny=16 ")
    assert t_lines[1] == "x,y,value" == e_lines[1]
    assert len(t_lines) == len(e_lines) == 2 + 16 * 16
    # identical sample coordinates, identical values for identical models
    assert t_lines[2:] == e_lines[2:]


def test_evaluate_plot_data_matches_a_row_by_row_raster(
    tmp_path, truth_path, benchmark_mixture, monkeypatch
):
    # 7 rows per write: the 16 x 16 raster crosses 36 chunk boundaries
    monkeypatch.setattr("gmmlor.simulate._CSV_CHUNK_ROWS", 7)
    est_path = str(tmp_path / "estimate.json")
    estimate = MixtureModel2D(tuple(
        make_component(c.mean + (0.3, -0.2), 1.5 * c.covariance, c.weight)
        for c in benchmark_mixture.components
    ))
    save_model(estimate, est_path)
    prefix = str(tmp_path / "viz")
    assert main([
        "evaluate", est_path, "--model", truth_path,
        "--grid", "64", "--plot-data", prefix, "--plot-grid", "16",
    ]) == 0
    for suffix, path in (("_truth", truth_path), ("_estimate", est_path)):
        model = load_model(path)
        text = (tmp_path / f"viz{suffix}.csv").read_text(encoding="utf-8")
        header = text.split("\n", 1)[0]
        box = dict(field.split("=") for field in header[2:].split())
        x_lo, x_hi = float(box["x_lo"]), float(box["x_hi"])
        y_lo, y_hi = float(box["y_lo"]), float(box["y_hi"])
        lines = [header, "x,y,value"]
        for j in range(16):
            y = y_lo + (j + 0.5) * ((y_hi - y_lo) / 16)
            for i in range(16):
                x = x_lo + (i + 0.5) * ((x_hi - x_lo) / 16)
                lines.append(f"{x:.17g},{y:.17g},{model.density((x, y)):.17g}")
        assert text == "\n".join(lines) + "\n"


# ------------------------------------------------------------------ replicate

def test_replicate_small_study(tmp_path, single_path):
    out = str(tmp_path / "study.csv")
    rc = main([
        "replicate", "--model", single_path, "--counts", "400",
        "--replicates", "2", "--seed", "0", "--k", "1",
        "--grid", "128", "--out", out,
    ])
    assert rc == 0
    lines = open(out).read().splitlines()
    assert lines[0].startswith("replicate,sim_seed,fit_seed,status,")
    assert len(lines) == 3
    assert all(",ok," in line for line in lines[1:])
    summary = json.loads(open(out + ".summary.json").read())
    assert summary["replicates"] == 2
    assert summary["completed"] == 2
    assert summary["status_counts"] == {"ok": 2}
    assert summary["kl"]["max"] >= summary["kl"]["mean"] >= 0.0


def test_replicate_is_deterministic(tmp_path, single_path):
    outs = [str(tmp_path / f"s{i}.csv") for i in (0, 1)]
    for out in outs:
        assert main([
            "replicate", "--model", single_path, "--counts", "300",
            "--replicates", "2", "--seed", "11", "--k", "1",
            "--grid", "64", "--out", out,
        ]) == 0
    assert open(outs[0], "rb").read() == open(outs[1], "rb").read()


def test_replicate_jobs_do_not_change_the_study(tmp_path, truth_path):
    outs = [str(tmp_path / f"jobs{jobs}.csv") for jobs in (1, 2)]
    for jobs, out in zip((1, 2), outs):
        assert main([
            "replicate", "--model", truth_path, "--counts", "350,250,100",
            "--replicates", "6", "--seed", "0", "--jobs", str(jobs),
            "--grid", "128", "--out", out,
        ]) == 0
    for suffix in ("", ".summary.json"):
        a, b = (open(out + suffix, "rb").read() for out in outs)
        assert a == b


def test_replicate_malformed_counts(tmp_path, single_path):
    rc = main([
        "replicate", "--model", single_path, "--counts", "ten",
        "--replicates", "1", "--out", str(tmp_path / "s.csv"),
    ])
    assert rc == 2
