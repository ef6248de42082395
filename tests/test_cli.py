"""Command-line interface, exercised in process through main()."""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gmmlor
from gmmlor import (
    MixtureModel2D,
    density,
    load_model,
    read_lors_csv,
    save_model,
    write_lors_csv,
)
from gmmlor.cli import main
from gmmlor.errors import ComponentDeathError, DegenerateGeometryError
from gmmlor.rng import derive_seed
from conftest import (
    BAD_FIT_SETTINGS,
    MALFORMED_MODELS,
    UNPARSABLE_CSVS,
    UNPARSABLE_JSON,
    make_component,
    overflow_cases,
)


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
    assert Path(a).read_bytes() == Path(b).read_bytes()


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


@pytest.mark.parametrize("missing", ["--model", "--config"])
def test_a_missing_json_file_is_refused_by_the_one_reader(
    tmp_path, capsys, single_path, missing
):
    # the model file and the fit configuration are read by one function,
    # so both are refused in the same words
    nope = tmp_path / "nope.json"
    if missing == "--model":
        argv = ["generate", "--model", str(nope), "--n", "10"]
    else:
        lors = str(tmp_path / "ev.csv")
        main(["generate", "--model", single_path, "--n", "100", "--out", lors])
        capsys.readouterr()
        argv = ["fit", lors, "--config", str(nope)]
    rc = main([*argv, "--out", str(tmp_path / "out")])
    assert rc == 3
    assert capsys.readouterr().err.startswith(f"error: cannot read {nope}: ")


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
    trace_lines = Path(out + ".trace.jsonl").read_text().splitlines()
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


@pytest.mark.parametrize("settings, field", BAD_FIT_SETTINGS)
@pytest.mark.parametrize("k", [[], ["--k", "2"]])
def test_fit_with_a_malformed_config_is_input_error(
    tmp_path, capsys, single_path, settings, field, k
):
    lors = str(tmp_path / "ev.csv")
    main(["generate", "--model", single_path, "--n", "100", "--out", lors])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(settings))
    rc = main([
        "fit", lors, "--config", str(cfg), *k,
        "--out", str(tmp_path / "m.json"),
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be ")
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ["mean_tol", "variance_floor"])
def test_fit_with_a_removed_config_key_is_input_error(
    tmp_path, capsys, single_path, key
):
    # the fit sets its own scale, so these tolerances are no settings
    lors = str(tmp_path / "ev.csv")
    main(["generate", "--model", single_path, "--n", "100", "--out", lors])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"K": 1, key: 1e-6}))
    rc = main([
        "fit", lors, "--config", str(cfg), "--out", str(tmp_path / "m.json"),
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == f"error: unknown config keys: ['{key}']\n"


@pytest.mark.parametrize("name", sorted(UNPARSABLE_JSON))
def test_fit_with_a_config_the_parser_refuses_is_input_error(
    tmp_path, capsys, single_path, name
):
    lors = str(tmp_path / "ev.csv")
    main(["generate", "--model", single_path, "--n", "100", "--out", lors])
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(UNPARSABLE_JSON[name])
    rc = main([
        "fit", lors, "--config", str(cfg), "--out", str(tmp_path / "m.json"),
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg} is not valid JSON: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["generate", "fit"])
def test_a_negative_seed_is_input_error(tmp_path, capsys, single_path,
                                        command):
    lors = str(tmp_path / "ev.csv")
    main(["generate", "--model", single_path, "--n", "100", "--out", lors])
    argv = {
        "generate": ["generate", "--model", single_path, "--n", "100"],
        "fit": ["fit", lors, "--k", "1"],
    }[command]
    rc = main([*argv, "--seed", "-1", "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == "error: seed must be a nonnegative integer, got -1\n"


def test_fit_empty_csv_is_input_error(tmp_path):
    lors = tmp_path / "empty.csv"
    lors.write_text("s,phi\n")
    rc = main(["fit", str(lors), "--k", "1", "--out", str(tmp_path / "m.json")])
    assert rc == 3


@pytest.mark.parametrize("name", sorted(UNPARSABLE_CSVS))
def test_fit_of_an_unparsable_csv_is_input_error(tmp_path, capsys, name):
    data, line = UNPARSABLE_CSVS[name]
    lors = tmp_path / "lors.csv"
    lors.write_bytes(data)
    rc = main(["fit", str(lors), "--k", "1", "--out", str(tmp_path / "m.json")])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"line {line}: " in err and "Traceback" not in err


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
    manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
    assert manifest["converged"] is False


def test_fit_manifest_explains_the_fit(tmp_path, single_path):
    lors = str(tmp_path / "ev.csv")
    main(["generate", "--model", single_path, "--n", "500", "--out", lors])
    manifests = []
    for name in ("a.json", "b.json"):
        out = str(tmp_path / name)
        assert main(["fit", lors, "--k", "1", "--seed", "3",
                     "--out", out]) == 0
        manifests.append(Path(out + ".manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    manifest = json.loads(manifests[0])
    trace = Path(out + ".trace.jsonl").read_text().splitlines()
    phases = [json.loads(line)["phase"] for line in trace]
    assert manifest == {
        "format_version": "1.0",
        "source_lors": lors,
        "rows": 500,
        "config": gmmlor.config_to_dict(gmmlor.FitConfig(K=1, seed=3)),
        "restart": 0,
        "iterations": {"phase1": phases.count(1), "phase2": phases.count(2)},
        "converged": True,
        "loglik": manifest["loglik"],
    }
    assert sum(manifest["iterations"].values()) == len(trace)
    assert np.isfinite(manifest["loglik"])


def test_fit_manifest_names_the_winning_restart(tmp_path, truth_path):
    # on these events restart 2 of 3 has the highest log-likelihood, by
    # about 0.004 over restart 1 and 0.008 over restart 0
    lors = str(tmp_path / "ev.csv")
    main(["generate", "--model", truth_path, "--counts", "350,250,100",
          "--seed", "11", "--out", lors])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"K": 3, "weight_tol": 1e-3}))
    out = str(tmp_path / "m.json")
    assert main(["fit", lors, "--config", str(cfg), "--seed", "0",
                 "--restarts", "3", "--out", out]) == 0
    manifest = json.loads(Path(out + ".manifest.json").read_text())
    s, phi = read_lors_csv(lors)[:2]
    logliks = [
        gmmlor.fit((s, phi), gmmlor.FitConfig(
            K=3, weight_tol=1e-3, seed=derive_seed(0, r) if r else 0,
        )).loglik
        for r in range(3)
    ]
    assert manifest["restart"] == int(np.argmax(logliks)) == 2
    assert manifest["loglik"] == logliks[2]


def test_restarts_that_tie_within_rounding_keep_the_first(
    tmp_path, truth_path
):
    # on these events the three restarts reach one optimum, and their
    # log-likelihoods differ only in the last digits, so the winner
    # is restart 0 however they round
    lors = str(tmp_path / "ev.csv")
    main(["generate", "--model", truth_path, "--counts", "350,250,100",
          "--seed", "2", "--out", lors])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"K": 3, "weight_tol": 1e-3}))
    out = str(tmp_path / "m.json")
    assert main(["fit", lors, "--config", str(cfg), "--seed", "0",
                 "--restarts", "3", "--out", out]) == 0
    manifest = json.loads(Path(out + ".manifest.json").read_text())
    s, phi = read_lors_csv(lors)[:2]
    logliks = [
        gmmlor.fit((s, phi), gmmlor.FitConfig(
            K=3, weight_tol=1e-3, seed=derive_seed(0, r) if r else 0,
        )).loglik
        for r in range(3)
    ]
    assert max(logliks) - min(logliks) <= 1e-12 * abs(logliks[0])
    assert manifest["restart"] == 0
    assert manifest["loglik"] == logliks[0]


def test_a_fit_that_raises_writes_no_manifest(tmp_path):
    lors = tmp_path / "parallel.csv"
    write_lors_csv(lors, np.linspace(-1.0, 1.0, 60), np.full(60, 0.3))
    out = tmp_path / "m.json"
    assert main(["fit", str(lors), "--k", "2", "--out", str(out)]) == 4
    assert not Path(str(out) + ".manifest.json").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["spread", "outlier"])
def test_fit_of_events_whose_fourth_powers_overflow_exits_3(
    tmp_path, capsys, case
):
    lors = tmp_path / "huge.csv"
    write_lors_csv(lors, *overflow_cases()[case])
    out = tmp_path / "m.json"
    assert main(["fit", str(lors), "--k", "1", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: |s| reaches ")
    assert not out.exists()


def test_fit_of_parallel_lors_is_a_numerical_error(tmp_path, capsys):
    # every LoR at one angle leaves the mean free along their direction
    lors = tmp_path / "parallel.csv"
    write_lors_csv(lors, np.linspace(-1.0, 1.0, 60), np.full(60, 0.3))
    rc = main(["fit", str(lors), "--k", "2", "--out", str(tmp_path / "m.json")])
    assert rc == 4
    err = capsys.readouterr().err
    assert "LoR angles too concentrated to locate a mean" in err


@pytest.mark.parametrize("restarts", [[], ["--restarts", "3"]])
def test_fit_that_loses_a_component_exits_6(tmp_path, capsys, restarts):
    # every LoR passes through the origin, so every cluster's mean is the
    # origin, all distances tie, and ties send every event to component 0
    lors = tmp_path / "origin.csv"
    write_lors_csv(lors, np.zeros(60), np.linspace(-1.4, 1.4, 60))
    rc = main([
        "fit", str(lors), "--k", "2", *restarts,
        "--out", str(tmp_path / "m.json"),
    ])
    assert rc == 6
    err = capsys.readouterr().err
    assert "component 1 collapsed (mass 0) at iteration 1" in err


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
    payload = json.loads(Path(report).read_text())
    assert payload["matching"] == [0, 1, 2]
    assert max(payload["mean_errors"]) == 0.0
    assert abs(payload["kl_divergence"]) < 1e-6


def test_evaluate_grid_is_accepted_and_ignored(
    tmp_path, truth_path, benchmark_mixture
):
    est_path = str(tmp_path / "estimate.json")
    save_model(MixtureModel2D(tuple(
        make_component(c.mean + (0.1, 0.0), 1.2 * c.covariance, c.weight)
        for c in benchmark_mixture.components
    )), est_path)
    reports = [tmp_path / f"report{grid}.json" for grid in (16, 512)]
    for grid, report in zip((16, 512), reports):
        assert main([
            "evaluate", est_path, "--model", truth_path,
            "--grid", str(grid), "--out", str(report),
        ]) == 0
    assert reports[0].read_bytes() == reports[1].read_bytes()
    assert json.loads(reports[0].read_text())["kl_divergence"] > 0.0


def test_evaluate_component_count_mismatch(tmp_path, truth_path, single_path):
    assert main(["evaluate", single_path, "--model", truth_path]) == 2


def test_evaluate_plot_data_rasters(tmp_path, truth_path):
    prefix = str(tmp_path / "viz")
    rc = main([
        "evaluate", truth_path, "--model", truth_path,
        "--grid", "64", "--plot-data", prefix, "--plot-grid", "16",
    ])
    assert rc == 0
    t_lines = Path(prefix + "_truth.csv").read_text().splitlines()
    e_lines = Path(prefix + "_estimate.csv").read_text().splitlines()
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
                lines.append(f"{x:.17g},{y:.17g},{density(model, (x, y)):.17g}")
        assert text == "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(MALFORMED_MODELS))
@pytest.mark.parametrize("command", ["evaluate", "generate"])
def test_a_malformed_model_is_input_error(
    tmp_path, capsys, truth_path, command, name
):
    obj, message = MALFORMED_MODELS[name]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    argv = {
        "evaluate": ["evaluate", truth_path, "--model", str(bad)],
        "generate": ["generate", "--model", str(bad), "--n", "10",
                     "--out", str(tmp_path / "ev.csv")],
    }[command]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


# ------------------------------------------------------------------ replicate

def test_replicate_small_study(tmp_path, single_path):
    out = str(tmp_path / "study.csv")
    rc = main([
        "replicate", "--model", single_path, "--counts", "400",
        "--replicates", "2", "--seed", "0", "--k", "1",
        "--grid", "128", "--out", out,
    ])
    assert rc == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0].startswith("replicate,sim_seed,fit_seed,status,")
    assert len(lines) == 3
    assert all(",ok," in line for line in lines[1:])
    summary = json.loads(Path(out + ".summary.json").read_text())
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
    assert Path(outs[0]).read_bytes() == Path(outs[1]).read_bytes()


def test_replicate_jobs_do_not_change_the_study(tmp_path, truth_path):
    outs = [str(tmp_path / f"jobs{jobs}.csv") for jobs in (1, 2)]
    for jobs, out in zip((1, 2), outs):
        assert main([
            "replicate", "--model", truth_path, "--counts", "350,250,100",
            "--replicates", "6", "--seed", "0", "--jobs", str(jobs),
            "--grid", "128", "--out", out,
        ]) == 0
    for suffix in ("", ".summary.json"):
        a, b = (Path(out + suffix).read_bytes() for out in outs)
        assert a == b


def test_importing_the_cli_leaves_out_the_process_pool():
    # only replicate --jobs N with N > 1 imports it
    src = str(Path(gmmlor.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, gmmlor.cli; "
         "print('concurrent.futures.process' in sys.modules)"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"


def _run_module(*argv, **kwargs):
    """``python -m`` with this checkout's package on the path."""
    src = str(Path(gmmlor.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True,
        **kwargs,
    )


def test_importing_the_cli_leaves_out_logging():
    proc = _run_module(
        "-c", "import sys, gmmlor.cli; print('logging' in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"


def test_a_usage_error_prints_one_error_line(tmp_path, truth_path):
    # in a subprocess, so that every line written to stderr is seen
    proc = _run_module(
        "-m", "gmmlor", "generate", "--model", truth_path,
        "--counts", "1,2,-1", "--out", "x.csv", cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: --counts entries must be nonnegative\n"
    assert not (tmp_path / "x.csv").exists()


def test_main_leaves_the_root_logger_alone(
    tmp_path, truth_path, monkeypatch
):
    # as in a process that has not configured logging; pytest's own
    # handlers come back after the test
    root = logging.getLogger()
    monkeypatch.setattr(root, "handlers", [])
    before = (list(root.handlers), root.level)
    main(["generate", "--model", truth_path, "--counts", "1,2,-1",
          "--out", str(tmp_path / "x.csv")])
    main(["generate", "--model", truth_path, "--counts", "3,2,1",
          "--out", str(tmp_path / "x.csv")])
    assert (list(root.handlers), root.level) == before


def test_replicate_refuses_a_k_it_cannot_score_before_it_fits(
    tmp_path, capsys, truth_path, monkeypatch
):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit called")

    monkeypatch.setattr(gmmlor.cli, "fit", no_fit)
    out = tmp_path / "s.csv"
    rc = main([
        "replicate", "--model", truth_path, "--counts", "35,25,10",
        "--replicates", "2", "--k", "2", "--out", str(out),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: component counts differ: fit K 2, truth 3\n"
    assert not out.exists()


def test_replicate_takes_k_from_the_config_before_the_truth(
    tmp_path, capsys, truth_path, monkeypatch
):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit called")

    monkeypatch.setattr(gmmlor.cli, "fit", no_fit)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"K": 2}))
    out = tmp_path / "s.csv"
    rc = main([
        "replicate", "--model", truth_path, "--counts", "35,25,10",
        "--replicates", "2", "--config", str(cfg), "--out", str(out),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: component counts differ: fit K 2, truth 3\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "replicate"])
def test_a_grid_below_2_is_a_usage_error_before_any_work(
    tmp_path, capsys, truth_path, monkeypatch, command
):
    def no_work(*args, **kwargs):
        raise AssertionError("fit or evaluation called")

    monkeypatch.setattr(gmmlor.cli, "fit", no_work)
    monkeypatch.setattr(gmmlor.cli, "evaluate_against_truth", no_work)
    out = tmp_path / "out"
    argv = {
        "evaluate": ["evaluate", truth_path, "--model", truth_path],
        "replicate": ["replicate", "--model", truth_path,
                      "--counts", "35,25,10", "--replicates", "2"],
    }[command]
    assert main(argv + ["--grid", "1", "--out", str(out)]) == 2
    assert "argument --grid: must be at least 2" in capsys.readouterr().err
    assert not out.exists()


def test_replicate_with_a_negative_master_seed_derives_its_seeds(
    tmp_path, single_path
):
    out = str(tmp_path / "s.csv")
    assert main([
        "replicate", "--model", single_path, "--counts", "100",
        "--replicates", "2", "--seed", "-1", "--grid", "16", "--out", out,
    ]) == 0
    seeds = [line.split(",")[1:3]
             for line in Path(out).read_text().splitlines()[1:]]
    assert seeds == [
        [str(derive_seed(-1, 0)), str(derive_seed(-1, 1))],
        [str(derive_seed(-1, 2)), str(derive_seed(-1, 3))],
    ]


def test_replicate_malformed_counts(tmp_path, single_path):
    rc = main([
        "replicate", "--model", single_path, "--counts", "ten",
        "--replicates", "1", "--out", str(tmp_path / "s.csv"),
    ])
    assert rc == 2


@pytest.mark.parametrize(
    "failures, code",
    [({3: "death"}, 0), ({3: "death", 7: "numeric"}, 4)],
)
def test_replicate_rows_of_failed_fits(
    tmp_path, single_path, monkeypatch, failures, code
):
    # the fake fit fails at the fit seeds of the replicates named, and
    # fits normally otherwise
    errors = {
        "death": ComponentDeathError(0, 0.0, 1),
        "numeric": DegenerateGeometryError("LoRs too concentrated"),
    }
    failing = {
        derive_seed(0, 2 * i + 1): errors[status]
        for i, status in failures.items()
    }
    real_fit = gmmlor.cli.fit

    def fake_fit(events, config, **kwargs):
        if config.seed in failing:
            raise failing[config.seed]
        return real_fit(events, config, **kwargs)

    monkeypatch.setattr(gmmlor.cli, "fit", fake_fit)
    out = str(tmp_path / "study.csv")
    rc = main([
        "replicate", "--model", single_path, "--counts", "200",
        "--replicates", "20", "--seed", "0", "--k", "1", "--jobs", "1",
        "--grid", "32", "--out", out,
    ])
    # 19 of 20 is the 95 percent the study needs; 18 of 20 is not
    assert rc == code
    rows = [line.split(",") for line in Path(out).read_text().splitlines()]
    header, rows = rows[0], rows[1:]
    assert len(header) == 4 + 3 * 1 + 1
    assert [int(row[0]) for row in rows] == list(range(20))
    for i, row in enumerate(rows):
        assert row[2] == str(derive_seed(0, 2 * i + 1))
        if i in failures:
            assert row[3] == failures[i]
            assert row[4:] == [""] * 4
        else:
            assert row[3] in ("ok", "max_iter")
    done = np.array([[float(v) for v in row[4:]] for row in rows
                     if row[3] not in ("death", "numeric")])
    summary = json.loads(Path(out + ".summary.json").read_text())
    assert summary["replicates"] == 20
    assert summary["completed"] == 20 - len(failures)
    assert summary["failed"] == len(failures)
    counts = {}
    for row in rows:
        counts[row[3]] = counts.get(row[3], 0) + 1
    assert summary["status_counts"] == counts
    assert summary["mean_errors"] == {
        "mean": [float(np.mean(done[:, 0]))],
        "cov": [float(np.mean(done[:, 1]))],
        "weight": [float(np.mean(done[:, 2]))],
    }
    assert summary["kl"] == {
        "mean": float(np.mean(done[:, 3])),
        "max": float(np.max(done[:, 3])),
    }
