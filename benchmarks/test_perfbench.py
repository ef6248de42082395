"""Tests of the benchmark itself: span arithmetic and output checks.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_perfbench.py``.
"""

import copy
import csv
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

import gmmlor
import gmmlor.estimate
from gmmlor.metrics import evaluate_against_truth, report_to_dict

import checks
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _truth_components():
    return checks.load_components_from(workloads.TRUTH)


def _write_json(tmp_path, obj, name):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def _moved(obj, component, dx):
    moved = copy.deepcopy(obj)
    moved["components"][component]["mean"][0] += dx
    return moved


# --- spans -------------------------------------------------------------


def test_self_time_subtracts_direct_children():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))

    def inner():
        return tracer.call("leaf", lambda: None)

    def outer():
        tracer.call("child", inner)  # [1, 4] holding leaf [2, 3]
        tracer.call("child", lambda: None)  # [5, 6]

    tracer.call("root", outer)  # [0, 10]
    table = tracer.summary()
    assert table["root"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert table["child"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert table["leaf"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}


def test_span_closes_when_the_call_raises():
    tracer = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        tracer.call("boom", lambda: 1 / 0)
    tracer.call("after", lambda: None)
    assert tracer.spans[1][1] == -1  # "after" is not a child of "boom"
    assert tracer.spans[0][3] is not None


def test_install_wraps_seams_and_uninstall_restores_them():
    original = gmmlor.estimate.solve_quartic
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == set()
        gmmlor.estimate.solve_quartic(1.0, 0.0, -5.0, 0.0, 4.0)
    finally:
        tracer.uninstall()
    assert gmmlor.estimate.solve_quartic is original
    metrics = tracer.layer_metrics()
    assert metrics["quartic.solve_quartic_calls"] == 1
    assert metrics["quartic.solve_quartic_s"] > 0.0
    assert metrics["estimate.fit_s"] == 0.0
    assert set(metrics) == set(tracing.LAYER_METRICS)


def test_missing_seam_is_reported_not_fatal():
    tracer = tracing.Tracer()
    tracer.install(seams=(
        ("gmmlor.estimate", "no_such_seam", "estimate.fit_mean", None),
    ))
    tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert tracer.missing == {"estimate.fit_mean"}
    assert metrics["estimate.fit_mean_s"] == tracing.MISSING
    assert metrics["estimate.fit_mean_rows"] == tracing.MISSING


def test_isotropic_orientation_counts_calls_without_a_quartic():
    tracer = tracing.Tracer()
    tracer.call("estimate.solve_orientation", lambda: None)
    tracer.call(
        "estimate.solve_orientation",
        lambda: tracer.call("quartic.solve_quartic", lambda: None),
    )
    assert tracer.layer_metrics()["estimate.orientation_isotropic"] == 1


# --- inputs ------------------------------------------------------------


def test_benchmark_json_lists_what_the_runs_report():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {
        m["name"]: m["unit"] for m in bench["end_to_end"]
    } == run.END_TO_END_UNITS
    layers = {name: unit for name, (unit, _, _) in tracing.LAYER_METRICS.items()}
    layers["trace.overhead"] = "1"
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers


def test_truth_is_the_test_suite_mixture():
    spec = importlib.util.spec_from_file_location(
        "suite_conftest", ROOT / "tests" / "conftest.py"
    )
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    suite = conftest.benchmark_components()
    ours = _truth_components()
    for j, comp in enumerate(suite):
        np.testing.assert_array_equal(ours[0][j], comp.mean)
        np.testing.assert_array_equal(ours[1][j], comp.covariance)
        assert ours[2][j] == comp.weight


def test_study_inputs_do_not_depend_on_the_workload_seed(tmp_path):
    argvs = [argv for _, argv in workloads.commands(
        "study-7k", tmp_path, "truth.json", "config.json"
    )]
    seeds = [int(argv[argv.index("--seed") + 1]) for argv in argvs]
    assert seeds == list(workloads.STUDY_SEEDS)


# --- model and accuracy checks -------------------------------------------


def test_model_check_accepts_the_truth():
    assert checks.check_model(_truth_components(), 3) == []


def test_model_check_rejects_weights_summing_to_0_9():
    obj = copy.deepcopy(workloads.TRUTH)
    obj["components"][0]["weight"] -= 0.1
    assert checks.check_model(checks.load_components_from(obj), 3)


def test_model_check_rejects_indefinite_covariance():
    obj = copy.deepcopy(workloads.TRUTH)
    obj["components"][1]["cov"] = [[0.04, 0.1], [0.1, 0.09]]
    assert checks.check_model(checks.load_components_from(obj), 3)


def test_model_check_rejects_wrong_component_count():
    obj = copy.deepcopy(workloads.TRUTH)
    del obj["components"][2]
    assert checks.check_model(checks.load_components_from(obj), 3)


def test_accuracy_check_accepts_a_close_fit():
    close = _moved(workloads.TRUTH, 0, 0.01)
    assert checks.check_accuracy(
        checks.load_components_from(close), _truth_components()
    ) == []


def test_accuracy_check_rejects_a_mean_moved_by_0_2():
    moved = _moved(workloads.TRUTH, 0, 0.2)
    failures = checks.check_accuracy(
        checks.load_components_from(moved), _truth_components()
    )
    assert any("component 0 mean" in f for f in failures)


def test_own_kl_matches_the_program_and_closed_form():
    one = {"format_version": "1.0", "components": [
        {"mean": [0.0, 0.0], "cov": [[0.04, 0.01], [0.01, 0.02]], "weight": 1.0}
    ]}
    shifted = _moved(one, 0, 0.05)
    est, truth = (checks.load_components_from(m) for m in (shifted, one))
    # KL between equal-covariance Gaussians is half the Mahalanobis distance
    d = np.array([0.05, 0.0])
    exact = 0.5 * d @ np.linalg.solve(truth[1][0], d)
    assert checks.kl(est, truth) == pytest.approx(exact, rel=1e-6)
    program = evaluate_against_truth(
        gmmlor.model_from_dict(shifted), gmmlor.model_from_dict(one)
    ).kl_divergence
    assert checks.kl(est, truth) == pytest.approx(program, rel=checks.KL_RTOL)


# --- evaluate report check ---------------------------------------------


def _report(tmp_path, est_obj, **tamper):
    report = report_to_dict(evaluate_against_truth(
        gmmlor.model_from_dict(est_obj),
        gmmlor.model_from_dict(workloads.TRUTH),
    ))
    report.update(tamper)
    return _write_json(tmp_path, report, "report.json")


def test_report_check_accepts_the_programs_report(tmp_path):
    est_obj = _moved(workloads.TRUTH, 1, 0.03)
    path = _report(tmp_path, est_obj)
    est = checks.load_components_from(est_obj)
    assert checks.check_report(path, est, _truth_components()) == []


def test_report_check_rejects_a_wrong_kl(tmp_path):
    est_obj = _moved(workloads.TRUTH, 1, 0.03)
    est = checks.load_components_from(est_obj)
    good = json.loads(_report(tmp_path, est_obj).read_text())
    path = _report(tmp_path, est_obj, kl_divergence=good["kl_divergence"] * 1.1)
    assert checks.check_report(path, est, _truth_components())


def test_report_check_rejects_a_wrong_mean_error(tmp_path):
    est_obj = _moved(workloads.TRUTH, 1, 0.03)
    est = checks.load_components_from(est_obj)
    path = _report(tmp_path, est_obj, mean_errors=[0.0, 0.0, 0.0])
    assert checks.check_report(path, est, _truth_components())


# --- generated CSV check -----------------------------------------------


def _events_csv(tmp_path, n=20000):
    sim = gmmlor.simulate_lors(
        gmmlor.model_from_dict(workloads.TRUTH), n_total=n, seed=7, shuffle=True
    )
    path = tmp_path / "events.csv"
    gmmlor.write_lors_csv(path, sim.s, sim.phi)
    return path


def _rewrite_rows(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header] + edit(body))


def test_events_check_accepts_simulated_events(tmp_path):
    path = _events_csv(tmp_path)
    assert checks.check_events(path, 20000, _truth_components()) == []


def test_events_check_rejects_phi_of_2(tmp_path):
    path = _events_csv(tmp_path)

    def edit(body):
        body[5][1] = "2"
        return body

    _rewrite_rows(path, edit)
    failures = checks.check_events(path, 20000, _truth_components())
    assert any("phi outside" in f for f in failures)


def test_events_check_rejects_a_missing_row(tmp_path):
    path = _events_csv(tmp_path)
    _rewrite_rows(path, lambda body: body[:-1])
    assert checks.check_events(path, 20000, _truth_components())


def test_events_check_rejects_offsets_from_another_mean(tmp_path):
    path = _events_csv(tmp_path)

    def edit(body):
        # moves every emission point by 0.2 along y
        return [[repr(float(s) + 0.2 * math.cos(float(p))), p] for s, p in body]

    _rewrite_rows(path, edit)
    failures = checks.check_events(path, 20000, _truth_components())
    assert any("moment identity for y" in f for f in failures)


# --- replicate study check ---------------------------------------------


def _study(tmp_path, replicates=4, scale=1.0, completed=None,
           summary_shift=0.0, kl=None, status=None, dead=None):
    """A study CSV and its summary; ``dead`` is the index of a replicate
    that died, with empty error cells."""
    out = tmp_path / "study.csv"
    errs = {"mean": (0.02, 0.02, 0.01), "cov": (0.01, 0.01, 0.002),
            "weight": (0.01, 0.01, 0.001)}
    kls = [0.01 * scale] * replicates if kl is None else kl
    header = ["replicate", "sim_seed", "fit_seed", "status"]
    for kind in errs:
        header += [f"{kind}_err_{j}" for j in range(3)]
    header.append("kl")
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(replicates):
            if i == dead:
                writer.writerow([i, 1, 2, "death"] + [""] * 10)
                continue
            row = [i, 1, 2, "ok" if status is None else status[i]]
            for kind in errs:
                row += [repr(v * scale) for v in errs[kind]]
            row.append(repr(kls[i]))
            writer.writerow(row)
    alive = [v for i, v in enumerate(kls) if i != dead]
    summary = {
        "replicates": replicates,
        "completed": len(alive) if completed is None else completed,
        "mean_errors": {
            kind: [v * scale + summary_shift for v in values]
            for kind, values in errs.items()
        },
        "kl": {"mean": math.fsum(alive) / len(alive), "max": max(alive)},
    }
    (tmp_path / "study.csv.summary.json").write_text(json.dumps(summary))
    return str(out)


def test_accuracy_averages_every_reported_fit(tmp_path):
    out = _study(tmp_path, replicates=10, kl=[0.01] * 9 + [0.69])
    ops = [
        {"operation": "replicate", "argv": ["replicate", "--out", out],
         "rc": 0},
        {"operation": "generate", "argv": ["generate", "--out", "unused"],
         "rc": 0},
    ]
    acc = workloads.accuracy(ops)
    assert acc["mean_err"] == pytest.approx((0.02 + 0.02 + 0.01) / 3)
    # a plain mean: the wrong-optimum fit is not trimmed away
    assert acc["kl"] == pytest.approx(0.078)


def test_accuracy_skips_replicates_without_errors(tmp_path):
    out = _study(tmp_path, replicates=5, dead=2)
    ops = [{"operation": "replicate", "argv": ["replicate", "--out", out],
            "rc": 0}]
    assert workloads.accuracy(ops)["kl"] == pytest.approx(0.01)


def test_study_check_accepts_a_good_study(tmp_path):
    assert checks.check_study(_study(tmp_path), 4, 3) == []


def test_study_check_rejects_incomplete_replicates(tmp_path):
    assert checks.check_study(_study(tmp_path, completed=3), 4, 3)


def test_study_check_rejects_errors_over_budget(tmp_path):
    failures = checks.check_study(_study(tmp_path, scale=5.0), 4, 3)
    assert any("component 2 weight" in f for f in failures)
    assert any("kl mean" in f for f in failures)


def test_study_check_rejects_a_summary_that_disagrees_with_its_rows(tmp_path):
    failures = checks.check_study(_study(tmp_path, summary_shift=1e-3), 4, 3)
    assert any(f.startswith("summary mean[0]") for f in failures)


def test_study_check_flags_one_replicate_over_the_kl_limit(tmp_path):
    out = _study(tmp_path, kl=[0.01, 0.01, 0.06, 0.01])
    assert checks.check_study(out, 4, 3) == [
        f"{checks.WRONG_OPTIMUM}: replicate 2 kl 0.06 > 0.05"
    ]


def test_study_check_rejects_a_fit_that_hit_the_iteration_cap(tmp_path):
    out = _study(tmp_path, status=["ok", "max_iter", "ok", "ok"])
    assert checks.check_study(out, 4, 3) == ["replicate 1 status max_iter"]


def _rounds(out):
    op = {"operation": "replicate", "argv": ["replicate", "--out", out],
          "rc": 0, "wall_s": 1.0}
    return [{"traced": False, "ops": [op], "wall_s": 1.0}]


def test_a_wrong_optimum_counts_as_failed_but_keeps_the_run_correct(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(workloads, "STUDY_REPLICATES", 4)
    truth = _write_json(tmp_path, workloads.TRUTH, "truth.json")
    wrong = _rounds(_study(tmp_path, kl=[0.01, 0.01, 0.06, 0.01]))
    assert run.check_rounds(wrong, str(truth)) == (1, 1, True)
    capped = _rounds(_study(tmp_path, status=["max_iter"] + ["ok"] * 3))
    assert run.check_rounds(capped, str(truth)) == (1, 1, False)


def test_run_prints_its_result_when_a_replicate_died(
    tmp_path, monkeypatch, capsys
):
    def fake_worker(args, work, deadline, setup_only, trace_out=None):
        if setup_only:
            return {"setup_s": 0.25}
        workloads.write_inputs(work)
        return {
            "setup_s": 0.25,
            "peak_rss_mb": 64.0,
            "rounds": _rounds(_study(work, replicates=5, dead=2)),
        }

    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    monkeypatch.setattr(run, "spawn_worker", fake_worker)
    rc = run.main(["--workload", "study-7k", "--seed", "1",
                   "--seconds", "1", "--trace", "0"])
    assert rc == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (
        False, 1, 1
    )
    assert result["metrics"]["kl"]["value"] == pytest.approx(0.01)
    assert result["metrics"]["setup_s"]["value"] == 0.25
