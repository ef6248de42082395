"""Acceptance gate: one pass/fail line per required behavior.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.  The replicate study (criteria 1 and 2) fits 100 simulated
datasets of 7000 events each and takes a few tens of seconds.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import integrate

import gmmlor
from gmmlor import (
    FitConfig,
    MixtureModel2D,
    WeightedMoments,
    covariance_from_eigen,
    EigenDecomposition2D,
    fit,
    invert_moments,
    moments_from_offsets,
    projection_variance,
    save_model,
    simulate_lors,
    solve_orientation,
    theoretical_moments,
)
from gmmlor.projection import log_line_integral_profile
from gmmlor.quartic import solve_quartic
from conftest import BENCHMARK_COUNTS, benchmark_components, make_component

# per-component error budgets for the replicate study
MEAN_BUDGET = (0.07, 0.058, 0.022)
COV_BUDGET = (0.028, 0.042, 0.008)
WEIGHT_BUDGET = (0.038, 0.036, 0.004)
KL_MEAN_BUDGET = 0.03
KL_MAX_BUDGET = 0.05
RUNTIME_BUDGET_S = 600.0

# study protocol: fixed master seed, stopping tolerance loosened to 1e-3
# (the update map has a flat weight ridge for the two overlapping
# components; 1e-3 is still 6x below the sampling error of the weights)
STUDY_SEED = 0
STUDY_CONFIG = {"K": 3, "weight_tol": 1e-3}
STUDY_REPLICATES = 100


def verdict(ok, label):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("study")
    truth = tmp / "truth.json"
    save_model(MixtureModel2D(benchmark_components()), truth)
    cfg = tmp / "config.json"
    cfg.write_text(json.dumps(STUDY_CONFIG))
    out = tmp / "study.csv"
    cmd = [
        sys.executable, "-m", "gmmlor", "replicate",
        "--model", str(truth),
        "--counts", ",".join(str(c) for c in BENCHMARK_COUNTS),
        "--replicates", str(STUDY_REPLICATES),
        "--seed", str(STUDY_SEED),
        "--config", str(cfg),
        "--jobs", "1",
        "--grid", "512",
        "--out", str(out),
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads((tmp / "study.csv.summary.json").read_text())
    return {"summary": summary, "elapsed": elapsed}


def test_criterion_1_replicate_error_study(study):
    s = study["summary"]
    errs = s["mean_errors"]
    ok = (
        s["completed"] == STUDY_REPLICATES
        and all(e <= b for e, b in zip(errs["mean"], MEAN_BUDGET))
        and all(e <= b for e, b in zip(errs["cov"], COV_BUDGET))
        and all(e <= b for e, b in zip(errs["weight"], WEIGHT_BUDGET))
        and study["elapsed"] < RUNTIME_BUDGET_S
    )
    verdict(
        ok,
        "criterion 1: 100-replicate error study within budget "
        f"(mean={['%.4f' % e for e in errs['mean']]}, "
        f"cov={['%.4f' % e for e in errs['cov']]}, "
        f"weight={['%.4f' % e for e in errs['weight']]}, "
        f"completed={s['completed']}, {study['elapsed']:.0f}s)",
    )


def test_criterion_2_kl_study(study):
    kl = study["summary"]["kl"]
    ok = kl["mean"] <= KL_MEAN_BUDGET and kl["max"] <= KL_MAX_BUDGET
    verdict(
        ok,
        "criterion 2: KL divergence study "
        f"(mean={kl['mean']:.4f} <= {KL_MEAN_BUDGET}, "
        f"max={kl['max']:.4f} <= {KL_MAX_BUDGET})",
    )


def test_criterion_3_moment_roundtrip():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(1000):
        hi = math.exp(rng.uniform(math.log(1e-6), 0.0))
        ratio = math.exp(rng.uniform(0.0, math.log(1e3)))
        lo = max(hi / ratio, 1e-6)
        m2, m4 = theoretical_moments(EigenDecomposition2D(hi, lo, 0.0))
        s1, s2 = invert_moments(WeightedMoments(m2, m4, 1.0), variance_floor=0.0)
        worst = max(worst, abs(s1 - hi) / hi, abs(s2 - lo) / lo)
    verdict(
        worst < 1e-12,
        f"criterion 3: moment round-trip, worst relative error {worst:.2e} < 1e-12",
    )


def test_criterion_4_projection_variance_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        s2 = rng.uniform(1e-4, 1.0, size=2)
        hi, lo = max(s2), min(s2)
        phi0 = rng.uniform(-math.pi / 2, math.pi / 2)
        cov = covariance_from_eigen(EigenDecomposition2D(hi, lo, phi0))
        phi = rng.uniform(-math.pi / 2, math.pi / 2)
        n = np.array([-math.sin(phi), math.cos(phi)])
        expect = n @ cov @ n
        got = projection_variance(cov, phi)
        worst = max(worst, abs(got - expect) / expect)
    verdict(
        worst < 1e-12,
        f"criterion 4: projected variance quadratic form, worst {worst:.2e} < 1e-12",
    )


def test_criterion_5_line_integral_oracle():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(100):
        mean = rng.normal(size=2)
        a = rng.normal(size=(2, 2)) * rng.uniform(0.2, 1.5)
        cov = a @ a.T + 1e-3 * np.eye(2)
        comp = make_component(mean, cov, 1.0)
        model = MixtureModel2D((comp,))
        phi = rng.uniform(-math.pi / 2, math.pi / 2)
        n = np.array([-math.sin(phi), math.cos(phi)])
        d = np.array([math.cos(phi), math.sin(phi)])
        sig_p = math.sqrt(n @ cov @ n)
        s = mean @ n + rng.uniform(-3.0, 3.0) * sig_p

        def along(t):
            return gmmlor.density(model, s * n + t * d)

        ts = np.linspace(mean @ d - 30.0, mean @ d + 30.0, 4001)
        tm = float(ts[np.argmax([along(t) for t in ts])])
        ref, _ = integrate.quad(along, tm - 25.0, tm + 25.0, limit=300, points=[tm])
        got = math.exp(log_line_integral_profile(comp.covariance, comp.mean, s, phi))
        worst = max(worst, abs(got - ref) / ref)
    verdict(
        worst < 1e-8,
        f"criterion 5: line-integral density vs quadrature, worst {worst:.2e} < 1e-8",
    )


def test_criterion_6_orientation_and_quartic():
    worst_phi = 0.0
    for phi0 in np.linspace(-1.5, 1.5, 50):
        phis = np.linspace(-math.pi / 2, math.pi / 2, 64, endpoint=False)
        p = EigenDecomposition2D(0.09, 0.01, phi0)
        offs = (np.sqrt(projection_variance(covariance_from_eigen(p), phis)), phis)
        got = solve_orientation(moments_from_offsets(offs), 0.09, 0.01)
        worst_phi = max(worst_phi, abs(math.remainder(got - phi0, math.pi)))

    rng = np.random.default_rng(1609)
    worst_res = 0.0
    for _ in range(10000):
        coeffs = rng.uniform(-10.0, 10.0, size=5)
        if coeffs[0] == 0.0:
            coeffs[0] = 1.0
        scale = np.sum(np.abs(coeffs))
        for r in solve_quartic(*coeffs):
            c4, c3, c2, c1, c0 = coeffs
            val = abs((((c4 * r + c3) * r + c2) * r + c1) * r + c0)
            worst_res = max(worst_res, val / (scale * max(1.0, abs(r)) ** 4))
    ok = worst_phi < 1e-9 and worst_res <= 1e-8
    verdict(
        ok,
        "criterion 6: orientation recovery and quartic residuals "
        f"(phi0 err {worst_phi:.2e} < 1e-9, residual {worst_res:.2e} <= 1e-8)",
    )


def test_criterion_7_single_component_consistency():
    worst_mu, worst_cov = 0.0, 0.0
    for comp in benchmark_components():
        model = MixtureModel2D((make_component(comp.mean, comp.covariance, 1.0),))
        for seed in range(5):
            res = simulate_lors(model, counts=(100000,), seed=seed)
            out = fit((res.s, res.phi), FitConfig(K=1, seed=seed))
            got = out.model.components[0]
            worst_mu = max(worst_mu, float(np.linalg.norm(got.mean - comp.mean)))
            worst_cov = max(
                worst_cov, float(np.linalg.norm(got.covariance - comp.covariance))
            )
    ok = worst_mu < 0.01 and worst_cov < 0.01
    verdict(
        ok,
        "criterion 7: single-component recovery at 1e5 events "
        f"(worst mean err {worst_mu:.4f} < 0.01, "
        f"worst cov err {worst_cov:.4f} < 0.01)",
    )


def test_criterion_8_membership_normalization(benchmark_mixture, monkeypatch):
    import gmmlor.estimate as est_mod

    res = simulate_lors(benchmark_mixture, counts=BENCHMARK_COUNTS, seed=5)
    row_residuals = []
    original = est_mod._memberships_arrays

    def spy(s, phi, means, covariances, tau):
        resp, loglik = original(s, phi, means, covariances, tau)
        sums = resp.sum(axis=1)
        row_residuals.append(float(np.max(np.abs(sums - 1.0))))
        return resp, loglik

    monkeypatch.setattr(est_mod, "_memberships_arrays", spy)
    out = fit(
        (res.s, res.phi),
        FitConfig(K=3, seed=0, weight_tol=1e-3),
    )
    assert out.converged
    tau_residuals = [
        abs(math.fsum(rec.weights) - 1.0)
        for rec in out.trace
        if rec.phase == 2
    ]
    ok = (
        row_residuals
        and tau_residuals
        and max(row_residuals) < 1e-9
        and max(tau_residuals) < 1e-9
    )
    verdict(
        ok,
        "criterion 8: membership rows and weights normalized "
        f"(worst row residual {max(row_residuals):.2e}, "
        f"worst weight-sum residual {max(tau_residuals):.2e}, both < 1e-9)",
    )


def test_criterion_9_replicate_determinism(tmp_path):
    from gmmlor.cli import main

    truth = tmp_path / "truth.json"
    save_model(MixtureModel2D(benchmark_components()), truth)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(STUDY_CONFIG))
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"study_{tag}.csv"
        rc = main([
            "replicate", "--model", str(truth), "--counts", "350,250,100",
            "--replicates", "6", "--seed", "0", "--config", str(cfg),
            "--grid", "128", "--out", str(out),
        ])
        assert rc == 0
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    verdict(ok, "criterion 9: replicate study CSVs byte-identical across runs")
