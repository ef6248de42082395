"""Output checks, recomputed without importing gmmlor.

Each check reads what a CLI command wrote and returns a list of
failure messages (empty when the output is right).  Fitted models are
matched to the truth by brute force and their densities integrated on
a midpoint grid of this module's own, so an error in ``gmmlor.metrics``
cannot hide itself.
"""

from __future__ import annotations

import csv
import itertools
import json
import math

import numpy as np

# per-component error budgets of the acceptance gate (tests/test_acceptance.py)
MEAN_BUDGET = (0.07, 0.058, 0.022)
COV_BUDGET = (0.028, 0.042, 0.008)
WEIGHT_BUDGET = (0.038, 0.036, 0.004)
KL_MEAN_BUDGET = 0.03
KL_MAX_BUDGET = 0.05
#: Start of the message for a replicate over KL_MAX_BUDGET: a fit that
#: converged to a wrong optimum, a known fault of ``gmmlor.estimate.fit``.
WRONG_OPTIMUM = "wrong optimum"

#: |z| limit for the label-free moment identity on a generated CSV.
MOMENT_Z_LIMIT = 5.0
#: Agreement required between ``evaluate`` and the recomputation.
ERROR_RTOL = 1e-9
KL_RTOL = 1e-3
KL_ATOL = 1e-7
#: Own KL quadrature: cells per axis and padding in standard deviations.
KL_GRID = 640
KL_PAD_SIGMA = 7.0


def load_components(path):
    """(means, covs, weights) arrays of a model JSON file."""
    with open(path, encoding="utf-8") as fh:
        return load_components_from(json.load(fh))


def load_components_from(obj):
    """(means, covs, weights) arrays of a parsed model JSON object."""
    comps = obj["components"]
    means = np.array([c["mean"] for c in comps], dtype=float)
    covs = np.array([c["cov"] for c in comps], dtype=float)
    weights = np.array([c["weight"] for c in comps], dtype=float)
    return means, covs, weights


def check_model(model, k):
    """K components, a proper weight vector, SPD covariances."""
    means, covs, weights = model
    failures = []
    if len(weights) != k or means.shape != (k, 2) or covs.shape != (k, 2, 2):
        return [f"model has {len(weights)} components, expected {k}"]
    if not np.all(np.isfinite(means)) or not np.all(np.isfinite(covs)):
        failures.append("model holds non-finite values")
    if not np.all(weights > 0.0):
        failures.append(f"weights not all positive: {weights.tolist()}")
    if abs(math.fsum(weights) - 1.0) > 1e-9:
        failures.append(f"weights sum to {math.fsum(weights)!r}, not 1")
    for j, c in enumerate(covs):
        if abs(c[0, 1] - c[1, 0]) > 1e-12 * (abs(c[0, 0]) + abs(c[1, 1])):
            failures.append(f"covariance {j} is not symmetric")
        if not (c[0, 0] > 0.0 and c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0] > 0.0):
            failures.append(f"covariance {j} is not positive definite")
    return failures


def match(est, truth):
    """Permutation p (estimated j -> truth p[j]), least total mean distance."""
    k = len(truth[2])
    best = min(
        itertools.permutations(range(k)),
        key=lambda p: sum(
            math.dist(est[0][j], truth[0][p[j]]) for j in range(k)
        ),
    )
    return best


def parameter_errors(est, truth):
    """Mean, covariance (Frobenius) and weight errors, by truth index."""
    perm = match(est, truth)
    k = len(perm)
    mean_err, cov_err, weight_err = np.empty(k), np.empty(k), np.empty(k)
    for j, i in enumerate(perm):
        mean_err[i] = math.dist(est[0][j], truth[0][i])
        cov_err[i] = math.sqrt(float(np.sum((est[1][j] - truth[1][i]) ** 2)))
        weight_err[i] = abs(est[2][j] - truth[2][i])
    return perm, mean_err, cov_err, weight_err


def _log_density(model, x, y):
    """Log mixture density at grid points, component by component."""
    means, covs, weights = model
    terms = []
    for (mx, my), c, w in zip(means, covs, weights):
        a, b, d = c[0, 0], c[0, 1], c[1, 1]
        det = a * d - b * b
        dx, dy = x - mx, y - my
        quad = (d * dx * dx - 2.0 * b * dx * dy + a * dy * dy) / det
        terms.append(
            math.log(w) - math.log(2.0 * math.pi * math.sqrt(det)) - 0.5 * quad
        )
    return np.logaddexp.reduce(np.stack(terms), axis=0)


def kl(est, truth, grid=KL_GRID, pad=KL_PAD_SIGMA):
    """KL(est || truth) by midpoint quadrature on a box around both."""
    means = np.concatenate((est[0], truth[0]))
    top_variance = np.linalg.eigvalsh(np.concatenate((est[1], truth[1]))).max()
    sd = math.sqrt(max(top_variance, 0.0))
    lo = means.min(axis=0) - pad * sd
    hi = means.max(axis=0) + pad * sd
    h = (hi - lo) / grid
    x = lo[0] + (np.arange(grid) + 0.5) * h[0]
    y = lo[1] + (np.arange(grid) + 0.5) * h[1]
    gx, gy = np.meshgrid(x, y)
    log_p = _log_density(est, gx, gy)
    log_q = _log_density(truth, gx, gy)
    return float(np.sum(np.exp(log_p) * (log_p - log_q)) * h[0] * h[1])


def check_accuracy(est, truth):
    """Matched per-component errors within budget and KL <= 0.03."""
    _, mean_err, cov_err, weight_err = parameter_errors(est, truth)
    failures = []
    for name, errors, budget in (
        ("mean", mean_err, MEAN_BUDGET),
        ("cov", cov_err, COV_BUDGET),
        ("weight", weight_err, WEIGHT_BUDGET),
    ):
        for i, (e, b) in enumerate(zip(errors, budget)):
            if not e <= b:
                failures.append(f"component {i} {name} error {e:.4g} > {b}")
    divergence = kl(est, truth)
    if not divergence <= KL_MEAN_BUDGET:
        failures.append(f"kl {divergence:.4g} > {KL_MEAN_BUDGET}")
    return failures


def check_report(report_path, est, truth):
    """``evaluate``'s errors and KL agree with the recomputation."""
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    perm, mean_err, cov_err, weight_err = parameter_errors(est, truth)
    failures = []
    if list(report["matching"]) != list(perm):
        failures.append(f"matching {report['matching']} != {list(perm)}")
    for key, own in (
        ("mean_errors", mean_err),
        ("cov_errors", cov_err),
        ("weight_errors", weight_err),
    ):
        theirs = np.asarray(report[key], dtype=float)
        if theirs.shape != own.shape or not np.allclose(
            theirs, own, rtol=ERROR_RTOL, atol=1e-15
        ):
            failures.append(f"{key} {theirs.tolist()} != {own.tolist()}")
    own_kl = kl(est, truth)
    theirs = report["kl_divergence"]
    if theirs is None or not abs(theirs - own_kl) <= KL_ATOL + KL_RTOL * own_kl:
        failures.append(f"kl_divergence {theirs!r} != recomputed {own_kl!r}")
    return failures


def read_events(path):
    """(s, phi) columns of a LoR CSV with header s,phi."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "s,phi":
            raise ValueError(f"unexpected header {header!r}")
        data = np.loadtxt(fh, delimiter=",", dtype=float, ndmin=2)
    return data[:, 0], data[:, 1]


def check_events(path, n, truth):
    """N rows, phi in [-pi/2, pi/2), and the moment identity for the mean.

    With phi uniform and independent of the emission point (x, y),
    E[-2 s sin phi] = x and E[2 s cos phi] = y, so the event averages
    estimate the mixture mean without labels.
    """
    try:
        s, phi = read_events(path)
    except ValueError as exc:
        return [f"{path}: {exc}"]
    failures = []
    if s.size != n:
        failures.append(f"{s.size} rows, expected {n}")
    if s.size == 0:
        return failures
    bad = int(np.count_nonzero(~((phi >= -math.pi / 2) & (phi < math.pi / 2))))
    if bad:
        failures.append(f"{bad} rows with phi outside [-pi/2, pi/2)")
    mixture_mean = truth[2] @ truth[0]
    for axis, values, target in (
        ("x", -2.0 * s * np.sin(phi), mixture_mean[0]),
        ("y", 2.0 * s * np.cos(phi), mixture_mean[1]),
    ):
        se = float(np.std(values)) / math.sqrt(values.size)
        z = (float(np.mean(values)) - target) / se
        if not abs(z) <= MOMENT_Z_LIMIT:
            failures.append(f"moment identity for {axis}: z = {z:.2f}")
    return failures


def check_study(out_path, replicates, k):
    """Replicate study: all replicates complete and converged, averages
    within budget, every replicate's KL within the gate's limit, and the
    summary's averages equal the per-replicate rows' averages."""
    with open(out_path + ".summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    with open(out_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    failures = []
    if not summary["completed"] == summary["replicates"] == replicates:
        return [
            f"{summary['completed']} of {summary['replicates']} replicates "
            f"completed, expected {replicates}"
        ]
    if len(rows) != replicates:
        return [f"study CSV has {len(rows)} rows, expected {replicates}"]
    for r in rows:
        if r["status"] != "ok":
            failures.append(f"replicate {r['replicate']} status {r['status']}")
    averages = summary["mean_errors"]
    def row_mean(column):
        return math.fsum(float(r[column]) for r in rows) / replicates

    for name, budget in (
        ("mean", MEAN_BUDGET), ("cov", COV_BUDGET), ("weight", WEIGHT_BUDGET)
    ):
        for i in range(k):
            own = row_mean(f"{name}_err_{i}")
            theirs = averages[name][i]
            if not math.isclose(own, theirs, rel_tol=1e-9, abs_tol=1e-15):
                failures.append(
                    f"summary {name}[{i}] {theirs!r} != rows {own!r}"
                )
            if not own <= budget[i]:
                failures.append(
                    f"component {i} {name} error {own:.4g} > {budget[i]}"
                )
    kls = [float(r["kl"]) for r in rows]
    kl_mean = math.fsum(kls) / replicates
    if not math.isclose(kl_mean, summary["kl"]["mean"], rel_tol=1e-9):
        failures.append("summary kl mean disagrees with the rows")
    if not math.isclose(max(kls), summary["kl"]["max"], rel_tol=1e-9):
        failures.append("summary kl max disagrees with the rows")
    if not kl_mean <= KL_MEAN_BUDGET:
        failures.append(f"kl mean {kl_mean:.4g} > {KL_MEAN_BUDGET}")
    for r, value in zip(rows, kls):
        if not value <= KL_MAX_BUDGET:
            failures.append(
                f"{WRONG_OPTIMUM}: replicate {r['replicate']} "
                f"kl {value:.4g} > {KL_MAX_BUDGET}"
            )
    return failures
