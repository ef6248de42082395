"""Command-line interface.

Subcommands:

* ``generate``  sample LoRs from a model file into a CSV
* ``fit``       estimate a mixture from a LoR CSV
* ``evaluate``  score an estimated model against a truth model
* ``replicate`` run a repeated simulate-fit-evaluate study

Exit codes: 0 success, 2 bad arguments or component-count mismatch,
3 unreadable or malformed input file, 4 numerical failure (also a
replicate study with under 95 percent of replicates completing),
5 iteration limit reached (outputs are still written), 6 a component
died during fitting.  Set ``GMMLOR_LOG`` (DEBUG, INFO, ...) to raise
log verbosity.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys

import numpy as np

from .errors import (
    ComponentDeathError,
    GmmLorError,
    InputError,
    NumericalError,
)
from .estimate import (
    FitConfig,
    config_from_dict,
    config_to_dict,
    fit,
    trace_to_jsonl,
)
from .metrics import (
    _cell_centers,
    evaluate_against_truth,
    report_to_dict,
    union_bounding_box,
)
from .model import (
    FORMAT_VERSION,
    _mixture_density,
    check_format_version,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from .rng import derive_seed
from .simulate import _write_rows, read_lors_csv, simulate_lors, write_lors_csv

log = logging.getLogger("gmmlor.cli")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BAD_INPUT = 3
EXIT_NUMERIC = 4
EXIT_MAX_ITER = 5
EXIT_DEATH = 6

#: A replicate study exits nonzero when fewer than this fraction of
#: replicates produce a full evaluation row.
MIN_STUDY_SUCCESS = 0.95


class CliUsageError(Exception):
    """Semantic argument problem (mapped to exit code 2)."""


def _resolve_counts(args, model) -> list[int] | None:
    """Per-component counts from ``--counts``, or None when ``--n`` is
    given instead; exactly one of the two must be."""
    if (args.counts is None) == (args.n is None):
        raise CliUsageError("give exactly one of --counts and --n")
    if args.counts is None:
        return None
    try:
        counts = [int(part) for part in args.counts.split(",")]
    except ValueError as exc:
        raise CliUsageError(f"bad --counts value: {exc}") from exc
    if any(c < 0 for c in counts):
        raise CliUsageError("--counts entries must be nonnegative")
    if len(counts) != len(model.components):
        raise CliUsageError(
            f"--counts has {len(counts)} entries but the model has "
            f"{len(model.components)} components"
        )
    return counts


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve_fit_config(args) -> FitConfig:
    """Merge config file and CLI flags; flags win, K must agree."""
    file_cfg = {}
    if args.config is not None:
        raw = _load_json(args.config)
        if not isinstance(raw, dict):
            raise InputError(f"{args.config} must hold a JSON object")
        check_format_version(raw)
        raw.pop("format_version", None)
        file_cfg = raw
    if args.k is not None and "K" in file_cfg:
        if int(file_cfg["K"]) != args.k:
            raise CliUsageError(
                f"--k {args.k} conflicts with config K {file_cfg['K']}"
            )
    overrides = {}
    if args.k is not None:
        overrides["K"] = args.k
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.restarts is not None:
        overrides["restarts"] = args.restarts
    if "K" not in file_cfg and args.k is None:
        raise CliUsageError("give --k or a config file with K")
    try:
        return config_from_dict(file_cfg, **overrides)
    except InputError as exc:
        if args.config is not None:
            raise
        raise CliUsageError(str(exc)) from exc


def _raster_grid(models, grid_n: int):
    """Shared cell-center grid covering the models plus four sigma, as
    the header line, a (1, grid_n) row of x and a (grid_n, 1) column of
    y."""
    box = union_bounding_box(models, n_sigma=4.0)
    x, y = _cell_centers(box, grid_n)
    x_lo, x_hi, y_lo, y_hi = box
    header = (
        f"# nx={grid_n} ny={grid_n} "
        f"x_lo={x_lo:.17g} x_hi={x_hi:.17g} "
        f"y_lo={y_lo:.17g} y_hi={y_hi:.17g}"
    )
    return header, x[np.newaxis, :], y[:, np.newaxis]


def _write_raster_csv(path, header: str, x, y, values) -> None:
    """Write a raster as x,y,value rows with x varying fastest; ``values``
    is indexed [y, x] as :func:`_raster_grid`'s row and column give it."""
    ny, nx = values.shape
    columns = (
        np.tile(x.ravel(), ny), np.repeat(y.ravel(), nx), values.ravel()
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        fh.write("x,y,value\n")
        _write_rows(fh, "%.17g,%.17g,%.17g\n", columns)


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    model = load_model(args.model)
    counts = _resolve_counts(args, model)
    result = simulate_lors(
        model,
        counts=counts,
        n_total=args.n,
        seed=args.seed,
        shuffle=args.shuffle,
    )
    labels = result.labels if args.labels else None
    write_lors_csv(args.out, result.s, result.phi, labels)
    _write_json(
        args.out + ".manifest.json",
        {
            "format_version": FORMAT_VERSION,
            "source_model": str(args.model),
            "seed": args.seed,
            "counts": list(result.counts),
            "rows": len(result),
            "labeled": bool(args.labels),
            "shuffled": bool(args.shuffle),
        },
    )
    log.info("wrote %d LoRs to %s", len(result), args.out)
    print(f"generated {len(result)} LoRs -> {args.out}")
    return EXIT_OK


def cmd_fit(args) -> int:
    s, phi = read_lors_csv(args.lors)[:2]  # a label column is not held
    config = _resolve_fit_config(args)

    def on_iteration(rec):
        log.debug(
            "iter %d phase %d weights %s loglik %s",
            rec.iteration,
            rec.phase,
            [f"{w:.4f}" for w in rec.weights],
            "none" if rec.loglik_proxy is None else f"{rec.loglik_proxy:.6f}",
        )

    result = fit((s, phi), config, on_iteration=on_iteration)
    save_model(result.model, args.out)
    trace_path = args.out + ".trace.jsonl"
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write(trace_to_jsonl(result.trace))
    log.info(
        "fit finished after %d iterations (restart %d, loglik %.6f)",
        result.state.iteration,
        result.restart_index,
        result.loglik,
    )
    print(
        f"fit {config.K} components to {s.size} LoRs -> {args.out}"
        + ("" if result.converged else " (iteration limit reached)")
    )
    if not result.converged:
        log.warning("weights did not settle within the iteration limit")
        return EXIT_MAX_ITER
    return EXIT_OK


def cmd_evaluate(args) -> int:
    truth = load_model(args.model)
    estimated = load_model(args.estimate)
    if len(truth.components) != len(estimated.components):
        raise CliUsageError(
            f"component counts differ: truth {len(truth.components)}, "
            f"estimate {len(estimated.components)}"
        )
    report = evaluate_against_truth(estimated, truth, kl_grid=args.grid)
    for i in range(len(truth.components)):
        print(
            f"component {i}: mean_err={report.mean_errors[i]:.6f} "
            f"cov_err={report.cov_errors[i]:.6f} "
            f"weight_err={report.weight_errors[i]:.6f}"
        )
    print(f"kl={report.kl_divergence:.6f}")
    if args.out is not None:
        payload = {"format_version": FORMAT_VERSION}
        payload.update(report_to_dict(report))
        _write_json(args.out, payload)
    if args.plot_data is not None:
        header, x, y = _raster_grid((truth, estimated), args.plot_grid)
        for suffix, model in (("_truth", truth), ("_estimate", estimated)):
            _write_raster_csv(
                args.plot_data + suffix + ".csv",
                header,
                x,
                y,
                _mixture_density(model, x, y),
            )
    return EXIT_OK


def _replicate_task(payload):
    """One simulate-fit-evaluate replicate; runs in worker processes."""
    (
        index,
        truth_dict,
        counts,
        n_total,
        config_kwargs,
        sim_seed,
        fit_seed,
        kl_grid,
    ) = payload
    truth = model_from_dict(truth_dict)
    row = {
        "replicate": index,
        "sim_seed": sim_seed,
        "fit_seed": fit_seed,
        "status": "ok",
        "mean_errors": None,
        "cov_errors": None,
        "weight_errors": None,
        "kl": None,
    }
    try:
        sim = simulate_lors(
            truth, counts=counts, n_total=n_total, seed=sim_seed
        )
        config = FitConfig(**{**config_kwargs, "seed": fit_seed})
        result = fit((sim.s, sim.phi), config)
        report = evaluate_against_truth(result.model, truth, kl_grid=kl_grid)
        row["status"] = "ok" if result.converged else "max_iter"
        row["mean_errors"] = report.mean_errors
        row["cov_errors"] = report.cov_errors
        row["weight_errors"] = report.weight_errors
        row["kl"] = report.kl_divergence
    except ComponentDeathError as exc:
        row["status"] = "death"
        row["detail"] = str(exc)
    except NumericalError as exc:
        row["status"] = "numeric"
        row["detail"] = str(exc)
    return row


def cmd_replicate(args) -> int:
    truth = load_model(args.model)
    counts = _resolve_counts(args, truth)
    if args.k is None:
        args.k = len(truth.components)
    config = _resolve_fit_config(args)
    config_kwargs = config_to_dict(config)
    truth_dict = model_to_dict(truth)
    # each replicate gets two private seed lanes: simulate and fit
    payloads = [
        (
            i,
            truth_dict,
            counts,
            args.n,
            config_kwargs,
            derive_seed(config.seed, 2 * i),
            derive_seed(config.seed, 2 * i + 1),
            args.grid,
        )
        for i in range(args.replicates)
    ]
    if args.jobs > 1:
        # imported here: it pulls in multiprocessing, socket and
        # subprocess, which no other command needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_replicate_task, payloads))
    else:
        rows = [_replicate_task(p) for p in payloads]
    rows.sort(key=lambda r: r["replicate"])

    k = config.K
    header = ["replicate", "sim_seed", "fit_seed", "status"]
    for kind in ("mean_err", "cov_err", "weight_err"):
        header.extend(f"{kind}_{j}" for j in range(k))
    header.append("kl")
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            out = [row["replicate"], row["sim_seed"], row["fit_seed"],
                   row["status"]]
            if row["mean_errors"] is None:
                out.extend([""] * (3 * k + 1))
            else:
                for kind in ("mean_errors", "cov_errors", "weight_errors"):
                    out.extend(f"{v:.17g}" for v in row[kind])
                out.append(f"{row['kl']:.17g}")
            writer.writerow(out)

    completed = [r for r in rows if r["mean_errors"] is not None]
    failed = len(rows) - len(completed)
    summary = {
        "format_version": FORMAT_VERSION,
        "replicates": len(rows),
        "completed": len(completed),
        "failed": failed,
        "status_counts": {
            status: sum(1 for r in rows if r["status"] == status)
            for status in sorted({r["status"] for r in rows})
        },
    }
    if completed:
        def mean_of(key):
            return [
                float(np.mean([r[key][j] for r in completed]))
                for j in range(k)
            ]

        kls = [r["kl"] for r in completed]
        summary["mean_errors"] = {
            "mean": mean_of("mean_errors"),
            "cov": mean_of("cov_errors"),
            "weight": mean_of("weight_errors"),
        }
        summary["kl"] = {
            "mean": float(np.mean(kls)),
            "max": float(np.max(kls)),
        }
    _write_json(args.out + ".summary.json", summary)
    print(
        f"{len(completed)}/{len(rows)} replicates completed -> {args.out}"
    )
    if completed:
        print(
            "mean kl {mean:.4f}, max kl {max:.4f}".format(**summary["kl"])
        )
    if len(completed) < MIN_STUDY_SUCCESS * len(rows):
        log.error(
            "only %d of %d replicates completed", len(completed), len(rows)
        )
        return EXIT_NUMERIC
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and dispatch


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmmlor",
        description="Gaussian-mixture activity reconstruction from "
        "lines of response",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="sample LoRs from a model")
    p_gen.add_argument("--model", required=True, help="truth model JSON")
    p_gen.add_argument("--counts", help="per-component counts, e.g. 300,200")
    p_gen.add_argument("--n", type=_positive_int, help="total LoR count")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--labels", action="store_true",
                       help="include the component label column")
    p_gen.add_argument("--shuffle", action="store_true",
                       help="interleave events instead of blocking them")
    p_gen.add_argument("--out", required=True, help="output CSV path")
    p_gen.set_defaults(func=cmd_generate)

    p_fit = sub.add_parser("fit", help="fit a mixture to a LoR CSV")
    p_fit.add_argument("lors", help="input LoR CSV")
    p_fit.add_argument("--k", type=_positive_int, help="component count")
    p_fit.add_argument("--config", help="fit configuration JSON")
    p_fit.add_argument("--seed", type=int, default=None)
    p_fit.add_argument("--restarts", type=_positive_int, default=None)
    p_fit.add_argument("--out", required=True, help="output model JSON")
    p_fit.set_defaults(func=cmd_fit)

    p_eval = sub.add_parser("evaluate",
                            help="score an estimate against a truth model")
    p_eval.add_argument("estimate", help="estimated model JSON")
    p_eval.add_argument("--model", required=True, help="truth model JSON")
    p_eval.add_argument("--out", help="optional evaluation JSON")
    p_eval.add_argument("--grid", type=_positive_int, default=512,
                        help="KL quadrature resolution per axis")
    p_eval.add_argument("--plot-data", dest="plot_data",
                        help="prefix for truth/estimate density raster CSVs")
    p_eval.add_argument("--plot-grid", dest="plot_grid",
                        type=_positive_int, default=256,
                        help="raster resolution per axis")
    p_eval.set_defaults(func=cmd_evaluate)

    p_rep = sub.add_parser("replicate",
                           help="repeated simulate-fit-evaluate study")
    p_rep.add_argument("--model", required=True, help="truth model JSON")
    p_rep.add_argument("--counts", help="per-component counts")
    p_rep.add_argument("--n", type=_positive_int, help="total LoR count")
    p_rep.add_argument("--replicates", type=_positive_int, default=100)
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("--k", type=_positive_int, default=None)
    p_rep.add_argument("--config", help="fit configuration JSON")
    p_rep.add_argument("--restarts", type=_positive_int, default=None)
    p_rep.add_argument("--jobs", type=_positive_int, default=1)
    p_rep.add_argument("--grid", type=_positive_int, default=512,
                       help="KL quadrature resolution per axis")
    p_rep.add_argument("--out", required=True, help="study CSV path")
    p_rep.set_defaults(func=cmd_replicate)

    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("GMMLOR_LOG", "").strip().upper()
    level = getattr(logging, level_name, None) if level_name else None
    logging.basicConfig(
        level=level if isinstance(level, int) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    try:
        return args.func(args)
    except CliUsageError as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ComponentDeathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEATH
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except GmmLorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
