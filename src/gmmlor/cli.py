"""Command-line interface.

Subcommands:

* ``generate``  sample LoRs from a model file into a CSV
* ``fit``       estimate a mixture from a LoR CSV
* ``evaluate``  score an estimated model against a truth model
* ``replicate`` run a repeated simulate-fit-evaluate study

Exit codes: 0 success, 2 bad arguments or component-count mismatch,
3 unreadable or malformed input file (LoR CSV, model or config) or a
negative seed for ``generate`` or ``fit``, 4 numerical failure (also a
replicate study with under 95 percent of replicates completing),
5 iteration limit reached (outputs are still written), 6 a component
died during fitting.  A usage error or a failure prints one ``error:``
line on stderr.

``fit`` writes the model, its trace (``<out>.trace.jsonl``) and a
manifest (``<out>.manifest.json``): the input, the resolved config, the
winning restart, the iterations of each phase, whether the weights
settled, and the closing log-likelihood.  It holds no timings, so its
bytes are deterministic.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys
from collections import Counter

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
    _load_json,
    _mixture_density,
    check_format_version,
    load_model,
    save_model,
)
from .rng import derive_seed
from .simulate import _write_rows, read_lors_csv, simulate_lors, write_lors_csv

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


#: The exit code of each error :func:`main` catches: the first class
#: that matches wins, so a component death exits 6, not 4.
_EXIT_CODES = (
    (CliUsageError, EXIT_USAGE),
    (ComponentDeathError, EXIT_DEATH),
    (InputError, EXIT_BAD_INPUT),
    (GmmLorError, EXIT_NUMERIC),
)


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


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve_fit_config(args, default_k=None) -> FitConfig:
    """Merge config file and CLI flags; flags win, and a ``--k`` must
    agree with the config file's K once :class:`FitConfig` has checked
    it.  ``default_k`` is K when neither gives one.  A malformed file
    raises :class:`InputError`."""
    file_cfg = {}
    if args.config is not None:
        raw = _load_json(args.config)
        if not isinstance(raw, dict):
            raise InputError(f"{args.config} must hold a JSON object")
        check_format_version(raw)
        raw.pop("format_version", None)
        file_cfg = raw
    k = default_k if args.k is None else args.k
    if "K" not in file_cfg and k is None:
        raise CliUsageError("give --k or a config file with K")
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.restarts is not None:
        overrides["restarts"] = args.restarts
    try:
        config = config_from_dict({"K": k, **file_cfg}, **overrides)
    except InputError as exc:
        if args.config is not None:
            raise
        raise CliUsageError(str(exc)) from exc
    if args.k is not None and config.K != args.k:
        raise CliUsageError(f"--k {args.k} conflicts with config K {config.K}")
    return config


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
        _write_rows(fh, columns)


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
    print(f"generated {len(result)} LoRs -> {args.out}")
    return EXIT_OK


def cmd_fit(args) -> int:
    s, phi = read_lors_csv(args.lors)[:2]  # a label column is not held
    config = _resolve_fit_config(args)
    result = fit((s, phi), config)
    save_model(result.model, args.out)
    with open(args.out + ".trace.jsonl", "w", encoding="utf-8") as fh:
        fh.write(trace_to_jsonl(result.trace))
    phases = Counter(rec.phase for rec in result.trace)
    _write_json(
        args.out + ".manifest.json",
        {
            "format_version": FORMAT_VERSION,
            "source_lors": str(args.lors),
            "rows": s.size,
            "config": config_to_dict(config),
            "restart": result.restart_index,
            "iterations": {"phase1": phases[1], "phase2": phases[2]},
            "converged": result.converged,
            "loglik": (
                result.loglik if math.isfinite(result.loglik) else None
            ),
        },
    )
    print(
        f"fit {config.K} components to {s.size} LoRs -> {args.out}"
        + ("" if result.converged else " (iteration limit reached)")
    )
    return EXIT_OK if result.converged else EXIT_MAX_ITER


def cmd_evaluate(args) -> int:
    truth = load_model(args.model)
    estimated = load_model(args.estimate)
    if len(truth.components) != len(estimated.components):
        raise CliUsageError(
            f"component counts differ: truth {len(truth.components)}, "
            f"estimate {len(estimated.components)}"
        )
    report = evaluate_against_truth(estimated, truth)
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


def _replicate_task(index, *, truth, counts, n_total, config):
    """Replicate ``index`` of a study: simulate from ``truth``, fit with
    ``config`` and score the fit against ``truth``.

    The replicate takes two private seed lanes of the master seed
    ``config.seed``: it simulates with ``derive_seed(seed, 2 * index)``
    and fits with ``derive_seed(seed, 2 * index + 1)``, so its row does
    not depend on the process that runs it.  Returns the row's first
    four cells (replicate, sim_seed, fit_seed, status) and its 3K + 1
    values in CSV order (mean, covariance and weight errors, then KL),
    or None in place of the values when a component died (``death``) or
    a solve failed (``numeric``)."""
    sim_seed = derive_seed(config.seed, 2 * index)
    fit_seed = derive_seed(config.seed, 2 * index + 1)
    head = [index, sim_seed, fit_seed]
    try:
        sim = simulate_lors(
            truth, counts=counts, n_total=n_total, seed=sim_seed
        )
        config = dataclasses.replace(config, seed=fit_seed)
        result = fit((sim.s, sim.phi), config)
        report = evaluate_against_truth(result.model, truth)
    except ComponentDeathError:
        return head + ["death"], None
    except NumericalError:
        return head + ["numeric"], None
    values = (*report.mean_errors, *report.cov_errors,
              *report.weight_errors, report.kl_divergence)
    return head + ["ok" if result.converged else "max_iter"], values


def cmd_replicate(args) -> int:
    """Run replicates 0 to ``--replicates`` - 1 of :func:`_replicate_task`
    and write the study CSV, one row per replicate in index order, and
    its summary JSON.

    The process pool of ``--jobs`` above 1 keeps the input order, as
    the serial map does.  The summary's means and KL maximum are taken
    over the completed replicates, one column of their values each."""
    truth = load_model(args.model)
    counts = _resolve_counts(args, truth)
    config = _resolve_fit_config(args, default_k=len(truth.components))
    k = config.K
    if k != len(truth.components):
        raise CliUsageError(
            f"component counts differ: fit K {k}, "
            f"truth {len(truth.components)}"
        )
    task = functools.partial(
        _replicate_task, truth=truth, counts=counts, n_total=args.n,
        config=config,
    )
    if args.jobs > 1:
        # imported here: it pulls in multiprocessing, socket and
        # subprocess, which no other command needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(task, range(args.replicates)))
    else:
        rows = list(map(task, range(args.replicates)))

    header = ["replicate", "sim_seed", "fit_seed", "status"]
    for kind in ("mean_err", "cov_err", "weight_err"):
        header.extend(f"{kind}_{j}" for j in range(k))
    header.append("kl")
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for head, values in rows:
            if values is None:
                writer.writerow(head + [""] * (3 * k + 1))
            else:
                writer.writerow(head + [f"{v:.17g}" for v in values])

    done = np.array([v for _, v in rows if v is not None])
    summary = {
        "format_version": FORMAT_VERSION,
        "replicates": len(rows),
        "completed": len(done),
        "failed": len(rows) - len(done),
        # _write_json sorts the keys
        "status_counts": Counter(head[3] for head, _ in rows),
    }
    if len(done):
        # np.mean of each column sums it pairwise, as of a list
        means = [float(np.mean(column)) for column in done.T]
        summary["mean_errors"] = {
            "mean": means[:k],
            "cov": means[k:2 * k],
            "weight": means[2 * k:3 * k],
        }
        summary["kl"] = {"mean": means[-1], "max": float(np.max(done[:, -1]))}
    _write_json(args.out + ".summary.json", summary)
    print(f"{len(done)}/{len(rows)} replicates completed -> {args.out}")
    if len(done):
        print(
            "mean kl {mean:.4f}, max kl {max:.4f}".format(**summary["kl"])
        )
    if len(done) < MIN_STUDY_SUCCESS * len(rows):
        return EXIT_NUMERIC
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and dispatch


def _int_at_least(minimum: int):
    """An argparse type: an integer of at least ``minimum``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}")
        return value

    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


_positive_int = _int_at_least(1)
#: ``--grid`` is parsed and checked, so that command lines passing it
#: keep working, and then ignored: :func:`metrics.kl_divergence` takes
#: no grid
_grid_int = _int_at_least(2)
_GRID_HELP = ("accepted and ignored, an integer of at least 2: the KL "
              "takes a fixed cubature rule")


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
    p_eval.add_argument("--grid", type=_grid_int, default=512,
                        help=_GRID_HELP)
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
    p_rep.add_argument("--grid", type=_grid_int, default=512,
                       help=_GRID_HELP)
    p_rep.add_argument("--out", required=True, help="study CSV path")
    p_rep.set_defaults(func=cmd_replicate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    try:
        return args.func(args)
    except (CliUsageError, GmmLorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
