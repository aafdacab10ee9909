"""Command-line interface: sampling, detection, fitting, inference, experiments."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from ._io import write_json
from .baseline import cv_select_lambda, fit_netcoh, predict_netcoh
from .community import Membership, detect_communities, estimate_k, kmeans
from .graph import (
    SbmParams,
    load_edge_list,
    sample_sbm,
    save_adjacency_csv,
    save_edge_list,
)
from .inference import wald_table
from .metrics import network_adjusted_r2, prediction_error
from .regression import fit_full, fit_ols, fit_row, fit_singleton
from .simharness import ExperimentConfig, run_experiment, run_theory_checks


def _read_column_csv(path) -> np.ndarray:
    """Single-column CSV of finite floats after an optional non-numeric header; no gaps."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().rstrip().splitlines()
    for idx, line in enumerate(lines):
        cells = line.strip().split(",")
        if len(cells) > 1:
            raise ValueError(f"{path}: line {idx + 1} has {len(cells)} cells, expected one column")
        token = cells[0]
        if not token:
            raise ValueError(f"{path}: line {idx + 1} has no value")
        try:
            value = float(token)
        except ValueError:
            if idx == 0:
                continue
            raise ValueError(f"{path}: line {idx + 1}: non-numeric value {token!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{path}: line {idx + 1}: non-finite value {token!r}")
        values.append(value)
    return np.array(values, dtype=np.float64)


def _load_block_probs(source: str) -> np.ndarray:
    """Inline JSON (e.g. '[[0.8,0.2],[0.2,0.8]]') or a path to a JSON file.

    The value must be a non-empty K x K matrix of numbers (JSON booleans are not).
    """
    # Integers are read as floats, so a huge one is inf (out of range), not an OverflowError.
    try:
        value = json.loads(source, parse_int=float)
    except json.JSONDecodeError:
        with open(source, "r", encoding="utf-8") as fh:
            value = json.load(fh, parse_int=float)
    B = np.array(value, dtype=object)  # any JSON value has a shape this way, ragged lists too
    if B.ndim != 2 or B.shape[0] != B.shape[1] or not B.size or any(
        type(v) is not float for v in B.flat
    ):
        raise ValueError(
            f"--block-probs must be a non-empty K x K matrix of numbers, got shape {B.shape}"
        )
    return B.astype(np.float64)


def _cmd_simulate_sbm(args) -> int:
    B = _load_block_probs(args.block_probs)
    K = B.shape[0]
    if args.n < K:
        raise ValueError(f"--n must be at least K = {K}, the number of blocks, got {args.n}")
    if args.sizes:
        bad = ValueError(
            f"--sizes must be {K} positive integers summing to --n = {args.n}, got {args.sizes!r}"
        )
        try:
            sizes = [int(s) for s in args.sizes.split(",")]
        except ValueError:
            raise bad from None
        if len(sizes) != K or min(sizes) < 1 or sum(sizes) != args.n:
            raise bad
        labels = np.repeat(np.arange(K), sizes)
    else:
        rng = np.random.default_rng(args.seed)
        labels = rng.integers(0, K, size=args.n)
        if np.unique(labels).size != K:
            raise ValueError("sampled an empty community; pass --sizes or change --seed")
    membership = Membership(labels=labels, n_communities=K)
    A = sample_sbm(SbmParams(membership=membership, block_probs=B), seed=args.seed)
    save_edge_list(A, args.out)
    if args.adjacency_csv:
        save_adjacency_csv(A, args.adjacency_csv)
    if args.membership_out:
        membership.to_csv(args.membership_out)
    n_edges = (np.count_nonzero(A) - A.shape[0]) // 2
    print(f"wrote {args.out} ({n_edges} edges, n={A.shape[0]})")
    return 0


def _cmd_detect(args) -> int:
    A = load_edge_list(args.network, args.n)
    scree = estimate_k(A, min(args.k_max, args.n))
    if args.scree_out:
        scree.to_csv(args.scree_out)
    K = args.k if args.k is not None else scree.suggested_k
    if K <= scree.eigenvectors.shape[1]:
        # The scree's leading K eigenpairs are the embedding; no second solve.
        membership = kmeans(scree.embedding(K), K, seed=args.seed, restarts=args.restarts)
    else:
        membership = detect_communities(A, K, seed=args.seed, restarts=args.restarts)
    membership.to_csv(args.out)
    flat = " (flat scree)" if scree.flat_scree else ""
    print(
        f"suggested K = {scree.suggested_k}{flat}, bulk edge {scree.bulk_edge:.6g}; "
        f"used K = {K}; wrote {args.out}"
    )
    return 0


_STRUCTURE_FITTERS = {"full": fit_full, "row": fit_row, "singleton": fit_singleton}


def _check_rows(path, rows: int, x_path, n: int) -> None:
    if rows != n:
        raise ValueError(f"{path} has {rows} rows but {x_path} has {n}")


def _read_xy(args):
    x = _read_column_csv(args.x)
    y = _read_column_csv(args.y)
    _check_rows(args.y, y.size, args.x, x.size)
    return x, y


def _load_fit_inputs(args):
    x, y = _read_xy(args)
    membership = Membership.from_csv(args.membership)
    _check_rows(args.membership, membership.n, args.x, x.size)
    return load_edge_list(args.network, x.size), x, y, membership


def _cmd_fit(args) -> int:
    A, x, y, membership = _load_fit_inputs(args)
    fit = _STRUCTURE_FITTERS[args.structure](A, x, y, membership)
    fit.save_json(args.out)
    if args.fitted_out:
        fit.save_fitted_csv(args.fitted_out)
    report = {
        "err_pred_in_sample": prediction_error(fit.fitted, y),
        "rank_deficient_communities": [int(k) for k, m in enumerate(fit.min_norm) if m],
    }
    if args.r2:
        _, fitted_ols = fit_ols(x, y)
        report["r2_adj_net"] = network_adjusted_r2(y, fit.fitted, fitted_ols, membership)
    print(json.dumps(report, indent=2))
    return 0


def _cmd_infer(args) -> int:
    A, x, y, membership = _load_fit_inputs(args)
    fit = fit_full(A, x, y, membership)
    table = wald_table(fit, variant=args.hc_variant)
    table.to_csv(args.out)
    print(table.to_text())
    return 0


def _cmd_netcoh(args) -> int:
    x, y = _read_xy(args)
    A = load_edge_list(args.network, x.size)
    if args.lam is not None:
        fit = fit_netcoh(A, x, y, args.lam)
    else:
        fit = cv_select_lambda(A, x, y, n_folds=args.folds, seed=args.seed)
    fit.save_json(args.out)
    err = prediction_error(predict_netcoh(fit, x), y)
    print(f"lambda = {fit.lam:.6g}, slope = {fit.beta:.6g}, in-sample MSE = {err:.6g}")
    return 0


def _apply_set_overrides(data: dict, pairs) -> None:
    """--set field=value overrides; values are parsed as JSON when possible."""
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for pair in pairs or []:
        if "=" not in pair:
            raise SystemExit(f"--set expects field=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        if key not in names:
            raise SystemExit(f"unknown config field {key!r}")
        try:
            data[key] = json.loads(raw)
        except json.JSONDecodeError:
            data[key] = raw


def _int_list(text):
    return [int(v) for v in text.split(",")] if text else None


def _config_or_exit(build, source) -> ExperimentConfig:
    """Build an ExperimentConfig; a bad one exits with a one-line message."""
    try:
        return build(source)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"bad experiment config: {exc}") from None


def _cmd_experiment(args) -> int:
    # The file's own fields, the flags and --set make one config, built once,
    # so that its defaults (the estimators) are the final kind's.
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = _config_or_exit(json.load, fh)
        if not isinstance(data, dict):
            _config_or_exit(ExperimentConfig.from_dict, data)  # exits, naming the JSON type
    elif args.kind and args.n_grid and args.k_grid:
        data = {}
    else:
        raise SystemExit("without --config, provide --kind, --n-grid, and --k-grid")
    flags = {
        "kind": args.kind,
        "n_grid": _int_list(args.n_grid),
        "k_grid": _int_list(args.k_grid),
        "replicates": args.replicates,
        "noise_sd": args.noise_sd,
        "base_seed": args.base_seed,
        "oracle_membership": args.oracle_membership or None,
    }
    data.update({key: val for key, val in flags.items() if val is not None})
    _apply_set_overrides(data, args.set)
    config = _config_or_exit(ExperimentConfig.from_dict, data)
    out_dir = args.out if args.out is not None else config.output
    if out_dir is None:
        raise SystemExit("provide --out or an 'output' field in the config")
    rows, summary = run_experiment(config, out_dir)
    n_failed = sum(1 for r in rows if r.status != "ok")
    print(f"{len(rows)} rows ({n_failed} failed) -> {out_dir}/raw.csv")
    return 0


def _cmd_theory_check(args) -> int:
    report = run_theory_checks(
        n=args.n,
        n_communities=args.k,
        noise_sd=args.noise_sd,
        n_eigen_draws=args.eigen_draws,
        n_noise_reps=args.noise_reps,
        base_seed=args.base_seed,
    )
    if args.out:
        write_json(args.out, report)
    print(json.dumps(report, indent=2))
    return 0 if report["all_pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netreg",
        description="Neighborhood regression on networks with community-structured coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate-sbm", help="sample a block-model network to an edge list")
    p.add_argument("--n", type=int, required=True, help="number of nodes")
    p.add_argument("--block-probs", required=True, help="K x K matrix, inline JSON or a JSON file")
    p.add_argument("--sizes", help="comma-separated community sizes (default: uniform labels)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="edge-list output path")
    p.add_argument("--adjacency-csv", help="also export the 0/1 matrix as CSV")
    p.add_argument("--membership-out", help="also write the sampled membership CSV")
    p.set_defaults(func=_cmd_simulate_sbm)

    p = sub.add_parser("detect", help="estimate community memberships from a network")
    p.add_argument("--network", required=True, help="edge-list path")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, help="number of communities (default: bulk-edge suggestion)")
    p.add_argument("--k-max", type=int, default=20, help="singular values to inspect")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--out", required=True, help="membership CSV output")
    p.add_argument("--scree-out", help="write index,sigma scree CSV")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("fit", help="fit block coefficients on observed data")
    p.add_argument("--network", required=True)
    p.add_argument("--x", required=True, help="covariate CSV (single column)")
    p.add_argument("--y", required=True, help="response CSV (single column)")
    p.add_argument("--membership", required=True, help="node_id,label CSV")
    p.add_argument("--structure", choices=sorted(_STRUCTURE_FITTERS), default="full")
    p.add_argument("--out", required=True, help="fit JSON output")
    p.add_argument("--fitted-out", help="fitted values CSV")
    p.add_argument("--r2", action="store_true", help="also report the network-adjusted R^2")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("infer", help="fit plus Wald significance table")
    p.add_argument("--network", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--membership", required=True)
    p.add_argument("--hc-variant", choices=["homoskedastic", "HC0", "HC1", "HC3"], default="HC1")
    p.add_argument("--out", required=True, help="test table CSV output")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("netcoh", help="network-cohesion baseline fit")
    p.add_argument("--network", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--lam", type=float, help="fixed regularization weight (default: CV)")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="fit JSON output")
    p.set_defaults(func=_cmd_netcoh)

    p = sub.add_parser("experiment", help="run a simulation experiment from a config")
    p.add_argument("--config", help="JSON file of ExperimentConfig fields")
    p.add_argument("--kind", choices=["network_ablation", "coef_structure", "misspecification"])
    p.add_argument("--n-grid", help="comma-separated node counts")
    p.add_argument("--k-grid", help="comma-separated community counts")
    p.add_argument("--replicates", type=int)
    p.add_argument("--noise-sd", type=float)
    p.add_argument("--base-seed", type=int)
    p.add_argument("--oracle-membership", action="store_true", help="fit with planted labels")
    p.add_argument(
        "--set",
        action="append",
        metavar="FIELD=VALUE",
        help="override any config field (value parsed as JSON); repeatable",
    )
    p.add_argument("--out", help="output directory (default: the config's output field)")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("theory-check", help="empirical checks of the statistical guarantees")
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--noise-sd", type=float, default=0.5)
    p.add_argument("--eigen-draws", type=int, default=500)
    p.add_argument("--noise-reps", type=int, default=2000)
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--out", help="JSON report path")
    p.set_defaults(func=_cmd_theory_check)

    return parser


def main(argv=None) -> int:
    """Run one command. Bad input (a ValueError or an OSError) exits with one line.

    The line is ``netreg <command>: <message>`` on stderr, with exit status 1;
    any other exception is a bug and keeps its traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        raise SystemExit(f"netreg {args.command}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
