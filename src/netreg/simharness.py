"""Reproducible simulation experiments and empirical theory checks.

Every random quantity is derived from (base_seed, experiment, n, K, ...,
replicate) through ``numpy.random.SeedSequence``, so runs are bit-reproducible
and adding grid points never changes existing rows. Raw results are written as
canonically sorted CSV; wall times go to a separate file because they are the
one non-deterministic output.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy

from ._io import write_csv
from .baseline import ablation_network, cv_select_lambda, predict_netcoh
from .community import Membership, align_permutation, detect_communities, perturb_membership
from .graph import SbmParams, sample_sbm
from .metrics import estimation_error, prediction_error
from .regression import aggregate, fit_full, fit_row, fit_singleton, predict

_EXPERIMENT_CODES = {
    "network_ablation": 1,
    "coef_structure": 2,
    "misspecification": 3,
    "theory": 4,
}
_STRUCTURE_CODES = {"full": 0, "row": 1, "singleton": 2}
# Estimators each experiment kind accepts; all of them run by default.
_KIND_ESTIMATORS = {
    "network_ablation": ("full", "identity_net", "complete_net", "netcoh"),
    "coef_structure": ("full", "row", "singleton"),
    "misspecification": ("full",),
}
# Sub-stream tags so instance, detection, perturbation, and CV draws never collide.
_TAG_INSTANCE, _TAG_DETECT, _TAG_PERTURB, _TAG_NETCOH = 0, 1, 2, 3

# Every table is a column list projected from its rows by the one CSV writer.
CELL_COLUMNS = ["experiment", "estimator", "structure", "n", "K", "alpha_n"]
RAW_COLUMNS = CELL_COLUMNS + ["replicate", "seed", "err_est", "err_pred", "status"]
TIMING_COLUMNS = CELL_COLUMNS + ["replicate", "wall_time"]
SUMMARY_COLUMNS = CELL_COLUMNS + [
    "replicates",
    "n_failed",
    "err_est_mean",
    "err_est_stderr",
    "err_pred_mean",
    "err_pred_stderr",
]


def derive_seed(base_seed: int, *fields: int) -> int:
    """Deterministic 64-bit seed from a base seed and integer coordinates."""
    ss = np.random.SeedSequence([int(base_seed), *(int(f) for f in fields)])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class Instance:
    """One synthetic draw: network, planted membership, data, and ground truth."""

    adjacency: np.ndarray
    membership: Membership
    covariate: np.ndarray
    response: np.ndarray
    beta_star: np.ndarray
    block_probs: np.ndarray
    noise_sd: float
    seed: int


def gen_instance(
    n: int, n_communities: int, noise_sd: float, seed: int, structure: str = "full"
) -> Instance:
    """Draw one synthetic instance.

    Memberships are uniform over communities (redrawn, boundedly, if one comes
    up empty); block probabilities are Uniform(0, 0.5) symmetrized with 0.5
    added on the diagonal; covariates and coefficients are standard normal;
    the response is the model signal plus Gaussian noise. ``structure``
    restricts the planted coefficient matrix to full, row, or singleton form.
    """
    K = int(n_communities)
    if not n >= K >= 1:
        raise ValueError(f"need n >= K >= 1, got n = {n}, K = {K}")
    if structure not in _STRUCTURE_CODES:
        raise ValueError(f"unknown structure {structure!r}")
    children = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(children[0])
    graph_seed = int(children[1].generate_state(1, np.uint64)[0])

    labels = None
    for _ in range(100):
        candidate = rng.integers(0, K, size=n)
        if np.unique(candidate).size == K:
            labels = candidate
            break
    if labels is None:
        raise RuntimeError(f"could not sample a membership with {K} non-empty communities")
    membership = Membership(labels=labels, n_communities=K)

    upper = np.triu(rng.uniform(0.0, 0.5, size=(K, K)))
    B = upper + np.triu(upper, k=1).T + 0.5 * np.eye(K)

    if structure == "full":
        beta_star = rng.standard_normal((K, K))
    elif structure == "row":
        beta_star = np.tile(rng.standard_normal(K), (K, 1))
    else:
        beta_star = np.full((K, K), rng.standard_normal())
    x = rng.standard_normal(n)

    A = sample_sbm(SbmParams(membership=membership, block_probs=B), seed=graph_seed)
    signal = predict(A, x, membership, beta_star)
    y = signal + noise_sd * rng.standard_normal(n)
    return Instance(
        adjacency=A,
        membership=membership,
        covariate=x,
        response=y,
        beta_star=beta_star,
        block_probs=B,
        noise_sd=float(noise_sd),
        seed=int(seed),
    )


def default_alpha_grid(n: int) -> list:
    """Misspecification grid 0, 1, 2, 4, ... capped at n // 10."""
    cap = n // 10
    grid = [0]
    step = 1
    while step < cap:
        grid.append(step)
        step *= 2
    if cap >= 1:
        grid.append(cap)
    return sorted(set(grid))


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment run."""

    kind: str
    n_grid: list
    k_grid: list
    replicates: int = 200
    noise_sd: float = 0.5
    estimators: list | None = None
    structures: list = field(default_factory=lambda: ["full", "row", "singleton"])
    alpha_grid: list | None = None
    base_seed: int = 0
    oracle_membership: bool = False
    kmeans_restarts: int = 10
    netcoh_folds: int = 5
    output: str | None = None

    def __post_init__(self):
        if self.kind not in _KIND_ESTIMATORS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if list(self.n_grid) != sorted(self.n_grid):
            raise ValueError("n_grid must be ascending")
        valid = _KIND_ESTIMATORS[self.kind]
        if self.estimators is None:
            self.estimators = list(valid)
        for estimator in self.estimators:
            if estimator not in valid:
                raise ValueError(f"{self.kind} runs {valid}, not estimator {estimator!r}")
        for structure in self.structures:
            if structure not in _STRUCTURE_CODES:
                raise ValueError(f"unknown structure {structure!r}")
        if self.kind == "misspecification" and any(K < 2 for K in self.k_grid):
            raise ValueError(f"misspecification experiment needs K >= 2, got k_grid {self.k_grid}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Build a config; unknown fields are named in a ValueError."""
        if not isinstance(data, dict):
            raise ValueError(f"a config must be a JSON object, got {type(data).__name__}")
        unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ValueError(f"unknown config fields {unknown}")
        return cls(**data)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass
class ExperimentRow:
    experiment: str
    estimator: str
    structure: str
    n: int
    K: int
    alpha_n: int | None
    replicate: int
    seed: int
    err_est: float | None
    err_pred: float | None
    status: str
    wall_time: float


def _sort_key(row: ExperimentRow):
    return (
        row.experiment,
        row.estimator,
        row.structure,
        row.n,
        row.K,
        -1 if row.alpha_n is None else row.alpha_n,
        row.replicate,
    )


def _replicates(config: ExperimentConfig):
    """Every replicate of the configured kind as (structure, n, K, rep, coords).

    ``coords`` are the replicate's ``derive_seed`` arguments: the base seed,
    then (code, n, K, [structure code,] rep). Each draw appends its sub-stream
    tag (after alpha_n for a perturbation).
    """
    code = _EXPERIMENT_CODES[config.kind]
    by_structure = config.kind == "coef_structure"
    for structure in config.structures if by_structure else ["full"]:
        for n in config.n_grid:
            for K in config.k_grid:
                for rep in range(config.replicates):
                    if by_structure:
                        coords = (config.base_seed, code, n, K, _STRUCTURE_CODES[structure], rep)
                    else:
                        coords = (config.base_seed, code, n, K, rep)
                    yield structure, n, K, rep, coords


_FITTERS = {"full": fit_full, "row": fit_row, "singleton": fit_singleton}


def _errors(config, estimator, inst, Z, Q, coords) -> tuple:
    """(err_est, err_pred) of one estimator fitted on one replicate."""
    A, x, y = inst.adjacency, inst.covariate, inst.response
    if estimator == "netcoh":
        seed = derive_seed(*coords, _TAG_NETCOH)
        nc = cv_select_lambda(A, x, y, n_folds=config.netcoh_folds, seed=seed)
        return None, prediction_error(predict_netcoh(nc, x), y)
    if estimator in ("identity_net", "complete_net"):
        fit = fit_full(ablation_network(estimator.removesuffix("_net"), x.size), x, y, Z)
    else:
        fit = _FITTERS[estimator](A, x, y, Z)
    return estimation_error(fit.beta, inst.beta_star, Q), prediction_error(fit.fitted, y)


def run_rows(config: ExperimentConfig) -> list:
    """One row per estimator x replicate (x alpha_n for misspecification), sorted.

    Each replicate draws its instance and fits with the planted membership
    (``oracle_membership``), the detected one, or, for misspecification, the
    planted one with alpha_n nodes reassigned. A failure is recorded as the
    row's status and the run continues; when the instance draw or detection
    fails, every row of that replicate records it.
    """
    rows = []
    perturbed = config.kind == "misspecification"
    for structure, n, K, rep, coords in _replicates(config):
        inst_seed = derive_seed(*coords, _TAG_INSTANCE)
        prepared = "ok"
        try:
            inst = gen_instance(n, K, config.noise_sd, inst_seed, structure=structure)
            if not perturbed:  # misspecification perturbs per alpha_n below
                Z = inst.membership
                if not config.oracle_membership:
                    seed = derive_seed(*coords, _TAG_DETECT)
                    Z = detect_communities(inst.adjacency, K, seed, config.kmeans_restarts)
                Q = align_permutation(Z, inst.membership)
        except Exception as exc:  # the replicate's rows record it, the run continues
            prepared = type(exc).__name__
        alphas = [None]
        if perturbed:
            alphas = default_alpha_grid(n) if config.alpha_grid is None else config.alpha_grid
        for estimator in config.estimators:
            for alpha_n in alphas:
                t0 = time.perf_counter()
                err_est = err_pred = None
                status = prepared
                if status == "ok":
                    try:
                        if alpha_n is not None:
                            seed = derive_seed(*coords, alpha_n, _TAG_PERTURB)
                            Z = perturb_membership(inst.membership, alpha_n, seed)
                            Q = align_permutation(Z, inst.membership)
                        err_est, err_pred = _errors(config, estimator, inst, Z, Q, coords)
                    except Exception as exc:  # failures recorded per row, run continues
                        status = type(exc).__name__
                rows.append(
                    ExperimentRow(
                        experiment=config.kind,
                        estimator=estimator,
                        structure=structure,
                        n=n,
                        K=K,
                        alpha_n=alpha_n,
                        replicate=rep,
                        seed=inst_seed,
                        err_est=err_est,
                        err_pred=err_pred,
                        status=status,
                        wall_time=time.perf_counter() - t0,
                    )
                )
    rows.sort(key=_sort_key)
    return rows


def _canonical(rows: list) -> list:
    """The rows' field dicts in canonical order."""
    return [vars(r) for r in sorted(rows, key=_sort_key)]


def _write_table(path, columns, records) -> None:
    """One CSV line per record (a dict), its cells in ``columns`` order."""
    write_csv(path, columns, ([rec[c] for c in columns] for rec in records))


def write_raw_csv(rows: list, path) -> None:
    """Raw per-replicate results, canonically sorted, byte-reproducible."""
    _write_table(path, RAW_COLUMNS, _canonical(rows))


def _mean_stderr(values: list) -> tuple:
    arr = np.array([v for v in values if v is not None], dtype=np.float64)
    if arr.size == 0:
        return None, None
    mean = float(arr.mean())
    stderr = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return mean, stderr


def summarize(rows: list) -> list:
    """Per-cell means and standard errors, recomputable from the raw rows."""
    groups: dict = {}
    for r in rows:
        groups.setdefault(tuple(getattr(r, c) for c in CELL_COLUMNS), []).append(r)
    summary = []
    for key, members in sorted(groups.items(), key=lambda item: _sort_key(item[1][0])):
        n_failed = sum(1 for m in members if m.status != "ok")
        est = _mean_stderr([m.err_est for m in members])
        pred = _mean_stderr([m.err_pred for m in members])
        summary.append(dict(zip(SUMMARY_COLUMNS, (*key, len(members), n_failed, *est, *pred))))
    return summary


def _blas_build(module) -> dict | None:
    """Name and version of the BLAS that numpy or scipy was built against.

    None when the build does not report it (``show_config`` before numpy
    1.25 and scipy 1.11 has no ``mode="dicts"``).
    """
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def run_experiment(config: ExperimentConfig, output_dir=None) -> tuple:
    """Run an experiment and write raw.csv, summary.csv, timings.csv, meta.json."""
    from . import __version__

    if output_dir is None:
        output_dir = config.output
    if output_dir is None:
        raise ValueError("no output directory: pass output_dir or set config.output")
    rows = run_rows(config)
    summary = summarize(rows)
    os.makedirs(output_dir, exist_ok=True)
    write_raw_csv(rows, os.path.join(output_dir, "raw.csv"))
    _write_table(os.path.join(output_dir, "summary.csv"), SUMMARY_COLUMNS, summary)
    # Wall times are the one output not covered by the byte-reproducibility guarantee.
    _write_table(os.path.join(output_dir, "timings.csv"), TIMING_COLUMNS, _canonical(rows))
    meta = {
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
        "versions": {"netreg": __version__, "numpy": np.__version__, "scipy": scipy.__version__},
        # numpy and scipy each load their own BLAS, so both are recorded.
        "blas": {"numpy": _blas_build(np), "scipy": _blas_build(scipy)},
    }
    with open(os.path.join(output_dir, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return rows, summary


def eigenvalue_lower_bound(block_probs, membership: Membership, covariate, community: int) -> float:
    """Population lower bound for the smallest Hessian eigenvalue of one community.

    min over source communities k' of B[k', k] (1 - B[k', k]) (n_k - 1)
    ||x restricted to k'||^2.
    """
    B = np.asarray(block_probs, dtype=np.float64)
    x = np.asarray(covariate, dtype=np.float64)
    n_k = int(membership.sizes()[community])
    values = []
    for kp in range(membership.n_communities):
        norm_sq = float((x[membership.labels == kp] ** 2).sum())
        p = B[kp, community]
        values.append(p * (1.0 - p) * (n_k - 1) * norm_sq)
    return min(values)


def run_theory_checks(
    n: int = 500,
    n_communities: int = 2,
    block_probs=None,
    noise_sd: float = 0.5,
    n_eigen_draws: int = 500,
    n_noise_reps: int = 2000,
    base_seed: int = 0,
    safety: float = 0.5,
    eigen_pass_rate: float = 0.95,
    coverage_range: tuple = (0.93, 0.97),
    z_limit: float = 3.0,
) -> dict:
    """Empirical checks of the Hessian eigenvalue bound, estimator
    unbiasedness, and confidence-interval coverage on a balanced design.

    Returns a JSON-ready report with one pass flag per check.
    """
    code = _EXPERIMENT_CODES["theory"]
    K = int(n_communities)
    if n % K != 0:
        raise ValueError("theory checks use an exactly balanced design; need K | n")
    B = np.array([[0.8, 0.2], [0.2, 0.8]]) if block_probs is None else np.asarray(block_probs, float)
    if B.shape != (K, K):
        raise ValueError(f"block_probs must be {K}x{K}")
    labels = np.repeat(np.arange(K), n // K)
    membership = Membership(labels=labels, n_communities=K)
    params = SbmParams(membership=membership, block_probs=B)

    # (a) smallest Hessian eigenvalue vs. the population bound, per draw.
    n_pass = 0
    for d in range(n_eigen_draws):
        rng = np.random.default_rng(derive_seed(base_seed, code, 1, d, 0))
        x = rng.standard_normal(n)
        A = sample_sbm(params, seed=derive_seed(base_seed, code, 1, d, 1))
        N = aggregate(A, x[:, None], membership)
        ok = True
        for k in range(K):
            rows = N[labels == k]
            lam_min = float(np.linalg.eigvalsh(rows.T @ rows)[0])
            if lam_min < safety * eigenvalue_lower_bound(B, membership, x, k):
                ok = False
                break
        n_pass += ok
    eigen_rate = n_pass / n_eigen_draws

    # (b, c) fixed design, repeated noise: unbiasedness and CI coverage.
    rng = np.random.default_rng(derive_seed(base_seed, code, 2, 0))
    x = rng.standard_normal(n)
    beta_star = rng.standard_normal((K, K))
    A = sample_sbm(params, seed=derive_seed(base_seed, code, 2, 1))
    signal = predict(A, x, membership, beta_star)
    N = aggregate(A, x[:, None], membership)
    noise_rng = np.random.default_rng(derive_seed(base_seed, code, 2, 2))
    noise = noise_sd * noise_rng.standard_normal((n_noise_reps, n))
    Y = signal[None, :] + noise

    max_abs_z = 0.0
    coverage = np.zeros((K, K))
    mean_beta = np.zeros((K, K))
    for k in range(K):
        mask = labels == k
        Xk = N[mask]
        n_k = int(mask.sum())
        H = Xk.T @ Xk
        H_inv = np.linalg.inv(H)
        betas = Y[:, mask] @ (H_inv @ Xk.T).T  # reps x K
        mean_beta[k] = betas.mean(axis=0)
        mc_se = betas.std(axis=0, ddof=1) / np.sqrt(n_noise_reps)
        max_abs_z = max(max_abs_z, float(np.max(np.abs(mean_beta[k] - beta_star[k]) / mc_se)))
        resid = Y[:, mask] - betas @ Xk.T
        sigma2 = (resid**2).sum(axis=1) / (n_k - K)
        se = np.sqrt(sigma2[:, None] * np.diag(H_inv)[None, :])
        covered = np.abs(betas - beta_star[k][None, :]) <= 1.959963984540054 * se
        coverage[k] = covered.mean(axis=0)

    eigen_ok = eigen_rate >= eigen_pass_rate
    unbiased_ok = max_abs_z <= z_limit
    coverage_ok = bool(
        np.all((coverage >= coverage_range[0]) & (coverage <= coverage_range[1]))
    )
    return {
        "eigenvalue_bound": {
            "pass": bool(eigen_ok),
            "pass_rate": eigen_rate,
            "required_rate": eigen_pass_rate,
            "safety_factor": safety,
            "n_draws": n_eigen_draws,
        },
        "unbiasedness": {
            "pass": bool(unbiased_ok),
            "max_abs_z": max_abs_z,
            "z_limit": z_limit,
            "n_reps": n_noise_reps,
            "mean_beta": mean_beta.tolist(),
            "beta_star": beta_star.tolist(),
        },
        "ci_coverage": {
            "pass": coverage_ok,
            "coverage": coverage.tolist(),
            "range": list(coverage_range),
            "n_reps": n_noise_reps,
        },
        "all_pass": bool(eigen_ok and unbiased_ok and coverage_ok),
    }
