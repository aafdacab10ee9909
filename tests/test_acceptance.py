"""Acceptance gates.

Each test prints one PASS/FAIL line. The statistical experiments run at the
paper's replicate counts (the ``replicates_full`` keys), and every threshold
is frozen in expected_results.json. The theory checks record the thresholds
they judged by, and criteria 7-9 compare those with the frozen ones.

The consistency/adaptivity experiments (criteria 2, 4, 5, 6) fit with the
planted memberships (oracle mode): they gate the estimator's statistical
behavior, while membership estimation error is covered by the misspecification
gate (criterion 10) and the community-detection unit tests.
"""

import json
import os
import time

import numpy as np
import pytest

from netreg import (
    ExperimentConfig,
    fit_full,
    fit_full_multi,
    gen_instance,
    loss,
    loss_community,
    predict,
    run_experiment,
    run_theory_checks,
    wald_table,
)
from netreg.inference import CovarianceEstimate
from netreg.metrics import estimation_error
from netreg.simharness import (
    derive_seed,
    run_rows,
    summarize,
)

with open(os.path.join(os.path.dirname(__file__), "expected_results.json")) as _fh:
    EXPECTED = json.load(_fh)


def _report(criterion, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _cell(summary, **filters):
    for row in summary:
        if all(row[k] == v for k, v in filters.items()):
            return row
    raise KeyError(filters)


@pytest.fixture(scope="module")
def ablation_summary():
    spec = EXPECTED["consistency_trend"]
    reps = spec["replicates_full"]
    config = ExperimentConfig(
        kind="network_ablation",
        n_grid=[spec["n_small"], spec["n_large"]],
        k_grid=spec["k_grid"],
        replicates=reps,
        noise_sd=0.5,
        estimators=["full", "identity_net", "complete_net"],
        base_seed=0,
        oracle_membership=True,
    )
    t0 = time.perf_counter()
    rows = run_rows(config)
    elapsed = time.perf_counter() - t0
    return summarize(rows), elapsed, reps


@pytest.fixture(scope="module")
def coef_summary():
    spec = EXPECTED["structure_adaptivity"]
    reps = spec["replicates_full"]
    config = ExperimentConfig(
        kind="coef_structure",
        n_grid=[100, 1000],
        k_grid=[spec["K"]],
        replicates=reps,
        noise_sd=0.5,
        base_seed=0,
        oracle_membership=True,
    )
    rows = run_rows(config)
    return summarize(rows), reps


@pytest.fixture(scope="module")
def theory_report():
    spec_e = EXPECTED["eigenvalue_bound"]
    spec_u = EXPECTED["unbiasedness"]
    return run_theory_checks(
        n=spec_u["n"],
        n_communities=spec_u["K"],
        noise_sd=0.5,
        n_eigen_draws=spec_e["draws"],
        n_noise_reps=spec_u["replicates"],
        base_seed=0,
    )


def test_criterion_01_oracle_equivalence():
    spec = EXPECTED["oracle_equivalence"]
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    attempt = 0
    while count < spec["n_instances"]:
        attempt += 1
        rng = np.random.default_rng(derive_seed(0, 90, attempt))
        n = int(rng.integers(20, 51))
        K = int(rng.integers(1, 4))
        inst = gen_instance(n, K, 0.5, seed=derive_seed(0, 91, attempt))
        fit = fit_full(inst.adjacency, inst.covariate, inst.response, inst.membership)
        if fit.rank_deficient:
            continue
        count += 1
        Z = inst.membership.onehot()
        N = (inst.adjacency * inst.covariate[None, :]) @ Z
        K_i = inst.membership.n_communities
        design = np.zeros((inst.membership.n, K_i * K_i))
        for k in range(K_i):
            mask = inst.membership.labels == k
            design[mask, k * K_i : (k + 1) * K_i] = N[mask]
        oracle = np.linalg.lstsq(design, inst.response, rcond=None)[0].reshape(K_i, K_i)
        worst = max(worst, float(np.abs(fit.beta - oracle).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < spec["max_abs_tol"] and elapsed < 10.0
    _report(1, ok, f"max |blockwise - global LS| = {worst:.3e} over "
                   f"{count} instances in {elapsed:.1f}s")


def test_criterion_02_noiseless_exact_recovery():
    spec = EXPECTED["noiseless_recovery"]
    t0 = time.perf_counter()
    worst = 0.0
    exact = 0
    for s in range(spec["n_seeds"]):
        inst = gen_instance(spec["n"], spec["K"], 0.0, seed=derive_seed(0, 92, s))
        fit = fit_full(inst.adjacency, inst.covariate, inst.response, inst.membership)
        err = estimation_error(fit.beta, inst.beta_star)
        worst = max(worst, err)
        exact += err < spec["err_est_tol"]
    elapsed = time.perf_counter() - t0
    ok = exact == spec["n_seeds"] and elapsed < 30.0
    _report(2, ok, f"{exact}/{spec['n_seeds']} seeds with err_est < 1e-16 "
                   f"(worst {worst:.2e}) in {elapsed:.1f}s")


def test_criterion_03_loss_decomposition():
    spec = EXPECTED["loss_decomposition"]
    worst_rel = 0.0
    for trial in range(spec["n_pairs"]):
        rng = np.random.default_rng(derive_seed(0, 93, trial))
        n = int(rng.integers(15, 60))
        K = int(rng.integers(1, 5))
        if n < K:
            continue
        inst = gen_instance(n, K, 0.7, seed=derive_seed(0, 94, trial))
        beta = rng.standard_normal((K, K))
        total = loss(inst.adjacency, inst.covariate, inst.response, inst.membership, beta)
        sizes = inst.membership.sizes()
        parts = sum(
            sizes[k] / n * loss_community(
                inst.adjacency, inst.covariate, inst.response, inst.membership, beta, k
            )
            for k in range(K)
        )
        worst_rel = max(worst_rel, abs(total - parts) / max(1.0, abs(total)))
    ok = worst_rel <= spec["rel_tol"]
    _report(3, ok, f"worst relative decomposition gap = {worst_rel:.3e} "
                   f"over {spec['n_pairs']} pairs")


def test_criterion_04_consistency_trend(ablation_summary):
    summary, elapsed, reps = ablation_summary
    spec = EXPECTED["consistency_trend"]
    details = []
    ok = True
    for K in spec["k_grid"]:
        small = _cell(summary, estimator="full", n=spec["n_small"], K=K)
        large = _cell(summary, estimator="full", n=spec["n_large"], K=K)
        ratio = small["err_est_mean"] / large["err_est_mean"]
        pred = large["err_pred_mean"]
        ok &= ratio >= spec["min_est_ratio"] and pred <= spec["max_pred_error_large_n"]
        details.append(f"K={K}: ratio={ratio:.0f}, err_pred={pred:.4f}")
    ok &= elapsed < 60.0
    _report(4, ok, f"{reps} reps, {'; '.join(details)} ({elapsed:.0f}s)")


def test_criterion_05_ablation_divergence(ablation_summary):
    summary, _, reps = ablation_summary
    spec = EXPECTED["ablation_divergence"]
    n_large = EXPECTED["consistency_trend"]["n_large"]
    details = []
    ok = True
    for estimator in ("identity_net", "complete_net"):
        for K in EXPECTED["consistency_trend"]["k_grid"]:
            pred = _cell(summary, estimator=estimator, n=n_large, K=K)["err_pred_mean"]
            ok &= pred > spec["min_pred_error"]
            details.append(f"{estimator} K={K}: {pred:.1f}")
    _report(5, ok, f"{reps} reps, err_pred(n={n_large}) all > {spec['min_pred_error']}: "
                   + "; ".join(details))


def test_criterion_06_structure_adaptivity(coef_summary):
    summary, reps = coef_summary
    spec = EXPECTED["structure_adaptivity"]
    K = spec["K"]
    ok = True
    details = []

    for structure in ("full", "row", "singleton"):
        err = _cell(summary, estimator="full", structure=structure, n=1000, K=K)["err_est_mean"]
        ok &= err < spec["full_err_at_large_n"]
        details.append(f"full@{structure}(1000)={err:.1e}")

    for structure in ("row", "singleton"):
        own = _cell(summary, estimator=structure, structure=structure, n=100, K=K)["err_est_mean"]
        full = _cell(summary, estimator="full", structure=structure, n=100, K=K)["err_est_mean"]
        ok &= own <= full
        details.append(f"{structure}@own(100)={own:.1e}<=full={full:.1e}")

    full_base = _cell(summary, estimator="full", structure="full", n=1000, K=K)["err_est_mean"]
    for estimator in ("row", "singleton"):
        err = _cell(summary, estimator=estimator, structure="full", n=1000, K=K)["err_est_mean"]
        ok &= err >= spec["min_misspec_factor"] * full_base
        details.append(f"{estimator}@full(1000)={err / full_base:.0f}x")

    _report(6, ok, f"{reps} reps, " + "; ".join(details))


def test_criterion_07_unbiasedness(theory_report):
    check = theory_report["unbiasedness"]
    ok = check["pass"] and check["z_limit"] == EXPECTED["unbiasedness"]["z_limit"]
    _report(7, ok,
            f"max |mean(beta_hat) - beta*| = {check['max_abs_z']:.2f} MC standard errors "
            f"(limit {check['z_limit']}) over {check['n_reps']} replicates")


def test_criterion_08_ci_coverage(theory_report):
    check = theory_report["ci_coverage"]
    rates = np.array(check["coverage"]).ravel()
    ok = check["pass"] and check["range"] == EXPECTED["ci_coverage"]["coverage_range"]
    _report(8, ok,
            f"per-entry coverage in [{rates.min():.3f}, {rates.max():.3f}], "
            f"required {check['range']}")


def test_criterion_09_eigenvalue_bound(theory_report):
    check = theory_report["eigenvalue_bound"]
    spec = EXPECTED["eigenvalue_bound"]
    ok = (
        check["pass"]
        and check["safety_factor"] == spec["safety_factor"]
        and check["required_rate"] == spec["min_pass_rate"]
    )
    _report(9, ok,
            f"lambda_min(H_k) >= {check['safety_factor']} x bound in "
            f"{100 * check['pass_rate']:.1f}% of {check['n_draws']} draws "
            f"(need >= {100 * check['required_rate']:.0f}%)")


def test_criterion_10_misspecification_monotonicity():
    spec = EXPECTED["misspecification"]
    reps = spec["replicates_full"]
    config = ExperimentConfig(
        kind="misspecification",
        n_grid=[spec["n"]],
        k_grid=[spec["K"]],
        replicates=reps,
        noise_sd=0.5,
        base_seed=0,
    )
    summary = summarize(run_rows(config))
    means = sorted(
        (row["alpha_n"], row["err_est_mean"]) for row in summary if row["estimator"] == "full"
    )
    values = [m for _, m in means]
    inversions = sum(1 for i in range(1, len(values)) if values[i] < values[i - 1])
    ratio = values[-1] / values[0]
    ok = inversions <= spec["allowed_inversions"] and ratio >= spec["min_ratio"]
    _report(10, ok, f"{reps} reps, inversions={inversions} (allow "
                    f"{spec['allowed_inversions']}), err_est({means[-1][0]})/err_est(0)="
                    f"{ratio:.0f}x (need >= {spec['min_ratio']}x)")


def test_criterion_11_wald_plumbing():
    paper = EXPECTED["wald_paper_cell"]
    boundary = EXPECTED["wald_boundary"]
    inst = gen_instance(40, 2, 0.5, seed=derive_seed(0, 95, 0))
    fit = fit_full(inst.adjacency, inst.covariate, inst.response, inst.membership)
    fit.beta[0, 0] = paper["estimate"]
    fit.beta[0, 1] = boundary["estimate"]
    covariances = [
        CovarianceEstimate(
            community=0,
            matrix=np.diag([paper["se"] ** 2, boundary["se"] ** 2]),
            variant="HC1",
        ),
        CovarianceEstimate(community=1, matrix=np.eye(2), variant="HC1"),
    ]
    table = wald_table(fit, covariances=covariances)
    paper_cell = table.cell(0, 0)
    boundary_cell = table.cell(0, 1)
    ok = (
        paper_cell.stars == paper["expect_stars"]
        and paper_cell.p < paper["max_p"]
        and abs(boundary_cell.p - boundary["expect_p"]) < boundary["p_tol"]
        and boundary_cell.stars == "*"
    )
    _report(11, ok, f"0.325/0.070: z={paper_cell.z:.2f}, p={paper_cell.p:.2e}, "
                    f"stars={paper_cell.stars}; 1.96/1: p={boundary_cell.p:.4f}")


def test_criterion_12_multi_covariate_reduction():
    spec = EXPECTED["multi_covariate"]
    worst_p1 = 0.0
    for trial in range(spec["n_instances"]):
        rng = np.random.default_rng(derive_seed(0, 96, trial))
        n = int(rng.integers(20, 60))
        K = int(rng.integers(1, 4))
        inst = gen_instance(max(n, K), K, 0.5, seed=derive_seed(0, 97, trial))
        single = fit_full(inst.adjacency, inst.covariate, inst.response, inst.membership)
        multi = fit_full_multi(
            inst.adjacency, inst.covariate[:, None], inst.response, inst.membership
        )
        worst_p1 = max(worst_p1, float(np.abs(multi.beta[:, :, 0] - single.beta).max()))

    inst = gen_instance(400, 2, 0.0, seed=derive_seed(0, 98, 0))
    rng = np.random.default_rng(derive_seed(0, 98, 1))
    X = rng.standard_normal((400, 2))
    tensor = rng.standard_normal((2, 2, 2))
    y = np.zeros(400)
    for l in range(2):
        y += predict(inst.adjacency, X[:, l], inst.membership, tensor[:, :, l])
    multi = fit_full_multi(inst.adjacency, X, y, inst.membership)
    p2_err = float(np.abs(multi.beta - tensor).max())

    ok = worst_p1 < spec["p1_tol"] and p2_err < spec["p2_tol"]
    _report(12, ok, f"p=1 max gap {worst_p1:.2e} over {spec['n_instances']} instances; "
                    f"noiseless p=2 recovery {p2_err:.2e}")


def test_criterion_13_determinism(tmp_path):
    configs = [
        ExperimentConfig(
            kind="network_ablation",
            n_grid=[40],
            k_grid=[2],
            replicates=2,
            base_seed=5,
        ),
        ExperimentConfig(
            kind="misspecification",
            n_grid=[50],
            k_grid=[2],
            replicates=2,
            base_seed=6,
        ),
    ]
    ok = True
    details = []
    for i, config in enumerate(configs):
        run_experiment(config, tmp_path / f"{i}_a")
        run_experiment(config, tmp_path / f"{i}_b")
        raw_a = (tmp_path / f"{i}_a" / "raw.csv").read_bytes()
        raw_b = (tmp_path / f"{i}_b" / "raw.csv").read_bytes()
        identical = raw_a == raw_b
        ok &= identical
        details.append(f"{config.kind}: {'identical' if identical else 'DIFFERS'}")
    _report(13, ok, "; ".join(details))
