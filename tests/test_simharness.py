import csv
import json
import types

import numpy as np
import pytest
import scipy

from netreg import ExperimentConfig, fit_full, gen_instance, predict, run_experiment
from netreg import simharness
from netreg.baseline import ablation_network, cv_select_lambda, predict_netcoh
from netreg.community import align_permutation, detect_communities, perturb_membership
from netreg.metrics import estimation_error, prediction_error
from netreg.regression import fit_row, fit_singleton
from netreg.simharness import (
    default_alpha_grid,
    derive_seed,
    eigenvalue_lower_bound,
    run_rows,
    run_theory_checks,
    write_raw_csv,
)


def test_gen_instance_noiseless_identity():
    inst = gen_instance(60, 3, 0.0, seed=5)
    expected = predict(inst.adjacency, inst.covariate, inst.membership, inst.beta_star)
    assert np.array_equal(inst.response, expected)


def test_gen_instance_block_prob_ranges():
    for seed in range(20):
        inst = gen_instance(30, 4, 0.5, seed=seed)
        B = inst.block_probs
        assert np.all(np.diag(B) >= 0.5)
        off = B[~np.eye(4, dtype=bool)]
        assert np.all(off <= 0.5)
        assert np.array_equal(B, B.T)


def test_gen_instance_deterministic():
    a = gen_instance(40, 2, 0.5, seed=123)
    b = gen_instance(40, 2, 0.5, seed=123)
    assert np.array_equal(a.adjacency, b.adjacency)
    assert np.array_equal(a.response, b.response)
    assert np.array_equal(a.beta_star, b.beta_star)
    c = gen_instance(40, 2, 0.5, seed=124)
    assert not np.array_equal(a.response, c.response)


def test_gen_instance_structures():
    row = gen_instance(30, 3, 0.1, seed=1, structure="row")
    assert np.array_equal(row.beta_star, np.tile(row.beta_star[0], (3, 1)))
    sgl = gen_instance(30, 3, 0.1, seed=2, structure="singleton")
    assert np.all(sgl.beta_star == sgl.beta_star[0, 0])
    with pytest.raises(ValueError):
        gen_instance(30, 3, 0.1, seed=3, structure="diag")
    with pytest.raises(ValueError):
        gen_instance(2, 3, 0.1, seed=4)


def test_default_alpha_grid():
    assert default_alpha_grid(500) == [0, 1, 2, 4, 8, 16, 32, 50]
    assert default_alpha_grid(100) == [0, 1, 2, 4, 8, 10]
    assert default_alpha_grid(5) == [0]


def test_derive_seed_is_stable_and_field_sensitive():
    assert derive_seed(0, 1, 2, 3) == derive_seed(0, 1, 2, 3)
    assert derive_seed(0, 1, 2, 3) != derive_seed(0, 1, 2, 4)
    assert derive_seed(0, 1, 2, 3) != derive_seed(1, 1, 2, 3)


def _tiny_ablation_config(**overrides):
    defaults = dict(
        kind="network_ablation",
        n_grid=[40],
        k_grid=[2],
        replicates=2,
        noise_sd=0.5,
        base_seed=7,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_network_ablation_rows():
    rows = run_rows(_tiny_ablation_config())
    assert len(rows) == 2 * 4  # replicates x estimators
    by_est = {}
    for r in rows:
        by_est.setdefault(r.estimator, []).append(r)
        assert r.status == "ok"
        assert r.err_pred is not None and r.err_pred >= 0
    assert sorted(by_est) == ["complete_net", "full", "identity_net", "netcoh"]
    for r in by_est["netcoh"]:
        assert r.err_est is None
    for est in ("full", "identity_net", "complete_net"):
        for r in by_est[est]:
            assert r.err_est is not None


def test_coef_structure_rows():
    cfg = ExperimentConfig(
        kind="coef_structure",
        n_grid=[40],
        k_grid=[3],
        replicates=2,
        noise_sd=0.2,
        base_seed=3,
        oracle_membership=True,
    )
    rows = run_rows(cfg)
    assert len(rows) == 3 * 3 * 2  # structures x estimators x replicates
    cells = {(r.structure, r.estimator) for r in rows}
    assert len(cells) == 9
    assert all(r.status == "ok" for r in rows)


def test_misspecification_alpha_zero_matches_clean_fit():
    cfg = ExperimentConfig(
        kind="misspecification",
        n_grid=[50],
        k_grid=[2],
        replicates=2,
        noise_sd=0.4,
        base_seed=11,
        alpha_grid=[0, 2],
    )
    rows = run_rows(cfg)
    clean = [r for r in rows if r.alpha_n == 0]
    assert len(clean) == 2
    for r in clean:
        inst = gen_instance(50, 2, 0.4, seed=r.seed)
        fit = fit_full(inst.adjacency, inst.covariate, inst.response, inst.membership)
        expected = estimation_error(fit.beta, inst.beta_star)
        assert r.err_est == expected


def test_misspecification_requires_k_at_least_two():
    with pytest.raises(ValueError):
        ExperimentConfig(
            kind="misspecification", n_grid=[30], k_grid=[1], replicates=1, base_seed=0
        )


@pytest.mark.parametrize(
    "kind, field, value, bad",
    [
        ("coef_structure", "structures", ["full", "diag"], "diag"),
        ("network_ablation", "estimators", ["full", "row"], "row"),
        ("coef_structure", "estimators", ["netcoh"], "netcoh"),
        ("misspecification", "estimators", ["row", "netcoh"], "row"),
    ],
    ids=["coef_structure_diag", "ablation_row", "coef_netcoh", "misspec_row_netcoh"],
)
def test_config_rejects_what_the_loop_cannot_run(kind, field, value, bad):
    with pytest.raises(ValueError, match=repr(bad)):
        ExperimentConfig(kind=kind, n_grid=[20], k_grid=[2], replicates=1, **{field: value})


def test_replicate_that_cannot_be_prepared_is_recorded():
    # n = 10 nodes rarely fill 8 communities: some draws give up and raise.
    cfg = ExperimentConfig(
        kind="coef_structure", n_grid=[10], k_grid=[8], replicates=3, base_seed=1
    )
    rows = run_rows(cfg)
    assert len(rows) == 3 * 3 * 3  # structures x estimators x replicates
    failed = [r for r in rows if r.status != "ok"]
    assert failed and all(r.status == "RuntimeError" for r in failed)
    for r in failed:
        assert r.err_est is None and r.err_pred is None
        same_replicate = [
            q for q in rows if (q.structure, q.replicate) == (r.structure, r.replicate)
        ]
        assert {q.status for q in same_replicate} == {"RuntimeError"}
    assert any(r.status == "ok" for r in rows)


@pytest.mark.parametrize("kind", ["network_ablation", "coef_structure", "misspecification"])
def test_rows_match_direct_computation(kind):
    """Recompute every row from its seed coordinates: (base_seed, kind code,
    n, K, [structure code,] replicate, [alpha_n,] tag) with tags instance 0,
    detection 1, perturbation 2 and cohesion CV 3."""
    cfg = ExperimentConfig(
        kind=kind, n_grid=[30, 40], k_grid=[2, 3], replicates=2, base_seed=13, alpha_grid=[0, 3]
    )
    code = {"network_ablation": 1, "coef_structure": 2, "misspecification": 3}[kind]
    structure_code = {"full": 0, "row": 1, "singleton": 2}
    fitters = {"full": fit_full, "row": fit_row, "singleton": fit_singleton}
    rows = run_rows(cfg)
    per_replicate = {"network_ablation": 4, "coef_structure": 3 * 3, "misspecification": 2}
    assert len(rows) == 2 * 2 * 2 * per_replicate[kind]
    for r in rows:
        assert r.status == "ok"
        coords = [cfg.base_seed, code, r.n, r.K, r.replicate]
        if kind == "coef_structure":
            coords.insert(4, structure_code[r.structure])
        assert r.seed == derive_seed(*coords, 0)
        inst = gen_instance(r.n, r.K, cfg.noise_sd, r.seed, structure=r.structure)
        A, x, y = inst.adjacency, inst.covariate, inst.response
        if kind == "misspecification":
            seed = derive_seed(*coords, r.alpha_n, 2)
            Z = perturb_membership(inst.membership, r.alpha_n, seed=seed)
        else:
            seed = derive_seed(*coords, 1)
            Z = detect_communities(A, r.K, seed=seed, restarts=cfg.kmeans_restarts)
        Q = align_permutation(Z, inst.membership)
        if r.estimator == "netcoh":
            nc = cv_select_lambda(A, x, y, n_folds=cfg.netcoh_folds, seed=derive_seed(*coords, 3))
            expected = (None, prediction_error(predict_netcoh(nc, x), y))
        else:
            if r.estimator in ("identity_net", "complete_net"):
                A = ablation_network(r.estimator.split("_")[0], r.n)
            fit = fitters.get(r.estimator, fit_full)(A, x, y, Z)
            expected = (
                estimation_error(fit.beta, inst.beta_star, Q),
                prediction_error(fit.fitted, y),
            )
        assert (r.err_est, r.err_pred) == expected


def test_rerun_is_byte_identical(tmp_path):
    cfg = _tiny_ablation_config()
    _, _ = run_experiment(cfg, tmp_path / "a")
    _, _ = run_experiment(cfg, tmp_path / "b")
    raw_a = (tmp_path / "a" / "raw.csv").read_bytes()
    raw_b = (tmp_path / "b" / "raw.csv").read_bytes()
    assert raw_a == raw_b
    sum_a = (tmp_path / "a" / "summary.csv").read_bytes()
    sum_b = (tmp_path / "b" / "summary.csv").read_bytes()
    assert sum_a == sum_b


def test_grid_extension_preserves_existing_rows():
    small = run_rows(_tiny_ablation_config(estimators=["full"]))
    extended = run_rows(_tiny_ablation_config(estimators=["full"], n_grid=[40, 60]))
    kept = [r for r in extended if r.n == 40]
    assert len(kept) == len(small)
    for a, b in zip(small, kept):
        assert (a.seed, a.err_est, a.err_pred) == (b.seed, b.err_est, b.err_pred)


def test_summary_matches_raw(tmp_path):
    cfg = _tiny_ablation_config(replicates=4, estimators=["full", "netcoh"])
    rows, summary = run_experiment(cfg, tmp_path / "run")
    with open(tmp_path / "run" / "raw.csv", newline="") as fh:
        raw = list(csv.DictReader(fh))
    for cell in summary:
        matching = [
            float(r["err_pred"])
            for r in raw
            if r["estimator"] == cell["estimator"] and int(r["n"]) == cell["n"]
        ]
        assert len(matching) == cell["replicates"]
        assert abs(np.mean(matching) - cell["err_pred_mean"]) < 1e-12
        if len(matching) > 1:
            expected_se = np.std(matching, ddof=1) / np.sqrt(len(matching))
            assert abs(expected_se - cell["err_pred_stderr"]) < 1e-12


def test_blas_build_is_none_without_dict_config():
    # numpy before 1.25 and scipy before 1.11 print their config and take no mode.
    old = types.SimpleNamespace(show_config=lambda: None)
    assert simharness._blas_build(old) is None


def test_meta_and_timings_written(tmp_path):
    cfg = _tiny_ablation_config(estimators=["full"])
    run_experiment(cfg, tmp_path / "out")
    meta = json.loads((tmp_path / "out" / "meta.json").read_text())
    assert meta["config_hash"] == cfg.config_hash()
    assert meta["config"]["kind"] == "network_ablation"
    assert meta["versions"]["scipy"] == scipy.__version__
    # numpy and scipy each link their own BLAS; both builds are recorded.
    for module in (np, scipy):
        expected = simharness._blas_build(module)
        assert meta["blas"][module.__name__] == expected
        if expected is not None:  # reported from numpy 1.25 and scipy 1.11 on
            assert expected["name"] and expected["version"]
    timings = (tmp_path / "out" / "timings.csv").read_text().splitlines()
    assert timings[0].startswith("experiment,")
    assert len(timings) == 3  # header + 2 rows


def test_raw_csv_excludes_wall_time(tmp_path):
    rows = run_rows(_tiny_ablation_config(estimators=["full"]))
    path = tmp_path / "raw.csv"
    write_raw_csv(rows, path)
    header = path.read_text().splitlines()[0]
    assert "wall_time" not in header


def test_config_output_path_fallback(tmp_path):
    cfg = _tiny_ablation_config(estimators=["full"], output=str(tmp_path / "via_config"))
    run_experiment(cfg)
    assert (tmp_path / "via_config" / "raw.csv").exists()
    with pytest.raises(ValueError):
        run_experiment(_tiny_ablation_config(estimators=["full"]))


def test_config_round_trip(tmp_path):
    cfg = _tiny_ablation_config()
    path = tmp_path / "config.json"
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh)
    loaded = ExperimentConfig.from_json(path)
    assert loaded == cfg
    assert loaded.config_hash() == cfg.config_hash()


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(kind="bogus", n_grid=[10], k_grid=[2])
    with pytest.raises(ValueError):
        ExperimentConfig(kind="network_ablation", n_grid=[100, 50], k_grid=[2])
    with pytest.raises(ValueError):
        ExperimentConfig(kind="network_ablation", n_grid=[50], k_grid=[2], replicates=0)


def test_eigenvalue_lower_bound_hand_computed():
    from netreg import Membership

    m = Membership(labels=np.array([0, 0, 1, 1]), n_communities=2)
    B = np.array([[0.8, 0.2], [0.2, 0.6]])
    x = np.array([1.0, 2.0, 3.0, 4.0])
    # community 0: n_k = 2; candidates over source k':
    #   k'=0: 0.8*0.2*(2-1)*(1+4) = 0.8
    #   k'=1: 0.2*0.8*(2-1)*(9+16) = 4.0
    assert np.isclose(eigenvalue_lower_bound(B, m, x, 0), 0.8)


def test_theory_checks_smoke():
    report = run_theory_checks(
        n=60, n_communities=2, n_eigen_draws=5, n_noise_reps=50, base_seed=1
    )
    assert set(report) == {"eigenvalue_bound", "unbiasedness", "ci_coverage", "all_pass"}
    assert isinstance(report["all_pass"], bool)
    json.dumps(report)  # JSON-serializable
