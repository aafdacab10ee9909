import math
import re

import numpy as np
import pytest

from conftest import small_instance
from netreg import (
    Membership,
    community_covariance,
    fit_full,
    predict,
    wald_table,
)
from netreg.inference import _covariance, normal_sf_two_sided, significance_stars
from netreg.simharness import gen_instance


def test_homoskedastic_covariance_formulas():
    # X^T X = 4 I: three rows 2 e_j, seven zero rows.
    X = np.zeros((10, 3))
    X[:3] = 2.0 * np.eye(3)
    zero = _covariance(X, np.zeros(10), "homoskedastic", 0)
    assert np.all(zero.matrix == 0.0)

    r = np.ones(10)  # ||r||^2 = 10, dof = 10 - 3 = 7
    cov = _covariance(X, r, "homoskedastic", 0)
    assert np.allclose(cov.matrix, (10.0 / 7.0) / 4.0 * np.eye(3))

    with pytest.raises(np.linalg.LinAlgError):
        _covariance(np.zeros((5, 2)), np.ones(5), "homoskedastic", 0)
    with pytest.raises(ValueError):
        _covariance(np.eye(3), np.ones(3), "homoskedastic", 0)


def test_homoskedastic_covariance_monte_carlo_oracle():
    # Empirical covariance of the estimated row over repeated noise draws
    # matches sigma^2 H^{-1} within 10% per entry.
    A, x, m = small_instance(41, n=120, n_communities=2)
    rng = np.random.default_rng(42)
    beta_star = rng.standard_normal((2, 2))
    signal = predict(A, x, m, beta_star)
    sigma = 0.4
    mask = m.labels == 0
    Z = m.onehot()
    N = (A * x[None, :]) @ Z
    Xk = N[mask]
    H = Xk.T @ Xk
    # Residuals with ||r||^2 / (n_k - K) = sigma^2 make the estimate the truth.
    r = np.zeros(Xk.shape[0])
    r[0] = sigma * math.sqrt(Xk.shape[0] - 2)
    target = _covariance(Xk, r, "homoskedastic", 0).matrix
    assert np.allclose(target, sigma**2 * np.linalg.inv(H), rtol=1e-12, atol=0.0)
    assert np.abs(target).min() > 1e-7  # relative tolerance is meaningful

    betas = []
    solver = np.linalg.inv(H) @ Xk.T
    for _ in range(2000):
        y = signal + sigma * rng.standard_normal(120)
        betas.append(solver @ y[mask])
    emp = np.cov(np.array(betas).T, ddof=1)
    assert np.all(np.abs(emp - target) <= 0.10 * np.abs(target))


def test_hc_covariance_trivial_cases():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((15, 2))
    H_inv = np.linalg.inv(X.T @ X)

    const = _covariance(X, np.full(15, 2.0), "HC0", 0)
    assert np.allclose(const.matrix, 4.0 * H_inv, atol=1e-12)

    for variant in ("HC0", "HC1", "HC3"):
        zero = _covariance(X, np.zeros(15), variant, 0)
        assert np.allclose(zero.matrix, 0.0)


def test_hc0_matches_triple_loop():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((25, 3))
    r = rng.standard_normal(25)
    H_inv = np.linalg.inv(X.T @ X)
    meat = np.zeros((3, 3))
    for i in range(25):
        for a in range(3):
            for b in range(3):
                meat[a, b] += r[i] ** 2 * X[i, a] * X[i, b]
    brute = H_inv @ meat @ H_inv
    got = _covariance(X, r, "HC0", 0).matrix
    assert np.abs(got - brute).max() < 1e-12


def test_hc1_is_exact_multiple_of_hc0():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((30, 4))
    r = rng.standard_normal(30)
    hc0 = _covariance(X, r, "HC0", 0).matrix
    hc1 = _covariance(X, r, "HC1", 0).matrix
    assert np.array_equal(hc1, (30 / (30 - 4)) * hc0)


def test_hc3_leverage_error():
    # Row 0 alone spans e_1, so its leverage is exactly 1 although n_k > K.
    X = np.eye(3)[[0, 1, 1, 2, 2]]
    with pytest.raises(ValueError, match="leverage of 1"):
        _covariance(X, np.ones(5), "HC3", 0)
    # A square design is an exact fit, which no variant gives a covariance.
    for variant in ("homoskedastic", "HC0", "HC1", "HC3"):
        with pytest.raises(ValueError, match=f"^{variant} needs n_k > K, got n_k = 3, K = 3$"):
            _covariance(np.eye(3), np.ones(3), variant, 0)


def test_bad_variant_error_names_all_four_variants():
    A, x, m = small_instance(43, n=80, n_communities=2)
    fit = fit_full(A, x, np.random.default_rng(44).standard_normal(80), m)
    message = "variant must be one of ('homoskedastic', 'HC0', 'HC1', 'HC3'), got 'hc1'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        community_covariance(fit, 0, "hc1")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        wald_table(fit, variant="hc1")


def test_covariance_invariants_on_fit():
    A, x, m = small_instance(43, n=80, n_communities=2)
    rng = np.random.default_rng(44)
    y = predict(A, x, m, rng.standard_normal((2, 2))) + 0.3 * rng.standard_normal(80)
    fit = fit_full(A, x, y, m)
    for variant in ("homoskedastic", "HC0", "HC1", "HC3"):
        for k in range(2):
            cov = community_covariance(fit, k, variant=variant)
            assert np.abs(cov.matrix - cov.matrix.T).max() < 1e-12
            eigvals = np.linalg.eigvalsh(cov.matrix)
            assert eigvals.min() >= -1e-10 * np.trace(cov.matrix)


def test_stars_mapping_boundaries():
    assert significance_stars(0.0005) == "***"
    assert significance_stars(0.001) == "***"
    assert significance_stars(0.0011) == "**"
    assert significance_stars(0.01) == "**"
    assert significance_stars(0.011) == "*"
    assert significance_stars(0.05) == "*"
    assert significance_stars(0.051) == ""


def test_wald_z_and_p_values():
    assert normal_sf_two_sided(0.0) == 1.0
    p_196 = normal_sf_two_sided(1.96)
    assert abs(p_196 - 0.05) < 1e-3
    assert significance_stars(p_196) == "*"

    # z = 0.325 / 0.070 = 4.64..., far past the 0.001 threshold
    z = 0.325 / 0.070
    p = normal_sf_two_sided(z)
    assert p < 0.001
    assert significance_stars(p) == "***"


def test_wald_table_end_to_end():
    A, x, m = small_instance(45, n=100, n_communities=2)
    rng = np.random.default_rng(46)
    y = predict(A, x, m, rng.standard_normal((2, 2))) + 0.5 * rng.standard_normal(100)
    fit = fit_full(A, x, y, m)
    table = wald_table(fit, variant="HC1")
    assert table.variant == "HC1"
    assert len(table.cells) == 4
    for cell in table.cells:
        cov = community_covariance(fit, cell.target, variant="HC1")
        expected_se = math.sqrt(cov.matrix[cell.source, cell.source])
        assert np.isclose(cell.se, expected_se, atol=1e-12)
        assert np.isclose(cell.z, cell.estimate / cell.se, atol=1e-12)
        assert np.isclose(cell.p, normal_sf_two_sided(cell.z), atol=1e-15)
    text = table.to_text()
    assert "target" in text and "±" in text


def test_wald_degenerate_se_flags():
    A, x, m = small_instance(47, n=60, n_communities=2)
    beta_star = np.array([[1.0, -0.5], [0.25, 2.0]])
    y = predict(A, x, m, beta_star)  # noiseless: residuals are ~0
    fit = fit_full(A, x, y, m)
    # Force exactly zero residuals so the covariance collapses.
    fit.residuals[:] = 0.0
    table = wald_table(fit, variant="HC0")
    for cell in table.cells:
        if cell.estimate != 0.0:
            assert cell.p == 0.0 and cell.flag == "zero_se"


def test_wald_flags_singular_community_without_aborting():
    # Community 0 links to every node, so all its aggregate rows are equal and
    # its Hessian has rank 1; community 1 keeps a full-rank Hessian.
    rng = np.random.default_rng(50)
    n = 60
    m = Membership(labels=(np.arange(n) >= 20).astype(int), n_communities=2)
    A = np.triu((rng.random((n, n)) < 0.3).astype(float), 1)
    A = A + A.T
    A[:20, :] = A[:, :20] = 1.0
    np.fill_diagonal(A, 1.0)
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    table = wald_table(fit_full(A, x, y, m), variant="HC1")
    for cell in table.cells:
        if cell.target == 0:
            assert cell.flag == "singular"
            assert all(math.isnan(v) for v in (cell.se, cell.z, cell.p))
        else:
            assert cell.flag == "" and math.isfinite(cell.p)

    complete = fit_full(np.ones((n, n)), x, y, m)
    assert all(c.flag == "singular" for c in wald_table(complete).cells)
    with pytest.raises(np.linalg.LinAlgError):
        community_covariance(complete, 0)


@pytest.mark.parametrize("variant", ["homoskedastic", "HC0", "HC1", "HC3"])
def test_wald_flags_undefined_community_without_aborting(variant):
    # A 2-node community (n_k = K) is fitted exactly: its residuals are
    # rounding noise, so every variant is undefined (HC0's SE would read
    # 3e-16 and its p-value 0). A 1-node one has a singular Hessian. Neither
    # aborts the table.
    inst = gen_instance(40, 2, 0.5, seed=3)
    for size, flag in ((2, "undefined"), (1, "singular")):
        labels = np.zeros(40, dtype=int)
        labels[:size] = 1
        m = Membership(labels=labels, n_communities=2)
        fit = fit_full(inst.adjacency, inst.covariate, inst.response, m)
        table = wald_table(fit, variant=variant)
        assert table.variant == variant
        for cell in table.cells:
            assert cell.flag == ("" if cell.target == 0 else flag)
            assert all(math.isnan(v) for v in (cell.se, cell.z, cell.p)) == bool(cell.flag)
        if flag:
            assert f"[{flag}] " in table.to_text()


@pytest.mark.parametrize("variant", ["homoskedastic", "HC0", "HC1", "HC3"])
def test_wald_flags_min_norm_community_singular(variant):
    # Shrinking x on community 1 shrinks column 1 of every aggregate. Community
    # 1's Hessian then has an eigenvalue under the fit's rank threshold
    # (scale_rows = n) but not under the covariance's (scale_rows = n_k). Its
    # row is min-norm, so the table prints no p-value for it (under HC1 its
    # cells would read p = 0.0399 for source 0 and an SE of 1.7e5 for source 1).
    inst = gen_instance(400, 4, 0.5, seed=3)
    x = inst.covariate.copy()
    x[inst.membership.labels == 1] *= 1.1494691264995868e-06
    fit = fit_full(inst.adjacency, x, inst.response, inst.membership)
    assert fit.min_norm == [False, True, False, False]
    with pytest.raises(np.linalg.LinAlgError, match="min-norm"):
        community_covariance(fit, 1, variant)
    for cell in wald_table(fit, variant=variant).cells:
        assert cell.flag == ("singular" if cell.target == 1 else "")
        assert math.isnan(cell.p) == (cell.target == 1)


def test_wald_table_text_keeps_wide_cells_apart():
    # The min-norm instance above: community 1's tiny x makes source 2's
    # estimates and SEs up to 22 characters wide, past the least column width
    # of 18, where "-0.068 ± 0.009-48332.484 ± 8173.025" used to run together.
    inst = gen_instance(400, 4, 0.5, seed=3)
    x = inst.covariate.copy()
    x[inst.membership.labels == 1] *= 1.1494691264995868e-06
    table = wald_table(fit_full(inst.adjacency, x, inst.response, inst.membership), variant="HC1")
    lines = table.to_text().splitlines()
    for k1 in range(4):
        want = [f"{k1 + 1}"] + [
            f"{c.estimate:.3f} ± {c.se:.3f}" for c in (table.cell(k1, k2) for k2 in range(4))
        ]
        assert re.split(r" {2,}", lines[1 + 2 * k1].strip()) == want
    assert max(len(cell) for cell in want) > 18


def test_wald_table_csv(tmp_path):
    A, x, m = small_instance(48, n=60, n_communities=2)
    y = np.random.default_rng(49).standard_normal(60)
    fit = fit_full(A, x, y, m)
    path = tmp_path / "wald.csv"
    wald_table(fit, variant="HC0").to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k1,k2,estimate,se,z,p,stars,variant,flag"
    assert len(lines) == 5
    assert all(line.endswith("HC0,") for line in lines[1:])  # no cell is flagged
