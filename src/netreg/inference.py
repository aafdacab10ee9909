"""Covariance estimates and Wald tests for the block coefficient matrix.

Each coefficient row is an ordinary least-squares estimate inside its own
community, so standard machinery applies per community: the homoskedastic
covariance sigma_k^2 H_k^{-1}, and the MacKinnon-White family of
heteroskedasticity-consistent sandwich estimators (HC0/HC1/HC3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._io import write_csv
from .regression import FitResult, pinv_psd

HC_VARIANTS = ("HC0", "HC1", "HC3")


@dataclass(frozen=True)
class CovarianceEstimate:
    """Covariance of one estimated coefficient row (K x K matrix)."""

    community: int
    matrix: np.ndarray
    variant: str


def _inverse_psd(H: np.ndarray, scale_rows: int) -> np.ndarray:
    H_inv, singular = pinv_psd(H, scale_rows)
    if singular:
        raise np.linalg.LinAlgError("Hessian is singular; covariance undefined")
    return H_inv


def homoskedastic_covariance(hessian_matrix, residuals, community: int = 0) -> CovarianceEstimate:
    """Classical covariance sigma^2 H^{-1} with sigma^2 from community residuals.

    ``residuals`` are the residuals of the rows belonging to the community
    (length n_k); the variance estimate divides by n_k - K.
    """
    H = np.asarray(hessian_matrix, dtype=np.float64)
    r = np.asarray(residuals, dtype=np.float64)
    K = H.shape[0]
    n_k = r.size
    dof = n_k - K
    if dof <= 0:
        raise ValueError(f"community needs more than {K} observations, got {n_k}")
    H_inv = _inverse_psd(H, scale_rows=n_k)
    sigma2 = float(r @ r) / dof
    return CovarianceEstimate(community=community, matrix=sigma2 * H_inv, variant="homoskedastic")


def hc_covariance(
    design_rows, residuals, variant: str = "HC1", community: int = 0
) -> CovarianceEstimate:
    """Heteroskedasticity-consistent sandwich covariance for one community.

    Parameters
    ----------
    design_rows : array, shape (n_k, K)
        Design rows of the community's observations.
    residuals : array, shape (n_k,)
        Matching residuals.
    variant : {'HC0', 'HC1', 'HC3'}
        Weighting of squared residuals in the meat: 1, n_k/(n_k - K), or
        1/(1 - h_ii)^2 with h_ii the leverage of row i.
    """
    if variant not in HC_VARIANTS:
        raise ValueError(f"variant must be one of {HC_VARIANTS}, got {variant!r}")
    X = np.asarray(design_rows, dtype=np.float64)
    r = np.asarray(residuals, dtype=np.float64)
    if X.ndim != 2 or r.shape != (X.shape[0],):
        raise ValueError("design_rows must be (n_k, K) with matching residuals")
    n_k, K = X.shape
    H_inv = _inverse_psd(X.T @ X, scale_rows=n_k)
    if variant == "HC3":
        leverage = np.einsum("ij,jk,ik->i", X, H_inv, X)
        if np.any(leverage >= 1.0 - 1e-12):
            raise ValueError("leverage of 1 encountered; HC3 weight undefined")
        weights = 1.0 / (1.0 - leverage) ** 2
    else:
        weights = np.ones(n_k)
    meat = (X * (weights * r**2)[:, None]).T @ X
    cov = H_inv @ meat @ H_inv
    cov = 0.5 * (cov + cov.T)
    if variant == "HC1":
        # Exact scalar multiple of HC0 by construction.
        if n_k <= K:
            raise ValueError(f"HC1 needs n_k > K, got n_k = {n_k}, K = {K}")
        cov = (n_k / (n_k - K)) * cov
    return CovarianceEstimate(community=community, matrix=cov, variant=variant)


def community_covariance(
    fit: FitResult, community: int, variant: str = "HC1"
) -> CovarianceEstimate:
    """Covariance of one coefficient row of a full-structure fit."""
    if fit.structure != "full":
        raise ValueError("per-community covariances require a full-structure fit")
    mask = fit.membership.labels == community
    rows = fit.aggregates[mask]
    resid = fit.residuals[mask]
    if variant == "homoskedastic":
        return homoskedastic_covariance(rows.T @ rows, resid, community=community)
    return hc_covariance(rows, resid, variant=variant, community=community)


def normal_sf_two_sided(z: float) -> float:
    """Two-sided tail probability of the standard normal, via erfc."""
    return math.erfc(abs(z) / math.sqrt(2.0))


def significance_stars(p: float) -> str:
    if p <= 0.001:
        return "***"
    if p <= 0.01:
        return "**"
    if p <= 0.05:
        return "*"
    return ""


# What each TestCell.flag means; a flagged cell's p-value is not a test result.
_FLAG_MEANINGS = {
    "singular": "the target community's Hessian is singular: no standard error",
    "degenerate": "estimate and standard error are both 0",
    "zero_se": "the standard error is 0: z is infinite",
}


@dataclass(frozen=True)
class TestCell:
    target: int
    source: int
    estimate: float
    se: float
    z: float
    p: float
    stars: str
    flag: str = ""


@dataclass
class TestTable:
    """Per-entry z-tests of the null that a block coefficient is zero."""

    cells: list
    variant: str

    def cell(self, target: int, source: int) -> TestCell:
        for c in self.cells:
            if c.target == target and c.source == source:
                return c
        raise KeyError((target, source))

    def to_csv(self, path) -> None:
        write_csv(
            path,
            ["k1", "k2", "estimate", "se", "z", "p", "stars", "variant", "flag"],
            [
                (c.target, c.source, c.estimate, c.se, c.z, c.p, c.stars, self.variant, c.flag)
                for c in self.cells
            ],
        )

    def to_text(self) -> str:
        """Estimate ± se over the p-value, per cell; a flagged cell shows its flag for p."""
        K = max(c.target for c in self.cells) + 1
        width = 18
        header = "target".ljust(8) + "".join(
            f"source {k + 1}".rjust(width) for k in range(K)
        )
        lines = [header]
        for k1 in range(K):
            est_line = f"{k1 + 1}".ljust(8)
            p_line = " " * 8
            for k2 in range(K):
                c = self.cell(k1, k2)
                est_line += f"{c.estimate:.3f} ± {c.se:.3f}".rjust(width)
                tag = f"({c.stars}) " if c.stars else ""
                p_line += (f"[{c.flag}]" if c.flag else f"{tag}{c.p:.4f}").rjust(width)
            lines.append(est_line)
            lines.append(p_line)
        flags = {c.flag for c in self.cells} - {""}
        lines += [f"[{flag}] {_FLAG_MEANINGS[flag]}" for flag in sorted(flags)]
        return "\n".join(lines)


def wald_table(fit: FitResult, covariances=None, variant: str = "HC1") -> TestTable:
    """Entrywise z-statistics, p-values, and significance stars for beta.

    ``covariances`` may supply one CovarianceEstimate per community; when
    omitted they are computed from the fit with the requested variant, and a
    community whose Hessian is singular gets NaN cells flagged ``singular``.
    """
    K = fit.membership.n_communities
    if covariances is None:
        covariances = []
        for k in range(K):
            try:
                covariances.append(community_covariance(fit, k, variant=variant))
            except np.linalg.LinAlgError:
                continue
    elif sorted({c.community for c in covariances}) != list(range(K)):
        raise ValueError("need a covariance estimate for every community")
    by_community = {c.community: c.matrix for c in covariances}
    variants = {c.variant for c in covariances} or {variant}
    table_variant = variants.pop() if len(variants) == 1 else "mixed"
    cells = []
    for k1 in range(K):
        cov = by_community.get(k1)
        for k2 in range(K):
            est = float(fit.beta[k1, k2])
            se = math.nan if cov is None else math.sqrt(max(float(cov[k2, k2]), 0.0))
            flag = ""
            if cov is None:
                z, p, flag = math.nan, math.nan, "singular"
            elif se == 0.0:
                if est == 0.0:
                    z, p, flag = 0.0, 1.0, "degenerate"
                else:
                    z, p, flag = math.inf, 0.0, "zero_se"
            else:
                z = est / se
                p = normal_sf_two_sided(z)
            cells.append(
                TestCell(
                    target=k1,
                    source=k2,
                    estimate=est,
                    se=se,
                    z=z,
                    p=p,
                    stars=significance_stars(p),
                    flag=flag,
                )
            )
    return TestTable(cells=cells, variant=table_variant)
