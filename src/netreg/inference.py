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

HC_VARIANTS = ("homoskedastic", "HC0", "HC1", "HC3")


@dataclass(frozen=True)
class CovarianceEstimate:
    """Covariance of one estimated coefficient row (K x K matrix)."""

    community: int
    matrix: np.ndarray
    variant: str


class _Undefined(ValueError):
    """The data leave the variant's covariance undefined; the Hessian itself is not singular."""


def _covariance(design_rows, residuals, variant: str, community: int) -> CovarianceEstimate:
    """Covariance of one community's coefficient row from its n_k x K design rows X.

    With H = X^T X, ``homoskedastic`` is sigma^2 H^{-1}, sigma^2 = ||r||^2 / (n_k - K);
    the sandwich variants H^{-1} X^T diag(w r^2) X H^{-1} weight the squared
    residuals by 1 (HC0), n_k / (n_k - K) (HC1), or 1 / (1 - h_ii)^2 with h_ii
    the leverage of row i (HC3). A singular H raises LinAlgError; n_k <= K
    (an exact fit, under every variant) or a leverage of 1 (HC3) raises
    ``_Undefined``.
    """
    if variant not in HC_VARIANTS:
        raise ValueError(f"variant must be one of {HC_VARIANTS}, got {variant!r}")
    X = np.asarray(design_rows, dtype=np.float64)
    r = np.asarray(residuals, dtype=np.float64)
    n_k, K = X.shape
    H_inv, singular = pinv_psd(X.T @ X, scale_rows=n_k)
    if singular:
        raise np.linalg.LinAlgError("Hessian is singular; covariance undefined")
    if n_k <= K:
        raise _Undefined(f"{variant} needs n_k > K, got n_k = {n_k}, K = {K}")
    if variant == "homoskedastic":
        sigma2 = float(r @ r) / (n_k - K)
        return CovarianceEstimate(community=community, matrix=sigma2 * H_inv, variant=variant)
    if variant == "HC3":
        leverage = np.einsum("ij,jk,ik->i", X, H_inv, X)
        if np.any(leverage >= 1.0 - 1e-12):
            raise _Undefined("leverage of 1 encountered; HC3 weight undefined")
        weights = 1.0 / (1.0 - leverage) ** 2
    else:
        weights = np.ones(n_k)
    meat = (X * (weights * r**2)[:, None]).T @ X
    cov = H_inv @ meat @ H_inv
    cov = 0.5 * (cov + cov.T)
    if variant == "HC1":
        # Exact scalar multiple of HC0 by construction.
        cov = (n_k / (n_k - K)) * cov
    return CovarianceEstimate(community=community, matrix=cov, variant=variant)


def community_covariance(
    fit: FitResult, community: int, variant: str = "HC1"
) -> CovarianceEstimate:
    """Covariance of one coefficient row of a full-structure fit (see ``_covariance``)."""
    if fit.structure != "full":
        raise ValueError("per-community covariances require a full-structure fit")
    mask = fit.membership.labels == community
    if mask.any() and fit.min_norm[community]:  # the row is one of many least-squares solutions
        raise np.linalg.LinAlgError("the fit is min-norm: Hessian is singular; covariance undefined")
    return _covariance(fit.aggregates[mask], fit.residuals[mask], variant, community)


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
    "undefined": "n_k <= K (an exact fit), or a leverage of 1 (HC3): the variant gives no standard error",
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
        """Estimate ± se over the p-value, per cell; a flagged cell shows its flag for p.

        A column is its widest cell plus two spaces wide, and at least 18.
        """
        K = max(c.target for c in self.cells) + 1
        labels, rows = ["target"], [[f"source {k + 1}" for k in range(K)]]
        for k1 in range(K):
            cells = [self.cell(k1, k2) for k2 in range(K)]
            labels += [f"{k1 + 1}", ""]
            rows.append([f"{c.estimate:.3f} ± {c.se:.3f}" for c in cells])
            rows.append([
                f"[{c.flag}]" if c.flag else (f"({c.stars}) " if c.stars else "") + f"{c.p:.4f}"
                for c in cells
            ])
        widths = [max(18, 2 + max(len(row[k]) for row in rows)) for k in range(K)]
        lines = [
            label.ljust(8) + "".join(text.rjust(w) for text, w in zip(row, widths))
            for label, row in zip(labels, rows)
        ]
        flags = {c.flag for c in self.cells} - {""}
        lines += [f"[{flag}] {_FLAG_MEANINGS[flag]}" for flag in sorted(flags)]
        return "\n".join(lines)


def wald_table(fit: FitResult, covariances=None, variant: str = "HC1") -> TestTable:
    """Entrywise z-statistics, p-values, and significance stars for beta.

    ``covariances`` may supply one CovarianceEstimate per community; when
    omitted they are computed from the fit with the requested variant, and a
    community whose Hessian is singular gets NaN cells flagged ``singular``;
    one whose covariance the variant leaves undefined, ``undefined``.
    """
    K = fit.membership.n_communities
    missing = {}
    if covariances is None:
        covariances = []
        for k in range(K):
            try:
                covariances.append(community_covariance(fit, k, variant=variant))
            except np.linalg.LinAlgError:
                missing[k] = "singular"
            except _Undefined:
                missing[k] = "undefined"
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
                z, p, flag = math.nan, math.nan, missing[k1]
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
