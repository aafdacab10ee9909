import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import netreg
from netreg import Membership, SbmParams, sample_sbm


def random_membership(rng: np.random.Generator, n: int, n_communities: int) -> Membership:
    """Uniform labels, redrawn until every community is hit."""
    while True:
        labels = rng.integers(0, n_communities, size=n)
        if np.unique(labels).size == n_communities:
            return Membership(labels=labels, n_communities=n_communities)


def assortative_params(rng: np.random.Generator, n: int, n_communities: int) -> SbmParams:
    """Block probabilities drawn as Uniform(0, 0.5) plus 0.5 on the diagonal."""
    K = n_communities
    upper = np.triu(rng.uniform(0.0, 0.5, size=(K, K)))
    B = upper + np.triu(upper, k=1).T + 0.5 * np.eye(K)
    return SbmParams(membership=random_membership(rng, n, K), block_probs=B)


def small_instance(seed: int, n: int = 40, n_communities: int = 2):
    """A modest network + covariate pair for solver-level tests."""
    rng = np.random.default_rng(seed)
    params = assortative_params(rng, n, n_communities)
    A = sample_sbm(params, seed=seed + 1)
    x = rng.standard_normal(n)
    return A, x, params.membership


def in_layout(A, layout: str):
    """A as a C-ordered, Fortran-ordered, strided or integer array."""
    if layout == "fortran":
        return np.asfortranarray(A)
    if layout == "strided":
        padded = np.zeros((2 * A.shape[0], 2 * A.shape[1]), dtype=A.dtype)
        padded[::2, ::2] = A
        return padded[::2, ::2]
    if layout == "integer":
        return A.astype(np.int64)
    return A


def run_child(code: str) -> dict:
    """Run ``code`` in a fresh interpreter on this netreg; its last stdout line, as JSON."""
    env = dict(os.environ)
    src = str(Path(netreg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", code]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])
