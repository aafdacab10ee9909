"""The benchmark's workloads: input generation, one operation, output checks.

Why each workload exists, and which layer metric should move which end-to-end
metric on it, is written down in ``README.md`` beside this file.

Every operation draws fresh seeds from the benchmark seed and its index, so a
run is reproducible from ``--seed`` alone and repeating an index repeats the
operation exactly (the rerun-determinism check relies on that).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import statistics
from dataclasses import dataclass, field

import numpy as np

from netreg import cli, graph, simharness
from netreg.community import Membership
from netreg.regression import predict

BETA_TOL = 0.05  # max |beta_hat - beta_star| for the CLI fit; the standard errors are ~0.01


def op_seed(seed: int, index: int) -> int:
    """Seed of operation ``index`` in a run with benchmark seed ``seed``."""
    return int(np.random.SeedSequence([int(seed), int(index)]).generate_state(1, np.uint32)[0])


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _edge_density(A: np.ndarray) -> float:
    n = A.shape[0]
    return (int(np.count_nonzero(A)) - n) / (n * (n - 1))


@dataclass
class OpResult:
    """What one operation produced, as the checks need it."""

    index: int
    attempted: int
    failed: int
    digests: dict
    rows: list = field(default_factory=list)
    problems: list = field(default_factory=list)


class ExperimentWorkload:
    """One op is ``simharness.run_experiment`` on a fresh-seeded config."""

    def __init__(self, name: str, kind: str, n: int, K: int, replicates: int):
        self.name, self.kind, self.n, self.K, self.replicates = name, kind, n, K, replicates
        self.seed = 0

    def setup(self, workdir, seed: int) -> None:
        """Nothing to write: every input is generated inside the op from its seed."""
        os.makedirs(workdir, exist_ok=True)

    def load(self, workdir, seed: int) -> None:
        self.seed = seed

    def config(self, index: int) -> simharness.ExperimentConfig:
        return simharness.ExperimentConfig(
            kind=self.kind,
            n_grid=[self.n],
            k_grid=[self.K],
            replicates=self.replicates,
            base_seed=op_seed(self.seed, index),
            oracle_membership=False,
        )

    def run_op(self, index: int, opdir):
        rows, _ = simharness.run_experiment(self.config(index), str(opdir))
        return rows

    def collect(self, index: int, opdir, rows) -> OpResult:
        return OpResult(
            index=index,
            attempted=len(rows),
            failed=sum(1 for r in rows if r.status != "ok"),
            digests={"raw.csv": sha256_file(os.path.join(opdir, "raw.csv"))},
            rows=[(r.estimator, r.replicate, r.alpha_n, r.err_est, r.err_pred, r.status) for r in rows],
        )

    def environment(self) -> dict:
        """n, K and the edge density of a representative instance of this workload."""
        inst = simharness.gen_instance(self.n, self.K, 0.5, op_seed(self.seed, 1 << 20))
        return {"n": self.n, "K": self.K, "edge_density": _edge_density(inst.adjacency)}


class AblationWorkload(ExperimentWorkload):
    def check(self, results: list) -> list:
        """Every replicate's ``full`` row beats identity_net or complete_net on err_pred."""
        problems = []
        for res in results:
            by_rep: dict = {}
            for est, rep, _, _, err_pred, status in res.rows:
                by_rep.setdefault(rep, {})[est] = err_pred if status == "ok" else None
            for rep, errs in sorted(by_rep.items()):
                full = errs.get("full")
                rivals = [errs.get("identity_net"), errs.get("complete_net")]
                if full is None or not any(r is not None and full < r for r in rivals):
                    problems.append(
                        f"op {res.index} replicate {rep}: full err_pred {full} beats neither "
                        f"identity_net {rivals[0]} nor complete_net {rivals[1]}"
                    )
        return problems


class MisspecWorkload(ExperimentWorkload):
    def check(self, results: list) -> list:
        """Median err_est at the largest alpha exceeds the median at alpha = 0."""
        by_alpha: dict = {}
        for res in results:
            for _, _, alpha, err_est, _, status in res.rows:
                if status == "ok":
                    by_alpha.setdefault(alpha, []).append(err_est)
        if 0 not in by_alpha or len(by_alpha) < 2:
            return ["misspecification rows missing alpha = 0 or any alpha > 0"]
        top = max(by_alpha)
        lo, hi = statistics.median(by_alpha[0]), statistics.median(by_alpha[top])
        if not hi > lo:
            return [f"median err_est at alpha {top} ({hi}) is not above alpha 0 ({lo})"]
        return []


class CliWorkload:
    """One op runs five subcommands through ``netreg.cli.main`` in-process."""

    name = "cli_roundtrip"
    n, K = 2000, 4
    p_in, p_out = 0.5, 0.1
    noise_sd = 0.5
    outputs = ["sim.txt", "det.csv", "scree.csv", "fit.json", "fitted.csv", "wald.csv", "nc.json"]

    def __init__(self):
        self.inputs: dict = {}
        self.seed = 0
        self.dir = ""

    def block_probs(self) -> list:
        K = self.K
        return (np.full((K, K), self.p_out) + (self.p_in - self.p_out) * np.eye(K)).tolist()

    def setup(self, workdir, seed: int) -> None:
        """Write the analyst's inputs: edge list, x, y, planted membership, planted beta."""
        os.makedirs(workdir, exist_ok=True)
        n, K = self.n, self.K
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 2]))
        while True:
            labels = rng.integers(0, K, size=n)
            if np.unique(labels).size == K:
                break
        membership = Membership(labels=labels, n_communities=K)
        params = graph.SbmParams(membership=membership, block_probs=np.array(self.block_probs()))
        A = graph.sample_sbm(params, seed=int(rng.integers(2**32)))
        graph.save_edge_list(A, os.path.join(workdir, "net.txt"))
        membership.to_csv(os.path.join(workdir, "membership.csv"))
        x = rng.standard_normal(n)
        beta = rng.standard_normal((K, K))
        y = predict(A, x, membership, beta) + self.noise_sd * rng.standard_normal(n)
        for name, values in (("x", x), ("y", y)):
            with open(os.path.join(workdir, f"{name}.csv"), "w", encoding="utf-8") as fh:
                fh.write(name + "\n" + "".join(f"{v!r}\n" for v in values.tolist()))
        with open(os.path.join(workdir, "inputs.json"), "w", encoding="utf-8") as fh:
            json.dump({"beta_star": beta.tolist(), "edge_density": _edge_density(A)}, fh)

    def load(self, workdir, seed: int) -> None:
        self.seed = seed
        self.dir = str(workdir)
        with open(os.path.join(workdir, "inputs.json"), encoding="utf-8") as fh:
            self.inputs = json.load(fh)

    def commands(self, index: int, opdir) -> list:
        s = str(op_seed(self.seed, index))
        data = [
            "--network", os.path.join(self.dir, "net.txt"),
            "--x", os.path.join(self.dir, "x.csv"),
            "--y", os.path.join(self.dir, "y.csv"),
        ]
        memb = ["--membership", os.path.join(self.dir, "membership.csv")]

        def out(name):
            return os.path.join(opdir, name)

        return [
            ["simulate-sbm", "--n", str(self.n), "--block-probs", json.dumps(self.block_probs()),
             "--seed", s, "--out", out("sim.txt")],
            ["detect", "--network", os.path.join(self.dir, "net.txt"), "--n", str(self.n),
             "--k", str(self.K), "--seed", s, "--out", out("det.csv"), "--scree-out", out("scree.csv")],
            ["fit", *data, *memb, "--out", out("fit.json"), "--r2", "--fitted-out", out("fitted.csv")],
            ["infer", *data, *memb, "--hc-variant", "HC3", "--out", out("wald.csv")],
            ["netcoh", *data, "--lam", "1.0", "--out", out("nc.json")],
        ]

    def run_op(self, index: int, opdir):
        os.makedirs(opdir, exist_ok=True)
        errors = []
        for argv in self.commands(index, opdir):
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a failed command is counted, the op continues
                rc = f"{type(exc).__name__}: {exc}"
            if rc not in (0, None):
                errors.append(f"{argv[0]}: {rc}")
        return errors

    def collect(self, index: int, opdir, errors) -> OpResult:
        res = OpResult(index=index, attempted=5, failed=len(errors), digests={}, problems=list(errors))
        for name in self.outputs:
            path = os.path.join(opdir, name)
            if os.path.exists(path):
                res.digests[name] = sha256_file(path)
        try:
            with open(os.path.join(opdir, "fit.json"), encoding="utf-8") as fh:
                beta_hat = np.array(json.load(fh)["beta_hat"])
            dev = float(np.abs(beta_hat - np.array(self.inputs["beta_star"])).max())
            if not dev <= BETA_TOL:
                res.problems.append(f"op {index}: fit.json beta off planted by {dev:.4g} > {BETA_TOL}")
        except (OSError, KeyError, ValueError) as exc:
            res.problems.append(f"op {index}: unreadable fit.json ({exc})")
        try:
            with open(os.path.join(opdir, "wald.csv"), encoding="utf-8") as fh:
                cells = sum(1 for line in fh if line.strip()) - 1
            if cells != self.K * self.K:
                res.problems.append(f"op {index}: wald.csv has {cells} cells, want {self.K ** 2}")
        except OSError as exc:
            res.problems.append(f"op {index}: unreadable wald.csv ({exc})")
        return res

    def check(self, results: list) -> list:
        """Per-op output checks, and fit/wald outputs identical across ops (same inputs)."""
        problems = [p for res in results for p in res.problems]
        for name in ("fit.json", "wald.csv"):
            if len({res.digests.get(name) for res in results}) > 1:
                problems.append(f"{name} differs between ops on identical inputs")
        return problems

    def environment(self) -> dict:
        return {"n": self.n, "K": self.K, "edge_density": self.inputs["edge_density"]}


WORKLOADS = {
    "ablation_netcoh": lambda: AblationWorkload("ablation_netcoh", "network_ablation", 1000, 3, 2),
    "misspec_large_n": lambda: MisspecWorkload("misspec_large_n", "misspecification", 3000, 4, 2),
    "cli_roundtrip": CliWorkload,
}
