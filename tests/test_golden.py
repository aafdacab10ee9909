"""Golden outputs: the paper's three studies and the CLI round trip, against committed files.

``tests/golden/`` holds:
- ``<kind>/raw.csv`` and ``<kind>/summary.csv`` of each ``configs/<kind>_full.json``
  at ``--n-grid 100,300 --replicates 3``;
- ``cli/``: the seven outputs of ``simulate-sbm``, ``detect``, ``fit``, ``infer``
  and ``netcoh`` on the n = 300 inputs in ``inputs/``;
- ``cli/det_2000.csv`` and ``cli/scree_2000.csv``: ``detect --k 4`` on an
  n = 2000 ``simulate-sbm`` network, drawn by the test and not kept, whose
  scree is ARPACK's at ``_SCREE_TOL`` with the kept eigenvectors embedded;
- ``cli/det_dense.csv`` and ``cli/scree_dense.csv``: ``detect --k-max 300`` on
  the n = 300 inputs, which the dense ``eigh`` solves.

The test runs the same commands and compares row order, keys and every
non-float cell (statuses, labels, ids, flags, lambda) exactly, and float
cells within 1e-12 relative. A change that moves outputs on purpose rewrites
the files with

    PYTHONPATH=src python tests/test_golden.py

and records the largest deviation it saw in CHANGES.md.
"""

import contextlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

from netreg.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
KINDS = ("network_ablation", "coef_structure", "misspecification")
CLI_OUTPUTS = ("sim.txt", "det.csv", "scree.csv", "fit.json", "fitted.csv", "wald.csv", "nc.json")
DETECT_OUTPUTS = ("det_2000.csv", "scree_2000.csv", "det_dense.csv", "scree_dense.csv")
OUTPUTS = [f"{kind}/{table}" for kind in KINDS for table in ("raw.csv", "summary.csv")] + [
    f"cli/{name}" for name in CLI_OUTPUTS + DETECT_OUTPUTS
]
INPUTS = ("net.txt", "membership.csv", "x.csv", "y.csv")
_RTOL = 1e-12
_N, _K = 300, 4
_BLOCK_PROBS = (np.full((_K, _K), 0.1) + 0.4 * np.eye(_K)).tolist()


def write_inputs(directory: Path) -> None:
    """The CLI's inputs, drawn with numpy alone so that no netreg change moves them.

    A planted 4-block network on 300 nodes as an edge list, its labels, x, and
    y = ((Z beta Z^T) * A) x + 0.5 noise, with A's unit diagonal.
    """
    rng = np.random.default_rng(2024)
    labels = rng.integers(0, _K, size=_N)
    upper = np.triu(rng.random((_N, _N)) < np.array(_BLOCK_PROBS)[labels][:, labels], k=1)
    A = upper + upper.T + np.eye(_N)
    x = rng.standard_normal(_N)
    beta = rng.standard_normal((_K, _K))
    y = (A * beta[labels][:, labels]) @ x + 0.5 * rng.standard_normal(_N)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "net.txt").write_text("".join(f"{i} {j}\n" for i, j in np.argwhere(upper)))
    (directory / "membership.csv").write_text(
        "node_id,label\n" + "".join(f"{i},{k}\n" for i, k in enumerate(labels.tolist()))
    )
    for name, values in (("x", x), ("y", y)):
        (directory / f"{name}.csv").write_text(name + "\n" + "".join(f"{v!r}\n" for v in values.tolist()))


def generate(out: Path) -> None:
    """Write every file of OUTPUTS under ``out``, from the committed inputs."""
    inputs = GOLDEN / "inputs"
    data = ["--x", inputs / "x.csv", "--y", inputs / "y.csv", "--network", inputs / "net.txt"]
    cli = out / "cli"
    cli.mkdir(parents=True)
    commands = [
        ["experiment", "--config", CONFIGS / f"{kind}_full.json", "--n-grid", "100,300",
         "--replicates", "3", "--out", out / kind]
        for kind in KINDS
    ] + [
        ["simulate-sbm", "--n", _N, "--block-probs", json.dumps(_BLOCK_PROBS), "--seed", 0,
         "--out", cli / "sim.txt"],
        ["detect", "--network", inputs / "net.txt", "--n", _N, "--k", _K, "--seed", 0,
         "--out", cli / "det.csv", "--scree-out", cli / "scree.csv"],
        ["fit", *data, "--membership", inputs / "membership.csv", "--out", cli / "fit.json",
         "--r2", "--fitted-out", cli / "fitted.csv"],
        ["infer", *data, "--membership", inputs / "membership.csv", "--hc-variant", "HC3",
         "--out", cli / "wald.csv"],
        ["netcoh", *data, "--lam", "1.0", "--out", cli / "nc.json"],
        ["simulate-sbm", "--n", 2000, "--block-probs", json.dumps(_BLOCK_PROBS), "--seed", 0,
         "--out", out / "sim_2000.txt"],
        ["detect", "--network", out / "sim_2000.txt", "--n", 2000, "--k", _K, "--seed", 0,
         "--out", cli / "det_2000.csv", "--scree-out", cli / "scree_2000.csv"],
        ["detect", "--network", inputs / "net.txt", "--n", _N, "--k-max", _N, "--seed", 0,
         "--out", cli / "det_dense.csv", "--scree-out", cli / "scree_dense.csv"],
    ]
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([str(arg) for arg in argv]) == 0, argv


def _cells(path: Path) -> list:
    """(where, value) of every cell: CSV and text cells as strings, JSON leaves as parsed."""
    if path.suffix != ".json":
        rows = [line.split(",") for line in path.read_text().splitlines()]
        return [(f"line {i + 1}, cell {j + 1}", c) for i, row in enumerate(rows) for j, c in enumerate(row)]
    cells = []

    def walk(where, value):
        if isinstance(value, dict):
            for key, item in value.items():
                walk(f"{where}.{key}", item)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                walk(f"{where}[{i}]", item)
        else:
            cells.append((where, value))

    walk("", json.loads(path.read_text()))
    return cells


def _float(where: str, value):
    """The value of a float cell, or None for a cell compared exactly (ints, text and lambda)."""
    if isinstance(value, float):
        return None if where.endswith(".lambda") else value
    if not isinstance(value, str):
        return None
    try:
        int(value)
        return None
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return None


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    generate(out)
    return out


def test_inputs_are_reproducible(tmp_path):
    write_inputs(tmp_path)
    for name in INPUTS:
        assert (tmp_path / name).read_bytes() == (GOLDEN / "inputs" / name).read_bytes(), name


@pytest.mark.parametrize("name", OUTPUTS)
def test_output_matches_golden(generated, name):
    got, want = _cells(generated / name), _cells(GOLDEN / name)
    assert [where for where, _ in got] == [where for where, _ in want], f"{name}: rows or keys differ"
    for (where, g), (_, w) in zip(got, want):
        g_float, w_float = _float(where, g), _float(where, w)
        if g_float is None or w_float is None:
            assert g == w, f"{name} {where}: {g!r}, golden {w!r}"
        elif not (g_float == w_float or (math.isnan(g_float) and math.isnan(w_float))):
            deviation = abs(g_float - w_float) / max(abs(g_float), abs(w_float))
            assert deviation <= _RTOL, f"{name} {where}: {g!r}, golden {w!r} ({deviation:.3g} relative)"


if __name__ == "__main__":
    write_inputs(GOLDEN / "inputs")
    with tempfile.TemporaryDirectory() as scratch:
        generate(Path(scratch))
        for name in OUTPUTS:
            (GOLDEN / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(Path(scratch) / name, GOLDEN / name)
