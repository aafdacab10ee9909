"""Exact bytes of every result file the package writes, on tiny fixed inputs.

One rule holds for all of them: a header line, one comma-joined line per row,
LF line endings, floats as ``repr(float(v))``, missing values as empty cells;
JSON is ``json.dump(obj, indent=2)`` plus a newline.
"""

import math

import numpy as np

from netreg import ExperimentConfig, FitResult, Membership, NetcohFit, ScreeResult
from netreg import inference, simharness
from netreg.simharness import ExperimentRow, run_experiment, write_raw_csv


def test_membership_and_scree_bytes(tmp_path):
    path = tmp_path / "det.csv"
    Membership(labels=np.array([1, 0, 1]), n_communities=2).to_csv(path)
    assert path.read_bytes() == b"node_id,label\n0,1\n1,0\n2,1\n"
    scree = ScreeResult(singular_values=np.array([12.5, 3.0, 0.1]), suggested_k=1, flat_scree=False)
    scree.to_csv(path)
    assert path.read_bytes() == b"index,sigma\n1,12.5\n2,3.0\n3,0.1\n"


def _fit() -> FitResult:
    return FitResult(
        beta=np.array([[0.5, -1.0], [2.0, 0.0]]),
        structure="full",
        membership=Membership(labels=np.array([0, 1, 1]), n_communities=2),
        fitted=np.array([0.1, -2.0, 3.0]),
        residuals=np.array([1.0, -1.0, 3.0]),
        aggregates=np.zeros((3, 2)),
        min_norm=[False, True],
    )


def test_fitted_and_fit_json_bytes(tmp_path):
    path = tmp_path / "fitted.csv"
    _fit().save_fitted_csv(path)
    assert path.read_bytes() == b"node_id,fitted\n0,0.1\n1,-2.0\n2,3.0\n"
    path = tmp_path / "fit.json"
    _fit().save_json(path)
    assert path.read_bytes() == (
        b'{\n  "beta_hat": [\n    [\n      0.5,\n      -1.0\n    ],\n    [\n      2.0,\n'
        b'      0.0\n    ]\n  ],\n  "structure": "full",\n  "min_norm_used": [\n    false,\n'
        b'    true\n  ],\n  "residuals": {\n    "n": 3,\n    "mean": 1.0,\n    "std": 2.0,\n'
        b'    "min": -1.0,\n    "max": 3.0,\n    "sum_sq": 11.0\n  }\n}\n'
    )


def test_netcoh_json_bytes(tmp_path):
    fit = NetcohFit(
        alpha=np.array([0.5, -0.25]),
        beta=1.5,
        lam=0.1,
        cv_curve=[(0.1, 2.0), (1.0, 3.5)],
        notes={"ungrounded_held_out": 0},
    )
    path = tmp_path / "nc.json"
    fit.save_json(path)
    assert path.read_bytes() == (
        b'{\n  "alpha": [\n    0.5,\n    -0.25\n  ],\n  "beta": 1.5,\n  "lambda": 0.1,\n'
        b'  "notes": {\n    "ungrounded_held_out": 0\n  },\n  "cv_curve": [\n    {\n'
        b'      "lambda": 0.1,\n      "cv_error": 2.0\n    },\n    {\n      "lambda": 1.0,\n'
        b'      "cv_error": 3.5\n    }\n  ]\n}\n'
    )


def test_wald_table_bytes(tmp_path):
    nan = math.nan
    table = inference.TestTable(
        cells=[
            inference.TestCell(0, 0, 1.5, 0.5, 3.0, 0.0027, "**"),
            inference.TestCell(0, 1, 2.0, 0.0, math.inf, 0.0, "***", flag="zero_se"),
            inference.TestCell(1, 0, nan, nan, nan, nan, "", flag="singular"),
            inference.TestCell(1, 1, nan, nan, nan, nan, "", flag="singular"),
        ],
        variant="HC3",
    )
    path = tmp_path / "wald.csv"
    table.to_csv(path)
    assert path.read_bytes() == (
        b"k1,k2,estimate,se,z,p,stars,variant\n"
        b"0,0,1.5,0.5,3.0,0.0027,**,HC3\n"
        b"0,1,2.0,0.0,inf,0.0,***,HC3\n"
        b"1,0,nan,nan,nan,nan,,HC3\n"
        b"1,1,nan,nan,nan,nan,,HC3\n"
    )


def _rows() -> list:
    def row(est, rep, err_est, err_pred, status, wall, kind="network_ablation", alpha=None):
        cell = (kind, est, "full", 10, 2, alpha)
        return ExperimentRow(*cell, rep, 100 + rep, err_est, err_pred, status, wall)

    # Deliberately unsorted: the writers order rows themselves.
    return [
        row("netcoh", 1, None, None, "LinAlgError", 2e-05),
        row("full", 1, 0.5, 2.5, "ok", 0.0625),
        row("netcoh", 0, None, 0.75, "ok", 1.0),
        row("full", 0, 0.25, 1.5, "ok", 0.125),
        row("full", 0, 1e-300, 3.0, "ok", 0.5, kind="misspecification", alpha=4),
    ]


RAW = (
    b"experiment,estimator,structure,n,K,alpha_n,replicate,seed,err_est,err_pred,status\n"
    b"misspecification,full,full,10,2,4,0,100,1e-300,3.0,ok\n"
    b"network_ablation,full,full,10,2,,0,100,0.25,1.5,ok\n"
    b"network_ablation,full,full,10,2,,1,101,0.5,2.5,ok\n"
    b"network_ablation,netcoh,full,10,2,,0,100,,0.75,ok\n"
    b"network_ablation,netcoh,full,10,2,,1,101,,,LinAlgError\n"
)


def test_raw_csv_bytes(tmp_path):
    path = tmp_path / "raw.csv"
    write_raw_csv(_rows(), path)
    assert path.read_bytes() == RAW


def test_experiment_table_bytes(tmp_path, monkeypatch):
    rows = sorted(_rows(), key=simharness._sort_key)
    monkeypatch.setattr(simharness, "run_rows", lambda config: rows)
    config = ExperimentConfig(kind="network_ablation", n_grid=[10], k_grid=[2], replicates=2)
    run_experiment(config, tmp_path)
    assert (tmp_path / "raw.csv").read_bytes() == RAW
    assert (tmp_path / "summary.csv").read_bytes() == (
        b"experiment,estimator,structure,n,K,alpha_n,replicates,n_failed,"
        b"err_est_mean,err_est_stderr,err_pred_mean,err_pred_stderr\n"
        b"misspecification,full,full,10,2,4,1,0,1e-300,0.0,3.0,0.0\n"
        b"network_ablation,full,full,10,2,,2,0,0.375,0.125,2.0,0.5\n"
        b"network_ablation,netcoh,full,10,2,,2,1,,,0.75,0.0\n"
    )
    assert (tmp_path / "timings.csv").read_bytes() == (
        b"experiment,estimator,structure,n,K,alpha_n,replicate,wall_time\n"
        b"misspecification,full,full,10,2,4,0,0.5\n"
        b"network_ablation,full,full,10,2,,0,0.125\n"
        b"network_ablation,full,full,10,2,,1,0.0625\n"
        b"network_ablation,netcoh,full,10,2,,0,1.0\n"
        b"network_ablation,netcoh,full,10,2,,1,2e-05\n"
    )
