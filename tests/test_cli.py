import json

import numpy as np
import pytest

from netreg.cli import _read_column_csv, main


def _write_column(path, values, header):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for v in values:
            fh.write(f"{v!r}\n")


@pytest.fixture
def workspace(tmp_path):
    """Simulated network plus matching covariate/response/membership files."""
    net = tmp_path / "net.txt"
    memb = tmp_path / "membership.csv"
    rc = main(
        [
            "simulate-sbm",
            "--n",
            "60",
            "--block-probs",
            "[[0.8,0.1],[0.1,0.8]]",
            "--sizes",
            "30,30",
            "--seed",
            "3",
            "--out",
            str(net),
            "--membership-out",
            str(memb),
        ]
    )
    assert rc == 0
    rng = np.random.default_rng(5)
    x = rng.standard_normal(60)
    y = rng.standard_normal(60)
    x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
    _write_column(x_path, x.tolist(), "x")
    _write_column(y_path, y.tolist(), "y")
    return {"dir": tmp_path, "net": net, "membership": memb, "x": x_path, "y": y_path}


def test_simulate_and_detect(workspace, capsys):
    out = workspace["dir"] / "detected.csv"
    scree = workspace["dir"] / "scree.csv"
    rc = main(
        [
            "detect",
            "--network",
            str(workspace["net"]),
            "--n",
            "60",
            "--k-max",
            "8",
            "--out",
            str(out),
            "--scree-out",
            str(scree),
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "suggested K = 2" in printed
    lines = out.read_text().splitlines()
    assert lines[0] == "node_id,label"
    assert len(lines) == 61
    assert scree.read_text().splitlines()[0] == "index,sigma"


def test_fit_and_infer(workspace, capsys):
    fit_json = workspace["dir"] / "fit.json"
    fitted_csv = workspace["dir"] / "fitted.csv"
    rc = main(
        [
            "fit",
            "--network",
            str(workspace["net"]),
            "--x",
            str(workspace["x"]),
            "--y",
            str(workspace["y"]),
            "--membership",
            str(workspace["membership"]),
            "--structure",
            "full",
            "--out",
            str(fit_json),
            "--fitted-out",
            str(fitted_csv),
            "--r2",
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert "err_pred_in_sample" in report and "r2_adj_net" in report
    data = json.loads(fit_json.read_text())
    assert len(data["beta_hat"]) == 2

    wald_csv = workspace["dir"] / "wald.csv"
    rc = main(
        [
            "infer",
            "--network",
            str(workspace["net"]),
            "--x",
            str(workspace["x"]),
            "--y",
            str(workspace["y"]),
            "--membership",
            str(workspace["membership"]),
            "--hc-variant",
            "HC1",
            "--out",
            str(wald_csv),
        ]
    )
    assert rc == 0
    assert wald_csv.read_text().startswith("k1,k2,estimate")
    assert "target" in capsys.readouterr().out


def test_column_csv_rejects_blank_line_between_values(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("x\n1.0\n2.0\n\n")
    assert _read_column_csv(path).tolist() == [1.0, 2.0]
    path.write_text("x\n1.0\n\n2.0\n3.0\n")
    with pytest.raises(ValueError, match="line 3"):
        _read_column_csv(path)


def test_netcoh_command(workspace, capsys):
    out = workspace["dir"] / "netcoh.json"
    rc = main(
        [
            "netcoh",
            "--network",
            str(workspace["net"]),
            "--x",
            str(workspace["x"]),
            "--y",
            str(workspace["y"]),
            "--lam",
            "0.5",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["lambda"] == 0.5
    assert "in-sample MSE" in capsys.readouterr().out


def test_experiment_command(tmp_path, capsys):
    config = {
        "kind": "network_ablation",
        "n_grid": [40],
        "k_grid": [2],
        "replicates": 2,
        "estimators": ["full"],
        "base_seed": 1,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "results"
    rc = main(["experiment", "--config", str(cfg_path), "--out", str(out_dir)])
    assert rc == 0
    assert (out_dir / "raw.csv").exists()
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "meta.json").exists()
    assert "2 rows" in capsys.readouterr().out

    # flag overrides
    out_dir2 = tmp_path / "results2"
    rc = main(
        [
            "experiment",
            "--config",
            str(cfg_path),
            "--replicates",
            "3",
            "--out",
            str(out_dir2),
        ]
    )
    assert rc == 0
    raw = (out_dir2 / "raw.csv").read_text().splitlines()
    assert len(raw) == 4  # header + 3 replicates


def test_experiment_set_overrides(tmp_path):
    config = {
        "kind": "network_ablation",
        "n_grid": [40],
        "k_grid": [2],
        "replicates": 2,
        "estimators": ["full"],
        "base_seed": 1,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "res"
    rc = main(
        [
            "experiment",
            "--config",
            str(cfg_path),
            "--set",
            'estimators=["full","netcoh"]',
            "--set",
            "replicates=1",
            "--out",
            str(out_dir),
        ]
    )
    assert rc == 0
    raw = (out_dir / "raw.csv").read_text().splitlines()
    assert len(raw) == 3  # header + 1 replicate x 2 estimators
    with pytest.raises(SystemExit):
        main(
            [
                "experiment",
                "--config",
                str(cfg_path),
                "--set",
                "bogus_field=1",
                "--out",
                str(tmp_path / "x"),
            ]
        )


def test_experiment_without_config(tmp_path):
    out_dir = tmp_path / "res"
    rc = main(
        [
            "experiment",
            "--kind",
            "misspecification",
            "--n-grid",
            "40",
            "--k-grid",
            "2",
            "--replicates",
            "1",
            "--base-seed",
            "2",
            "--out",
            str(out_dir),
        ]
    )
    assert rc == 0
    assert (out_dir / "raw.csv").exists()


def test_experiment_flags_and_config_build_the_same_config(tmp_path):
    config = {
        "kind": "misspecification",
        "n_grid": [40],
        "k_grid": [2],
        "replicates": 1,
        "base_seed": 2,
        "alpha_grid": [0, 1],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    flags = ["--kind", "misspecification", "--n-grid", "40", "--k-grid", "2"]
    flags += ["--replicates", "1", "--base-seed", "2"]
    runs = {
        "config": ["--config", str(cfg_path)],
        "flags": [*flags, "--set", "alpha_grid=[0,1]"],
    }
    for name, argv in runs.items():
        assert main(["experiment", *argv, "--out", str(tmp_path / name)]) == 0
    metas = [json.loads((tmp_path / name / "meta.json").read_text()) for name in runs]
    assert metas[0]["config_hash"] == metas[1]["config_hash"]
    assert (tmp_path / "config" / "raw.csv").read_bytes() == (
        tmp_path / "flags" / "raw.csv"
    ).read_bytes()
    with pytest.raises(SystemExit, match="bogus_field"):
        main(["experiment", *flags, "--set", "bogus_field=1", "--out", str(tmp_path / "x")])


def test_theory_check_command(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(
        [
            "theory-check",
            "--n",
            "60",
            "--k",
            "2",
            "--eigen-draws",
            "5",
            "--noise-reps",
            "50",
            "--out",
            str(out),
        ]
    )
    assert rc in (0, 1)  # tiny sizes may legitimately fail the gates
    report = json.loads(out.read_text())
    assert "eigenvalue_bound" in report


def test_column_csv_non_numeric_value_names_line(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("x\nabc\n")
    with pytest.raises(ValueError, match=r"x\.csv: line 2: non-numeric value 'abc'"):
        _read_column_csv(path)


def test_simulate_sbm_reports_edge_count(tmp_path, capsys):
    net = tmp_path / "net.txt"
    rc = main(
        ["simulate-sbm", "--n", "40", "--block-probs", "[[0.3]]", "--seed", "2", "--out", str(net)]
    )
    assert rc == 0
    n_lines = len(net.read_text().splitlines())
    assert capsys.readouterr().out == f"wrote {net} ({n_lines} edges, n=40)\n"
