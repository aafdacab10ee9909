import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import netreg
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


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--n", "0"], "--n must be at least 1, got 0"),
        (["--k", "0"], "--k must be in [1, 60] (--n), got 0"),
        (["--k", "61"], "--k must be in [1, 60] (--n), got 61"),
        (["--k-max", "0"], "--k-max must be at least 1, got 0"),
        (["--restarts", "0"], "--restarts must be at least 1, got 0"),
    ],
)
def test_detect_rejects_a_bad_flag_before_writing(workspace, flags, message):
    # A bad flag is named with its range before the scree is solved or written.
    out, scree = workspace["dir"] / "detected.csv", workspace["dir"] / "scree.csv"
    argv = ["detect", "--network", str(workspace["net"]), "--n", "60", "--out", str(out)]
    with pytest.raises(SystemExit, match=f"^netreg detect: {re.escape(message)}$"):
        main(argv + ["--scree-out", str(scree)] + flags)
    assert not out.exists() and not scree.exists()


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


def test_column_csv_rejects_a_second_column(tmp_path):
    # A membership file passed as --x used to give x = the node ids, silently.
    path = tmp_path / "mem.csv"
    path.write_text("node_id,label\n0,0\n1,1\n")
    with pytest.raises(ValueError, match=r"mem\.csv: line 1 has 2 cells, expected one column$"):
        _read_column_csv(path)
    path.write_text("x\n1.0\n2.0,3.0,4.0\n")
    with pytest.raises(ValueError, match=r"mem\.csv: line 3 has 3 cells, expected one column$"):
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


@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_netcoh_rejects_a_non_finite_lam(workspace, lam):
    argv = ["netcoh", "--network", str(workspace["net"]), "--x", str(workspace["x"])]
    argv += ["--y", str(workspace["y"]), "--lam", lam, "--out", str(workspace["dir"] / "nc.json")]
    with pytest.raises(SystemExit, match=f"^netreg netcoh: lam must be finite and positive, got {lam}$"):
        main(argv)
    assert not (workspace["dir"] / "nc.json").exists()


@pytest.mark.parametrize("sizes", ["3,4", "3,-3,10", "0,10", "-2,12", "5.5,4.5", "a,5", "10"])
def test_simulate_sbm_rejects_sizes_not_summing_to_n(tmp_path, sizes):
    # "3,4" used to write a 7-node network; the others leaked numpy's or int()'s message.
    out = tmp_path / "net.txt"
    argv = ["simulate-sbm", "--n", "10", "--block-probs", "[[0.8,0.1],[0.1,0.8]]"]
    argv += [f"--sizes={sizes}", "--out", str(out)]  # "=" lets argparse take "-2,12"
    message = "^netreg simulate-sbm: --sizes must be 2 positive integers summing to --n = 10, got "
    with pytest.raises(SystemExit, match=message + re.escape(repr(sizes)) + "$"):
        main(argv)
    assert not out.exists()


@pytest.mark.parametrize("n", ["0", "1", "-5"])
def test_simulate_sbm_rejects_n_below_k(tmp_path, n):
    # No seed can fill two blocks with fewer than two nodes; "0" and "1" used
    # to blame the seed, and "-5" leaked numpy's "negative dimensions".
    out = tmp_path / "net.txt"
    argv = ["simulate-sbm", f"--n={n}", "--block-probs", "[[0.8,0.1],[0.1,0.8]]", "--out", str(out)]
    message = rf"^netreg simulate-sbm: --n must be at least K = 2, the number of blocks, got {n}$"
    with pytest.raises(SystemExit, match=message):
        main(argv)
    assert not out.exists()


@pytest.mark.parametrize(
    "block_probs, message",
    [
        ("0.5", "--block-probs must be a non-empty K x K matrix of numbers, got shape ()"),
        ("{}", "--block-probs must be a non-empty K x K matrix of numbers, got shape ()"),
        ("[]", "--block-probs must be a non-empty K x K matrix of numbers, got shape (0,)"),
        ("[[NaN]]", "block_probs entries must lie in [0, 1]"),
        ("[[1" + "0" * 400 + "]]", "block_probs entries must lie in [0, 1]"),
    ],
    ids=["scalar", "object", "empty", "nan", "huge_int"],
)
def test_simulate_sbm_rejects_a_bad_block_probs_in_one_line(tmp_path, block_probs, message):
    # These used to end in an IndexError, a TypeError or an OverflowError
    # traceback, numpy's "high <= 0", or "block_probs must be symmetric" for a NaN.
    env = dict(os.environ)
    src = str(Path(netreg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "netreg.cli", "simulate-sbm", "--n", "10"]
    argv += ["--block-probs", block_probs, "--out", "net.txt"]
    done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.splitlines() == [f"netreg simulate-sbm: {message}"]
    assert not (tmp_path / "net.txt").exists()


def test_simulate_sbm_names_itself_on_an_empty_block(tmp_path):
    # Seed 0 draws both of two nodes into one block; the line used to lack the prefix.
    out = tmp_path / "net.txt"
    argv = ["simulate-sbm", "--n", "2", "--block-probs", "[[0.5,0.1],[0.1,0.5]]", "--seed", "0"]
    message = "^netreg simulate-sbm: sampled an empty community; pass --sizes or change --seed$"
    with pytest.raises(SystemExit, match=message):
        main([*argv, "--out", str(out)])
    assert not out.exists()


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


def test_experiment_config_of_another_kind_takes_the_final_kinds_estimators(tmp_path):
    # The file's config used to be built first, filling in its own kind's
    # estimators ("row" among them), which network_ablation then rejected.
    config = Path(__file__).resolve().parents[1] / "configs" / "coef_structure_full.json"
    flags = ["--kind", "network_ablation", "--n-grid", "20", "--k-grid", "2", "--replicates", "1"]
    assert main(["experiment", "--config", str(config), *flags, "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["config"]["estimators"] == ["full", "identity_net", "complete_net", "netcoh"]
    assert meta["config"]["structures"] == ["full", "row", "singleton"]
    assert len((tmp_path / "raw.csv").read_text().splitlines()) == 1 + 4


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


def test_theory_check_command_at_three_blocks(tmp_path, capsys):
    # Every K but 2 used to end in "block_probs must be 3x3": the default B was 2 x 2.
    out = tmp_path / "report.json"
    argv = ["theory-check", "--n", "60", "--k", "3", "--eigen-draws", "5", "--noise-reps", "50"]
    assert main([*argv, "--out", str(out)]) in (0, 1)  # tiny sizes may fail the gates
    report = json.loads(out.read_text())
    assert np.array(report["unbiasedness"]["beta_star"]).shape == (3, 3)
    assert np.array(report["ci_coverage"]["coverage"]).shape == (3, 3)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--eigen-draws", "0"], "n_eigen_draws must be at least 1, got 0"),
        (["--noise-reps", "1"], "n_noise_reps must be at least 2, got 1"),
        (["--noise-reps", "0"], "n_noise_reps must be at least 2, got 0"),
        (["--noise-sd", "nan"], "noise_sd must be finite and positive, got nan"),
        (["--noise-sd", "0"], "noise_sd must be finite and positive, got 0.0"),
        (
            ["--n", "4", "--k", "2"],
            "each of the K = 2 blocks needs more than K nodes for the residual variance, "
            "got n // K = 2",
        ),
        (["--n", "61", "--k", "2"], "theory checks use an exactly balanced design; need K >= 1 and K | n"),
    ],
)
def test_theory_check_rejects_a_degenerate_design_in_one_line(tmp_path, flags, message):
    # These used to end in a ZeroDivisionError traceback, or to pass on a NaN
    # z-score (Python's max(0.0, nan) is 0.0) and write bare NaN to the report.
    # The line names the flags at fault, then gives run_theory_checks' own message.
    out = tmp_path / "report.json"
    argv = ["theory-check", "--n", "60", "--eigen-draws", "5", "--noise-reps", "50", *flags]
    expected = f"{'/'.join(flags[::2])}: {message}"
    with pytest.raises(SystemExit, match=f"^netreg theory-check: {re.escape(expected)}$"):
        main([*argv, "--out", str(out)])
    assert not out.exists()


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


@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
def test_netcoh_rejects_non_finite_column_value(workspace, token):
    # float() parses these; a NaN response used to give a NaN slope and CV curve.
    values = workspace["y"].read_text().splitlines()
    values[5] = token
    workspace["y"].write_text("\n".join(values) + "\n")
    argv = ["netcoh", "--network", str(workspace["net"]), "--x", str(workspace["x"])]
    argv += ["--y", str(workspace["y"]), "--out", str(workspace["dir"] / "nc.json")]
    message = rf"^netreg netcoh: .*y\.csv: line 6: non-finite value '{token}'$"
    with pytest.raises(SystemExit, match=message):
        main(argv)
    assert not (workspace["dir"] / "nc.json").exists()


def test_experiment_bad_config_exits_with_one_line(tmp_path):
    cfg_path = tmp_path / "config.json"
    config = {"kind": "misspecification", "n_grid": [40], "k_grid": [2], "replicas": 2}
    cfg_path.write_text(json.dumps(config))
    with pytest.raises(SystemExit, match=r"unknown config fields \['replicas'\]"):
        main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
    cfg_path.write_text("[1]")
    with pytest.raises(SystemExit, match=r"^bad experiment config: a config must be a JSON object, got list$"):
        main(["experiment", "--config", str(cfg_path), "--replicates", "2", "--out", str(tmp_path / "a")])
    flags = ["--kind", "coef_structure", "--n-grid", "40", "--k-grid", "2"]
    with pytest.raises(SystemExit, match="not estimator 'netcoh'"):
        main(["experiment", *flags, "--set", 'estimators=["netcoh"]', "--out", str(tmp_path / "b")])
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()
    # A value of the wrong type used to build a config whose every row then
    # failed, or ended in a TypeError traceback (replicates=1.5).
    flags = ["--kind", "network_ablation", "--n-grid", "30", "--k-grid", "2"]
    for setting, rule, got in [
        ("replicates=1.5", "a positive int", "1.5"),
        ("n_grid=[30.5]", "a non-empty list of positive ints", "[30.5]"),
        ("k_grid=[0]", "a non-empty list of positive ints", "[0]"),
        ("alpha_grid=[-1]", "a list of non-negative ints", "[-1]"),
        ('noise_sd="x"', "a finite non-negative real", "'x'"),
        ("base_seed=-1", "a non-negative int", "-1"),
        # A string was read name by name, so "full" failed as structure 'f';
        # an empty list ran nothing, and "no" fitted on the planted labels.
        ('structures="full"', "a non-empty list of names", "'full'"),
        ("structures=[]", "a non-empty list of names", "[]"),
        ("estimators=[]", "a non-empty list of names", "[]"),
        ('oracle_membership="no"', "a bool", "'no'"),
    ]:
        field = setting.split("=")[0]
        message = re.escape(f"bad experiment config: {field} must be {rule}, got {got}")
        with pytest.raises(SystemExit, match=f"^{message}$"):
            main(["experiment", *flags, "--set", setting, "--out", str(tmp_path / "c")])
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize(
    "command, short",
    [("fit", "y"), ("fit", "membership"), ("infer", "y"), ("infer", "membership"), ("netcoh", "y")],
)
def test_length_mismatch_names_both_files(workspace, command, short):
    # A short y.csv or membership used to end in "adjacency must be 59x59"
    # or a shape error on "response", naming neither file.
    path = workspace[short]
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    argv = [command, "--network", str(workspace["net"]), "--x", str(workspace["x"])]
    argv += ["--y", str(workspace["y"]), "--out", str(workspace["dir"] / "out")]
    if command != "netcoh":
        argv += ["--membership", str(workspace["membership"])]
    message = rf"^netreg {command}: {re.escape(str(path))} has 59 rows but {re.escape(str(workspace['x']))} has 60$"
    with pytest.raises(SystemExit, match=message):
        main(argv)
    assert not (workspace["dir"] / "out").exists()


_GOOD_INPUTS = {
    "net.txt": "0 1\n1 2\n",
    "x.csv": "x\n1.0\n2.0\n3.0\n",
    "y.csv": "y\n1.0\n0.0\n1.0\n",
    "mem.csv": "node_id,label\n0,0\n1,0\n2,1\n",
}
_DATA = ["--network", "net.txt", "--x", "x.csv", "--y", "y.csv"]
# One malformed input per command, and the file its error line must name.
_BAD_INPUTS = {
    "simulate-sbm": (
        None, ["--n", "3", "--block-probs", "missing.json", "--out", "o.txt"], "missing.json"
    ),
    "detect": (("bad_net.txt", "0 5\n"), ["--network", "bad_net.txt", "--n", "3", "--out", "o.csv"], "bad_net.txt"),
    "fit": (
        ("bad_mem.csv", "node_id,label\n0,0\n1,x\n2,1\n"),
        [*_DATA, "--membership", "bad_mem.csv", "--out", "o.json"],
        "bad_mem.csv",
    ),
    "infer": (
        ("short_y.csv", "y\n1.0\n0.0\n"),
        ["--network", "net.txt", "--x", "x.csv", "--y", "short_y.csv", "--membership", "mem.csv", "--out", "o.csv"],
        "short_y.csv",
    ),
    "netcoh": (None, ["--network", "missing.txt", "--x", "x.csv", "--y", "y.csv", "--out", "o.json"], "missing.txt"),
}


@pytest.mark.parametrize("command", sorted(_BAD_INPUTS))
def test_bad_input_exits_with_one_stderr_line(tmp_path, command):
    # The library's ValueError or OSError used to reach the user as a traceback.
    bad_file, args, named = _BAD_INPUTS[command]
    for name, text in [*_GOOD_INPUTS.items(), *([bad_file] if bad_file else [])]:
        (tmp_path / name).write_text(text)
    env = dict(os.environ)
    src = str(Path(netreg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "netreg.cli", command, *args]
    done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    [line] = done.stderr.splitlines()
    assert line.startswith(f"netreg {command}: ") and named in line
    assert not list(tmp_path.glob("o.*"))
