"""numpy's OpenBLAS pool must stay idle during a run (README, "One OpenBLAS pool").

The check runs in a fresh interpreter: the threads that appear while numpy is
imported are its OpenBLAS workers, and their CPU ticks (utime + stime in
/proc/self/task/<tid>/stat) must not grow while an ablation and the CLI's
``detect --scree-out`` (ARPACK at n = 600, k = 20), ``fit``, ``infer`` and
``netcoh`` (the cohesion CV) run. A worker woken by one threaded numpy product spins
for 0.1-0.2 s, so each phase is followed by a 0.3 s pause before its reading.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import netreg

_CHILD = r"""
import contextlib, io, json, os, sys, time

before = set(os.listdir("/proc/self/task"))
import numpy
pool = sorted(set(os.listdir("/proc/self/task")) - before)

from netreg import cli
from netreg._io import write_csv
from netreg.graph import save_edge_list
from netreg.simharness import ExperimentConfig, gen_instance, run_rows


def ticks():
    total = 0
    for tid in pool:
        with open(f"/proc/self/task/{tid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])
    return total


def ablation(n):
    config = ExperimentConfig(kind="network_ablation", n_grid=[n], k_grid=[3], replicates=2)
    run_rows(config)


def write_inputs(d):
    inst = gen_instance(600, 3, 0.5, seed=5)
    save_edge_list(inst.adjacency, os.path.join(d, "net.txt"))
    for name, values in (("x", inst.covariate), ("y", inst.response)):
        write_csv(os.path.join(d, name + ".csv"), [name], ((v,) for v in values.tolist()))
    inst.membership.to_csv(os.path.join(d, "mem.csv"))


report = {"pool": len(pool), "phases": {}}
if pool:
    d = sys.argv[1]
    files = {"network": "net.txt", "x": "x.csv", "y": "y.csv", "membership": "mem.csv"}
    inputs = [f"--{flag}={os.path.join(d, name)}" for flag, name in files.items()]
    detect = ["detect", inputs[0], "--n=600", "--k=3", f"--out={d}/det.csv", f"--scree-out={d}/scree.csv"]
    phases = [
        ("network_ablation n=300", lambda: ablation(300)),
        ("network_ablation n=1000", lambda: ablation(1000)),
        ("gen_instance", lambda: write_inputs(d)),
        ("cli fit", lambda: cli.main(["fit", *inputs, f"--out={d}/fit.json", "--r2"])),
        ("cli detect --scree-out", lambda: cli.main(detect)),
        ("cli infer", lambda: cli.main(["infer", *inputs, f"--out={d}/wald.csv"])),
        ("cli netcoh", lambda: cli.main(["netcoh", *inputs[:3], f"--out={d}/nc.json"])),
    ]
    time.sleep(0.3)  # the workers spin once after they start
    last = ticks()
    for name, run in phases:
        with contextlib.redirect_stdout(io.StringIO()):
            run()
        time.sleep(0.3)
        now = ticks()
        report["phases"][name] = now - last
        last = now
print(json.dumps(report))
"""


def test_numpy_openblas_pool_stays_idle(tmp_path):
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("needs /proc/self/task")
    env = dict(os.environ)
    src = str(Path(netreg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", _CHILD, str(tmp_path)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    if report["pool"] == 0:
        pytest.skip("importing numpy started no OpenBLAS worker (one CPU or one thread)")
    woken = {name: n for name, n in report["phases"].items() if n}
    assert not woken, f"numpy's OpenBLAS pool gained CPU ticks in {woken}"
