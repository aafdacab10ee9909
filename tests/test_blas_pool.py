"""numpy's OpenBLAS pool must stay idle during a run (README, "One OpenBLAS pool").

The check runs in a fresh interpreter: the threads that appear while numpy is
imported are its OpenBLAS workers, and their CPU ticks (utime + stime in
/proc/self/task/<tid>/stat) must not grow while an ablation and the CLI's
``detect --scree-out`` (ARPACK at n = 600, k = 20), ``fit``, ``infer`` and
``netcoh`` (the cohesion CV) run. A worker woken by one threaded numpy product spins
for 0.1-0.2 s, so each phase is followed by a 0.3 s pause before its reading.

scipy's pool does the threaded work, and its workers must sleep soon after:
netreg sets OpenBLAS's idle spin (``OPENBLAS_THREAD_TIMEOUT``) before numpy or
scipy loads, unless the user set it, and a worker must gain no more than one
tick while pure Python runs after a threaded ``aggregate``.
"""

import ast
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


def _run_child(code, *args, env_update=None):
    """Run ``code`` in a fresh interpreter that imports this netreg; its last stdout line is JSON."""
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("needs /proc/self/task")
    env = dict(os.environ)
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)  # this process's netreg set it
    env.update(env_update or {})
    src = str(Path(netreg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", code, *args]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_numpy_openblas_pool_stays_idle(tmp_path):
    report = _run_child(_CHILD, str(tmp_path))
    if report["pool"] == 0:
        pytest.skip("importing numpy started no OpenBLAS worker (one CPU or one thread)")
    woken = {name: n for name, n in report["phases"].items() if n}
    assert not woken, f"numpy's OpenBLAS pool gained CPU ticks in {woken}"


_SCIPY_CHILD = r"""
import json, os, time

import numpy
before = set(os.listdir("/proc/self/task"))
import netreg
pool = sorted(set(os.listdir("/proc/self/task")) - before)

from netreg.community import Membership
from netreg.regression import aggregate


def ticks():
    total = 0
    for tid in pool:
        with open(f"/proc/self/task/{tid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])
    return total


n = 1000
rng = numpy.random.default_rng(0)
A = numpy.triu(rng.random((n, n)) < 0.1, 1).astype(float)
A += A.T
x = rng.standard_normal((n, 1))
membership = Membership(labels=numpy.arange(n) % 3, n_communities=3)
time.sleep(0.3)  # the workers spin once after they start
aggregate(A, x, membership)  # one threaded dgemm
start = ticks()
end = time.perf_counter() + 0.3
while time.perf_counter() < end:  # busy pure Python, as between an op's BLAS calls
    pass
report = {
    "pool": len(pool),
    "ticks": ticks() - start,
    "environ": os.environ.get("OPENBLAS_THREAD_TIMEOUT"),
    "seen": netreg._OPENBLAS_THREAD_TIMEOUT,
}
print(json.dumps(report))
"""


def test_scipy_openblas_pool_sleeps_after_a_threaded_call():
    report = _run_child(_SCIPY_CHILD)
    assert report["environ"] == report["seen"] == "16"
    if report["pool"] == 0:
        pytest.skip("importing scipy.linalg started no OpenBLAS worker (one CPU or one thread)")
    # With OpenBLAS's own default (2^28 cycles) the worker gains about 6 ticks here.
    assert report["ticks"] <= 1, f"scipy's OpenBLAS pool spun for {report['ticks']} ticks"


def test_user_openblas_thread_timeout_is_kept():
    report = _run_child(_SCIPY_CHILD, env_update={"OPENBLAS_THREAD_TIMEOUT": "28"})
    assert report["environ"] == report["seen"] == "28"


def _loads_blas(node) -> bool:
    """Whether a top-level statement imports a netreg submodule, numpy or scipy."""
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or node.module.split(".")[0] in ("numpy", "scipy")
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] in ("numpy", "scipy") for alias in node.names)
    return False


def _sets_timeout(node) -> bool:
    """Whether a top-level statement calls os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", ...)."""
    return any(
        isinstance(call, ast.Call)
        and ast.unparse(call.func) == "os.environ.setdefault"
        and isinstance(call.args[0], ast.Constant)
        and call.args[0].value == "OPENBLAS_THREAD_TIMEOUT"
        for call in ast.walk(node)
    )


def test_timeout_is_set_before_numpy_or_scipy_is_imported():
    body = ast.parse(Path(netreg.__file__).read_text(encoding="utf-8")).body
    first_import = next(i for i, node in enumerate(body) if _loads_blas(node))
    setters = [i for i, node in enumerate(body) if _sets_timeout(node)]
    assert setters and setters[0] < first_import, (
        "netreg/__init__.py must set OPENBLAS_THREAD_TIMEOUT before it imports "
        f"a submodule, numpy or scipy (statement {first_import})"
    )
