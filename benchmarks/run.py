#!/usr/bin/env python3
"""netreg benchmark: one workload per process, closed loop, one client.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the operations run untraced for S seconds and the
end-to-end metrics are reported; with ``--trace 1`` the same operations run
untraced for S/2 seconds, again traced, then once under tracemalloc, and the
per-layer metrics are reported. Outputs are checked in both modes, after the
timed phase. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1 when
a correctness check fails and 2 when the package cannot be found.

The package is imported from ``src/`` of the checkout this file sits in.
Working files go to ``.bench_work/`` in that checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tr

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3  # setup_s is the median of this many fresh-process setups
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "setup_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-into", help=argparse.SUPPRESS)  # child process of the setup timing
    return p.parse_args(argv)


def import_package():
    """Import netreg from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "netreg" / "__init__.py").is_file():
        print(f"error: no netreg package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import netreg

    if Path(netreg.__file__).resolve().parent != (SRC / "netreg").resolve():
        print(f"error: imported netreg from {netreg.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def warm_blas() -> None:
    import numpy as np

    a = np.random.default_rng(0).standard_normal((400, 400))
    np.linalg.eigh(a @ a.T)


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def tail(times: list) -> tuple:
    """(percentile, value): the highest percentile with ten ops beyond it.

    With fewer than 20 ops that percentile would fall at or below the median,
    so the slowest op is reported instead, as percentile 100.
    """
    n = len(times)
    ordered = sorted(times)
    if n < 20:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def openblas_info() -> list:
    """Version string and thread count of each OpenBLAS loaded in this process."""
    found = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return found
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {"lib": os.path.basename(path)}
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            try:
                get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}")
                get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
            except AttributeError:
                continue
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            entry["config"] = get_config().decode("ascii", "replace").strip()
            entry["threads"] = int(get_threads())
            break
        found.append(entry)
    return found


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def environment(workload) -> dict:
    import numpy as np
    import scipy

    blas = openblas_info()
    return {
        **workload.environment(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas[0].get("threads") if blas else None,
        "openblas": blas,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
    }


def timed_setups(args, work: Path) -> tuple:
    """Set up in fresh processes; return (median seconds, directory of the last)."""
    times = []
    for r in range(SETUP_REPEATS):
        target = work / f"setup{r}"
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
            "--setup-into", str(target),
        ]
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), target


def run_ops(workload, work: Path, indices, spans=None) -> tuple:
    """Run the given op indices in order; return (op seconds, results)."""
    times, results = [], []
    for i in indices:
        opdir = work / f"op{i}"
        if spans is not None:
            spans.op = i
            root = spans.begin(tr.OP)
        t0 = time.perf_counter()
        raw = workload.run_op(i, opdir)
        times.append(time.perf_counter() - t0)
        if spans is not None:
            spans.end(root)
        results.append(workload.collect(i, opdir, raw))
        shutil.rmtree(opdir)
    return times, results


def run_for(workload, work: Path, seconds: float) -> tuple:
    """Closed loop: start op after op until ``seconds`` have passed."""
    times, results = [], []
    t_start = time.perf_counter()
    i = 0
    while True:
        t, r = run_ops(workload, work, [i])
        times += t
        results += r
        i += 1
        if time.perf_counter() - t_start >= seconds:
            return times, results, time.perf_counter() - t_start


def determinism_problems(first: list, repeat: list) -> list:
    problems = []
    for a, b in zip(first, repeat):
        for name, digest in a.digests.items():
            if b.digests.get(name) != digest:
                problems.append(f"op {a.index}: {name} differs between repeats of the same seed")
    return problems


def measure(workload, args, work: Path) -> dict:
    """Untraced run: the end-to-end metrics."""
    setup_s, setup_dir = timed_setups(args, work)
    warm_blas()
    workload.load(setup_dir, args.seed)
    cpu0 = cpu_seconds()
    times, results, elapsed = run_for(workload, work, args.seconds)
    cpu = cpu_seconds() - cpu0
    problems = workload.check(results)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    pct, tail_s = tail(times)
    metrics = {
        "ops_per_s": len(times) / elapsed,
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail_s,
        "cpu_s_per_op": cpu / len(times),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": 1.0 - failed / attempted,
        "setup_s": setup_s,
    }
    details = {
        "ops": len(times),
        "op_s_tail_percentile": pct,
        "failed_frac": failed / attempted,
        "elapsed_s": elapsed,
        "op_s": times,
    }
    return {"metrics": metrics, "units": END_TO_END_UNITS, "details": details, "problems": problems,
            "attempted": attempted, "failed": failed}


def measure_traced(workload, args, work: Path) -> dict:
    """Traced run: per-layer metrics from spans, against an untraced pass of the same ops.

    The untraced pass comes first, so it also absorbs first-call costs; the
    tracemalloc pass repeats the first op once.
    """
    setup_dir = work / "setup0"
    workload.setup(setup_dir, args.seed)
    warm_blas()
    workload.load(setup_dir, args.seed)
    plain_times, plain, _ = run_for(workload, work, args.seconds / 2.0)
    indices = [r.index for r in plain]
    spans = tr.Tracer()
    with tr.tracing(spans):
        traced_times, traced = run_ops(workload, work, indices, spans=spans)
    tracker = tr.AllocTracker()
    with tr.alloc_tracking(tracker):
        run_ops(workload, work, indices[:1])
    leftovers = tr.leftover_wrappers()
    spans.write(work / "spans.jsonl")
    overhead = sum(traced_times) / sum(plain_times) - 1.0
    values = tr.layer_metrics(spans, tracker.peak_mb, len(indices), overhead)
    units = {name: unit for name, unit, _ in tr.metric_specs()}
    # Every traced op repeats an untraced one: the rerun-determinism check.
    problems = determinism_problems(plain, traced) + workload.check(plain + traced)
    problems += [f"binding left patched after tracing: {name}" for name in leftovers]
    results = plain + traced
    return {"metrics": values, "units": units, "problems": problems,
            "details": {"ops": len(indices), "spans": len(spans.spans)},
            "attempted": sum(r.attempted for r in results), "failed": sum(r.failed for r in results)}


def report(workload_name: str, out: dict, env: dict, trace: int) -> None:
    """Human-readable lines before the final JSON line."""
    print(f"# workload {workload_name}  trace {trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    metrics, units, details = out["metrics"], out["units"], out["details"]
    if trace == 0:
        shown = dict(metrics)
        shown["failed_frac"] = details["failed_frac"]
        units = dict(units, failed_frac="frac")
        for name, value in shown.items():
            extra = ""
            if name == "op_s_tail":
                extra = f"  (p{details['op_s_tail_percentile']:.1f} of {details['ops']} ops)"
            print(f"  {name:<14} {value:>12.6g} {units[name]}{extra}")
    else:
        print(f"  traced ops {details['ops']}, spans {details['spans']}")
        for layer in tr.LAYERS:
            print(
                f"  {layer:<11} self {metrics[layer + '.self_s']:>10.4f} s/op"
                f"  share {100 * metrics[layer + '.share']:6.2f}%"
            )
        print(f"  trace.overhead_frac {metrics['trace.overhead_frac']:+.4f}")
    for problem in out["problems"]:
        print(f"  CHECK FAILED: {problem}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    if args.setup_into:
        warm_blas()
        workload.setup(args.setup_into, args.seed)
        return 0
    if not (args.seconds > 0 and math.isfinite(args.seconds)):
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    out = (measure_traced if args.trace else measure)(workload, args, work)
    env = environment(workload)
    for child in work.iterdir():  # inputs and op outputs; keep only the record files
        if child.is_dir():
            shutil.rmtree(child)
    correct = not out["problems"]
    result = {
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": out["units"][k]} for k, v in out["metrics"].items()},
    }
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "environment": env, "details": out["details"],
                   "problems": out["problems"]}, fh, indent=1)
    report(args.workload, out, env, args.trace)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
