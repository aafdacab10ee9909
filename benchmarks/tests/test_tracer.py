"""Tests of the benchmark's own tracer.

Run from the repository root: python -m pytest benchmarks/tests -q
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from netreg import cli, regression, simharness  # noqa: E402
from netreg.community import Membership  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_self_time_subtracts_children_on_synthetic_nested_call():
    spans = [
        ["outer", 0.0, 10.0, None, 0],
        ["inner", 1.0, 4.0, 0, 0],
        ["leaf", 2.0, 3.0, 1, 0],
        ["inner", 6.0, 7.0, 0, 0],
        [tr.HOOK, 7.0, 7.5, 0, 0],
    ]
    stats = tr.span_stats(spans)
    assert stats["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 10.0 - 3.0 - 1.0 - 0.5}
    assert stats["inner"] == {"calls": 2, "total_s": 4.0, "self_s": 2.0 + 1.0}
    assert stats["leaf"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        ["outer", 0.0, 10.0, None, 0],
        ["a", 1.0, 5.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],
        ["c", 9.0, 12.0, 0, 0],
    ]
    assert tr.span_stats(spans)["outer"]["self_s"] == pytest.approx(10.0 - 5.0 - 1.0)


def _bindings():
    """Every binding the tracer must patch, read fresh from the modules."""
    return {
        "simharness.fit_full": simharness.fit_full,
        "simharness.predict": simharness.predict,
        "regression.fit_full": regression.fit_full,
        "regression.predict": regression.predict,
        "simharness._FITTERS[full]": simharness._FITTERS["full"],
        "cli._STRUCTURE_FITTERS[full]": cli._STRUCTURE_FITTERS["full"],
        "cli.fit_full": cli.fit_full,
        "cli._cmd_fit": cli._cmd_fit,
    }


def _small_problem():
    rng = np.random.default_rng(0)
    n, K = 60, 2
    labels = np.arange(n) % K
    A = (rng.random((n, n)) < 0.3).astype(float)
    A = np.triu(A, 1)
    A = A + A.T + np.eye(n)
    return A, rng.standard_normal(n), rng.standard_normal(n), Membership(labels=labels, n_communities=K)


def test_tracing_patches_every_binding_and_restores_them_all():
    before = _bindings()
    tracer = tr.Tracer()
    with tr.tracing(tracer):
        during = _bindings()
        assert all(getattr(fn, "bench_wrapper", False) for fn in during.values())
        A, x, y, memb = _small_problem()
        simharness._FITTERS["full"](A, x, y, memb)
    after = _bindings()
    assert all(after[k] is before[k] for k in before)
    assert tr.leftover_wrappers() == []
    names = [s[0] for s in tracer.spans]
    fit_idx = names.index("regression.fit_full")
    # fit_full reaches predict through regression's module global.
    assert any(s[0] == "regression.predict" and s[3] == fit_idx for s in tracer.spans)
    assert tracer.counts["regression.min_norm.solves"] == 2


def test_alloc_tracking_restores_bindings_and_measures_nested_peaks():
    before = _bindings()
    tracker = tr.AllocTracker()
    with tr.alloc_tracking(tracker):
        A, x, y, memb = _small_problem()
        regression.fit_full(A, x, y, memb)
    assert all(_bindings()[k] is v for k, v in before.items())
    assert tr.leftover_wrappers() == []
    assert tracker.peak_mb["regression.fit_full"] >= tracker.peak_mb["regression.predict"] > 0.0


def test_bindings_restored_when_the_traced_call_raises():
    before = _bindings()
    with pytest.raises(ValueError):
        with tr.tracing(tr.Tracer()):
            regression.predict(np.eye(2), np.ones(2), Membership(np.array([0, 1]), 2), np.ones((3, 3)))
    assert all(_bindings()[k] is v for k, v in before.items())
    assert tr.leftover_wrappers() == []


def test_every_metric_name_and_unit_is_well_formed_and_declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    per_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    end_to_end = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    names = [name for name, _ in per_layer + end_to_end] + [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name, unit in per_layer + end_to_end:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
    assert per_layer == [(name, unit) for name, unit, _ in tr.metric_specs()]
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    assert end_to_end == list(run.END_TO_END_UNITS.items())
    assert len(per_layer) <= 128
