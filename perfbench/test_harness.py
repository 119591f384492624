"""Smoke test of the benchmark harness on a tiny point set.

Run from the repository root: ``python3 -m pytest perfbench/test_harness.py``

The tiny workload is the MAD and Base rungs of the ladder at the
default SRAM size, whose expected results are already in
``expected.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import points as P  # noqa: E402
import run as R  # noqa: E402
import spans as S  # noqa: E402

TINY_RUNGS = (P.LADDER[1], P.LADDER[2])
TINY_POINTS = [dict(rung, sram_mb=45.0) for rung in TINY_RUNGS]


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(P.WORKLOADS, "tiny", {
        "workload": "bootstrapping", "menus": [(45.0,)],
        "rungs": TINY_RUNGS, "tier": "fresh-disk",
    })
    return "tiny"


def _run(name: str, trace: int):
    return R.run(argparse.Namespace(
        workload=name, seed=0, seconds=0.0, trace=trace))


def _check_units(metrics, units):
    assert set(metrics) == set(units)
    for name, metric in metrics.items():
        assert metric["unit"] == units[name], name
        value = metric["value"]
        assert isinstance(value, (int, float)) and value == value, name


def test_end_to_end_metrics_emitted_with_units(tiny):
    out = _run(tiny, trace=0)
    assert (out["correct"], out["attempted"], out["failed"]) == (True, 2, 0)
    _check_units(out["metrics"], R.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_layer_metrics_emitted_with_units(tiny):
    out = _run(tiny, trace=1)
    assert out["correct"]
    _check_units(out["metrics"], R.LAYER_UNITS)
    values = {k: m["value"] for k, m in out["metrics"].items()}
    # MAD searches are attributed to the baseline, not the CROPHE DP.
    assert values["baselines.mad.s"] > 0
    assert values["sched.search.calls"] > 0 and values["sched.windows"] > 0
    assert values["dse.put.calls"] > 0 and values["dse.files"] > 0
    assert values["experiments.points"] == 2
    assert values["trace.covered_frac"] > 0.9


def test_spans_nest_and_self_time_excludes_children():
    rec = S.SpanRecorder()

    def leaf():
        time.sleep(0.02)

    def outer():
        rec.call("leaf", leaf, (), {})
        rec.call("leaf", leaf, (), {})
        time.sleep(0.01)

    rec.call("outer", outer, (), {})
    assert rec.nesting_ok()
    assert [s[1] for s in rec.spans] == [-1, 0, 0]
    selfs = rec.self_times()
    assert selfs["leaf"][1] == 2
    outer_self = selfs["outer"][0]
    assert 0.01 <= outer_self < rec.total_time("outer") - 0.04


def test_cold_check_fires_when_plan_memo_left_warm(monkeypatch):
    """clear_cache() leaves the plan memo warm; the self-check sees it."""
    import sample as SM
    from repro.experiments.common import clear_cache

    monkeypatch.delenv("REPRO_DSE_CACHE", raising=False)
    rec = S.instrument(trace=False)
    spec = {"workload": "bootstrapping", "points": TINY_POINTS,
            "launched_at": time.monotonic()}
    first = SM.run_sample(spec, rec)
    clear_cache()
    second = SM.run_sample(spec, rec)
    assert first["cold_problems"] == []
    assert any("plan memo" in p for p in second["cold_problems"])
    assert second["counts"]["memo_miss"] < first["counts"]["memo_miss"]
    assert R.counts_disagree([first, second])
    with open(os.path.join(HERE, "expected.json")) as handle:
        expected = json.load(handle)
    monkeypatch.setitem(P.WORKLOADS, "tiny", {
        "workload": "bootstrapping", "rungs": TINY_RUNGS})
    assert R.check_sample("tiny", TINY_POINTS, first, expected,
                          None) == ["", ""]
    assert all(R.check_sample("tiny", TINY_POINTS, second, expected, None))


def test_benchmark_json_matches_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(P.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == (
        R.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == (
        R.LAYER_UNITS)


def test_seed_draws_from_menus_and_zero_is_default():
    for name, spec in P.WORKLOADS.items():
        assert P.draw_srams(name, 0) == [m[0] for m in spec["menus"]]
        for seed in range(1, 20):
            drawn = P.draw_srams(name, seed)
            assert drawn == P.draw_srams(name, seed)
            assert all(s in m for s, m in zip(drawn, spec["menus"]))
        keys = {P.point_key(spec["workload"], p)
                for seed in range(20) for p in P.design_points(name, seed)}
        assert keys <= set(P.all_points())
