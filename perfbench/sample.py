"""One benchmark sample, run in a fresh interpreter.

Usage: ``python3 perfbench/sample.py SPEC.json OUT.json``

The spec names the source tree, the program workload, the design
points, whether to trace, and the orchestrator's launch timestamp
(``time.monotonic()``, a system-wide clock) so set-up time counts from
before interpreter start.  The sample evaluates every point once
through ``repro.experiments.common.evaluate_workload`` and writes its
timings, result documents, work counts and (traced) layer metrics to
``OUT.json``.  The DSE disk tier, if any, comes from the environment
(``REPRO_DSE_CACHE``) the orchestrator sets.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from typing import Any, Dict, List, Optional

from spans import SpanRecorder, instrument


def build_point(p: Dict[str, Any]):
    """A ``DesignPoint`` from one point dict of the spec."""
    from repro.baselines.accelerators import baseline_config, paired_crophe
    from repro.experiments.common import DesignPoint

    base = baseline_config("SHARP") if p["hw"] == "SHARP" else (
        paired_crophe("SHARP"))
    fields = {k: v for k, v in p.items() if k not in ("hw", "sram_mb")}
    return DesignPoint(hw=base.with_sram_mb(p["sram_mb"]), **fields)


def cold_problems() -> List[str]:
    """Why the process is not cold: a warm plan memo or DSE cache."""
    from repro.dse.cache import CACHE
    from repro.sched.plan_memo import MEMO

    out = []
    if any(MEMO.snapshot().values()):
        out.append(f"plan memo not cold: {MEMO.snapshot()}")
    if any(CACHE.stats.values()):
        out.append(f"DSE cache not cold: {CACHE.stats}")
    return out


def work_counts(rec: SpanRecorder) -> Dict[str, int]:
    """Counts the cold-is-cold self-check compares between samples."""
    from repro.sched.plan_memo import MEMO

    snap = MEMO.snapshot()
    return {
        "searches": rec.counts.get("searches", 0),
        "memo_miss": snap["memo_miss"],
    }


def run_sample(spec: Dict[str, Any], rec: SpanRecorder,
               setup_only: bool = False) -> Dict[str, Any]:
    """Evaluate the spec's points once; the timed section of a sample.

    ``setup_only`` stops at the first timed call and reports set-up time
    alone.
    """
    from repro.experiments import common
    from repro.fhe.params import parameter_set
    from repro.sched.serialize import eval_result_to_doc

    problems = cold_problems()
    before = work_counts(rec)
    points = [build_point(p) for p in spec["points"]]
    params = parameter_set("SHARP")
    outcomes: List[Any] = []
    setup_s = time.monotonic() - spec["launched_at"]
    if setup_only:
        return {"setup_s": setup_s}
    t0 = time.perf_counter()
    for point in points:
        try:
            outcomes.append(
                common.evaluate_workload(point, spec["workload"], params))
        except Exception as exc:  # reported as a failed point
            outcomes.append(exc)
    wall_s = time.perf_counter() - t0
    results = [
        {"error": f"{type(o).__name__}: {o}"} if isinstance(o, Exception)
        else {"doc": eval_result_to_doc(o)}
        for o in outcomes
    ]
    counts = {k: v - before[k] for k, v in work_counts(rec).items()}
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "results": results,
        "counts": counts,
        "cold_problems": problems,
    }


def _cache_size(root: Optional[str]) -> Dict[str, float]:
    files = size = 0
    if root:
        for dirpath, _, names in os.walk(root):
            for name in names:
                files += 1
                size += os.path.getsize(os.path.join(dirpath, name))
    return {"dse.disk_mb": size / 2 ** 20, "dse.files": files}


def layer_metrics(rec: SpanRecorder, wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of a traced sample (self seconds and work)."""
    from repro.dse.cache import CACHE
    from repro.obs.metrics import REGISTRY
    from repro.sched.plan_memo import MEMO

    def counter(name: str) -> float:
        entry = REGISTRY.snapshot().get(name)
        return float(entry["value"]) if entry else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    selfs = rec.self_times()

    def self_s(name: str) -> float:
        return selfs.get(name, (0.0, 0))[0]

    def calls(name: str) -> float:
        return float(selfs.get(name, (0.0, 0))[1])

    memo = MEMO.snapshot()
    memo_hits = memo["memo_hit"] + memo["disk_hit"]
    windows = counter("sched.windows_explored")
    search_s = self_s("sched.search") + self_s("baselines.mad")
    steps = float(rec.counts.get("sim.steps", 0))
    out = {
        "experiments.points": calls("experiments.point"),
        "experiments.variants": calls("experiments.variant"),
        "passes.lower.s": self_s("passes.lower"),
        "passes.lower.calls": calls("passes.lower"),
        "passes.rewrite.s": self_s("passes.rewrite"),
        "passes.memo_hit_ratio": ratio(
            counter("passes.memo.hits"),
            counter("passes.memo.hits") + counter("passes.memo.misses")),
        "passes.ops_out": float(rec.counts.get("passes.ops_out", 0)),
        "workloads.build.s": self_s("workloads.build"),
        "analysis.lower_verify.s": self_s("analysis.lower_verify"),
        "analysis.sched_verify.s": self_s("analysis.sched_verify"),
        "sched.search.s": self_s("sched.search"),
        "sched.search.calls": calls("sched.search"),
        "sched.windows": windows,
        "sched.windows_per_s": ratio(windows, search_s),
        "sched.memo_hit_ratio": ratio(memo_hits,
                                      memo_hits + memo["memo_miss"]),
        "sched.degraded": counter("sched.degraded_fallbacks"),
        "sched.replay.s": self_s("sched.replay"),
        "sched.replay.calls": calls("sched.replay"),
        "sched.from_doc.s": self_s("sched.from_doc"),
        "sched.to_doc.s": self_s("sched.to_doc"),
        "baselines.mad.s": self_s("baselines.mad"),
        "sim.run.s": self_s("sim.run"),
        "sim.run.calls": calls("sim.run"),
        "sim.map.s": self_s("sim.map"),
        "sim.steps": steps,
        "sim.steps_per_s": ratio(steps, rec.total_time("sim.run")),
        "dse.fingerprint.s": self_s("dse.fingerprint"),
        "dse.get.s": self_s("dse.get"),
        "dse.get.calls": calls("dse.get"),
        "dse.put.s": self_s("dse.put"),
        "dse.put.calls": calls("dse.put"),
        "dse.hit_ratio": ratio(
            CACHE.stats["hits"], CACHE.stats["hits"] + CACHE.stats["misses"]),
        "trace.covered_frac": ratio(
            sum(seconds for seconds, _ in selfs.values()), wall_s),
    }
    out.update(_cache_size(CACHE.root))
    return out


def main(argv: List[str]) -> int:
    with open(argv[1]) as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    rec = instrument(spec["trace"])
    if spec["trace"]:
        from repro.obs.metrics import REGISTRY

        REGISTRY.enable()
    out = run_sample(spec, rec, setup_only=spec.get("setup_only", False))
    if "wall_s" in out and spec["trace"]:
        out["nesting_ok"] = rec.nesting_ok()
        out["layers"] = layer_metrics(rec, out["wall_s"])
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(argv[2], "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    code = main(sys.argv)
    # Skip interpreter teardown: freeing the evaluated graphs takes
    # seconds and is no part of what a sample measures.
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
