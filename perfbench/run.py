"""Benchmark of the cold evaluation pipeline (lower, search, simulate, cache).

Usage::

    python3 perfbench/run.py --workload ladder-cold --seed 0 --seconds 10 \
        --trace 0

Workloads are defined in ``points.py``.  Every timed sample runs in a
fresh interpreter (``sample.py``), so each starts with empty in-process
memos; set-up work (interpreter start, imports, the cold fill of
``replay-warm``) is timed separately.  Samples are taken while the
next one, at the mean sample length so far, still ends within
``--seconds``; the first is always taken.  ``--trace 1`` runs one
untraced and one traced sample and reports per-layer metrics instead of
the end-to-end ones.

Every point's result is checked against ``expected.json``; the ladder
must keep its Figure 11 shape, warm replays must equal their cold fill,
cold samples must be cold and repeat their search and memo counts, and
warm replays must not search.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import points as P

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout (listed in .gitignore).
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
#: Orchestrator deadline: leaves room to clean up within 180 s.
DEADLINE_S = 170.0
#: Set-up-only interpreters per run, besides the samples themselves.
SETUP_REPEATS = 4

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "sim_ms_geomean": "ms",
}
LAYER_UNITS = {
    "experiments.points": "count", "experiments.variants": "count",
    "passes.lower.s": "s", "passes.lower.calls": "count",
    "passes.rewrite.s": "s", "passes.memo_hit_ratio": "ratio",
    "passes.ops_out": "count", "workloads.build.s": "s",
    "analysis.lower_verify.s": "s", "analysis.sched_verify.s": "s",
    "sched.search.s": "s", "sched.search.calls": "count",
    "sched.windows": "count", "sched.windows_per_s": "1/s",
    "sched.memo_hit_ratio": "ratio", "sched.degraded": "count",
    "sched.replay.s": "s", "sched.replay.calls": "count",
    "sched.from_doc.s": "s", "sched.to_doc.s": "s", "baselines.mad.s": "s",
    "sim.run.s": "s", "sim.run.calls": "count", "sim.map.s": "s",
    "sim.steps": "count", "sim.steps_per_s": "1/s",
    "dse.fingerprint.s": "s", "dse.get.s": "s", "dse.get.calls": "count",
    "dse.put.s": "s", "dse.put.calls": "count", "dse.hit_ratio": "ratio",
    "dse.disk_mb": "MB", "dse.files": "count",
    "trace.covered_frac": "ratio", "trace.overhead_frac": "ratio",
}


class HarnessError(RuntimeError):
    """The harness itself could not run (no result is printed)."""


def child_env(cache_dir: Optional[str]) -> Dict[str, str]:
    """The sample environment: no REPRO_* knobs except the cache root."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    if cache_dir is not None:
        env["REPRO_DSE_CACHE"] = cache_dir
    return env


class Runner:
    """Launches sample interpreters inside one scratch directory."""

    def __init__(self, work: str, deadline: float):
        self.work = work
        self.deadline = deadline
        self._n = 0

    def sample(self, workload: str, pts: List[Dict], trace: bool = False,
               cache_dir: Optional[str] = None,
               setup_only: bool = False) -> Dict[str, Any]:
        self._n += 1
        spec_path = os.path.join(self.work, f"spec{self._n}.json")
        out_path = os.path.join(self.work, f"out{self._n}.json")
        spec = {"src": SRC, "workload": workload, "points": pts,
                "trace": trace, "setup_only": setup_only}
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise HarnessError("out of time before a sample could start")
        spec["launched_at"] = time.monotonic()
        with open(spec_path, "w") as handle:
            json.dump(spec, handle)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "sample.py"),
                 spec_path, out_path],
                env=child_env(cache_dir), cwd=self.work,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise HarnessError("sample timed out") from None
        out = {"elapsed_s": time.monotonic() - spec["launched_at"]}
        if proc.returncode != 0:
            raise HarnessError(
                f"sample exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        with open(out_path) as handle:
            out.update(json.load(handle))
        return out


def check_sample(name: str, pts: List[Dict], sample: Dict,
                 expected: Dict, fill: Optional[List[Dict]]) -> List[str]:
    """Per-point failure reasons ('' for a good point)."""
    spec = P.WORKLOADS[name]
    workload = spec["workload"]
    reasons = []
    docs = {}
    for point, res in zip(pts, sample["results"]):
        if "error" in res:
            reasons.append(res["error"])
            continue
        doc = res["doc"]
        docs[point["label"]] = doc
        reasons.append(
            ("degraded schedule" if doc["degraded"] else "")
            or P.expected_mismatch(workload, point, doc, expected))
    whole: List[str] = list(sample["cold_problems"])
    if spec["rungs"] is P.LADDER:
        whole += P.ladder_shape_problems(docs)
    if fill is not None:
        if [r.get("doc") for r in sample["results"]] != [
                r.get("doc") for r in fill]:
            whole.append("warm replay differs from its cold fill")
        if sample["counts"]["searches"] != 0:
            whole.append("warm replay ran a DP search")
    if whole:
        reasons = [r or "; ".join(whole) for r in reasons]
    return reasons


def counts_disagree(samples: List[Dict]) -> bool:
    """Cold samples must repeat their search and plan-memo miss counts."""
    return len({json.dumps(s["counts"], sort_keys=True)
                for s in samples}) > 1


def run(args: argparse.Namespace) -> Dict[str, Any]:
    """Take the samples of one run, check them and compute the metrics."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise HarnessError(f"no program sources under {SRC}")
    start = time.monotonic()
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        result = measure(args, Runner(work, start + DEADLINE_S))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run is still using it
    print(f"{args.workload} seed={args.seed} "
          f"srams={P.draw_srams(args.workload, args.seed)} "
          f"took {time.monotonic() - start:.1f}s", file=sys.stderr)
    return result


def measure(args: argparse.Namespace, runner: Runner) -> Dict[str, Any]:
    name = args.workload
    spec = P.WORKLOADS[name]
    workload, tier = spec["workload"], spec["tier"]
    pts = P.design_points(name, args.seed)
    with open(os.path.join(HERE, "expected.json")) as handle:
        expected = json.load(handle)

    fill: Optional[Dict] = None
    setup_base = 0.0
    warm_dir = os.path.join(runner.work, "warm-cache")
    if tier == "warm-disk":
        fill = runner.sample(workload, pts, cache_dir=warm_dir)
        setup_base = fill["elapsed_s"]
    setups: List[float] = []
    if not args.trace and tier != "warm-disk":
        for _ in range(SETUP_REPEATS):
            setups.append(runner.sample(
                workload, pts, setup_only=True)["setup_s"])

    samples: List[Dict] = []
    t0 = time.monotonic()
    while True:
        # A traced run is one untraced sample, then one traced sample.
        trace = bool(args.trace) and len(samples) == 1
        cache_dir = None
        if tier == "fresh-disk":
            cache_dir = os.path.join(runner.work, f"cache{len(samples)}")
        elif tier == "warm-disk":
            cache_dir = warm_dir
            shutil.rmtree(os.path.join(warm_dir, "result"),
                          ignore_errors=True)
        samples.append(
            runner.sample(workload, pts, trace=trace, cache_dir=cache_dir))
        if tier == "fresh-disk":
            shutil.rmtree(cache_dir, ignore_errors=True)
        if args.trace:
            if len(samples) == 2:
                break
            continue
        # Stop before a sample of the mean length would end past
        # --seconds, so a run never overshoots by a whole sample.
        elapsed = time.monotonic() - t0
        if elapsed + elapsed / len(samples) > args.seconds:
            break

    attempted = failed = 0
    for sample in samples:
        reasons = check_sample(name, pts, sample, expected,
                               fill["results"] if fill else None)
        attempted += len(reasons)
        for point, reason in zip(pts, reasons):
            if reason:
                failed += 1
                print(f"FAIL {P.point_key(workload, point)}: {reason}",
                      file=sys.stderr)
    if tier != "warm-disk" and counts_disagree(samples):
        print("FAIL cold samples disagree on work counts: "
              f"{[s['counts'] for s in samples]}", file=sys.stderr)
        failed = attempted

    if args.trace:
        untraced, traced = samples
        if not traced["nesting_ok"]:
            raise HarnessError("traced spans do not nest")
        values = dict(traced["layers"])
        values["trace.overhead_frac"] = (
            traced["wall_s"] / untraced["wall_s"] - 1.0)
        units = LAYER_UNITS
    else:
        setups += [s["setup_s"] for s in samples]
        latencies = [r["doc"]["seconds"] * 1e3
                     for r in samples[0]["results"] if "doc" in r]
        values = {
            "wall_s": statistics.median(s["wall_s"] for s in samples),
            "setup_s": setup_base + statistics.median(setups),
            "peak_rss_mb": statistics.median(s["rss_mb"] for s in samples),
            "sim_ms_geomean": P.geomean(latencies) if latencies else 0.0,
        }
        units = END_TO_END_UNITS
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(P.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
