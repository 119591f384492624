"""Regenerate ``expected.json``: the checked fields of every menu point.

Usage: ``python3 perfbench/make_expected.py``

Evaluates every design point any seed can draw (``points.all_points``)
and records latency, group count, degraded flag and DRAM/SRAM bytes.
Run it only when a change is meant to alter results, and say so.
"""

from __future__ import annotations

import json
import os
import sys

import points as P

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from sample import build_point

    from repro.experiments.common import evaluate_workload
    from repro.fhe.params import parameter_set
    from repro.sched.serialize import eval_result_to_doc

    params = parameter_set("SHARP")
    out = {}
    for key, point in sorted(P.all_points().items()):
        workload = key.split("/", 1)[0]
        result = evaluate_workload(build_point(point), workload, params)
        out[key] = P.summarize(eval_result_to_doc(result))
        print(key, out[key]["seconds"], file=sys.stderr, flush=True)
    with open(os.path.join(HERE, "expected.json"), "w") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
