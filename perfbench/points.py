"""Workload definitions of the benchmark: seeded design points and checks.

Every workload uses SHARP parameters with CROPHE-36 / SHARP hardware.
The seed only picks each point's SRAM capacity from a small menu; the
first entry of every menu is the default (seed 0).  The program under
test receives the resulting design points and nothing else.

This module imports nothing from the program, so the orchestrator can
run (and refuse to run) without it.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Sequence

#: Ablation ladder of Figure 11 in evaluation order: the baseline
#: accelerator with its own dataflow first, then the rungs on CROPHE
#: hardware (fields mirror ``repro.experiments.common.DesignPoint``).
LADDER = (
    {"label": "SHARP+MAD", "hw": "SHARP", "dataflow": "mad"},
    {"label": "MAD", "hw": "CROPHE", "dataflow": "mad",
     "rotation_strategy": "min-ks"},
    {"label": "Base", "hw": "CROPHE", "use_ntt_decomposition": False,
     "use_hybrid_rotation": False, "rotation_strategy": "plain"},
    {"label": "+NTTDec", "hw": "CROPHE", "use_ntt_decomposition": True,
     "use_hybrid_rotation": False, "rotation_strategy": "plain"},
    {"label": "+HybRot", "hw": "CROPHE", "use_ntt_decomposition": False,
     "use_hybrid_rotation": True},
    {"label": "CROPHE", "hw": "CROPHE"},
)

#: The CROPHE scheduler with hybrid rotation and monolithic NTTs.  At
#: every menu size it gives results identical to the full CROPHE point
#: (whose NTT-split variants never win here, as EXPERIMENTS.md notes)
#: from three r_hyb variants instead of six, which keeps the benchmark
#: short enough to repeat.
HYBROT = (LADDER[4],)

#: name -> workload.  ``menus`` holds one SRAM menu (MB) per position,
#: and each drawn SRAM size is evaluated with every one of ``rungs``
#: (the full ladder also gets the Figure 11 shape checks); ``tier`` is
#: the DSE cache tier a timed sample runs against: ``fresh-disk`` (an
#: empty on-disk tier per sample) or ``warm-disk`` (a tier filled cold
#: during set-up, with its ``result`` entries removed before every
#: sample).
#: Why each was chosen is recorded in BENCHMARK.json.
WORKLOADS: Dict[str, Dict] = {
    "ladder-cold": {
        "workload": "bootstrapping",
        "menus": [(45.0, 44.0, 46.0)],
        "rungs": LADDER,
        "tier": "fresh-disk",
    },
    "replay-warm": {
        "workload": "resnet110",
        "menus": [(45.0, 44.0, 46.0)],
        "rungs": HYBROT,
        "tier": "warm-disk",
    },
}


def draw_srams(name: str, seed: int) -> List[float]:
    """SRAM capacities (MB) of one workload for one seed."""
    menus = WORKLOADS[name]["menus"]
    if seed == 0:
        return [menu[0] for menu in menus]
    rng = random.Random(f"{name}:{seed}")
    return [rng.choice(menu) for menu in menus]


def design_points(name: str, seed: int) -> List[Dict]:
    """The design points (plain dicts) one workload evaluates."""
    rungs = WORKLOADS[name]["rungs"]
    return [dict(rung, sram_mb=sram)
            for sram in draw_srams(name, seed) for rung in rungs]


def point_key(workload: str, point: Dict) -> str:
    """Key of one point's entry in the expected-results file."""
    return f"{workload}/{point['label']}@{point['sram_mb']:g}"


def all_points() -> Dict[str, Dict]:
    """Every point any seed can draw, keyed like the expected file."""
    out: Dict[str, Dict] = {}
    for name, spec in WORKLOADS.items():
        for menu in spec["menus"]:
            for sram in menu:
                for rung in spec["rungs"]:
                    point = dict(rung, sram_mb=sram)
                    out[point_key(spec["workload"], point)] = point
    return out


#: Result-document fields compared against the expected file.
CHECKED_FIELDS = ("seconds", "num_groups", "degraded")
CHECKED_TRAFFIC = ("dram_read_bytes", "dram_write_bytes", "sram_bytes")


def summarize(doc: Dict) -> Dict:
    """The checked fields of one result document."""
    out = {f: doc[f] for f in CHECKED_FIELDS}
    out.update({f: doc["traffic"][f] for f in CHECKED_TRAFFIC})
    return out


def expected_mismatch(workload: str, point: Dict, doc: Dict,
                      expected: Dict) -> str:
    """Why a point's result differs from the expected file ('' if not)."""
    want = expected.get(point_key(workload, point))
    if want is None:
        return f"no expected entry for {point_key(workload, point)}"
    got = summarize(doc)
    bad = [f"{k}={got[k]!r} (want {want[k]!r})" for k in want
           if got.get(k) != want[k]]
    return "; ".join(bad)


def _dram(doc: Dict) -> int:
    traffic = doc["traffic"]
    return traffic["dram_read_bytes"] + traffic["dram_write_bytes"]


def ladder_shape_problems(docs: Dict[str, Dict]) -> List[str]:
    """Fig. 11 shape checks, as EXPERIMENTS.md records them.

    MAD on CROPHE hardware gives no gain over the baseline accelerator
    with MAD, latency never rises down the ladder (2% slack, as the
    repository's own Figure 11 shape tests allow), and DRAM bytes never
    rise down it, falling strictly from MAD to Base.
    """
    problems: List[str] = []
    rungs = [r["label"] for r in LADDER[1:]]
    if any(label not in docs for label in ["SHARP+MAD"] + rungs):
        return ["ladder incomplete"]
    base = docs["SHARP+MAD"]["seconds"]
    if base / docs["MAD"]["seconds"] > 1.1:
        problems.append("MAD on CROPHE hardware beats SHARP+MAD")
    for upper, lower in zip(rungs, rungs[1:]):
        if docs[lower]["seconds"] > docs[upper]["seconds"] * 1.02:
            problems.append(f"latency rises from {upper} to {lower}")
        if _dram(docs[lower]) > _dram(docs[upper]):
            problems.append(f"DRAM bytes rise from {upper} to {lower}")
    if not _dram(docs["Base"]) < _dram(docs["MAD"]):
        problems.append("DRAM bytes do not fall from MAD to Base")
    return problems


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    return math.exp(sum(math.log(v) for v in values) / len(values))
