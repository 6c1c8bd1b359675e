"""Every committed BENCH_*.json agrees with its own recorded runs.

Each file records, per workload and metric, the runs of both sides; the
summary figures beside them (median, quartiles, pair wins, delta and the
parent's quartile spread) are recomputed here from those runs, with
`numpy.percentile`'s linear interpolation as the files' method states.
Recorded figures are rounded to four decimals, and so are the runs they
come from, hence a tolerance of about 1e-4. The claimed workload and
metric must be ones that BENCHMARK.json declares, and a claim recorded
as met must be won on at least nine pairs in ten and in the median by
more than the parent's quartile spread. A record of a change that claims
no gain has `"claimed": null`, and none of its metrics records a claim.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
TOLERANCE = 1.1e-4  # a rounded run, its interpolated quartile, and the rounded figure


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def close(recorded: float, recomputed: float) -> bool:
    return abs(recorded - recomputed) <= TOLERANCE


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_claim_names_a_declared_workload_and_metric(path):
    record, declared = json.loads(path.read_text()), benchmark()
    claimed = record["claimed"]
    if claimed is None:
        metrics = [m for entry in record["workloads"].values() for m in entry["metrics"].values()]
        assert not any("claim_met" in metric for metric in metrics)
        return
    assert claimed["workload"] in {w["name"] for w in declared["workloads"]}
    assert claimed["metric"] in {m["name"] for m in declared["end_to_end"]}
    metric = record["workloads"][claimed["workload"]]["metrics"][claimed["metric"]]
    sign = 1.0 if metric["better"] == "higher" else -1.0
    gain = sign * (metric["change"]["median"] - metric["parent"]["median"])
    met = metric["wins"] >= 0.9 * len(metric["change"]["runs"]) and gain > metric["parent_iqr"]
    assert metric["claim_met"] == met
    if met and "min_gain" in claimed:
        assert sign * metric["delta"] >= claimed["min_gain"]


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_summaries_match_recorded_runs(path):
    record = json.loads(path.read_text())
    declared = {m["name"]: m for m in benchmark()["end_to_end"]}
    for workload, entry in record["workloads"].items():
        pairs = entry["pairs"]
        assert len(entry["seeds"]) == len(entry["first"]) == pairs, workload
        for name, metric in entry["metrics"].items():
            where = f"{path.name} {workload} {name}"
            assert metric["better"] == declared[name]["better"], where
            sides = {}
            for side in ("parent", "change"):
                runs = metric[side]["runs"]
                assert len(runs) == pairs, where
                q1, median, q3 = np.percentile(runs, [25, 50, 75])
                for key, value in (("q1", q1), ("median", median), ("q3", q3)):
                    assert close(metric[side][key], value), (where, side, key, value)
                sides[side] = np.array(runs)
            sign = 1.0 if metric["better"] == "higher" else -1.0
            wins = int(np.sum(sign * (sides["change"] - sides["parent"]) > 0))
            assert metric["wins"] == wins, where
            parent_median = metric["parent"]["median"]
            delta = (metric["change"]["median"] - parent_median) / parent_median
            assert abs(metric["delta"] - delta) <= TOLERANCE, (where, delta)
            iqr = metric["parent"]["q3"] - metric["parent"]["q1"]
            assert close(metric["parent_iqr"], iqr), (where, iqr)
