"""Every BENCH_<n>.json at the repository root has the shape later rounds
read for the trend: for each workload of BENCHMARK.json, every end-to-end
metric with a numeric parent and change median."""

import json
import math
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def test_bench_records_have_every_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    records = sorted(p for p in ROOT.glob("BENCH_*.json") if re.fullmatch(r"BENCH_\d+\.json", p.name))
    assert records
    for path in records:
        rec = json.loads(path.read_text())
        for w in workloads:
            got = rec.get("workloads", {}).get(w, {}).get("metrics", {})
            for m in metrics:
                for side in ("parent", "change"):
                    median = got.get(m, {}).get(side, {}).get("median")
                    assert _is_number(median), f"{path.name}: {w} {m} {side}.median is {median!r}"
