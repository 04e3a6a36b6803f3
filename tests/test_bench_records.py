"""Every BENCH_<n>.json at the repository root has the shape later rounds
read for the trend: for each workload of BENCHMARK.json, every end-to-end
metric with a numeric parent and change median.  Every callable the
benchmark's tracer wraps still exists where the tracer looks for it."""

import importlib
import importlib.util
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


def test_traced_names_exist():
    # the tracer replaces owner.__dict__[attr]; a name moved or inherited
    # would stop the traced run, which tier-1 does not otherwise start
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name, targets in tracer.TIMED.items():
        for module, path in targets:
            owner = importlib.import_module(f"heckecells.{module}")
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            assert attr in vars(owner), f"{name}: heckecells.{module}.{path} is gone"
