"""Every BENCH_<n>.json at the repository root has the shape later rounds
read for the trend: for each workload of BENCHMARK.json, every end-to-end
metric with a numeric parent and change median.  Every callable the
benchmark's tracer wraps still exists where the tracer looks for it.  Every
workload's recorded output digests still match ``bench/golden.json``."""

import importlib
import importlib.util
import json
import math
import pathlib
import re
import sys

import pytest

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
    tracer = _bench_module("tracer")
    for name, targets in tracer.TIMED.items():
        for module, path in targets:
            owner = importlib.import_module(f"heckecells.{module}")
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            assert attr in vars(owner), f"{name}: heckecells.{module}.{path} is gone"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "workload,size",
    [("cells-frontier", "full"), ("cells-frontier", "smoke"), ("table-roundtrip", "full"),
     ("table-roundtrip", "smoke"), ("query-mix", "full")],
)
def test_workload_outputs_match_golden_digests(workload, size):
    # a byte change in a dump, a CLI record or a query answer would fail the
    # benchmark's run as a wrong answer; here it fails first
    workloads = _bench_module("workloads")
    golden = workloads.load_golden()[workload]
    bench = workloads.WORKLOADS[workload](size, 0, {})
    if workload == "query-mix":
        bench.setup()  # the session's contexts and partitions
        assert bench.record() == golden
    else:
        assert bench.record() == golden[size]
