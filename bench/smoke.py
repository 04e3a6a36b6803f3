"""Fast self-check of the benchmark: tiny inputs, the same code paths.

    python3 bench/smoke.py

Runs every workload through run.py with ``--size smoke`` and one second of
measuring, untraced and traced, and asserts that every metric named in
BENCHMARK.json is reported with its unit and that the output check passes.
It also checks BENCHMARK.json against the limits of its format and that a
copy holding only the benchmark files exits with an error and no result.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec: dict):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int)
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    names = [w["name"] for w in spec["workloads"]]
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        names.append(m["name"])
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), m
    assert all(NAME.match(n) for n in names) and len(names) == len(set(names))
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len(json.dumps(spec)) <= 64 * 1024


def run(args: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py")] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_spec(spec)
    for workload in spec["workloads"]:
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            proc = run(["--workload", workload["name"], "--seed", "1", "--seconds", "1",
                        "--trace", trace, "--size", "smoke"])
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, proc.stdout
            assert result["attempted"] >= 1 and result["failed"] == 0, proc.stdout
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, set(got) ^ set(want)
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            print(f"smoke {workload['name']} trace={trace}: ok "
                  f"({result['attempted']} operations, {result['failed']} failed)")

    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run(["--workload", spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and "correct" not in proc.stdout, proc.stdout
    print("smoke benchmark files alone: exits with an error, as it should")
    return 0


if __name__ == "__main__":
    sys.exit(main())
