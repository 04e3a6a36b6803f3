"""heckecells benchmark: one command for any subset of the workloads.

    python3 bench/run.py --workload cells-frontier --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 7              # every workload
    python3 bench/run.py --workload query-mix --trace 1       # per-layer table

Run from the repository root; the library is imported from ``src``.  Each
run of a workload is a child process started only after the previous one
ended: a few set-up-only children (the median of their set-up times and the
measuring child's is ``setup_s``), then the measuring child, whose peak RSS
is read with ``os.wait4``.  The children get a pinned environment.

Times are scaled to a nominal host speed (child.SpeedProbe): a timer signal
runs a fixed pure-Python reference loop every 0.25 s, also inside long
operations, and every time is multiplied by (nominal loop time / loop time
while it ran), because the host's speed drifts by tens of percent within
seconds to minutes.  The report also prints the host speed and the
unscaled set-up and pass times.

Standard output: an environment line, one line per metric with its unit,
and, as the last line for each workload, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.
``correct`` is false when an answer differs from the recorded one;
``failed`` also counts operations that raised or exited wrongly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

from tracer import should_move

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("cells-frontier", "table-roundtrip", "query-mix")
SETUP_RUNS = 5  # set-up samples per run, the measuring child included
RUN_LIMIT_S = 170.0  # every child of one workload run ends before this


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HECKE_CELLS_THREADS", None)
    env.update(PYTHONHASHSEED="0", PYTHONPATH=SRC, PYTHONWARNINGS="ignore")
    return env


def run_child(args: list[str], deadline: float) -> "tuple[dict, float]":
    """Run child.py to completion; returns (its JSON result, peak RSS in MiB)."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py")] + args
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE)
    chunks: list[bytes] = []
    reader = threading.Thread(target=lambda: chunks.append(proc.stdout.read()))
    reader.start()
    status, usage = 0, None
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                raise BenchError(f"child {' '.join(args)} exceeded the time limit")
            time.sleep(0.02)
    finally:
        proc.returncode = os.waitstatus_to_exitcode(status)
        reader.join()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(args)} exited with code {proc.returncode}")
    lines = b"".join(chunks).decode("utf-8").strip().splitlines()
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def p90(values: list[float]) -> float:
    # inclusive: with the few operations of a batch workload, interpolate
    # inside the samples instead of extrapolating past the largest
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed), "--size", size]
    setups, raw_setups = [], []
    if not trace:
        for _ in range(SETUP_RUNS - 1):
            res, _ = run_child(common + ["--seconds", "0", "--setup-only"], deadline)
            setups.append(res["setup_s"])
            raw_setups.append(res["raw_setup_s"])
    extra = ["--trace", "1", "--spans", os.path.join(ROOT, ".bench_out", f"spans-{workload}-{seed}.jsonl")] if trace else []
    res, rss_mb = run_child(common + ["--seconds", str(seconds)] + extra, deadline)
    setups.append(res["setup_s"])
    raw_setups.append(res["raw_setup_s"])
    lat = res["latencies"]
    if trace:
        values = dict(res["layers"], fail_frac=res["failed"] / res["attempted"])
        units = layer_units()
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(res["pass_walls"]),
            "query_p50_ms": 1e3 * statistics.median(lat),
            "query_p90_ms": 1e3 * p90(lat),
            "queries_per_s": len(lat) / sum(lat),
            "peak_rss_mb": rss_mb,
        }
        units = end_to_end_units()
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {
        "result": {
            "correct": res["wrong"] == 0,
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": metrics,
        },
        "samples": len(lat),
        "passes": len(res["pass_walls"]),
        "messages": res["messages"],
        "defects": res["defects"],
        "traced": trace,
        "speed": res["speed"],
        "raw": {"setup_s": statistics.median(raw_setups), "wall_s": statistics.median(res["raw_walls"])},
    }


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end_units() -> dict:
    return {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}


def layer_units() -> dict:
    return {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}


def environment(seed: int) -> dict:
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_file):
                with open(ref_file, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    return {
        "python": platform.python_version(),
        "commit": commit,
        "nproc": os.cpu_count(),
        "seed": seed,
        "PYTHONHASHSEED": "0",
    }


def print_report(workload: str, report: dict):
    res = report["result"]
    print(f"== {workload}: {report['passes']} passes, {report['samples']} operations, "
          f"{res['failed']} failed, correct={res['correct']}")
    raw = ", ".join(f"{k} {v:.6g} s" for k, v in report["raw"].items() if k in res["metrics"])
    print(f"   host speed {report['speed']:.3f} x nominal" + (f"; unscaled {raw}" if raw else ""))
    for message, count in report["messages"]:
        print(f"   ! {count} x {message}")
    for message in report["defects"]:
        print(f"   ! {message} (untimed probe, not an operation)")
    for name, m in res["metrics"].items():
        moves = f"  -> {should_move(name)}" if report["traced"] else ""
        print(f"   {name:<40} {m['value']:>14.6g} {m['unit']:<6}{moves}".rstrip())
    print(json.dumps(res))
    sys.stdout.flush()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS + ("all",),
                    help="workload to run (repeatable; default all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs on the same code paths (see smoke.py)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "heckecells", "__init__.py")):
        print("bench: no heckecells sources under src/; run from a repository checkout", file=sys.stderr)
        return 2
    chosen = args.workload or ["all"]
    workloads = WORKLOADS if "all" in chosen else tuple(dict.fromkeys(chosen))
    seconds = args.seconds if args.seconds is not None else _benchmark_json()["run_seconds"]

    print("# env " + json.dumps(environment(args.seed)))
    for workload in workloads:
        try:
            report = measure(workload, args.seed, seconds, bool(args.trace), args.size)
        except BenchError as exc:
            print(f"bench: {workload}: {exc}", file=sys.stderr)
            return 1
        print_report(workload, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
