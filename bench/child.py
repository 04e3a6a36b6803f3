"""One measured run of one workload, in its own process (started by run.py).

Prints a single JSON line: the set-up time and, unless ``--setup-only``,
the pass times, operation latencies and check outcomes.  Times are scaled
to a nominal host speed (see SpeedProbe); raw ones are kept alongside.
With ``--trace 1`` the first half of the time runs untraced and the second
half traced, so the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import signal
import statistics
import sys
import time
import warnings
from collections import Counter

from tracer import Tracer
from workloads import FAILED, OK, WORKLOADS, load_golden


def _reference_loop():
    d = {}
    for i in range(20000):
        k = (i & 1023, i % 7)
        d[k] = d.get(k, 0) + i
    return d


class SpeedProbe:
    """Host-speed reference: a fixed pure-Python loop timed every INTERVAL_S.

    The host's speed drifts by tens of percent within seconds to minutes,
    and the library (pure Python) slows down with this loop.  A timer signal
    runs the loop in the main thread, also in the middle of long operations;
    the time it takes is subtracted from the operation.  Every time is then
    multiplied by NOMINAL_S / (median loop time while it ran), which reads as
    seconds on a host at the nominal speed.  The loop never touches
    heckecells, so a change to the library moves scaled times in the same
    proportion as raw ones.  Per-layer self times include the ticks that
    fired inside a span (about 2 % of the time).
    """

    NOMINAL_S = 0.0058  # median loop time where the benchmark was defined
    INTERVAL_S = 0.25

    def __init__(self):
        self.ticks: list[tuple[float, float]] = []  # (start, loop seconds)
        self.stolen = 0.0  # seconds spent in timer ticks

    def sample(self):
        t0 = time.perf_counter()
        _reference_loop()
        self.ticks.append((t0, time.perf_counter() - t0))

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        try:
            self.sample()
        except RecursionError:  # fired at the recursion limit: skip this tick
            pass
        self.stolen += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the median loop time of the ticks around [start, end]."""
        lo = bisect.bisect_left(self.ticks, (start - self.INTERVAL_S,))
        hi = bisect.bisect_left(self.ticks, (end + self.INTERVAL_S,))
        window = self.ticks[lo:hi] or self.ticks[-2:]
        return self.NOMINAL_S / statistics.median(d for _, d in window)

    def speed(self) -> float:
        return self.NOMINAL_S / statistics.median(d for _, d in self.ticks)


class Phase:
    """Closed-loop passes over a workload's operations until a deadline."""

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.pass_walls: list[float] = []  # scaled
        self.raw_walls: list[float] = []
        self.latencies: list[float] = []  # scaled
        self.raw_latencies: list[float] = []
        self.attempted = self.failed = self.wrong = 0
        self.messages: Counter = Counter()

    def run(self, workload, seconds: float, tracer: "Tracer | None" = None):
        probe = self.probe
        spans = []  # (pass number, start, end) of every operation
        start = time.perf_counter()
        probe.sample()
        # at least one pass; another only while it should end near the deadline
        while not self.raw_walls or (
            time.perf_counter() - start + statistics.fmean(self.raw_walls) / 2 < seconds
        ):
            gc.collect()  # start every pass from the same heap state
            wall = 0.0
            for op in workload.pass_ops():
                if tracer:
                    tracer.paused[0] = False
                stolen = probe.stolen
                t0 = time.perf_counter()
                try:
                    out, error = op.call(), None
                except Exception as exc:  # an escaping exception is a failed operation
                    out, error = None, exc
                t1 = time.perf_counter()
                latency = t1 - t0 - (probe.stolen - stolen)
                if tracer:
                    tracer.paused[0] = True
                    if op.cli:
                        tracer.cli_outcome(out if error is None else None)
                    tracer.after_op()
                spans.append((len(self.raw_walls), t0, t1))
                self.raw_latencies.append(latency)
                wall += latency
                self.attempted += 1
                if error is not None:
                    status, message = FAILED, f"{op.label[:80]}: {type(error).__name__} escaped"
                else:
                    status, message = op.check(out)
                out = None  # free the output before the next operation
                if status != OK:
                    self.failed += 1
                    self.wrong += status != FAILED
                    self.messages[message] += 1
            self.raw_walls.append(wall)
        probe.sample()
        self.pass_walls = [0.0] * len(self.raw_walls)
        for (k, t0, t1), raw in zip(spans, self.raw_latencies[-len(spans):]):
            scaled = raw * probe.scale(t0, t1)
            self.latencies.append(scaled)
            self.pass_walls[k] += scaled


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--size", default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="file for the coarse span records")
    args = ap.parse_args(argv)

    warnings.simplefilter("ignore")  # as heckecells.cli.main does
    workload = WORKLOADS[args.workload](args.size, args.seed, load_golden())
    with SpeedProbe() as probe:
        result = measure(workload, args, probe)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def measure(workload, args, probe: SpeedProbe) -> dict:
    probe.sample()
    stolen = probe.stolen
    t0 = time.perf_counter()
    workload.setup()
    t1 = time.perf_counter()
    probe.sample()
    raw_setup = t1 - t0 - (probe.stolen - stolen)
    result = {"setup_s": raw_setup * probe.scale(t0, t1), "raw_setup_s": raw_setup}
    if args.setup_only:
        return result

    if not args.trace:
        phase = Phase(probe)
        phase.run(workload, args.seconds)
        phases = [phase]
    else:
        untraced, traced = Phase(probe), Phase(probe)
        untraced.run(workload, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        if hasattr(workload, "contexts"):
            tracer.contexts = workload.contexts()
        t0 = time.perf_counter()
        traced.run(workload, args.seconds / 2, tracer)
        speed = probe.scale(t0, time.perf_counter())
        phases = [untraced, traced]
        layers = tracer.metrics(len(traced.pass_walls), speed)
        layers["trace.overhead_frac"] = (
            statistics.median(traced.pass_walls) / statistics.median(untraced.pass_walls) - 1.0
        )
        result["layers"] = layers
        if args.spans:
            os.makedirs(os.path.dirname(args.spans), exist_ok=True)
            with open(args.spans, "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")

    # after measuring and outside the trace: the known-defect inputs
    defects = workload.defect_probe() if hasattr(workload, "defect_probe") else []
    if args.trace:
        result["layers"]["cli.defect_escapes"] = len(defects)
    result.update(
        defects=defects,
        pass_walls=[w for ph in phases for w in ph.pass_walls],
        raw_walls=[w for ph in phases for w in ph.raw_walls],
        latencies=[x for ph in phases for x in ph.latencies],
        speed=probe.speed(),
        attempted=sum(ph.attempted for ph in phases),
        failed=sum(ph.failed for ph in phases),
        wrong=sum(ph.wrong for ph in phases),
        messages=sum((ph.messages for ph in phases), Counter()).most_common(20),
    )
    return result


if __name__ == "__main__":
    sys.exit(main())
