"""Record the reference output digests into golden.json.

    PYTHONPATH=src python3 bench/record_golden.py

Run only on a library whose outputs are known to be right (the digests were
recorded from the seed library); the benchmark treats any difference from
these digests as a wrong answer.
"""

from __future__ import annotations

import json
import os
import warnings

from workloads import BENCH_DIR, CellsFrontier, QueryMix, TableRoundTrip


def main():
    warnings.simplefilter("ignore")
    golden = {}
    for cls in (CellsFrontier, TableRoundTrip):
        golden[cls.name] = {}
        for size in ("full", "smoke"):
            workload = cls(size, 0, {})
            workload.setup()
            golden[cls.name][size] = workload.record()
    mix = QueryMix("full", 0, {})
    mix.setup()
    golden[mix.name] = mix.record()
    with open(os.path.join(BENCH_DIR, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
