#!/usr/bin/env python3
"""Report the translation-stabilization data of the antispherical cells.

For each rank-2 type this prints the per-simple-root constants, the observed
stabilization bound over the trusted range, and the size of the finite
generating set of every trusted cell together with the orbit it corresponds
to under the cell dictionary.
"""

import argparse
import sys
import warnings

from heckecells.cells import (
    cell_generators,
    generation_constants,
    observed_stabilization_bound,
    right_cells,
)
from heckecells.hecke import build_context
from heckecells.orbits import build_orbit_table

BOUNDS = {"A2": (20, 6), "B2": (20, 6), "C2": (20, 6), "G2": (24, 8)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--types", nargs="*", default=["A2", "C2", "G2"])
    args = parser.parse_args()
    warnings.simplefilter("ignore")
    for type_str in args.types:
        bound, margin = BOUNDS.get(type_str, (16, 5))
        _, aw, _, _, provider = build_context(type_str)
        consts = generation_constants(aw)
        part = right_cells(aw, bound, margin, provider)
        table = build_orbit_table(aw, part)
        observed = observed_stabilization_bound(aw, consts, part)
        print(f"== {type_str} (L={bound}, margin={margin}) ==")
        print(f"  k = {consts}")
        print(f"  observed stabilization bound: {observed}")
        for cid in part.trusted_cells():
            K = cell_generators(aw, consts, part, cid)
            idx = table.cell_map.get(cid)
            name = "?" if idx is None else table.orbits[idx].name
            members = part.cells[cid]
            print(
                f"  cell {cid} ({name}): {len(members)} members in range, "
                f"|K| = {len(K)}, shortest = {aw.to_word(members[0])}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
