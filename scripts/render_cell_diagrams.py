#!/usr/bin/env python3
"""Render the rank-2 antispherical cell diagrams as SVG files.

Produces one picture per type at the default trusted bounds; these are the
pictures the cell partition is validated against (4 colored regions for C2,
5 for G2, gray near the truncation boundary).
"""

import argparse
import pathlib
import sys
import warnings

from heckecells.cells import right_cells
from heckecells.diagram import render_cell_diagram
from heckecells.hecke import build_context

JOBS = [
    ("A2", 7, 20, 6),
    ("B2", 7, 20, 6),
    ("C2", 7, 20, 6),
    ("G2", 11, 24, 8),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="diagrams", help="output directory")
    args = parser.parse_args()
    warnings.simplefilter("ignore")
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for type_str, p, bound, margin in JOBS:
        _, aw, _, _, provider = build_context(type_str)
        part = right_cells(aw, bound, margin, provider)
        svg = render_cell_diagram(aw, part, p)
        path = outdir / f"cells_{type_str}_p{p}_L{bound}.svg"
        path.write_text(svg)
        print(
            f"{type_str}: {sum(part.trusted)} trusted cells of "
            f"{len(part.cells)} components -> {path}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
