#!/usr/bin/env python3
"""Dump complete fusion tables for small types and primes as TSV.

Every pair of weights (lambda, mu) in the interior fundamental alcove gets
the rows of its nonzero multiplicities, nu sorted.
"""

import argparse
import sys
import warnings

from heckecells.affine import AffineWeyl
from heckecells.rootdata import build_root_datum
from heckecells.tilting import fundamental_alcove_weights, fusion_rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--type", default="A1")
    parser.add_argument("--p", type=int, default=5)
    args = parser.parse_args()
    warnings.simplefilter("ignore")
    datum = build_root_datum(args.type)
    aw = AffineWeyl(datum)
    alcove = fundamental_alcove_weights(datum, args.p)
    print("lambda\tmu\tnu\tmultiplicity")
    for lam in alcove:
        for mu in alcove:
            for nu, mult in fusion_rows(aw, lam, mu, args.p):
                print("\t".join([",".join(map(str, x)) for x in (lam, mu, nu)] + [str(mult)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
