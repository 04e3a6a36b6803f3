#!/usr/bin/env python3
"""Dump complete fusion tables for small types and primes as TSV.

Every triple of weights in the interior fundamental alcove gets a row when
its multiplicity is nonzero.
"""

import argparse
import sys
import warnings

from heckecells.affine import AffineWeyl
from heckecells.rootdata import build_root_datum
from heckecells.tilting import fundamental_alcove_weights, fusion_multiplicity


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
            for nu in alcove:
                mult = fusion_multiplicity(aw, lam, mu, nu, args.p)
                if mult:
                    print(
                        "{}\t{}\t{}\t{}".format(
                            ",".join(map(str, lam)),
                            ",".join(map(str, mu)),
                            ",".join(map(str, nu)),
                            mult,
                        )
                    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
