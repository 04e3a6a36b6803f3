"""Command-line front end.

Subcommands: cells, kl, asph, verlinde, alcove, decompose, humphreys,
orbits, plot.  Outputs are deterministic (identical configuration gives
byte-identical output); errors go to stderr as single-line JSON records.

Exit codes: 0 ok, 2 usage, 3 unsupported regime or type, 4 data error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings

from .affine import UnsupportedRegimeError
from .cells import export_partition_json, generation_constants, decompose_fW, right_cells
from .diagram import render_cell_diagram
from .hecke import BasisTableError, build_context
from .orbits import (
    UnsupportedTypeError,
    build_orbit_table,
    closure_order,
    enumerate_orbits,
    humphreys_predict,
)
from .rootdata import CartanType, build_root_datum
from .tilting import fusion_rows

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REGIME = 3
EXIT_DATA = 4

DEFAULT_BOUNDS = {"G2": (24, 8), "A1": (12, 3)}


def _bounds(args) -> tuple[int, int]:
    """--len and --margin, each defaulting per Cartan type."""
    ct = args.type
    L, m = DEFAULT_BOUNDS.get(str(ct), (20, 6) if ct.rank <= 2 else (10, 3))
    if args.length_bound is not None:
        L = args.length_bound
    if args.margin is not None:
        m = args.margin
    return L, m


def _record(args, **fields) -> dict:
    """A JSON record: the schema/type header and the command's fields."""
    return {"schema": 1, "type": str(args.type), **fields}


def _parse_weight(args, s: str) -> tuple[int, ...]:
    coords = tuple(int(x) for x in s.split(","))
    if len(coords) != args.type.rank:
        raise ValueError(f"weight needs {args.type.rank} comma-separated coordinates")
    return coords


# each cmd_* handler maps its arguments to its output: a JSON-able record,
# or the text of a tsv table or an SVG picture; main writes it
def cmd_cells(args) -> dict:
    _, aw, _, _, provider = build_context(args.type, args.basis)
    return export_partition_json(aw, right_cells(aw, *_bounds(args), provider))


def _canonical(args, element) -> dict | str:
    """kl or asph: element(provider, w) is the canonical element of w."""
    _, aw, _, _, provider = build_context(args.type, args.basis)
    w = aw.from_word_str(args.w)
    if not aw.in_affine_weyl(w):
        raise ValueError(f"--w {args.w!r} is not in W: canonical elements are indexed by W, not W_ext")
    h = element(provider, w)
    terms = [
        [aw.to_word(y), h.terms[y].serialize()]
        for y in sorted(h.support(), key=aw.sort_key)
    ]
    if args.format == "tsv":
        return "".join(f"{y}\t{c}\n" for y, c in terms)
    return _record(args, basis_p=provider.p, w=aw.to_word(w), terms=terms)


def cmd_kl(args) -> dict | str:
    return _canonical(args, lambda provider, w: provider.hecke_canonical(w))


def cmd_asph(args) -> dict | str:
    return _canonical(args, lambda provider, w: provider.asph_canonical(w))


def cmd_verlinde(args) -> dict | str:
    _, aw, _, _, _ = build_context(args.type)
    lam, mu = _parse_weight(args, args.lam), _parse_weight(args, args.mu)
    rows = fusion_rows(aw, lam, mu, args.p)
    if args.format == "tsv":
        head = "\t".join(",".join(map(str, x)) for x in (lam, mu))
        return "lambda\tmu\tnu\tmultiplicity\n" + "".join(
            f"{head}\t{','.join(map(str, nu))}\t{m}\n" for nu, m in rows
        )
    return _record(args, p=args.p, **{"lambda": list(lam)}, mu=list(mu),
                   rows=[{"nu": list(nu), "multiplicity": m} for nu, m in rows])


def cmd_alcove(args) -> dict:
    _, aw, _, _, _ = build_context(args.type)
    lam = _parse_weight(args, args.lam)
    alc = aw.alcove_of(lam, args.p)
    return _record(args, p=args.p, **{"lambda": list(lam)}, w=aw.to_word(alc.element),
                   floors=list(alc.floors))


def cmd_decompose(args) -> dict:
    _, aw, _, _, _ = build_context(args.type)
    w = aw.from_word_str(args.w)
    lam, z = decompose_fW(aw, generation_constants(aw), w)
    return _record(args, w=aw.to_word(w), **{"lambda": list(lam)}, z=aw.to_word(z))


def cmd_humphreys(args) -> dict:
    _, aw, _, _, provider = build_context(args.type, args.basis)
    lam = _parse_weight(args, args.lam)
    part = right_cells(aw, *_bounds(args), provider)
    table = build_orbit_table(aw, part)
    return humphreys_predict(aw, part, table, lam, args.p, mode=args.mode).to_json()


def cmd_orbits(args) -> dict:
    datum = build_root_datum(args.type)
    orbits = enumerate_orbits(datum)
    leq = closure_order(datum, orbits)
    return _record(
        args,
        orbits=[
            {
                "name": o.name,
                "dimension": o.dimension,
                "bala_carter": [list(o.bala_carter[0]), list(o.bala_carter[1])],
            }
            for o in orbits
        ],
        closure_leq=None if leq is None else [[int(x) for x in row] for row in leq],
    )


def cmd_plot(args) -> str:
    if args.type.rank != 2:
        raise UnsupportedTypeError("alcove diagrams are drawn for rank-2 types only")
    _, aw, _, _, provider = build_context(args.type, args.basis)
    return render_cell_diagram(aw, right_cells(aw, *_bounds(args), provider), args.p)


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as the one-line JSON usage error."""

    def error(self, message):
        _fail(EXIT_USAGE, "usage", message)
        raise SystemExit(EXIT_USAGE)


def _cartan_type(s: str) -> CartanType:
    try:
        return CartanType.from_string(s)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


# each flag's one definition; a command declares the ones its handler reads
FLAGS = {
    "--p": dict(type=int, required=True, help="the prime p"),
    "--len": dict(type=int, dest="length_bound", help="length bound (default per type)"),
    "--margin": dict(type=int, help="truncation margin (default per type)"),
    "--basis": dict(help="canonical basis table file"),
    "--format": dict(default="json", choices=["json", "tsv"]),
    "--w": dict(required=True, help="reduced word, e.g. s0.s1"),
    "--lambda": dict(required=True, dest="lam", help="weight, e.g. 2,1"),
    "--mu": dict(required=True, help="weight, e.g. 2,1"),
    "--mode": dict(default="absolute", choices=["absolute", "relative"]),
}


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state in it, as every call fills a fresh namespace."""
    parser = _Parser(
        prog="heckecells",
        description="Affine Weyl group cells, canonical bases, tilting "
        "combinatorics and support-variety predictions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, *flags):
        p = sub.add_parser(name, help=help)
        p.add_argument("--type", required=True, type=_cartan_type, help="Cartan type, e.g. C2")
        p.add_argument("--out", help="output path (default stdout)")
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(run=run)

    command("cells", cmd_cells, "right-cell partition", "--len", "--margin", "--basis")
    command("kl", cmd_kl, "canonical basis element of the Hecke algebra",
            "--w", "--basis", "--format")
    command("asph", cmd_asph, "canonical basis element of the antispherical module",
            "--w", "--basis", "--format")
    command("verlinde", cmd_verlinde, "fusion multiplicities in the fundamental alcove",
            "--p", "--lambda", "--mu", "--format")
    command("alcove", cmd_alcove, "alcove of a dominant weight", "--p", "--lambda")
    command("decompose", cmd_decompose, "translation factorization of an fW element", "--w")
    command("humphreys", cmd_humphreys, "support-variety prediction",
            "--p", "--lambda", "--mode", "--len", "--margin", "--basis")
    command("orbits", cmd_orbits, "nilpotent orbits and closure order")
    command("plot", cmd_plot, "SVG alcove diagram colored by cell",
            "--p", "--len", "--margin", "--basis")
    return parser


def _fail(code: int, kind: str, message: str) -> int:
    sys.stderr.write(
        json.dumps({"error": kind, "message": message, "code": code}) + "\n"
    )
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():  # silent regime warnings, for this run only
        warnings.simplefilter("ignore")
        try:
            out = args.run(args)
            text = out if isinstance(out, str) else json.dumps(out, sort_keys=True, indent=2) + "\n"
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
            return EXIT_OK
        except (UnsupportedRegimeError, UnsupportedTypeError) as e:
            return _fail(EXIT_REGIME, "unsupported", str(e))
        except BasisTableError as e:
            return _fail(EXIT_DATA, "table", str(e))
        except (ValueError, OSError) as e:
            return _fail(EXIT_USAGE, "usage", str(e))
        except RecursionError:
            return _fail(EXIT_REGIME, "unsupported", "input too large: recursion limit reached")


if __name__ == "__main__":
    sys.exit(main())
