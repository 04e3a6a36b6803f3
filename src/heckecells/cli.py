"""Command-line front end.

Subcommands: cells, kl, asph, verlinde, alcove, decompose, humphreys,
orbits, plot.  Outputs are deterministic (identical configuration gives
byte-identical output); errors go to stderr as single-line JSON records.

Exit codes: 0 ok, 2 usage, 3 unsupported regime or type, 4 data error.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import dataclass

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
from .rootdata import CartanType
from .tilting import fundamental_alcove_weights, fusion_multiplicity

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REGIME = 3
EXIT_DATA = 4

DEFAULT_BOUNDS = {"G2": (24, 8), "A1": (12, 3)}

# the commands that read --basis and --format; the others reject them
BASIS_COMMANDS = ("cells", "kl", "asph", "humphreys", "plot")
FORMAT_COMMANDS = ("kl", "asph", "verlinde")


@dataclass
class RunConfig:
    cartan_type: str
    p: int = 0
    length_bound: int = 0
    margin: int = 0
    basis_path: "str | None" = None
    out_format: str = "json"
    out_path: "str | None" = None


def _default_bounds(type_str: str, rank: int) -> tuple[int, int]:
    if type_str in DEFAULT_BOUNDS:
        return DEFAULT_BOUNDS[type_str]
    if rank <= 2:
        return (20, 6)
    return (10, 3)


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out_path:
        with open(cfg.out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _parse_weight(s: str, rank: int) -> tuple[int, ...]:
    coords = tuple(int(x) for x in s.split(","))
    if len(coords) != rank:
        raise ValueError(f"weight needs {rank} comma-separated coordinates")
    return coords


def _partition(cfg: RunConfig, aw, provider):
    L, m = cfg.length_bound, cfg.margin
    return right_cells(aw, L, m, provider)


def cmd_cells(cfg: RunConfig) -> int:
    _, aw, _, _, provider = build_context(cfg.cartan_type, cfg.basis_path)
    part = _partition(cfg, aw, provider)
    _emit(cfg, _json_text(export_partition_json(aw, part)))
    return EXIT_OK


def cmd_canonical(cfg: RunConfig, command: str, word: str) -> int:
    """kl (the algebra) or asph (the antispherical module) canonical element."""
    _, aw, _, _, provider = build_context(cfg.cartan_type, cfg.basis_path)
    w = aw.from_word_str(word)
    if command == "kl":
        h = provider.hecke_canonical(w)
    else:
        h = provider.asph_canonical(w)
    terms = [
        [aw.to_word(y), h.terms[y].serialize()]
        for y in sorted(h.support(), key=aw.sort_key)
    ]
    obj = {
        "schema": 1,
        "type": cfg.cartan_type,
        "basis_p": provider.p,
        "w": aw.to_word(w),
        "terms": terms,
    }
    if cfg.out_format == "tsv":
        lines = [f"{y}\t{c}" for y, c in terms]
        _emit(cfg, "\n".join(lines) + "\n")
    else:
        _emit(cfg, _json_text(obj))
    return EXIT_OK


def cmd_verlinde(cfg: RunConfig, lam_s: str, mu_s: str) -> int:
    datum, aw, _, _, _ = build_context(cfg.cartan_type)
    lam = _parse_weight(lam_s, datum.rank)
    mu = _parse_weight(mu_s, datum.rank)
    rows = []
    for nu in fundamental_alcove_weights(datum, cfg.p):
        mult = fusion_multiplicity(aw, lam, mu, nu, cfg.p)
        if mult:
            rows.append((nu, mult))
    if cfg.out_format == "json":
        obj = {
            "schema": 1,
            "type": cfg.cartan_type,
            "p": cfg.p,
            "lambda": list(lam),
            "mu": list(mu),
            "rows": [
                {"nu": list(nu), "multiplicity": m} for nu, m in rows
            ],
        }
        _emit(cfg, _json_text(obj))
    else:
        lines = ["lambda\tmu\tnu\tmultiplicity"]
        for nu, m in rows:
            lines.append(
                "{}\t{}\t{}\t{}".format(
                    ",".join(map(str, lam)),
                    ",".join(map(str, mu)),
                    ",".join(map(str, nu)),
                    m,
                )
            )
        _emit(cfg, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_alcove(cfg: RunConfig, lam_s: str) -> int:
    datum, aw, _, _, _ = build_context(cfg.cartan_type)
    lam = _parse_weight(lam_s, datum.rank)
    alc = aw.alcove_of(lam, cfg.p)
    obj = {
        "schema": 1,
        "type": cfg.cartan_type,
        "p": cfg.p,
        "lambda": list(lam),
        "w": aw.to_word(alc.element),
        "floors": list(alc.floors),
    }
    _emit(cfg, _json_text(obj))
    return EXIT_OK


def cmd_decompose(cfg: RunConfig, word: str) -> int:
    _, aw, _, _, _ = build_context(cfg.cartan_type)
    w = aw.from_word_str(word)
    consts = generation_constants(aw)
    lam, z = decompose_fW(aw, consts, w)
    obj = {
        "schema": 1,
        "type": cfg.cartan_type,
        "w": aw.to_word(w),
        "lambda": list(lam),
        "z": aw.to_word(z),
    }
    _emit(cfg, _json_text(obj))
    return EXIT_OK


def cmd_humphreys(cfg: RunConfig, lam_s: str, mode: str) -> int:
    datum, aw, _, _, provider = build_context(cfg.cartan_type, cfg.basis_path)
    lam = _parse_weight(lam_s, datum.rank)
    part = _partition(cfg, aw, provider)
    table = build_orbit_table(aw, part)
    rec = humphreys_predict(aw, part, table, lam, cfg.p, mode=mode)
    _emit(cfg, _json_text(rec.to_json()))
    return EXIT_OK


def cmd_orbits(cfg: RunConfig) -> int:
    datum, _, _, _, _ = build_context(cfg.cartan_type)
    orbits = enumerate_orbits(datum)
    try:
        leq = closure_order(datum, orbits)
        closure = [[1 if x else 0 for x in row] for row in leq]
    except UnsupportedTypeError:
        closure = None
    obj = {
        "schema": 1,
        "type": cfg.cartan_type,
        "orbits": [
            {
                "name": o.name,
                "dimension": o.dimension,
                "bala_carter": [list(o.bala_carter[0]), list(o.bala_carter[1])],
            }
            for o in orbits
        ],
        "closure_leq": closure,
    }
    _emit(cfg, _json_text(obj))
    return EXIT_OK


def cmd_plot(cfg: RunConfig) -> int:
    datum, aw, _, _, provider = build_context(cfg.cartan_type, cfg.basis_path)
    if datum.rank != 2:
        raise UnsupportedTypeError("alcove diagrams are drawn for rank-2 types only")
    part = _partition(cfg, aw, provider)
    svg = render_cell_diagram(aw, part, cfg.p, cfg.length_bound)
    _emit(cfg, svg)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as the one-line JSON usage error."""

    def error(self, message):
        _fail(EXIT_USAGE, "usage", message)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="heckecells",
        description="Affine Weyl group cells, canonical bases, tilting "
        "combinatorics and support-variety predictions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, needs_p=False):
        p = sub.add_parser(name, help=help)
        p.add_argument("--type", required=True, help="Cartan type, e.g. C2")
        p.add_argument(
            "--p",
            type=int,
            default=0,
            required=needs_p,
            help="prime (0 = formal / large-p regime)",
        )
        p.add_argument("--len", type=int, default=None, dest="length_bound")
        p.add_argument("--margin", type=int, default=None)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if name in BASIS_COMMANDS:
            p.add_argument("--basis", default=None, help="canonical basis table file")
        if name in FORMAT_COMMANDS:
            p.add_argument(
                "--format", default="json", choices=["json", "tsv"], dest="out_format"
            )
        return p

    command("cells", "right-cell partition")
    p_kl = command("kl", "canonical basis element of the Hecke algebra")
    p_kl.add_argument("--w", required=True, help="reduced word, e.g. s0.s1")
    p_asph = command("asph", "canonical basis element of the antispherical module")
    p_asph.add_argument("--w", required=True)
    p_ver = command("verlinde", "fusion multiplicities in the fundamental alcove", True)
    p_ver.add_argument("--lambda", required=True, dest="lam")
    p_ver.add_argument("--mu", required=True)
    p_alc = command("alcove", "alcove of a dominant weight", True)
    p_alc.add_argument("--lambda", required=True, dest="lam")
    p_dec = command("decompose", "translation factorization of an fW element")
    p_dec.add_argument("--w", required=True)
    p_hum = command("humphreys", "support-variety prediction", True)
    p_hum.add_argument("--lambda", required=True, dest="lam")
    p_hum.add_argument("--mode", default="absolute", choices=["absolute", "relative"])
    command("orbits", "nilpotent orbits and closure order")
    command("plot", "SVG alcove diagram colored by cell")
    return parser


def _config_from(args) -> RunConfig:
    ct = CartanType.from_string(args.type)
    L, m = _default_bounds(str(ct), ct.rank)
    if args.length_bound is not None:
        L = args.length_bound
    if args.margin is not None:
        m = args.margin
    if m > L:
        raise ValueError("margin cannot exceed the length bound")
    return RunConfig(
        cartan_type=str(ct),
        p=args.p,
        length_bound=L,
        margin=m,
        basis_path=getattr(args, "basis", None),
        out_format=getattr(args, "out_format", "json"),
        out_path=args.out,
    )


def _fail(code: int, kind: str, message: str) -> int:
    sys.stderr.write(
        json.dumps({"error": kind, "message": message, "code": code}) + "\n"
    )
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore")
    try:
        cfg = _config_from(args)
        if args.command == "cells":
            return cmd_cells(cfg)
        if args.command in ("kl", "asph"):
            return cmd_canonical(cfg, args.command, args.w)
        if args.command == "verlinde":
            return cmd_verlinde(cfg, args.lam, args.mu)
        if args.command == "alcove":
            return cmd_alcove(cfg, args.lam)
        if args.command == "decompose":
            return cmd_decompose(cfg, args.w)
        if args.command == "humphreys":
            return cmd_humphreys(cfg, args.lam, args.mode)
        if args.command == "orbits":
            return cmd_orbits(cfg)
        if args.command == "plot":
            return cmd_plot(cfg)
        return _fail(EXIT_USAGE, "usage", f"unknown command {args.command}")
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
