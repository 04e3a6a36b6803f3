"""The benchmark workloads.

Every workload is a closed loop with one client: an operation starts only
after the previous one returned.  Inputs come from the seed; outputs are
checked against digests in ``golden.json``, recorded from the unmodified
library by ``record_golden.py``.  ``heckecells`` is imported in ``setup()``
so that the import is part of the measured set-up time.

- ``cells-frontier``: four cold CLI jobs (fresh context each, as for every
  real invocation): rank-3 cell partitions, a humphreys prediction and a
  rank-2 plot.  The seed orders the jobs in each pass.
- ``table-roundtrip``: the C2 canonical-basis table round trip of acceptance
  criterion 8: tabulate, dump as text and JSON, parse and validate each dump
  in a fresh context, recompute the cells through the table, compare with
  the 0-basis partition.  The seed orders the two formats.
- ``query-mix``: a long-lived session with warm contexts for A2, C2 and G2
  answering a seeded stream of short queries drawn from a fixed pool, with
  every twentieth query a malformed CLI invocation, and an untimed probe of
  the malformed inputs that escape in the seed library.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

OK, FAILED, WRONG = "ok", "failed", "wrong"


def digest(obj: Any) -> str:
    """Short digest of a string, or of the canonical JSON text of an object."""
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_golden() -> dict:
    with open(os.path.join(BENCH_DIR, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Op:
    """One operation: ``call`` is timed, ``check`` (untimed) grades its output.

    ``check`` returns ``(status, message)`` with status OK, FAILED (the
    operation did not do what is documented) or WRONG (it returned an answer
    that differs from the recorded one).
    """

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], "tuple[str, str]"]
    cli: bool = False  # call returns run_cli's (code, stdout, stderr)


def run_cli(argv: list[str]) -> "tuple[int, str, str]":
    """Run ``heckecells.cli.main`` in-process; returns (code, stdout, stderr)."""
    from heckecells import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse exits on arguments it rejects
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def context(type_str: str):
    """A fresh arithmetic context: (datum, aw, hecke, asph, 0-basis provider)."""
    from heckecells import affine, hecke, rootdata

    datum = rootdata.build_root_datum(type_str)
    aw = affine.AffineWeyl(datum)
    algebra = hecke.Hecke(aw)
    asph = hecke.AsphModule(algebra)
    return datum, aw, algebra, asph, hecke.ZeroBasisProvider(algebra, asph)


def _expect(label: str, got: str, want: "str | None") -> "tuple[str, str]":
    if got == want:
        return OK, ""
    return WRONG, f"{label}: digest {got} != recorded {want}"


# -- cells-frontier ----------------------------------------------------------


class CellsFrontier:
    name = "cells-frontier"
    JOBS = {
        "full": [
            "cells --type B3 --len 28 --margin 8",
            "cells --type C3 --len 28 --margin 8",
            "humphreys --type C2 --p 7 --lambda 2,1 --len 40 --margin 10",
            "plot --type G2 --p 11 --len 24 --margin 8",
        ],
        "smoke": [
            "cells --type B3 --len 6 --margin 2",
            "cells --type C3 --len 6 --margin 2",
            "humphreys --type C2 --p 7 --lambda 2,1 --len 20 --margin 6",
            "plot --type G2 --p 11 --len 8 --margin 2",
        ],
    }
    TYPES = ("B3", "C3", "C2", "G2")

    def __init__(self, size: str, seed: int, golden: dict):
        self.jobs = self.JOBS[size]
        self.golden = golden.get(self.name, {}).get(size, {})
        self.rng = random.Random(seed)

    def setup(self):
        import heckecells.cli  # noqa: F401

        for t in self.TYPES:
            context(t)

    def pass_ops(self) -> list[Op]:
        order = self.rng.sample(self.jobs, len(self.jobs))
        return [
            Op(job, lambda job=job: run_cli(job.split()), lambda out, job=job: self._check(job, out), cli=True)
            for job in order
        ]

    def _check(self, job, out):
        code, stdout, _ = out
        if code != 0:
            return FAILED, f"{job}: exit code {code}"
        return _expect(job, digest(stdout), self.golden.get(job))

    def record(self) -> dict:
        out = {}
        for job in self.jobs:
            code, stdout, _ = run_cli(job.split())
            if code != 0:
                raise RuntimeError(f"{job}: exit code {code}")
            out[job] = digest(stdout)
        return out


# -- table-roundtrip ---------------------------------------------------------


class TableRoundTrip:
    name = "table-roundtrip"
    # (table length bound, cell length bound, margin)
    SIZES = {"full": (13, 12, 4), "smoke": (7, 6, 2)}
    PROVENANCE = "heckecells benchmark round trip"

    def __init__(self, size: str, seed: int, golden: dict):
        self.bound, self.length, self.margin = self.SIZES[size]
        self.golden = golden.get(self.name, {}).get(size, {})
        self.rng = random.Random(seed)

    def setup(self):
        import heckecells  # noqa: F401

        context("C2")

    def pass_ops(self) -> list[Op]:
        state: dict = {}
        ops = [Op("generate", lambda: self._generate(state), lambda out: self._check_base(out))]
        for fmt in self.rng.sample(["text", "json"], 2):
            ops.append(
                Op(
                    fmt,
                    lambda fmt=fmt: self._round_trip(state, fmt),
                    lambda out, fmt=fmt: self._check_trip(state, fmt, out),
                )
            )
        return ops

    def _generate(self, state):
        from heckecells import cells, hecke

        _, aw, algebra, _, provider = context("C2")
        base = cells.right_cells(aw, self.length, self.margin, provider)
        table = hecke.table_from_zero_basis(algebra, self.bound, provenance=self.PROVENANCE)
        state.update(aw=aw, base=base, table=table)
        return aw, base

    def _round_trip(self, state, fmt):
        from heckecells import cells, hecke

        table = state["table"]
        dump = table.dump_text() if fmt == "text" else table.dump_json()
        _, aw, algebra, asph, _ = context("C2")
        loaded = hecke.CanonicalBasisTable.parse(aw, dump)
        provider = hecke.TableBasisProvider(algebra, asph, loaded)
        return dump, aw, cells.right_cells(aw, self.length, self.margin, provider)

    @staticmethod
    def _partition_digest(aw, part):
        from heckecells.cells import export_partition_json

        return digest(export_partition_json(aw, part))

    def _check_base(self, out):
        return _expect("0-basis partition", self._partition_digest(*out), self.golden.get("partition"))

    def _check_trip(self, state, fmt, out):
        dump, aw, part = out
        status = _expect(f"{fmt} dump", digest(dump), self.golden.get(fmt))
        if status[0] != OK:
            return status
        base = state["base"]
        if (part.cells, part.trusted, part.reach) != (base.cells, base.trusted, base.reach):
            return WRONG, f"{fmt} round trip changed the partition"
        return _expect(f"{fmt} partition", self._partition_digest(aw, part), self.golden.get("table_partition"))

    def record(self) -> dict:
        state: dict = {}
        aw, base = self._generate(state)
        out = {"partition": self._partition_digest(aw, base)}
        for fmt in ("text", "json"):
            dump, aw2, part = self._round_trip(state, fmt)
            if (part.cells, part.trusted, part.reach) != (base.cells, base.trusted, base.reach):
                raise RuntimeError(f"{fmt} round trip changed the partition")
            out[fmt] = digest(dump)
            # the export carries the table's provenance, so it differs from the base
            out["table_partition"] = self._partition_digest(aw2, part)
        return out


# -- query-mix -----------------------------------------------------------------

# Malformed invocations; each should end in a one-line JSON error on stderr
# with exit code 2, 3 or 4.
ERROR_ARGV = [
    "alcove --type C2 --p 3 --lambda 1,1",
    "verlinde --type A2 --p 7 --lambda 5,5 --mu 0,0",
    "cells --type X5",
    "cells --type A0",
    "cells --type C2 --len 4 --margin 9",
    "alcove --type G2 --p 11 --lambda 1,2,3",
    "kl --type C2 --basis {data}/bad-table.txt --w s0",
    "kl --type C2 --basis {data}/no-such-table.txt --w s0",
    "plot --type B3 --len 4 --margin 1",
    "decompose --type C2 --w s1",
]

# Malformed invocations that should give the same documented error but let
# an exception escape in the seed library (IndexError, AssertionError,
# RecursionError).  A run's operations must not fail, and how many of these
# land in a timed stream depends on how many queries fit in the time, so
# they are not in the stream: every run tries each once, untimed, after
# measuring, and reports how many still escape (``cli.defect_escapes``).
DEFECT_ARGV = [
    "kl --type C2 --w s9",
    "humphreys --type C2 --p 7 --lambda 2,1 --len 6 --margin 2",
    "kl --type A1 --w " + ".".join(["s0", "s1"] * 600),
]

# Query families and their weights in the stream (per 95 non-error queries).
FAMILIES = (
    ("hum", 30),  # humphreys_predict, absolute and relative mode
    ("fus", 15),  # fusion_multiplicity on alcove triples
    ("wall", 10),  # tilting_class + wall_crossing
    ("tr", 10),  # tilting_class + tensor_translate
    ("alc", 15),  # alcove_of
    ("dec", 10),  # decompose_fW
    ("orb", 5),  # enumerate_orbits + closure_order
)
ERROR_EVERY = 20


def _weight(s: str) -> tuple[int, ...]:
    return tuple(int(x) for x in s.split(","))


def _cli_argv(line: str) -> list[str]:
    return [tok.format(data=os.path.join(BENCH_DIR, "data")) for tok in line.split()]


class QueryMix:
    name = "query-mix"
    TYPES = ("A2", "C2", "G2")
    PARTITIONS = (("C2", 20, 6), ("G2", 24, 8))
    BLOCK = {"full": 100, "smoke": 20}

    def __init__(self, size: str, seed: int, golden: dict):
        self.block = self.BLOCK[size]
        self.golden = golden.get(self.name, {}).get("pool", {})
        self.by_family: dict[str, list[str]] = {f: [] for f, _ in FAMILIES}
        for key in self.golden:
            self.by_family[key.split()[0]].append(key)
        self.rng = random.Random(seed)
        self.issued = 0

    def setup(self):
        from heckecells import cells, orbits

        self.ctx = {t: context(t) for t in self.TYPES}
        self.consts = {t: cells.generation_constants(self.ctx[t][1]) for t in self.TYPES}
        self.parts = {}
        for t, length, margin in self.PARTITIONS:
            aw, provider = self.ctx[t][1], self.ctx[t][4]
            part = cells.right_cells(aw, length, margin, provider)
            self.parts[t] = (part, orbits.build_orbit_table(aw, part))

    def contexts(self) -> list:
        """Objects that hold this session's memo caches."""
        return [obj for c in self.ctx.values() for obj in c[2:4]]

    def pass_ops(self) -> list[Op]:
        names = [f for f, _ in FAMILIES]
        weights = [w for _, w in FAMILIES]
        ops = []
        for _ in range(self.block):
            self.issued += 1
            if self.issued % ERROR_EVERY == 0:
                k = self.rng.randrange(len(ERROR_ARGV))
                ops.append(Op(ERROR_ARGV[k], lambda k=k: run_cli(_cli_argv(ERROR_ARGV[k])), self._check_error, cli=True))
                continue
            family = self.rng.choices(names, weights)[0]
            key = self.rng.choice(self.by_family[family])
            ops.append(Op(key, self.query(key), lambda out, key=key: _expect(key, digest(out), self.golden.get(key))))
        return ops

    @staticmethod
    def _check_error(out):
        code, stdout, stderr = out
        lines = stderr.splitlines()
        try:
            record = json.loads(lines[0]) if len(lines) == 1 else None
        except ValueError:
            record = None
        if code in (2, 3, 4) and not stdout and isinstance(record, dict) and record.get("code") == code:
            return OK, ""
        return FAILED, f"malformed input gave exit code {code} without a one-line JSON error"

    def defect_probe(self) -> list[str]:
        """Try each DEFECT_ARGV input once; describe those without the documented error."""
        found = []
        for line in DEFECT_ARGV:
            try:
                status, message = self._check_error(run_cli(_cli_argv(line)))
            except Exception as exc:
                status, message = FAILED, f"{type(exc).__name__} escaped"
            if status != OK:
                found.append(f"known defect: {line[:60]}: {message}")
        return found

    def query(self, key: str) -> Callable[[], Any]:
        """The timed call answering a pool key; its result is what is digested."""
        from heckecells import cells, orbits, tilting

        family, t, *rest = key.split()
        datum, aw, _, _, provider = self.ctx[t]
        if family == "hum":
            p, mode, lam = int(rest[0]), rest[1], _weight(rest[2])
            part, table = self.parts[t]
            return lambda: orbits.humphreys_predict(aw, part, table, lam, p, mode=mode).to_json()
        if family == "fus":
            p, lam, mu, nu = int(rest[0]), *map(_weight, rest[1:])
            return lambda: tilting.fusion_multiplicity(aw, lam, mu, nu, p)
        if family == "wall":
            word, i = rest[0], int(rest[1])

            def wall():
                x = tilting.tilting_class(provider, aw.from_word_str(word))
                return tilting.tilting_class_json(aw, tilting.wall_crossing(aw, x, i))

            return wall
        if family == "tr":
            p, word, mu = int(rest[0]), rest[1], _weight(rest[2])

            def translate():
                x = tilting.tilting_class(provider, aw.from_word_str(word))
                char = tilting.weyl_module_character(datum, mu)
                return tilting.tilting_class_json(aw, tilting.tensor_translate(aw, x, char, p))

            return translate
        if family == "alc":
            p, lam = int(rest[0]), _weight(rest[1])

            def alcove():
                alc = aw.alcove_of(lam, p)
                return [aw.to_word(alc.element), list(alc.floors)]

            return alcove
        if family == "dec":
            word = rest[0]

            def decompose():
                lam, z = cells.decompose_fW(aw, self.consts[t], aw.from_word_str(word))
                return [list(lam), aw.to_word(z)]

            return decompose
        if family == "orb":

            def orbit_list():
                found = orbits.enumerate_orbits(datum)
                leq = orbits.closure_order(datum, found)
                return [
                    [[o.name, o.dimension, [list(o.bala_carter[0]), list(o.bala_carter[1])]] for o in found],
                    [[int(x) for x in row] for row in leq],
                ]

            return orbit_list
        raise ValueError(f"unknown query family {family!r}")

    def pool_keys(self) -> list[str]:
        """The fixed query pool (independent of the seed)."""
        from heckecells import tilting

        pick = random.Random(1707_07740)
        keys = []

        def sample(population, n):
            return pick.sample(population, min(n, len(population)))

        def grid(p, n):
            return sample([f"{a},{b}" for a in range(2 * p) for b in range(2 * p)], n)

        for t, p in (("C2", 7), ("C2", 11), ("G2", 11), ("G2", 13)):
            keys += [f"hum {t} {p} absolute {lam}" for lam in grid(p, 100)]
            aw = self.ctx[t][1]
            for w in aw.enumerate_fW(12):
                lam = aw.dot_action(w, (0, 0), p)
                keys.append(f"hum {t} {p} relative {lam[0]},{lam[1]}")
        for t, p in (("A2", 7), ("C2", 11), ("G2", 13)):
            datum, aw = self.ctx[t][:2]
            inside = [
                f"{a},{b}" for a in range(p) for b in range(p) if tilting.in_fundamental_alcove(datum, (a, b), p)
            ]
            triples = [(a, b, c) for a in inside for b in inside for c in inside]
            keys += [f"fus {t} {p} {a} {b} {c}" for a, b, c in sample(triples, 80)]
            words = [aw.to_word(w) for w in aw.enumerate_fW(10)]
            walls = [f"wall {t} {w} {i}" for w in words for i in range(len(aw.gens))]
            keys += sample(walls, 60)
            translates = [f"tr {t} {p} {w} {mu}" for w in words for mu in ("1,0", "0,1", "1,1")]
            keys += sample(translates, 60)
            keys += [f"alc {t} {p} {lam}" for lam in grid(p, 60)]
            decs = [f"dec {t} {aw.to_word(w)}" for w in aw.enumerate_fW(14)]
            keys += sample(decs, 60)
            keys.append(f"orb {t}")
        return keys

    def record(self) -> dict:
        return {"pool": {key: digest(self.query(key)()) for key in self.pool_keys()}}


WORKLOADS = {cls.name: cls for cls in (CellsFrontier, TableRoundTrip, QueryMix)}
