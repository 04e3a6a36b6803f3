"""Acceptance suite.

Each criterion below prints a single PASS/FAIL line (run with ``pytest -s``)
and enforces its stated runtime budget.  Contexts are built fresh inside the
timed blocks so the timings are honest.
"""

import itertools
import json
import random
import time
import warnings
from collections import deque

import pytest

from heckecells.cells import (
    cell_generators,
    decompose_fW,
    generation_constants,
    right_cells,
)
from heckecells.cli import main
from heckecells.hecke import (
    TableBasisProvider,
    build_context,
    load_basis_table,
    table_from_zero_basis,
)
from heckecells.orbits import build_orbit_table, humphreys_predict
from heckecells.tilting import fusion_multiplicity, in_fundamental_alcove

from oracles import (
    enumerated_generation_sets,
    from_finite,
    from_word,
    generate_finite_weyl,
    hecke_mul,
    is_nonnegative,
    kl_oracle,
    length_oracle,
)

warnings.filterwarnings("ignore")


def report(num, label, ok, elapsed, limit=None):
    verdict = "PASS" if ok else "FAIL"
    extra = f" ({elapsed:.1f}s" + (f" < {limit}s)" if limit else ")")
    print(f"ACCEPTANCE {num}: {label} ... {verdict}{extra}")
    assert ok, f"criterion {num} failed: {label}"
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"


def test_criterion_1_cell_counts():
    for type_str, L, m, expected in [("C2", 20, 6, 4), ("G2", 24, 8, 5)]:
        t0 = time.monotonic()
        _, aw, _, _, provider = build_context(type_str)
        part = right_cells(aw, L, m, provider)
        n_trusted = sum(part.trusted)
        ok = n_trusted == expected
        id_cell = part.cells[part.cell_index(aw.identity)]
        ok = ok and id_cell == (aw.identity,)
        report(
            1,
            f"{type_str} has exactly {expected} trusted antispherical cells "
            f"(L={L}, margin={m})",
            ok,
            time.monotonic() - t0,
            60,
        )
    t0 = time.monotonic()
    for type_str in ("A1", "A2", "C2", "G2"):
        _, aw, _, _, provider = build_context(type_str)
        part = right_cells(aw, 8, 2, provider)
        assert part.cells[part.cell_index(aw.identity)] == (aw.identity,)
    report(
        1,
        "identity forms a singleton cell in every tested type",
        True,
        time.monotonic() - t0,
    )


def test_criterion_2_kl_oracle_and_positivity():
    t0 = time.monotonic()
    ok = True
    for type_str in ("A1", "C2"):
        _, aw, hecke, _, _ = build_context(type_str)
        ball = aw.enumerate_W(8)
        for w in ball:
            ok = ok and hecke.kl_basis(w) == kl_oracle(hecke, w)
        for x in ball:
            for y in ball:
                if x.length + y.length > 8:
                    continue
                prod = hecke_mul(hecke, hecke.kl_basis(x), hecke.kl_basis(y))
                for coeff in hecke.to_canonical(prod).values():
                    ok = ok and is_nonnegative(coeff)
    report(
        2,
        "canonical basis equals the bar-involution solve and structure "
        "constants are nonnegative (A1, C2, length 8)",
        ok,
        time.monotonic() - t0,
        30,
    )


def test_criterion_3_antispherical_vanishing():
    t0 = time.monotonic()
    ok = True
    for type_str in ("A1", "A2", "B2", "C2", "G2"):
        _, aw, hecke, _, _ = build_context(type_str)
        for w in aw.enumerate_W(8):
            if not aw.in_fW(w):
                ok = ok and not hecke.asph_project(hecke.kl_basis(w))
    report(
        3,
        "projection kills canonical elements off fW (rank <= 2, length 8)",
        ok,
        time.monotonic() - t0,
    )


def test_criterion_4_length_oracle_and_char_fW():
    t0 = time.monotonic()
    ok = True
    for type_str in ("A1", "C2", "G2"):
        datum, aw, _, _, _ = build_context(type_str)
        # BFS distance in the Cayley graph
        dist = {aw.identity: 0}
        q = deque([aw.identity])
        while q:
            w = q.popleft()
            if dist[w] >= 12:
                continue
            for s in aw.gens:
                ws = aw.mult(w, s)
                if ws not in dist:
                    dist[ws] = dist[w] + 1
                    q.append(ws)
        ok = ok and all(w.length == d for w, d in dist.items())
        ball = sorted(dist, key=aw.sort_key)
        ok = ok and ball == aw.enumerate_W(12)
        # the three characterizations of fW membership
        wf = generate_finite_weyl(datum)
        for w in ball:
            lam = w.fin.apply(w.trans)
            v = w.fin
            c1 = all(aw.mult(from_finite(aw, u), w).length >= w.length for u in wf)
            c2 = datum.is_dominant(lam) and w.length == aw.translation(
                lam
            ).length - length_oracle(aw, v, (0,) * datum.rank)
            c3 = datum.is_dominant(lam) and all(
                datum.pairing(lam, r) >= 1
                for r in datum.positive_roots
                if v.apply_inverse(r.fund) not in datum._posroot_fund
            )
            ok = ok and (c1 == c2 == c3 == aw.in_fW(w))
    report(
        4,
        "Iwahori-Matsumoto length equals BFS distance and the minimality "
        "characterizations agree (length 12, A1/C2/G2)",
        ok,
        time.monotonic() - t0,
        60,
    )


def test_criterion_5_decomposition_suite():
    t0 = time.monotonic()
    ok = True
    for type_str in ("A2", "B2", "C2", "G2"):
        _, aw, _, _, _ = build_context(type_str)
        consts = generation_constants(aw)
        z_set = set(enumerated_generation_sets(aw, consts)[1])
        rng = random.Random(2024)
        count = 0
        while count < 1000:
            w = from_word(
                aw, [rng.randrange(len(aw.gens)) for _ in range(rng.randrange(5, 31))]
            )
            w = aw.min_coset_rep(w)
            if w.length > 30:
                continue
            count += 1
            lam, z = decompose_fW(aw, consts, w)
            ok = (
                ok
                and z in z_set
                and aw.datum.is_dominant(lam)
                and aw.datum.in_root_lattice(lam)
                and aw.mult(aw.translation(lam), z) == w
            )
    _, aw, _, _, provider = build_context("C2")
    consts = generation_constants(aw)
    part = right_cells(aw, 20, 6, provider)
    for cid in part.trusted_cells():
        # verification of the factorization happens inside cell_generators
        cell_generators(aw, consts, part, cid)
    report(
        5,
        "random fW elements factor through Z (1000 per rank-2 type) and "
        "finite generating sets reproduce every trusted C2 cell member",
        ok,
        time.monotonic() - t0,
        120,
    )


def test_criterion_6_verlinde():
    t0 = time.monotonic()
    ok = True
    datum, aw, _, _, _ = build_context("A1")
    p = 5

    def oracle(c_aw, c_datum, lam, mu, nu, pp, cap):
        total = 0
        for w in c_aw.enumerate_fW(cap):
            eta = c_aw.dot_action(w, nu, pp)
            if c_datum.is_dominant(eta):
                k = c_datum.tensor_multiplicity(lam, mu, eta)
                total += -k if w.length % 2 else k
        return total

    alcove = [(k,) for k in range(p - 1)]
    for lam in alcove:
        for mu in alcove:
            for nu in alcove:
                val = fusion_multiplicity(aw, lam, mu, nu, p)
                ok = ok and val == oracle(aw, datum, lam, mu, nu, p, 36)
                ok = ok and val == fusion_multiplicity(aw, mu, lam, nu, p)
        ok = ok and fusion_multiplicity(aw, lam, (0,), lam, p) == 1
    for nu in alcove:
        expect = 1 if nu == (0,) else 0
        ok = ok and fusion_multiplicity(aw, (3,), (3,), nu, p) == expect

    datum2, aw2, _, _, _ = build_context("C2")
    alc2 = [
        lam
        for lam in itertools.product(range(7), repeat=2)
        if in_fundamental_alcove(datum2, lam, 7)
    ]
    rng = random.Random(6)
    for _ in range(8):
        lam, mu, nu = (rng.choice(alc2) for _ in range(3))
        val = fusion_multiplicity(aw2, lam, mu, nu, 7)
        ok = ok and val == oracle(aw2, datum2, lam, mu, nu, 7, 28)
        ok = ok and val == fusion_multiplicity(aw2, mu, lam, nu, 7)
    report(
        6,
        "modular Verlinde table matches the alternating-sum oracle "
        "(A1 p=5 full, C2 p=7 spots)",
        ok,
        time.monotonic() - t0,
        60,
    )


def test_criterion_7_monotonicity_and_predictions():
    t0 = time.monotonic()
    ok = True
    for type_str, (L, m, p) in [("C2", (20, 6, 7)), ("G2", (24, 8, 11))]:
        _, aw, _, _, provider = build_context(type_str)
        part = right_cells(aw, L, m, provider)
        table = build_orbit_table(aw, part)
        trusted = part.trusted_cells()
        ok = ok and len(trusted) == len(table.orbits)
        for a in trusted:
            for b in trusted:
                if b in part.reach[a]:
                    ok = ok and table.leq[table.cell_map[b]][table.cell_map[a]]
        # predictions constant on cells
        for cid in trusted:
            names = set()
            for w in part.cells[cid][:3]:
                lam = aw.dot_action(w, (0, 0), p)
                rec = humphreys_predict(aw, part, table, lam, p)
                names.add(rec.orbit.name if rec.orbit else None)
            ok = ok and len(names) == 1
        # universal endpoints
        rec = humphreys_predict(aw, part, table, (0, 0), p)
        ok = ok and rec.orbit.name == "regular"
        rec = humphreys_predict(aw, part, table, (p - 1, p - 1), p)
        ok = ok and rec.orbit.name == "zero"
        # relative mode off the double-coset minima
        w = next(
            w
            for w in aw.enumerate_fW(6)
            if not aw.in_fWf(w)
        )
        rec = humphreys_predict(
            aw, part, table, aw.dot_action(w, (0, 0), p), p, mode="relative"
        )
        ok = ok and rec.empty_variety and rec.orbit is None
    report(
        7,
        "cell preorder implies orbit closure order; predictions constant on "
        "cells with correct endpoints (C2, G2)",
        ok,
        time.monotonic() - t0,
    )


def test_criterion_8_determinism_and_round_trip(tmp_path):
    t0 = time.monotonic()
    ok = True
    # canonical table export -> import reproduces the partition
    _, aw, hecke, asph, provider = build_context("C2")
    L, m = 12, 4
    base = right_cells(aw, L, m, provider)
    table = table_from_zero_basis(hecke, L + 1, provenance="acceptance round trip")
    for suffix, dump in (("txt", table.dump_text()), ("json", table.dump_json())):
        path = tmp_path / f"table.{suffix}"
        path.write_text(dump)
        loaded = load_basis_table(aw, path)
        redone = right_cells(aw, L, m, TableBasisProvider(hecke, asph, loaded))
        ok = ok and base.cells == redone.cells and base.trusted == redone.trusted
        ok = ok and base.reach == redone.reach

    # CLI byte determinism
    jobs = [
        ["cells", "--type", "C2", "--len", "12", "--margin", "4"],
        ["humphreys", "--type", "C2", "--p", "7", "--lambda", "2,1"],
        ["verlinde", "--type", "A1", "--p", "5", "--lambda", "3", "--mu", "3",
         "--format", "tsv"],
        ["plot", "--type", "C2", "--p", "7", "--len", "8", "--margin", "2"],
        ["orbits", "--type", "G2"],
    ]
    for k, args in enumerate(jobs):
        pa, pb = tmp_path / f"a{k}", tmp_path / f"b{k}"
        assert main(args + ["--out", str(pa)]) == 0
        assert main(args + ["--out", str(pb)]) == 0
        ok = ok and pa.read_bytes() == pb.read_bytes()
    report(
        8,
        "basis-table round trips reproduce the partition and CLI output is "
        "byte-stable",
        ok,
        time.monotonic() - t0,
    )
