import json
import random

import pytest

import heckecells.cells
from heckecells.affine import AffineElement, AffineWeyl
from heckecells.cells import (
    cell_edges,
    cell_generators,
    decompose_fW,
    export_partition_json,
    generation_constants,
    observed_stabilization_bound,
    right_cells,
    stabilization_n,
)
from heckecells.hecke import (
    CanonicalBasisTable,
    TableBasisProvider,
    build_context,
    table_from_zero_basis,
)
from heckecells.laurent import ZERO, LaurentPoly

from heckecells.rootdata import build_root_datum

from oracles import (
    asph_canonical_oracle,
    built_elements,
    counting,
    decompose_oracle,
    enumerated_generation_sets,
    from_finite,
    from_word,
    greedy_word,
    hecke_mul,
    kl_gen,
    leq_R,
    mul_by_word,
    observed_stabilization_bound_oracle,
    right_cells_oracle,
    stabilization_n_oracle,
)


def small_partition(c, L=12, margin=3):
    return right_cells(c.aw, L, margin, c.provider)


def test_edges_from_identity(ctx):
    c = ctx("A1")
    aw = c.aw
    edges = cell_edges(aw, c.provider, 2)
    from_e = {(aw.to_word(e.to), e.witness) for e in edges if e.frm == aw.identity}
    # via s0: N_e . (H_s0 + v) = N_s0 + v N_e, which is exactly the canonical
    # element at s0, so the only edge is e -> s0; via s1 the product vanishes
    assert from_e == {("s0", 0)}
    # an edge is a named triple: its fields read as its positions
    assert all(tuple(e) == (e.frm, e.to, e.witness) for e in edges)


def test_edge_count_matches_full_algebra_oracle(ctx):
    # expand through the full Hecke algebra and project, then convert using
    # projected canonical elements; compare the resulting edge sets
    c = ctx("C2")
    aw = c.aw
    L = 12
    edges = {
        (e.frm, e.to, e.witness) for e in cell_edges(aw, c.provider, L)
    }
    oracle_edges = set()
    proj_cache = {}

    def oracle_canon(w):
        if w not in proj_cache:
            proj_cache[w] = asph_canonical_oracle(c.hecke, w)
        return proj_cache[w]

    for y in aw.enumerate_fW(L):
        hy = c.hecke.kl_basis(y)
        for i in range(len(aw.gens)):
            prod = c.hecke.asph_project(
                hecke_mul(c.hecke, hy, kl_gen(c.hecke, i))
            )
            rest = prod
            while rest:
                w = max(rest.support(), key=aw.sort_key)
                coeff = rest.terms[w]
                oracle_edges.add((y, w, i))
                rest = rest - oracle_canon(w).scale(coeff)
    assert edges == oracle_edges


@pytest.mark.parametrize(
    "type_str,L", [("A1", 12), ("A2", 12), ("C2", 16), ("G2", 16), ("B3", 12)]
)
def test_wgraph_edges_match_leading_term_expansion(ctx, type_str, L):
    # the 0-basis reads its edges off the W-graph; expanding each product
    # N_y.(H_s + v) by leading terms must give the same (frm, to, witness) set
    c = ctx(type_str)
    aw = c.aw
    edges = [(e.frm, e.to, e.witness) for e in cell_edges(aw, c.provider, L)]
    assert len(set(edges)) == len(edges)
    oracle = {
        (y, w, i)
        for y in aw.enumerate_fW(L)
        for i in range(len(aw.gens))
        for w in c.provider.asph_to_canonical(
            c.asph.mul_by_kl_gen(c.asph.canonical(y), i)
        )
    }
    assert set(edges) == oracle


@pytest.mark.parametrize("type_str,L,m", [("A2", 10, 3), ("C2", 12, 4), ("G2", 14, 4), ("B3", 8, 3)])
def test_boundary_nodes_hold_ball_words(type_str, L, m):
    # the length-(L+1) targets get their words from the walk over fW, so
    # sorting them builds nothing beyond the walk and the right neighbours of
    # the sources, none of them outside fW
    c = build_context(type_str)
    aw = c.aw
    before = set(built_elements(aw))
    part = right_cells(aw, L, m, c.provider)
    shell = [w for w in part.cell_of if w.length == L + 1]
    assert shell and all(w.word is not None for w in shell)
    ball = aw.enumerate_fW(L + 1)
    neighbours = {ys for y in ball if y.length <= L for ys in y.right if ys is not None}
    assert set(built_elements(aw)) <= before | set(ball) | neighbours
    assert all(w.word == greedy_word(aw, w) for w in shell)


def test_identity_is_singleton_cell(ctx):
    for t in ("A1", "A2", "C2", "G2"):
        c = ctx(t)
        part = small_partition(c, 8, 2)
        cid = part.cell_index(c.aw.identity)
        assert part.cells[cid] == (c.aw.identity,)


def test_cells_held_in_sort_order(ctx):
    # each cell is a tuple in (length, word) order, and the cells are ordered
    # by their first members
    for t in ("A2", "C2", "G2"):
        c = ctx(t)
        part = small_partition(c, 10, 3)
        for cell in part.cells:
            assert type(cell) is tuple and list(cell) == sorted(cell, key=c.aw.sort_key)
        firsts = [c.aw.sort_key(cell[0]) for cell in part.cells]
        assert firsts == sorted(firsts)


def test_leq_R_examples(ctx):
    c = ctx("A1")
    part = small_partition(c)
    aw = c.aw
    s0 = aw.gens[0]
    for w in part.cells[part.cell_index(s0)]:
        if part.trusted[part.cell_index(w)]:
            assert leq_R(w, aw.identity, part) is True
    assert leq_R(aw.identity, s0, part) is False
    # untrusted endpoint gives None
    untrusted = [
        i for i, t in enumerate(part.trusted) if not t
    ]
    w = next(iter(part.cells[untrusted[0]]))
    assert leq_R(w, aw.identity, part) is None


def test_edge_paths_respect_descents(ctx):
    # along any edge y -> w, every left descent of y is a left descent of w
    c = ctx("C2")
    aw = c.aw
    for e in cell_edges(aw, c.provider, 8):
        for s in aw.gens:
            if aw.mult(s, e.frm).length < e.frm.length:
                assert aw.mult(s, e.to).length < e.to.length


def test_translation_moves_down(ctx):
    # t_lam w <=_R w for dominant root-lattice lam
    c = ctx("C2")
    aw = c.aw
    part = right_cells(aw, 14, 4, c.provider)
    dom = [(2, 0), (0, 1), (2, 1)]
    for w in aw.enumerate_fW(6):
        for lam in dom:
            tw = aw.mult(aw.translation(lam), w)
            out = leq_R(tw, w, part)
            assert out is None or out is True


def test_v1_appearance_implies_preorder(ctx):
    # if the specialized canonical element at w appears in N(y) . h for a
    # short generator word h, then w <=_R y must hold in the partition
    c = ctx("C2")
    aw = c.aw
    part = right_cells(aw, 14, 4, c.provider)
    rng = random.Random(9)

    def specialize(n):
        return {w: p.at_one() for w, p in n.terms.items() if p.at_one()}

    def to_canonical_v1(terms):
        out = {}
        rest = dict(terms)
        while rest:
            w = max(rest, key=aw.sort_key)
            coeff = rest.pop(w)
            if not coeff:
                continue
            out[w] = coeff
            for z, cz in specialize(c.asph.canonical(w)).items():
                if z != w:
                    rest[z] = rest.get(z, 0) - cz * coeff
                    if not rest[z]:
                        del rest[z]
        return out

    for y in aw.enumerate_fW(6):
        n = c.asph.canonical(y)
        for _ in range(4):
            word = [rng.randrange(3) for _ in range(rng.randrange(1, 5))]
            acted = mul_by_word(c.asph, n, word)
            for w, coeff in to_canonical_v1(specialize(acted)).items():
                if coeff:
                    out = leq_R(w, y, part)
                    assert out is None or out is True


def test_trusted_cells_meet_double_coset_minima(ctx):
    for t in ("A1", "C2"):
        c = ctx(t)
        part = small_partition(c, 14, 4)
        for i in part.trusted_cells():
            assert any(
                c.aw.in_fWf(w) for w in part.cells[i]
            )


def test_partition_from_table_matches(ctx, tmp_path):
    c = ctx("A1")
    aw = c.aw
    L, m = 8, 2
    base = right_cells(aw, L, m, c.provider)
    table = table_from_zero_basis(c.hecke, L + 1)
    path = tmp_path / "t.txt"
    path.write_text(table.dump_text())
    from heckecells.hecke import load_basis_table

    provider2 = TableBasisProvider(c.hecke, c.asph, load_basis_table(aw, path))
    redone = right_cells(aw, L, m, provider2)
    assert base.cells == redone.cells
    assert base.trusted == redone.trusted
    assert base.reach == redone.reach


@pytest.mark.parametrize(
    "type_str,L,m",
    [("C2", 20, 6), ("G2", 24, 8), ("A2", 16, 4), ("A3", 10, 3), ("B3", 10, 3), ("C3", 10, 3)],
)
def test_trusted_cells_stable_under_larger_ball(ctx, type_str, L, m):
    # truncation evidence: each trusted cell at (L, m), cut to the core
    # length L - m, is a trusted cell at (L + 6, m + 3) cut the same way
    c = ctx(type_str)

    def cut(part):
        cells = (part.cells[k] for k in part.trusted_cells())
        cut_cells = (frozenset(w for w in cell if w.length <= L - m) for cell in cells)
        return {cell for cell in cut_cells if cell}

    small = cut(right_cells(c.aw, L, m, c.provider))
    assert small and small <= cut(right_cells(c.aw, L + 6, m + 3, c.provider))


def _assert_trust_rule(part, L, m):
    # a target of length L + 1 is never a source, so it is an untrusted
    # singleton, and a cell is trusted exactly when its shortest member has
    # length <= L - m
    for cell, trusted in zip(part.cells, part.trusted):
        lengths = [w.length for w in cell]
        assert max(lengths) <= L + 1
        if max(lengths) == L + 1:
            assert len(cell) == 1 and not trusted
        assert trusted == (min(lengths) <= L - m)


@pytest.mark.parametrize(
    "type_str,L,m", [("C2", 20, 6), ("G2", 24, 8), ("A2", 16, 0), ("B3", 10, 3)]
)
def test_trust_is_one_core_condition(ctx, type_str, L, m):
    c = ctx(type_str)
    part = right_cells(c.aw, L, m, c.provider)
    assert any(w.length == L + 1 for w in part.cell_of)
    _assert_trust_rule(part, L, m)


def test_trust_is_one_core_condition_under_a_table(ctx):
    c = ctx("C2")
    table = table_from_zero_basis(c.hecke, 11)
    part = right_cells(c.aw, 10, 3, TableBasisProvider(c.hecke, c.asph, table))
    assert any(w.length == 11 for w in part.cell_of)
    _assert_trust_rule(part, 10, 3)


def test_cells_under_modified_p_table(ctx, tmp_path):
    # ingestion plumbing for p > 0: take the 0-basis table, relabel it p=2
    # and thicken one entry the way p-canonical bases degenerate (the basis
    # element at s0.s1.s0 absorbs the one at s0); the partition machinery
    # must run off the table and carry its provenance
    c = ctx("A1")
    aw = c.aw
    from heckecells.hecke import CanonicalBasisTable, load_basis_table

    base = table_from_zero_basis(c.hecke, 9)
    entries = dict(base.entries)
    w = aw.from_word_str("s0.s1.s0")
    entries[w] = entries[w] + c.hecke.kl_basis(aw.gens[0])
    table = CanonicalBasisTable(aw, 2, entries, provenance="synthetic p=2")
    path = tmp_path / "p2.txt"
    path.write_text(table.dump_text())
    loaded = load_basis_table(aw, path)
    assert loaded.p == 2 and loaded.provenance == "synthetic p=2"
    provider = TableBasisProvider(c.hecke, c.asph, loaded)
    part = right_cells(aw, 8, 2, provider)
    assert part.basis_p == 2
    assert part.cells[part.cell_index(aw.identity)] == (aw.identity,)


def test_cells_error_on_incomplete_table(ctx):
    from heckecells.hecke import BasisTableError, CanonicalBasisTable

    c = ctx("A1")
    truncated = table_from_zero_basis(c.hecke, 3)
    short_table = CanonicalBasisTable(c.aw, 0, dict(truncated.entries))
    provider = TableBasisProvider(c.hecke, c.asph, short_table)
    with pytest.raises(BasisTableError):
        right_cells(c.aw, 6, 2, provider)


def test_affine_a1_kl_polynomials_trivial(ctx):
    # in affine A1 every canonical element is the full interval with
    # coefficient v^(length difference)
    c = ctx("A1")
    aw = c.aw
    for w in aw.enumerate_W(7):
        h = c.hecke.kl_basis(w)
        interval = aw.bruhat_interval(w)
        assert set(h.support()) == interval
        for y in interval:
            assert h.terms.get(y, ZERO) == LaurentPoly.v(w.length - y.length)


def test_reach_is_transitive_closure_of_edges(ctx):
    # right_cells reads reachability off Tarjan's emission order and takes
    # its nodes from the edges alone; check both against plain BFS over the
    # cell edges and the fW ball, with the computed basis and with a table
    c = ctx("C2")
    aw = c.aw
    L, m = 12, 4
    table = table_from_zero_basis(c.hecke, L + 1)
    for provider in (c.provider, TableBasisProvider(c.hecke, c.asph, table)):
        part = right_cells(aw, L, m, provider)
        assert set(aw.enumerate_fW(L)) <= set(part.cell_of)
        succ = {}
        for e in cell_edges(aw, provider, L):
            succ.setdefault(part.cell_of[e.frm], set()).add(part.cell_of[e.to])
        for start in range(len(part.cells)):
            seen = {start}
            frontier = [start]
            while frontier:
                frontier = [j for i in frontier for j in succ.get(i, ()) if j not in seen]
                seen.update(frontier)
            assert part.reach[start] == frozenset(seen)


def _same_partition(got, want):
    return (got.cells, got.trusted, got.reach, got.cell_of) == (
        want.cells, want.trusted, want.reach, want.cell_of
    )


@pytest.mark.parametrize(
    "type_str,L,m",
    [
        ("A2", 16, 4), ("C2", 16, 4), ("G2", 16, 5), ("A3", 12, 3), ("B3", 12, 3), ("C3", 12, 3),
        ("D4", 12, 3),
    ],
)
def test_numbered_graph_matches_element_keyed_oracle(ctx, type_str, L, m):
    # the cell graph runs on the numbering of the fW ball to length L + 1,
    # every element of which is a node; the oracle keys it by element.
    # The table holds the computed 0-basis of that ball, every element the
    # leading-term expansion of the edges asks for.
    c = ctx(type_str)
    ball = c.aw.enumerate_fW(L + 1)
    table = CanonicalBasisTable(c.aw, 0, {w: c.hecke.kl_basis(w) for w in ball}, "fW ball")
    for provider in (c.provider, TableBasisProvider(c.hecke, c.asph, table)):
        part = right_cells(c.aw, L, m, provider)
        assert set(part.cell_of) == set(ball)
        assert _same_partition(part, right_cells_oracle(c.aw, L, m, provider))


def test_cells_under_a_table_of_another_context(ctx, monkeypatch):
    # a table built in another context hands back that context's elements,
    # which no key of the ball names: the structural dict numbers each one,
    # by an equality test across the two contexts, and meets the ball's
    c = ctx("C2")
    other = build_context("C2")
    provider = TableBasisProvider(c.hecke, c.asph, table_from_zero_basis(other.hecke, 13))
    targets = {y.key: provider.kl_gen_targets(y) for y in c.aw.enumerate_fW(12)}
    found = [w for per_gen in targets.values() for ts in per_gen for w in ts]
    assert found and all(w.rec.aw is other.aw for w in found)
    monkeypatch.setattr(provider, "kl_gen_targets", lambda y: targets[y.key])
    across, method = [0], AffineElement.__eq__

    def counted(a, b):
        across[0] += isinstance(b, AffineElement) and a.rec.aw is not b.rec.aw
        return method(a, b)

    monkeypatch.setattr(AffineElement, "__eq__", counted)
    part = right_cells(c.aw, 12, 4, provider)
    monkeypatch.undo()
    assert across[0] >= len(found)
    assert all(w.rec.aw is c.aw for w in part.cell_of)
    assert len(part.cells) == 10
    assert _same_partition(part, right_cells_oracle(c.aw, 12, 4, provider))
    assert _same_partition(part, right_cells(c.aw, 12, 4, c.provider))


def test_graph_stage_hashes_each_node_and_source_once(ctx, monkeypatch):
    # on a warm memo, right_cells builds no edge list and no sort key, and
    # the walk over the ball hashes no element: what is hashed is each
    # source's memo entry and each node's cell_of entry; the rest runs on ints
    c = ctx("B3")
    right_cells(c.aw, 12, 3, c.provider)
    edges = counting(monkeypatch, heckecells.cells, "CellEdge")
    keys = counting(monkeypatch, AffineWeyl, "sort_key")
    hashes = counting(monkeypatch, AffineElement, "__hash__")
    part = right_cells(c.aw, 12, 3, c.provider)
    sources = sum(w.length <= 12 for w in part.cell_of)
    assert edges == keys == [0]
    assert hashes[0] <= len(part.cell_of) + sources


def test_cold_cells_job_counts(monkeypatch):
    # a cold B3 28/8 job: no edge list and no sort key; the fW flag is
    # computed only where no generator step set it (4 times here), and the
    # elements are hashed about five times per node (2 247 for 433 here)
    c = build_context("B3")
    counts = {
        name: counting(monkeypatch, owner, name)
        for owner, name in [
            (heckecells.cells, "CellEdge"),
            (AffineWeyl, "sort_key"),
            (AffineWeyl, "in_fW"),
            (AffineElement, "__hash__"),
        ]
    }
    part = right_cells(c.aw, 28, 8, c.provider)
    assert len(part.cell_of) == 433
    assert counts["CellEdge"] == counts["sort_key"] == [0]
    assert counts["in_fW"][0] <= 50
    assert counts["__hash__"][0] <= 3500


def test_export_json_deterministic(ctx):
    c = ctx("A1")
    part = small_partition(c)
    a = json.dumps(export_partition_json(c.aw, part), sort_keys=True)
    b = json.dumps(export_partition_json(c.aw, small_partition(c)), sort_keys=True)
    assert a == b


# -- finite generation toolkit ---------------------------------------------------


def test_generation_constants_a1(ctx):
    c = ctx("A1")
    consts = generation_constants(c.aw)
    assert consts == (2,)
    y_zero, z_set = enumerated_generation_sets(c.aw, consts)
    assert y_zero == [(0,), (2,)]
    words = sorted(c.aw.to_word(z) for z in z_set)
    assert words == ["e", "s0", "s0.s1"]


@pytest.mark.parametrize(
    "type_str,k",
    [
        ("A1", (2,)),
        ("A5", (6, 3, 2, 3, 6)),
        ("E6", (3, 1, 3, 1, 3, 3)),
        ("E8", (1,) * 8),
    ],
)
def test_generation_constants_pinned(type_str, k):
    # k_i is the order of e_i modulo the root lattice
    assert generation_constants(AffineWeyl(build_root_datum(type_str))) == k


@pytest.mark.parametrize(
    "type_str,bound",
    [
        ("A1", 16),
        ("A2", 12),
        ("B2", 12),
        ("C2", 12),
        ("G2", 12),
        ("A3", 8),
        ("B3", 7),
        ("C3", 7),
        ("D4", 5),
    ],
)
def test_decompose_lands_in_enumerated_z(ctx, type_str, bound):
    # lambda = 0 exactly on the enumerated Z: the membership test inside
    # decompose_fW agrees with the W_f x Y0 enumeration
    aw = ctx(type_str).aw
    consts = generation_constants(aw)
    z_set = set(enumerated_generation_sets(aw, consts)[1])
    for w in aw.enumerate_fW(bound):
        if aw.in_affine_weyl(w):
            lam, z = decompose_fW(aw, consts, w)
            assert (not any(lam)) == (w in z_set)
            assert z in z_set


def test_decompose_examples(ctx):
    c = ctx("A1")
    aw = c.aw
    consts = generation_constants(aw)
    assert decompose_fW(aw, consts, aw.identity) == ((0,), aw.identity)
    s0 = aw.gens[0]
    assert decompose_fW(aw, consts, s0) == ((0,), s0)
    t2a_s = aw.mult(aw.translation((4,)), from_finite(aw, aw.datum.simple_reflections[0]))
    lam, z = decompose_fW(aw, consts, t2a_s)
    assert (lam, z) == ((2,), s0)
    assert aw.mult(aw.translation(lam), z) == t2a_s


def test_decompose_random_remultiplies(ctx):
    for t in ("C2", "G2"):
        c = ctx(t)
        aw = c.aw
        consts = generation_constants(aw)
        z_set = set(enumerated_generation_sets(aw, consts)[1])
        rng = random.Random(17)
        for _ in range(120):
            w = from_word(aw, [rng.randrange(3) for _ in range(20)])
            w = aw.min_coset_rep(w)
            lam, z = decompose_fW(aw, consts, w)
            assert z in z_set
            assert aw.datum.is_dominant(lam) and aw.datum.in_root_lattice(lam)
            assert aw.mult(aw.translation(lam), z) == w


@pytest.mark.parametrize(
    "type_str,bound", [("A1", 16), ("A2", 10), ("C2", 10), ("G2", 10), ("B3", 6)]
)
def test_decompose_matches_peeling_oracle(ctx, type_str, bound):
    # the closed form agrees with peeling one varpi_i at a time on the ball
    aw = ctx(type_str).aw
    consts = generation_constants(aw)
    for w in aw.enumerate_fW(bound):
        if aw.in_affine_weyl(w):
            assert decompose_fW(aw, consts, w) == decompose_oracle(aw, consts, w)


def test_decompose_rejects_non_minimal(ctx):
    c = ctx("A1")
    consts = generation_constants(c.aw)
    with pytest.raises(ValueError):
        decompose_fW(c.aw, consts, c.aw.gens[1])


def test_stabilization_examples(ctx):
    c = ctx("A1")
    aw = c.aw
    consts = generation_constants(aw)
    part = small_partition(c)
    s0 = aw.gens[0]
    assert stabilization_n(aw, consts, part, s0, []) == 0
    assert stabilization_n(aw, consts, part, s0, [0]) == 0
    assert stabilization_n(aw, consts, part, aw.identity, [0]) == 1


def test_stabilization_bounded(ctx):
    # the observed constants stay bounded; report-style check
    for t in ("A1", "C2"):
        c = ctx(t)
        aw = c.aw
        consts = generation_constants(aw)
        part = right_cells(aw, 14, 4, c.provider)
        bound = observed_stabilization_bound(aw, consts, part)
        assert 0 <= bound <= 3


STABILIZATION_PARTITIONS = [
    ("A1", 12, 3), ("A2", 14, 4), ("C2", 16, 4), ("G2", 20, 6), ("B3", 10, 3)
]


@pytest.mark.parametrize("type_str, L, m", STABILIZATION_PARTITIONS)
def test_stabilization_matches_oracle(ctx, type_str, L, m):
    # one walk and one backward scan against the oracle's early exits, on
    # every w in fW up to L + 1 (the last length untrusted) and every psi
    c = ctx(type_str)
    aw = c.aw
    rank = c.datum.rank
    consts = generation_constants(aw)
    part = right_cells(aw, L, m, c.provider)
    for w in aw.enumerate_fW(L + 1):
        for mask in range(1 << rank):
            psi = [i for i in range(rank) if mask >> i & 1]
            assert stabilization_n(aw, consts, part, w, psi) == stabilization_n_oracle(
                aw, consts, part, w, psi
            )
    assert observed_stabilization_bound(aw, consts, part) == (
        observed_stabilization_bound_oracle(aw, consts, part)
    )


def test_n_xpsi_inequality(ctx):
    # n(w, lam) <= k_phi * n(w, x_{Psi(lam)}) where both sides are known,
    # with k_phi = max(k)
    c = ctx("C2")
    aw = c.aw
    d = c.datum
    consts = generation_constants(aw)
    part = right_cells(aw, 16, 4, c.provider)

    def n_of(w, lam):
        shift = aw.translation(lam)
        seen = []
        cur = w
        while True:
            idx = part.cell_index(cur)
            if idx is None or not part.trusted[idx]:
                break
            seen.append(idx)
            cur = aw.mult(shift, cur)
        if len(seen) < 2 or seen[-2] != seen[-1]:
            return None
        n = len(seen) - 1
        while n > 0 and seen[n - 1] == seen[-1]:
            n -= 1
        return n

    lams = [lam for lam in [(2, 0), (0, 1), (2, 1), (4, 1)] if d.in_root_lattice(lam)]
    for w in aw.enumerate_fW(5):
        for lam in lams:
            psi = [i for i in range(d.rank) if lam[i] > 0]
            lhs = n_of(w, lam)
            rhs = stabilization_n(aw, consts, part, w, psi)
            if lhs is not None and rhs is not None:
                assert lhs <= max(consts) * rhs or rhs == 0 and lhs == 0


def test_cell_generators_examples(ctx):
    c = ctx("A1")
    aw = c.aw
    consts = generation_constants(aw)
    part = small_partition(c)
    K0 = cell_generators(aw, consts, part, part.cell_index(aw.identity))
    assert K0 == {aw.identity}
    K1 = cell_generators(aw, consts, part, part.cell_index(aw.gens[0]))
    # the named generators t_alpha and t_alpha s_alpha are present and the
    # factorization of every trusted member was verified inside the call
    assert aw.translation((2,)) in K1
    assert aw.gens[0] in K1


def test_cell_generators_g2_all_cells(ctx):
    # the generating-set filter bounds the lambda of the canonical
    # factorization; at the default bound every trusted G2 cell verifies
    c = ctx("G2")
    aw = c.aw
    consts = generation_constants(aw)
    part = right_cells(aw, 24, 8, c.provider)
    for cid in part.trusted_cells():
        K = cell_generators(aw, consts, part, cid)
        assert K <= set(part.cells[cid])
        assert K


def test_cell_generators_need_trusted(ctx):
    c = ctx("A1")
    aw = c.aw
    consts = generation_constants(aw)
    part = small_partition(c)
    bad = [i for i, t in enumerate(part.trusted) if not t]
    with pytest.raises(ValueError):
        cell_generators(aw, consts, part, bad[0])
