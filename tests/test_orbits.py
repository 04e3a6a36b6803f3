import itertools

import pytest

from heckecells.affine import AffineWeyl
from heckecells.cells import right_cells
from heckecells.orbits import (
    _distinguished_pairs,
    _named_orbits,
    _partition_of_pair,
    _status_for,
    build_orbit_table,
    closure_order,
    enumerate_orbits,
    humphreys_predict,
)
from heckecells.rootdata import build_root_datum

from oracles import (
    conjugacy_classes_oracle,
    is_distinguished_oracle,
    levi_roots_oracle,
    orbit_dimension_oracle,
    orbit_table_oracle,
    partition_of_pair_oracle,
    shi_lowest_cell,
    status_oracle,
    subregular_cover_oracle,
)


def partitions_of(n):
    def gen(n, mx):
        if n == 0:
            return 1
        return sum(gen(n - k, k) for k in range(min(n, mx), 0, -1))

    return gen(n, n)


def test_orbit_counts(ctx):
    assert len(enumerate_orbits(ctx("A1").datum)) == 2
    assert len(enumerate_orbits(ctx("C2").datum)) == 4
    assert len(enumerate_orbits(ctx("G2").datum)) == 5


def test_type_a_counts_match_partitions(ctx):
    for n in range(2, 7):
        d = build_root_datum(f"A{n - 1}")
        orbs = enumerate_orbits(d)
        assert len(orbs) == partitions_of(n)
        names = {o.name for o in orbs}
        assert len(names) == len(orbs)


def test_universal_orbits(ctx):
    for t in ("C2", "G2", "B3"):
        d = ctx(t).datum if t != "B3" else build_root_datum("B3")
        orbs = enumerate_orbits(d)
        dims = {o.dimension for o in orbs}
        nroots = 2 * len(d.positive_roots)
        assert 0 in dims and nroots in dims and nroots - 2 in dims
        reg = next(o for o in orbs if o.dimension == nroots)
        assert set(reg.bala_carter[0]) == set(range(d.rank))
        assert reg.bala_carter[1] == ()
        zero = next(o for o in orbs if o.dimension == 0)
        assert zero.bala_carter == ((), ())


@pytest.mark.parametrize(
    "type_str", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "F4", "G2"]
)
def test_orbits_match_conjugacy_search_oracle(type_str):
    # classes by weighted Dynkin diagram = classes by Weyl-orbit search of
    # the root sets; dimensions against the unreflected Fraction pairing
    d = build_root_datum(type_str)
    classes = conjugacy_classes_oracle(d, list(_distinguished_pairs(d)))
    reps = [min(cls) for cls in classes]
    expected = sorted((orbit_dimension_oracle(d, I, J), (I, J)) for I, J in reps)
    assert enumerate_orbits(d) == _named_orbits(d, expected)


@pytest.mark.parametrize("type_str,count", [("E6", 21), ("E7", 45)])
def test_exceptional_orbit_counts(type_str, count):
    d = build_root_datum(type_str)
    dims = sorted(o.dimension for o in enumerate_orbits(d))
    assert len(dims) == count
    # the minimal orbit has dimension 2h - 2, the regular one |Phi|
    assert dims[:2] == [0, 2 * d.coxeter_number - 2]
    assert dims[-1] == 2 * len(d.positive_roots)
    assert dims.count(dims[-1]) == 1


def test_g2_orbit_ladder(ctx):
    orbs = enumerate_orbits(ctx("G2").datum)
    assert [(o.name, o.dimension) for o in orbs] == [
        ("zero", 0),
        ("minimal", 6),
        ("middle", 8),
        ("subregular", 10),
        ("regular", 12),
    ]


def test_c2_orbit_ladder(ctx):
    orbs = enumerate_orbits(ctx("C2").datum)
    assert [(o.name, o.dimension) for o in orbs] == [
        ("zero", 0),
        ("minimal", 4),
        ("subregular", 6),
        ("regular", 8),
    ]


def test_closure_order_chains(ctx):
    for t in ("C2", "G2"):
        d = ctx(t).datum
        orbs = enumerate_orbits(d)
        leq = closure_order(d, orbs)
        n = len(orbs)
        for i in range(n):
            for j in range(n):
                assert leq[i][j] == (orbs[i].dimension <= orbs[j].dimension)


def dominance_oracle(a, b):
    pa = list(a) + [0] * (len(b) - len(a))
    pb = list(b) + [0] * (len(a) - len(b))
    sa = sb = 0
    for x, y in zip(pa, pb):
        sa += x
        sb += y
        if sa > sb:
            return False
    return True


@pytest.mark.parametrize("type_str", [f"A{n}" for n in range(1, 8)])
def test_type_a_closure_is_dominance(type_str):
    d = build_root_datum(type_str)
    orbs = enumerate_orbits(d)
    leq = closure_order(d, orbs)
    parts = [tuple(int(x) for x in o.name.strip("[]").split(",")) for o in orbs]
    for i in range(len(orbs)):
        for j in range(len(orbs)):
            assert leq[i][j] == dominance_oracle(parts[i], parts[j])


def test_closure_order_unavailable(ctx):
    # rank >= 3 outside type A has no closure order here: None, not a raise
    for t in ("B3", "C3", "D4", "F4"):
        d = build_root_datum(t)
        assert closure_order(d, enumerate_orbits(d)) is None


@pytest.mark.parametrize("type_str", [f"A{n}" for n in range(1, 8)])
def test_partition_of_pair_matches_oracle(type_str):
    # runs read by groupby against the oracle's running count, on every
    # Levi subset, passed as the tuple the callers hold and as a set
    d = build_root_datum(type_str)
    for mask in range(1 << d.rank):
        I = tuple(i for i in range(d.rank) if mask >> i & 1)
        want = partition_of_pair_oracle(d, frozenset(I))
        assert _partition_of_pair(d, I) == _partition_of_pair(d, set(I)) == want


@pytest.mark.parametrize(
    "type_str",
    ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "F4", "G2"],
)
def test_distinguished_pairs_match_oracle(type_str):
    # the one-list degree count against the oracle's tally, on every (I, J)
    d = build_root_datum(type_str)
    want = []
    for imask in range(1 << d.rank):
        I = frozenset(i for i in range(d.rank) if imask >> i & 1)
        levi = levi_roots_oracle(d, I)
        for J in itertools.chain.from_iterable(
            itertools.combinations(sorted(I), k) for k in range(len(I) + 1)
        ):
            if is_distinguished_oracle(levi, I, frozenset(J)):
                want.append((tuple(sorted(I)), J))
    assert sorted(_distinguished_pairs(d)) == sorted(want)


# -- cell dictionary and predictions ----------------------------------------------


def _table(c, L, m):
    part = right_cells(c.aw, L, m, c.provider)
    return part, build_orbit_table(c.aw, part)


def test_cell_map_a1(ctx):
    # type A orbits carry partition names: [2] is regular, [1,1] is zero
    c = ctx("A1")
    part, table = _table(c, 12, 3)
    id_cell = part.cell_index(c.aw.identity)
    reg = table.orbits[table.cell_map[id_cell]]
    assert reg.name == "[2]" and reg.dimension == 2
    other = part.cell_index(c.aw.gens[0])
    zero = table.orbits[table.cell_map[other]]
    assert zero.name == "[1,1]" and zero.dimension == 0


def test_cell_map_untrusted_raises(ctx):
    # an untrusted cell has no entry in the cell map
    c = ctx("A1")
    part, table = _table(c, 12, 3)
    bad = [i for i, t in enumerate(part.trusted) if not t][0]
    assert bad not in table.cell_map


def _table_or_error(build, aw, part):
    try:
        return build(aw, part).cell_map
    except (ValueError, AssertionError) as e:
        return type(e), str(e)


@pytest.mark.parametrize("type_str,top", [("A1", 12), ("A2", 12), ("B2", 16), ("C2", 16), ("G2", 20)])
def test_rank2_chain_rule_matches_pinned_oracle(ctx, type_str, top):
    # the one chain rule gives the oracle's dictionary, or its exception
    # type and message, on every partition with even L <= top and m <= L
    c = ctx(type_str)
    for L in range(0, top + 1, 2):
        for m in range(L + 1):
            part = right_cells(c.aw, L, m, c.provider)
            want = _table_or_error(orbit_table_oracle, c.aw, part)
            assert _table_or_error(build_orbit_table, c.aw, part) == want, (L, m)


def test_monotone_cell_map_c2_g2(ctx):
    # cell preorder implies orbit closure order on trusted cells
    for t, (L, m) in [("C2", (20, 6)), ("G2", (24, 8))]:
        c = ctx(t)
        part, table = _table(c, L, m)
        trusted = part.trusted_cells()
        assert len(trusted) == len(table.orbits)
        for a in trusted:
            for b in trusted:
                if b in part.reach[a]:
                    ia, ib = table.cell_map[a], table.cell_map[b]
                    assert table.leq[ib][ia]


def test_g2_middle_cell_double_coset_chain(ctx):
    # the double-coset minima of the middle cell form a single chain with
    # constant step z = s2 s1 s2 s1 s0; this pins the middle/minimal
    # assignment independently of the preorder match
    c = ctx("G2")
    aw = c.aw
    part, table = _table(c, 24, 8)
    mid = next(
        cid for cid, i in table.cell_map.items() if table.orbits[i].name == "middle"
    )
    fwf = [w for w in part.cells[mid] if aw.in_fWf(w)]
    assert len(fwf) >= 2
    z = aw.from_word_str("s2.s1.s2.s1.s0")
    for a, b in zip(fwf, fwf[1:]):
        assert aw.mult(aw.inverse(a), b) == z
    # the minimal cell's minima do not follow that chain
    mn = next(
        cid for cid, i in table.cell_map.items() if table.orbits[i].name == "minimal"
    )
    fwf_min = [w for w in part.cells[mn] if aw.in_fWf(w)]
    assert any(
        aw.mult(aw.inverse(a), b) != z for a, b in zip(fwf_min, fwf_min[1:])
    )


def test_predictions_universal_endpoints(ctx):
    for t, p in [("C2", 7), ("G2", 11)]:
        c = ctx(t)
        part, table = _table(c, *( (20, 6) if t == "C2" else (24, 8) ))
        rec = humphreys_predict(c.aw, part, table, (0, 0), p)
        assert rec.orbit.name == "regular"
        assert rec.status == "theorem"
        assert rec.closure_chain[-1] == "regular"
        lam = tuple(p - 1 for _ in range(2))
        rec = humphreys_predict(c.aw, part, table, lam, p)
        assert rec.orbit.name == "zero"
        assert rec.closure_chain == ["zero"]


def test_zero_cell_is_deep_corner(ctx):
    # independent validation of the zero pin: the alcoves of the minimal
    # cell are exactly those whose weights lie in (p-1)rho + dominant cone
    for t, (L, m, p) in [("C2", (20, 6, 7)), ("G2", (24, 8, 11))]:
        c = ctx(t)
        aw = c.aw
        part, table = _table(c, L, m)
        zero_cells = [
            cid
            for cid, i in table.cell_map.items()
            if table.orbits[i].dimension == 0
        ]
        assert len(zero_cells) == 1
        c0 = zero_cells[0]
        corner = tuple(p - 1 for _ in range(2))
        for w in part.cells[c0]:
            lam = aw.dot_action(w, (0, 0), p)
            assert all(a >= b for a, b in zip(lam, corner))
        # and conversely: corner weights land in c0 while others do not
        for shift in [(0, 0), (1, 0), (0, 1), (3, 2)]:
            lam = tuple(a + b for a, b in zip(corner, shift))
            assert part.cell_index(aw.alcove_of(lam, p).element) == c0
        assert part.cell_index(aw.alcove_of((p - 2, p - 1), p).element) != c0


def test_predictions_constant_on_cells(ctx):
    c = ctx("C2")
    p = 7
    part, table = _table(c, 20, 6)
    for i in part.trusted_cells():
        names = set()
        for w in part.cells[i][:4]:
            lam = c.aw.dot_action(w, (0, 0), p)
            rec = humphreys_predict(c.aw, part, table, lam, p)
            names.add(rec.orbit.name if rec.orbit else None)
        assert len(names) == 1


def test_relative_mode(ctx):
    c = ctx("C2")
    p = 7
    part, table = _table(c, 20, 6)
    aw = c.aw
    # s0 is in fWf: genuine orbit prediction
    lam = aw.dot_action(aw.gens[0], (0, 0), p)
    rec = humphreys_predict(aw, part, table, lam, p, mode="relative")
    assert not rec.empty_variety and rec.orbit is not None
    # an fW element outside fWf: empty variety
    w = next(
        w
        for w in aw.enumerate_fW(6)
        if aw.in_fW(w) and not aw.in_fWf(w)
    )
    lam = aw.dot_action(w, (0, 0), p)
    rec = humphreys_predict(aw, part, table, lam, p, mode="relative")
    assert rec.empty_variety and rec.orbit is None and rec.status == "theorem"
    # relative mode requires lam = w . 0 exactly
    with pytest.raises(ValueError):
        humphreys_predict(aw, part, table, (1, 0), p, mode="relative")


def test_statuses(ctx):
    g2 = ctx("G2")
    part, table = _table(g2, 24, 8)
    mid_cell = next(
        cid for cid, i in table.cell_map.items() if table.orbits[i].name == "middle"
    )
    w = part.cells[mid_cell][0]
    lam = g2.aw.dot_action(w, (0, 0), 11)
    rec = humphreys_predict(g2.aw, part, table, lam, 11)
    assert rec.orbit.name == "middle" and rec.status == "conjectural"
    min_cell = next(
        cid for cid, i in table.cell_map.items() if table.orbits[i].name == "minimal"
    )
    w = part.cells[min_cell][0]
    lam = g2.aw.dot_action(w, (0, 0), 11)
    rec = humphreys_predict(g2.aw, part, table, lam, 11)
    assert rec.orbit.name == "minimal" and rec.status == "theorem"

    c2 = ctx("C2")
    part, table = _table(c2, 20, 6)
    min_cell = next(
        cid for cid, i in table.cell_map.items() if table.orbits[i].name == "minimal"
    )
    w = part.cells[min_cell][0]
    lam = c2.aw.dot_action(w, (0, 0), 7)
    rec = humphreys_predict(c2.aw, part, table, lam, 7)
    assert rec.status == "theorem"  # C2 proved for p > 5


def test_prediction_json_shape(ctx):
    c = ctx("C2")
    part, table = _table(c, 20, 6)
    rec = humphreys_predict(c.aw, part, table, (1, 1), 7)
    obj = rec.to_json()
    assert obj["schema"] == 1
    assert set(obj) >= {
        "type",
        "p",
        "lambda",
        "w_reduced_word",
        "cell",
        "orbit_name",
        "bala_carter",
        "dimension",
        "closure_chain",
        "status",
    }


def test_universal_entries_only_in_higher_rank(ctx):
    # A3: identity cell still maps to the regular orbit; other cells unknown
    c = ctx("A3")
    part = right_cells(c.aw, 8, 2, c.provider)
    table = build_orbit_table(c.aw, part)
    id_cell = part.cell_index(c.aw.identity)
    assert table.orbits[table.cell_map[id_cell]].name == "[4]"
    rec = humphreys_predict(c.aw, part, table, (0, 0, 0), 7)
    assert rec.orbit.name == "[4]" and rec.status == "theorem"


@pytest.mark.parametrize("type_str,trusted", [("B3", 7), ("C3", 8)])
def test_rank3_trusted_cells_reach_orbit_count(ctx, type_str, trusted):
    # Lusztig's bijection beyond rank 2: at length 34 and margin 10 the
    # trusted cells are as many as the nilpotent orbits, and the orbit
    # table pins the regular, subregular and zero orbits on them
    c = ctx(type_str)
    part = right_cells(c.aw, 34, 10, c.provider)
    assert len(part.trusted_cells()) == trusted == len(enumerate_orbits(c.datum))
    table = build_orbit_table(c.aw, part)
    dims = sorted(o.dimension for o in table.orbits)
    pinned = sorted(table.orbits[j].dimension for j in table.cell_map.values())
    assert pinned == [dims[0], dims[-2], dims[-1]]
    id_cell = part.cell_index(c.aw.identity)
    assert table.orbits[table.cell_map[id_cell]].dimension == dims[-1]
    # the zero cell is the deep corner: its weights lie in (p-1)rho + the
    # dominant cone
    p = 7
    (zero_cell,) = [i for i, j in table.cell_map.items() if table.orbits[j].dimension == 0]
    for w in part.cells[zero_cell]:
        assert all(a >= p - 1 for a in c.aw.dot_action(w, (0, 0, 0), p))


@pytest.mark.parametrize("type_str", ["A3", "B3", "C3"])
def test_rank3_zero_orbit_needs_full_count(ctx, type_str):
    # at the rank-3 default 10/3 the trusted cells are fewer than the
    # orbits, so the lowest resolved cell is not pinned to the zero orbit
    c = ctx(type_str)
    part = right_cells(c.aw, 10, 3, c.provider)
    table = build_orbit_table(c.aw, part)
    assert len(part.trusted_cells()) < len(table.orbits)
    assert all(table.orbits[j].dimension != 0 for j in table.cell_map.values())


def test_a3_empty_margin_keeps_identity_regular(ctx):
    # with only the identity cell trusted, lambda = 0 is regular
    c = ctx("A3")
    part, table = _table(c, 0, 0)
    rec = humphreys_predict(c.aw, part, table, (0, 0, 0), 5)
    assert rec.orbit.name == "[4]" and rec.status == "theorem"


@pytest.mark.parametrize(
    "type_str,bound",
    [("A1", 12), ("A2", 20), ("B2", 20), ("C2", 20), ("G2", 24), ("A3", 10), ("B3", 10), ("C3", 10)],
)
def test_subregular_cell_is_cover_of_identity(ctx, type_str, bound):
    # the cell of s0, when trusted, is the unique trusted cell covered by
    # the identity cell, and there is no unique cover otherwise
    c = ctx(type_str)
    for L in range(0, bound + 1, 2):
        for m in range(0, L + 1, 2):
            part = right_cells(c.aw, L, m, c.provider)
            s0_cell = part.cell_index(c.aw.gens[0])
            expected = s0_cell if part.trusted[s0_cell] else None
            assert subregular_cover_oracle(c.aw, part) == expected


@pytest.mark.parametrize(
    "type_str",
    ["A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5", "C2", "C3",
     "C4", "C5", "D4", "D5", "D6", "G2", "F4", "E6", "E7"],
)
def test_status_rule_matches_name_rule(type_str):
    d = build_root_datum(type_str)
    for orbit in [None, *enumerate_orbits(d)]:
        for p in range(2, 40):
            assert _status_for(d, p, orbit) == status_oracle(d, p, orbit)


@pytest.mark.parametrize(
    "type_str,p,length",
    [("A2", 5, 4), ("C2", 5, 7), ("G2", 7, 16), ("A3", 5, 10), ("B3", 7, 22), ("C3", 7, 22), ("D4", 7, 28)],
)
def test_zero_cell_starts_at_the_sum_of_rho_coroot_pairings(type_str, p, length):
    # for a prime p > h, the w in fW with every coordinate of w ._p 0 at
    # least p - 1 (T(w ._p 0) projective over G_1, support variety {0}) are
    # the zero cell's; the shortest has length sum over a > 0 of <rho, a^vee>
    aw = AffineWeyl(build_root_datum(type_str))
    assert p > aw.datum.coxeter_number
    assert sum(sum(a.coroot) for a in aw.datum.positive_roots) == length
    zero = (0,) * aw.datum.rank
    lengths = [
        w.length for w in aw.enumerate_fW(length) if min(aw.dot_action(w, zero, p)) >= p - 1
    ]
    assert lengths and min(lengths) == length


@pytest.mark.parametrize(
    "type_str,p,bound",
    [("A2", 5, 14), ("C2", 5, 16), ("G2", 7, 22), ("A3", 5, 12), ("B3", 7, 26), ("C3", 7, 26), ("D4", 7, 30)],
)
def test_shi_lowest_cell_is_the_shifted_chamber(type_str, p, bound):
    # Shi's c0 (a prefix x . w_J with l(w_J) = |Phi+|) meets fW where every
    # coordinate of w ._p 0 is at least p - 1, for a prime p > h
    aw = AffineWeyl(build_root_datum(type_str))
    assert p > aw.datum.coxeter_number
    zero, memo = (0,) * aw.datum.rank, {}
    ball = aw.enumerate_fW(bound)
    in_c0 = [w for w in ball if shi_lowest_cell(aw, w, memo)]
    assert in_c0 and len(in_c0) < len(ball)
    for w in ball:
        assert shi_lowest_cell(aw, w, memo) == (min(aw.dot_action(w, zero, p)) >= p - 1)


@pytest.mark.parametrize("type_str,L,m", [("C2", 20, 6), ("G2", 24, 8), ("A3", 16, 4), ("B3", 34, 10)])
def test_shi_lowest_cell_is_the_pinned_zero_cell(ctx, type_str, L, m):
    # among the trusted cells, Shi's c0 holds on every element of the cell
    # the orbit table pins as zero and on no element of any other
    c = ctx(type_str)
    part, table = _table(c, L, m)
    (zero,) = [i for i, j in table.cell_map.items() if table.orbits[j].dimension == 0]
    memo = {}
    for i in part.trusted_cells():
        assert {shi_lowest_cell(c.aw, w, memo) for w in part.cells[i]} == {i == zero}
