import json
import random

import pytest

import heckecells.hecke
from heckecells.affine import UnsupportedRegimeError
from heckecells.cli import main
from heckecells.hecke import (
    AsphElt,
    BasisTableError,
    CanonicalBasisTable,
    HeckeElt,
    TableBasisProvider,
    build_context,
    load_basis_table,
    specialize_v1,
    table_from_zero_basis,
)
from heckecells.hecke import _canonical, _decode
from heckecells.laurent import ONE, V, VINV, LaurentPoly

from oracles import (
    asph_canonical_oracle,
    bs_product,
    dump_json_oracle,
    dump_text_oracle,
    hecke_mul,
    in_positive_part,
    is_nonnegative,
    kl_gen,
    kl_gen_targets_oracle,
    kl_mul,
    kl_oracle,
    laurent_canonical,
    mul_by_word,
    standard,
    table_rows_oracle,
    two_dict_canonical,
    validate_table_oracle,
)


def test_quadratic_relation(ctx):
    c = ctx("A1")
    s1 = c.aw.gens[1]
    sq = c.hecke.mul_by_gen(standard(s1), 1)
    assert sq == HeckeElt({c.aw.identity: ONE, s1: VINV - V})


def test_quadratic_relation_on_kl_basis(ctx):
    # (h H_s) H_s = h + (v^-1 - v) h H_s, through the shared generator action
    c = ctx("C2")
    for w in c.aw.enumerate_W(5):
        h = c.hecke.kl_basis(w)
        for i in range(len(c.aw.gens)):
            hs = c.hecke.mul_by_gen(h, i)
            assert c.hecke.mul_by_gen(hs, i) == h + hs.scale(VINV - V)


def test_kl_generator_square(ctx):
    # (H_s + v)(H_s + v) = (v + v^-1)(H_s + v)
    c = ctx("C2")
    for i in range(3):
        kg = kl_gen(c.hecke, i)
        assert kl_mul(c.hecke, kg, i) == kg.scale(V + VINV)


def test_bs_product_examples(ctx):
    c = ctx("A1")
    assert bs_product(c.hecke, []) == c.hecke.unit()
    assert bs_product(c.hecke, [1]) == kl_gen(c.hecke, 1)
    assert bs_product(c.hecke, [1, 1]) == kl_gen(c.hecke, 1).scale(V + VINV)


def test_kl_basis_examples(ctx):
    c = ctx("A1")
    aw = c.aw
    s0, s1 = aw.gens
    assert c.hecke.kl_basis(aw.identity) == c.hecke.unit()
    assert c.hecke.kl_basis(s0) == HeckeElt({s0: ONE, aw.identity: V})
    w = aw.mult(s0, s1)
    expect = HeckeElt(
        {w: ONE, s0: V, s1: V, aw.identity: V * V}
    )
    assert c.hecke.kl_basis(w) == expect


def test_kl_matches_bar_solve_oracle_small(ctx):
    c = ctx("A1")
    for w in c.aw.enumerate_W(6):
        assert c.hecke.kl_basis(w) == kl_oracle(c.hecke, w)
    c = ctx("C2")
    for w in c.aw.enumerate_W(4):
        assert c.hecke.kl_basis(w) == kl_oracle(c.hecke, w)


@pytest.mark.parametrize(
    "type_str,bound", [("A1", 10), ("A2", 8), ("C2", 10), ("G2", 10), ("B3", 8), ("A4", 8)]
)
def test_coded_recursion_matches_laurent_recursion(type_str, bound):
    # the recursion on coded integers against the same recursion on
    # LaurentPoly coefficients, on every element of the ball, in the algebra
    # and in the antispherical module; and the W-graph targets read off the
    # codes against those read off the oracle's mu
    c = build_context(type_str)
    aw = c.aw
    kl_memo, asph_memo = {}, {}

    def mul(h, i):
        return kl_mul(c.hecke, h, i)

    for w in aw.enumerate_W(bound):
        assert c.hecke.kl_basis(w) == laurent_canonical(aw, mul, kl_memo, w), w
    for y in aw.enumerate_fW(bound):
        ny = laurent_canonical(aw, c.asph.mul_by_kl_gen, asph_memo, y)
        assert c.asph.canonical(y) == ny, y
        targets = c.provider.kl_gen_targets(y)
        assert len(targets) == len(aw.gens)
        for i, got in enumerate(targets):
            ys = aw.mult_gen(y, i)
            if ys.length < y.length:
                expected = [y]
            else:
                expected = [ys] if aw.in_fW(ys) else []
                expected += [
                    z for z, n in ny.terms.items()
                    if n.coeff(1) and aw.mult_gen(z, i).length < z.length
                ]
            assert sorted(got, key=aw.sort_key) == sorted(expected, key=aw.sort_key)
            assert got == kl_gen_targets_oracle(c.provider, y, i)


@pytest.mark.parametrize(
    "type_str,bound", [("A1", 10), ("A2", 8), ("C2", 10), ("G2", 10), ("B3", 8), ("A4", 8)]
)
def test_indexed_recursion_matches_two_dict_recursion(type_str, bound):
    # the recursion from the cheapest memoized descent, summing through one
    # position index, against the smallest-descent recursion summing into two
    # dicts: every memo entry, in the algebra and in the antispherical module,
    # maps each z to the same code and n(1); the term order follows the
    # descent taken, so it is not compared.  A ball walk memoizes the same
    # elements; a single element computes none the oracle does not.
    aw = build_context(type_str).aw
    for keep, ball in ((None, aw.enumerate_W(bound)), (aw.in_fW, aw.enumerate_fW(bound))):
        memo, oracle_memo = {}, {}
        for w in ball:
            _canonical(aw, keep, memo, w)
            two_dict_canonical(aw, keep, oracle_memo, w)
        assert memo.keys() == oracle_memo.keys()
        for w, (elts, codes, ones) in memo.items():
            ocodes, oones = oracle_memo[w]
            assert {z: (c, n) for z, c, n in zip(elts, codes, ones)} == {
                z: (c, oones[z]) for z, c in ocodes.items()
            }, w
        for w in [w for w in ball if w.length == bound][:8]:
            alone, oracle_alone = {}, {}
            _canonical(aw, keep, alone, w)
            two_dict_canonical(aw, keep, oracle_alone, w)
            assert alone.keys() <= oracle_alone.keys(), w


class _CountingMemo(dict):
    """A memo whose stored supports count the terms read out of them."""

    read = 0

    def __setitem__(self, w, out):
        super().__setitem__(w, (_CountedSupport(self, out[0]), *out[1:]))


class _CountedSupport(list):
    def __init__(self, memo, elts):
        super().__init__(elts)
        self.memo = memo

    def __iter__(self):
        self.memo.read += len(self)
        return super().__iter__()


@pytest.mark.parametrize("in_module", [False, True], ids=["algebra", "module"])
def test_recursion_takes_the_memoized_descent_with_fewest_terms(in_module):
    # A walk in length order finds C_ws memoized for every right descent s
    # of w, and building C_w from s reads |C_ws| product terms plus |C_x|
    # for each x with xs < x and mu(x, ws) != 0.  The terms read through a
    # counting memo equal that cost summed over the descents of fewest
    # terms (the smallest of them on a tie), and the cost is lower than from
    # the smallest descent, the rule of ``two_dict_canonical``, or from the
    # descent of most terms.
    aw = build_context("B3").aw
    keep, ball = (aw.in_fW, aw.enumerate_fW(12)) if in_module else (None, aw.enumerate_W(8))
    memo = _CountingMemo()
    for w in ball:
        _canonical(aw, keep, memo, w)
    read = memo.read
    size = {w: len(elts) for w, (elts, _, _) in memo.items()}

    def cost(w, i):
        ws = aw.mult_gen(w, i)
        elts, codes, _ = memo[ws]
        return size[ws] + sum(
            size[x] for x, c in zip(elts, codes)
            if c >> 64 & (1 << 64) - 1 and aw.mult_gen(x, i).length < x.length
        )

    totals = {"fewest": 0, "smallest": 0, "most": 0}
    for w in ball:
        descents = [i for i in range(len(aw.gens)) if aw.mult_gen(w, i).length < w.length]
        if descents:
            terms = [size[aw.mult_gen(w, i)] for i in descents]
            totals["fewest"] += cost(w, descents[terms.index(min(terms))])
            totals["smallest"] += cost(w, descents[0])
            totals["most"] += cost(w, descents[terms.index(max(terms))])
    assert read == totals["fewest"]
    assert totals["fewest"] < min(totals["smallest"], totals["most"])


@pytest.mark.parametrize(
    "code,one",
    [
        (1 << 128, 1 << 64),  # 2^64 v carried into one v^2
        (1 << 63 << 64, 1 << 63),  # a digit of 2^63, with a matching sum
        (-(1 << 64), -1),  # a negative code
        (3 << 64, 2),  # digit sum 3 against the value 2 at v = 1
    ],
    ids=["carry", "digit", "negative", "sum"],
)
def test_decode_guard_raises_exit_3_error(code, one):
    with pytest.raises(UnsupportedRegimeError):
        _decode(code, one)


def test_decode_reads_digits_as_coefficients():
    assert _decode(1, 1) == ONE
    assert _decode((2 << 64) + (5 << 192), 7) == LaurentPoly({1: 2, 3: 5})


def test_recursion_guard_exits_3(monkeypatch, capsys):
    # with the bound on n(1) lowered to 2, the first coefficient with
    # n(1) = 2 (v^2 + v^4 at e in C_{s0 s1 s2 s0} of A2) trips the guard
    monkeypatch.setattr(heckecells.hecke, "_BOUND", 2)
    assert main(["kl", "--type", "A2", "--w", "s0.s1.s0"]) == 0
    capsys.readouterr()
    assert main(["kl", "--type", "A2", "--w", "s0.s1.s2.s0"]) == 3
    assert '"code": 3' in capsys.readouterr().err


def test_kl_memo_budget_exits_3(monkeypatch, capsys):
    # the algebra memo counts its terms as entries are stored; past the
    # budget the recursion stops with the exit-3 error and prints nothing.
    # The count is per context: a fresh one answers again under the budget.
    word = ".".join(["s0.s1.s2"] * 10 + ["s0"])  # length 31: 53 183 memo terms
    c = build_context("C2")
    c.hecke.kl_basis(c.aw.from_word_str("s0.s1.s2.s0.s1"))
    memo = c.hecke._kl_cache
    assert memo.terms == sum(len(elts) for elts, _, _ in memo.values()) > 0
    monkeypatch.setattr(heckecells.hecke, "KL_MEMO_TERMS", 20_000)
    for _ in range(2):
        assert main(["kl", "--type", "C2", "--w", word]) == 3
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and json.loads(err)["code"] == 3
        assert main(["kl", "--type", "C2", "--w", "s0.s1.s2.s0.s1.s2.s0"]) == 0
        capsys.readouterr()
    with pytest.raises(UnsupportedRegimeError, match="memo terms"):
        c.hecke.kl_basis(c.aw.from_word_str(word))
    assert memo.terms == sum(len(elts) for elts, _, _ in memo.values()) <= 20_000


def test_kl_self_dual_and_triangular(ctx):
    c = ctx("C2")
    for w in c.aw.enumerate_W(5):
        h = c.hecke.kl_basis(w)
        assert c.hecke.bar(h) == h
        assert h.coeff(w) == ONE
        for y, coeff in h.terms.items():
            if y != w:
                assert in_positive_part(coeff)
                assert c.aw.bruhat_leq(y, w)


@pytest.mark.parametrize("type_str,bound", [("A2", 6), ("C2", 7), ("G2", 8), ("B3", 5)])
def test_bruhat_interval_is_kl_support(ctx, type_str, bound):
    # P_{y,w}(0) = 1 for every y <= w, so the lower Bruhat interval of w is
    # the support of its canonical basis element
    c = ctx(type_str)
    for w in c.aw.enumerate_W(bound):
        assert c.aw.bruhat_interval(w) == set(c.hecke.kl_basis(w).support()), w


def test_structure_constants_nonnegative_sample(ctx):
    c = ctx("C2")
    ball = c.aw.enumerate_W(3)
    for x in ball:
        for y in ball:
            prod = hecke_mul(c.hecke, c.hecke.kl_basis(x), c.hecke.kl_basis(y))
            for coeff in c.hecke.to_canonical(prod).values():
                assert is_nonnegative(coeff)


def test_first_reflection_support_condition(ctx):
    # a Bott-Samelson class for a word starting with s only involves
    # canonical elements with s as a left descent
    c = ctx("C2")
    rng = random.Random(11)
    for _ in range(25):
        word = [rng.randrange(3) for _ in range(rng.randrange(1, 7))]
        prod = bs_product(c.hecke, word)
        s = c.aw.gens[word[0]]
        for y in c.hecke.to_canonical(prod):
            assert c.aw.mult(s, y).length < y.length


def test_to_canonical_reconstructs_input():
    # the leading-term expansion of the algebra, the antispherical module and
    # a table provider sums back to its input, and its in-place subtraction
    # leaves the memoized canonical elements intact
    c = build_context("C2")
    ball = c.aw.enumerate_W(2)
    for x in ball:
        for y in ball:
            prod = hecke_mul(c.hecke, c.hecke.kl_basis(x), c.hecke.kl_basis(y))
            expansion = c.hecke.to_canonical(prod)
            total = HeckeElt()
            for w, coeff in expansion.items():
                total = total + c.hecke.kl_basis(w).scale(coeff)
            assert total == prod

    table = table_from_zero_basis(c.hecke, 6)
    provider = TableBasisProvider(c.hecke, c.asph, table)
    for y in c.aw.enumerate_fW(5):
        for i in range(len(c.aw.gens)):
            n = c.asph.mul_by_kl_gen(c.asph.canonical(y), i)
            expansion = c.asph.to_canonical(n)
            assert provider.asph_to_canonical(n) == expansion
            for canonical in (c.asph.canonical, provider.asph_canonical):
                total = HeckeElt()
                for w, coeff in expansion.items():
                    total = total + canonical(w).scale(coeff)
                assert total == n

    for w in c.hecke._kl_cache:
        assert c.hecke.kl_basis(w) == kl_oracle(c.hecke, w)
    for w, n in c.asph._canon_elts.items():
        assert n == asph_canonical_oracle(c.hecke, w)


# -- antispherical module -----------------------------------------------------


def test_asph_project_examples(ctx):
    c = ctx("A1")
    aw = c.aw
    s1 = aw.gens[1]
    assert c.hecke.asph_project(c.hecke.unit()) == AsphElt({aw.identity: ONE})
    assert c.hecke.asph_project(standard(s1)) == AsphElt(
        {aw.identity: LaurentPoly.v(1, -1)}
    )
    assert not c.hecke.asph_project(c.hecke.kl_basis(s1))


def test_asph_project_kills_non_minimal(ctx):
    for t in ("A1", "C2"):
        c = ctx(t)
        for w in c.aw.enumerate_W(6):
            if not c.aw.in_fW(w):
                assert not c.hecke.asph_project(c.hecke.kl_basis(w))


def test_asph_action_examples(ctx):
    c = ctx("A1")
    aw = c.aw
    s0 = aw.gens[0]
    ne = standard(aw.identity)
    assert c.asph.mul_by_gen(ne, 1) == ne.scale(LaurentPoly.v(1, -1))
    # canonical generator: N_e (H_{s0} + v) = N_{s0} + v N_e
    assert c.asph.mul_by_kl_gen(ne, 0) == AsphElt({s0: ONE, aw.identity: V})


def test_asph_action_consistent_with_projection(ctx):
    c = ctx("C2")
    rng = random.Random(5)
    for _ in range(30):
        word = [rng.randrange(3) for _ in range(rng.randrange(7))]
        h = mul_by_word(c.hecke, c.hecke.unit(), word)
        i = rng.randrange(3)
        lhs = c.hecke.asph_project(c.hecke.mul_by_gen(h, i))
        rhs = c.asph.mul_by_gen(c.hecke.asph_project(h), i)
        assert lhs == rhs


def test_asph_canonical_examples(ctx):
    c = ctx("A1")
    aw = c.aw
    s0 = aw.gens[0]
    assert c.asph.canonical(aw.identity) == AsphElt({aw.identity: ONE})
    assert c.asph.canonical(s0) == AsphElt({s0: ONE, aw.identity: V})
    with pytest.raises(ValueError):
        c.asph.canonical(aw.gens[1])


def test_asph_canonical_equals_projection(ctx):
    # dual-path equality on C2 up to length 8
    c = ctx("C2")
    for w in c.aw.enumerate_fW(8):
        assert c.asph.canonical(w) == c.hecke.asph_project(c.hecke.kl_basis(w))


def test_specialize_v1(ctx):
    c = ctx("A1")
    aw = c.aw
    s0, s1 = aw.gens
    assert specialize_v1(c.hecke.kl_basis(s1)) == {s1: 1, aw.identity: 1}
    assert specialize_v1(c.asph.canonical(s0)) == {s0: 1, aw.identity: 1}
    assert specialize_v1(HeckeElt()) == {}


# -- canonical basis tables ---------------------------------------------------


def test_table_round_trip(ctx, tmp_path):
    c = ctx("A1")
    table = table_from_zero_basis(c.hecke, 6, provenance="unit test")
    text = table.dump_text()
    path = tmp_path / "table.txt"
    path.write_text(text)
    loaded = load_basis_table(c.aw, path)
    assert loaded.p == 0
    assert loaded.entries == table.entries
    assert loaded.dump_text() == text  # bit-exact round trip

    jpath = tmp_path / "table.json"
    jpath.write_text(table.dump_json())
    loaded2 = load_basis_table(c.aw, jpath)
    assert loaded2.entries == table.entries
    assert loaded2.dump_json() == table.dump_json()


def test_table_io_resolves_each_word_once(ctx, monkeypatch):
    c = ctx("C2")
    table = table_from_zero_basis(c.hecke, 6)
    words = {y for h in table.entries.values() for y in h.terms} | set(table.entries)
    polys = {x.serialize() for h in table.entries.values() for x in h.terms.values()}
    calls = {"to_word": 0, "serialize": 0, "from_word_str": 0, "deserialize": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("to_word", "from_word_str"):
        monkeypatch.setattr(c.aw, name, counted(name, getattr(c.aw, name)))
    for name in ("serialize", "deserialize"):
        monkeypatch.setattr(LaurentPoly, name, counted(name, getattr(LaurentPoly, name)))
    for dump in (table.dump_text, table.dump_json):
        calls.update(dict.fromkeys(calls, 0))
        loaded = CanonicalBasisTable.parse(c.aw, dump())
        assert loaded.entries == table.entries
        assert calls == {
            "to_word": len(words),
            "serialize": len(polys),
            "from_word_str": len(words),
            "deserialize": len(polys),
        }
    # a malformed token still raises through the memo
    with pytest.raises(BasisTableError, match="s7"):
        CanonicalBasisTable.parse(c.aw, "p 0\nw=s0 : s7:1*v^0\n")


def test_table_reproduces_kl(ctx):
    c = ctx("A1")
    table = table_from_zero_basis(c.hecke, 6)
    for w in c.aw.enumerate_W(6):
        assert TableBasisProvider(c.hecke, c.asph, table).hecke_canonical(w) == c.hecke.kl_basis(w)


def test_empty_table_valid(ctx):
    c = ctx("A1")
    table = CanonicalBasisTable(c.aw, 0, {})
    assert c.aw.identity not in table.entries
    with pytest.raises(BasisTableError):
        table.entry(c.aw.identity)


def test_table_rejects_bad_diagonal(ctx):
    c = ctx("A1")
    aw = c.aw
    bad = HeckeElt({aw.gens[0]: LaurentPoly.const(2)})
    with pytest.raises(BasisTableError):
        CanonicalBasisTable(aw, 0, {aw.gens[0]: bad})


def test_table_rejects_non_unitriangular(ctx):
    c = ctx("A1")
    aw = c.aw
    s0, s1 = aw.gens
    bad = HeckeElt({s0: ONE, s1: V})  # s1 is not below s0
    with pytest.raises(BasisTableError):
        CanonicalBasisTable(aw, 0, {s0: bad})


def test_table_rejects_negative_degree_at_p0(ctx):
    c = ctx("A1")
    aw = c.aw
    bad = HeckeElt({aw.gens[0]: ONE, aw.identity: VINV})
    with pytest.raises(BasisTableError):
        CanonicalBasisTable(aw, 0, {aw.gens[0]: bad})


def test_table_validates_with_a_prefix_missing(ctx):
    # entries whose prefix is absent take their interval from the full walk
    c = ctx("C2")
    table = table_from_zero_basis(c.hecke, 6)
    u = c.aw.from_word((0, 1, 2))
    entries = {w: h for w, h in table.entries.items() if w != u}
    CanonicalBasisTable(c.aw, 0, entries)
    assert u.length == 3
    aw = c.aw
    w = next(w for w in entries if w.length == 4 and aw.mult_gen(w, aw.reduced_word(w)[-1]) == u)
    y = next(y for y in entries if y.length == 4 and y != w)
    bad = dict(entries)
    bad[w] = bad[w] + HeckeElt({y: V})  # y is not below w
    with pytest.raises(BasisTableError, match="not unitriangular"):
        CanonicalBasisTable(c.aw, 0, bad)


def test_table_parse_errors(ctx):
    c = ctx("A1")
    with pytest.raises(BasisTableError):
        CanonicalBasisTable.parse(c.aw, "w=s0 : s0:1*v^0\n")  # missing p header
    with pytest.raises(BasisTableError):
        CanonicalBasisTable.parse(c.aw, "p 0\ngarbage line\n")


@pytest.mark.parametrize("type_str,bound", [("A1", 12), ("A2", 10), ("C2", 13), ("G2", 12)])
def test_table_dumps_match_term_by_term_oracle(ctx, type_str, bound):
    c = ctx(type_str)
    table = table_from_zero_basis(c.hecke, bound)
    assert table._rows() == table_rows_oracle(table)
    assert table.dump_text() == dump_text_oracle(table)
    assert table.dump_json() == dump_json_oracle(table)


def _raised(check, *args):
    """(type, message) of the exception check(*args) raises, or None."""
    try:
        check(*args)
    except Exception as e:  # noqa: BLE001 - compared across both checks
        return type(e), str(e)
    return None


def _malformed_tables(aw, entries):
    """(p, entries) pairs that fail validation: each kind of bad term, before
    and after an entry's own terms, and bad terms of two kinds both ways
    round; a bad diagonal, an entry outside W, and bad p labels."""
    ws = sorted(entries, key=aw.sort_key)
    top = ws[-1]
    low = next(w for w in ws if w.length == 1)
    beside = next(y for y in ws if y.length == top.length and y != top)
    for extra in (
        [(beside, V)],                       # not below top
        [(aw.identity, VINV)],               # off-diagonal outside vZ[v]
        [(low, ONE)],                        # off-diagonal constant
        [(beside, V), (aw.identity, VINV)],  # both kinds, each one first
        [(aw.identity, VINV), (beside, V)],
    ):
        for w in (top, ws[len(ws) // 2]):
            terms = {y: c for y, c in entries[w].terms.items() if y not in dict(extra)}
            for merged in ({**dict(extra), **terms}, {**terms, **dict(extra)}):
                yield 0, {**entries, w: HeckeElt(merged)}
    yield 0, {**entries, top: HeckeElt({**entries[top].terms, top: LaurentPoly.const(2)})}
    if len(aw.omega) > 1:
        omega = aw.mult(aw.omega[-1], low)
        yield 0, {**entries, omega: HeckeElt({omega: ONE})}
    for p in (4, -3, True, 0.5, None, 2**31 + 11):
        yield p, entries


@pytest.mark.parametrize("type_str", ["A1", "C2", "G2"])
def test_table_validation_matches_term_by_term_oracle(ctx, type_str):
    c = ctx(type_str)
    entries = table_from_zero_basis(c.hecke, 6).entries
    assert _raised(validate_table_oracle, c.aw, 0, entries) is None
    assert _raised(CanonicalBasisTable, c.aw, 0, entries) is None
    for p, bad in _malformed_tables(c.aw, entries):
        expected = _raised(validate_table_oracle, c.aw, p, bad)
        assert expected is not None and expected[0] is BasisTableError
        assert _raised(CanonicalBasisTable, c.aw, p, bad) == expected


def test_table_entries_from_another_context(ctx):
    # elements of two contexts are equal but not identical: a table of the
    # second context holding the first one's entries dumps the same bytes
    # and still rejects a bad off-diagonal term
    first, second = build_context("C2"), build_context("C2")
    entries = table_from_zero_basis(first.hecke, 9).entries
    table = CanonicalBasisTable(second.aw, 0, entries, "x")
    own = CanonicalBasisTable(first.aw, 0, entries, "x")
    assert table.dump_text() == own.dump_text()
    assert table.dump_json() == own.dump_json()
    top = max(entries, key=first.aw.sort_key)
    bad = dict(entries)
    bad[top] = bad[top] + HeckeElt({first.aw.identity: VINV})
    with pytest.raises(BasisTableError, match="outside vZ"):
        CanonicalBasisTable(second.aw, 0, bad)
    beside = next(y for y in entries if y.length == top.length and y != top)
    bad[top] = entries[top] + HeckeElt({beside: V})
    with pytest.raises(BasisTableError, match="not unitriangular"):
        CanonicalBasisTable(second.aw, 0, bad)


@pytest.mark.parametrize("p", [0, 2])
def test_table_rejects_negative_coefficient(ctx, p):
    # every p-canonical basis is nonnegative on the standard basis; -v lies
    # in vZ[v], so at p = 0 only the sign check catches it
    aw = ctx("A1").aw
    s1 = aw.gens[1]
    bad = HeckeElt({s1: ONE, aw.identity: LaurentPoly.v(1, -1)})
    with pytest.raises(BasisTableError, match="entry s1 has a negative coefficient at e"):
        CanonicalBasisTable(aw, p, {s1: bad})
    assert _raised(validate_table_oracle, aw, p, {s1: bad}) is None
