import json
import random
import re

import pytest

import heckecells.hecke
from heckecells.affine import AffineElement, UnsupportedRegimeError
from heckecells.cli import main
from heckecells.hecke import (
    AsphElt,
    BasisTableError,
    CanonicalBasisTable,
    Hecke,
    HeckeElt,
    TableBasisProvider,
    build_context,
    kl_gen_action,
    load_basis_table,
    specialize_v1,
    table_from_zero_basis,
)
from heckecells.hecke import _canonical, _decode, _text_rows
from heckecells.laurent import ONE, V, VINV, ZERO, LaurentPoly

from oracles import (
    asph_canonical_oracle,
    bar,
    both_members_canonical,
    bs_product,
    counting,
    dump_json_oracle,
    dump_text_oracle,
    from_word,
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
    text_rows_oracle,
    two_dict_canonical,
    validate_table_oracle,
)


def test_quadratic_relation(ctx):
    c = ctx("A1")
    s1 = c.aw.gens[1]
    # the standard generator H_s is the action with (up, down) = (0, v^-1 - v)
    sq = kl_gen_action(c.aw, standard(s1), 1, None, ZERO, VINV - V)
    assert sq == HeckeElt({c.aw.identity: ONE, s1: VINV - V})


def test_quadratic_relation_on_kl_basis(ctx):
    # (h H_s) H_s = h + (v^-1 - v) h H_s, through the shared generator action
    c = ctx("C2")
    for w in c.aw.enumerate_W(5):
        h = c.hecke.kl_basis(w)
        for i in range(len(c.aw.gens)):
            hs = kl_gen_action(c.aw, h, i, None, ZERO, VINV - V)
            assert kl_gen_action(c.aw, hs, i, None, ZERO, VINV - V) == h + hs.scale(VINV - V)


def test_kl_generator_square(ctx):
    # (H_s + v)(H_s + v) = (v + v^-1)(H_s + v)
    c = ctx("C2")
    for i in range(3):
        kg = kl_gen(c.hecke, i)
        assert kl_mul(c.hecke, kg, i) == kg.scale(V + VINV)


def test_bs_product_examples(ctx):
    c = ctx("A1")
    assert bs_product(c.hecke, []) == standard(c.aw.identity)
    assert bs_product(c.hecke, [1]) == kl_gen(c.hecke, 1)
    assert bs_product(c.hecke, [1, 1]) == kl_gen(c.hecke, 1).scale(V + VINV)


def test_kl_basis_examples(ctx):
    c = ctx("A1")
    aw = c.aw
    s0, s1 = aw.gens
    assert c.hecke.kl_basis(aw.identity) == standard(aw.identity)
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
                    if n.c.get(1, 0) and aw.mult_gen(z, i).length < z.length
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


def _coded_terms(entry):
    """{z: (code, n(1))} of one memo entry."""
    elts, codes, ones = entry
    return {z: (c, n) for z, c, n in zip(elts, codes, ones)}


_PAIR_BALLS = [
    ("A2", 14, True), ("B2", 16, True), ("C2", 16, True), ("G2", 16, True), ("A3", 10, True),
    ("B3", 14, False), ("C3", 14, False),
]


def _pair_runs(aw, bound, in_algebra):
    """(keep, ball) for the fW ball and, if asked, the W ball 4 shorter."""
    runs = [(aw.in_fW, aw.enumerate_fW(bound))]
    if in_algebra:
        runs.append((None, aw.enumerate_W(bound - 4)))
    return runs


@pytest.mark.parametrize("type_str,bound,in_algebra", _PAIR_BALLS)
def test_pair_recursion_matches_summing_both_members(type_str, bound, in_algebra):
    # summing only the upper member of each pair {z, zs} and writing the lower
    # one as its shift gives every memo entry the codes and n(1) of the
    # recursion that sums both, on a ball in the module and (where marked) on
    # a ball in the algebra
    aw = build_context(type_str).aw
    for keep, ball in _pair_runs(aw, bound, in_algebra):
        memo, oracle_memo = {}, {}
        for w in ball:
            _canonical(aw, keep, memo, w)
            both_members_canonical(aw, keep, oracle_memo, w)
        assert memo.keys() == oracle_memo.keys()
        for w, entry in memo.items():
            assert len(entry[0]) == len(oracle_memo[w][0])
            assert _coded_terms(entry) == _coded_terms(oracle_memo[w]), w


@pytest.mark.parametrize("type_str,bound,in_algebra", _PAIR_BALLS)
def test_canonical_memo_is_symmetric_under_every_right_descent(type_str, bound, in_algebra):
    # C_w (H_s + v) = (v + v^-1) C_w for every right descent s of w
    # (Kazhdan-Lusztig 1979): the support is closed under z <-> zs, the code
    # at zs < z is the code at z shifted by 64 bits with the same n(1), and
    # in the module no z appears whose zs > z lies outside fW
    aw = build_context(type_str).aw
    for keep, ball in _pair_runs(aw, bound, in_algebra):
        memo = {}
        for w in ball:
            _canonical(aw, keep, memo, w)
        for w, entry in memo.items():
            terms = _coded_terms(entry)
            for i in range(len(aw.gens)):
                if aw.mult_gen(w, i).length > w.length:
                    continue
                for z, (c, n) in terms.items():
                    zs = aw.mult_gen(z, i)
                    if zs.length < z.length:
                        assert terms.get(zs) == (c << 64, n), (w, z, i)
                    else:
                        assert keep is None or keep(zs), (w, z, i)
                        assert zs in terms, (w, z, i)


@pytest.mark.parametrize("type_str", ["B3", "C3"])
def test_pair_recursion_holds_no_more_code_objects(type_str):
    # a lower member that takes only its share of C_ws (H_s + v) keeps C_ws's
    # int object, so the memo holds no more distinct code objects than the
    # recursion summing both members (both memos alive in one process)
    aw = build_context(type_str).aw
    memo, oracle_memo = {}, {}
    for w in aw.enumerate_fW(16):
        _canonical(aw, aw.in_fW, memo, w)
        both_members_canonical(aw, aw.in_fW, oracle_memo, w)

    def objects(m):
        return len({id(c) for _, codes, _ in m.values() for c in codes})

    assert objects(memo) <= objects(oracle_memo)


def test_recursion_hashes_elements_per_entry_not_per_term(monkeypatch):
    # the sums key positions by element key: the element hashes left are the memo's
    # own, one lookup of w, one per right descent and one store per new
    # entry, plus one lookup per mu-correction (25.4 per entry when the sums
    # hashed every term)
    c = build_context("B3")
    ball = c.aw.enumerate_fW(12)
    calls = counting(monkeypatch, AffineElement, "__hash__")
    for w in ball:
        c.asph._coded(w)
    assert calls[0] <= (len(c.aw.gens) + 2) * len(c.asph._canon_cache)


def test_recursion_calls_no_id(monkeypatch):
    # the sums are keyed by the ints elements hold, not by object identity
    def no_id(obj):
        raise AssertionError("_canonical called id()")

    monkeypatch.setattr(heckecells.hecke, "id", no_id, raising=False)
    c = build_context("C2")
    for w in c.aw.enumerate_W(8):
        c.hecke.kl_basis(w)
    for w in c.aw.enumerate_fW(12):
        c.asph.canonical(w)


def _length_seven_of_another_context(ball):
    """A fresh C2 context whose memos hold the canonical basis of the given
    ball up to length 6, and the elements of length 7 of that ball in a
    second C2 context."""
    a, b = build_context("C2"), build_context("C2")
    return a, [w for w in getattr(b.aw, ball)(7) if w.length == 7]


def test_canonical_basis_at_an_element_of_another_context():
    # the recursion starts from the context's own instance of w, so the
    # diagonal of an element of another context is found (an identity-keyed
    # sum missed it: "canonical basis at length 7 is not exact", exit 3)
    a, foreign = _length_seven_of_another_context("enumerate_W")
    for w in a.aw.enumerate_W(6):
        a.hecke.kl_basis(w)
    assert len(foreign) == 19
    got = [a.hecke.kl_basis(y) for y in foreign]
    assert got == [a.hecke.kl_basis(a.aw.element(y.fin, y.trans)) for y in foreign]
    assert got == [kl_oracle(a.hecke, a.aw.element(y.fin, y.trans)) for y in foreign]


@pytest.mark.parametrize("method", ["canonical", "kl_gen_targets"])
def test_antispherical_basis_at_an_element_of_another_context(method):
    a, foreign = _length_seven_of_another_context("enumerate_fW")
    for w in a.aw.enumerate_fW(6):
        a.asph.canonical(w)
    call = getattr(a.asph if method == "canonical" else a.provider, method)
    assert len(foreign) == 3
    got = [call(y) for y in foreign]
    assert got == [call(a.aw.element(y.fin, y.trans)) for y in foreign]


def test_zero_table_compares_few_elements(monkeypatch):
    # with -1 and -2 hashed apart, the 244 elements of C2 up to length 13
    # have 244 hashes (213 before), and a fresh table takes few __eq__ calls
    # (17 438 before)
    c = build_context("C2")
    calls = counting(monkeypatch, AffineElement, "__eq__")
    table = table_from_zero_basis(c.hecke, 13)
    assert calls[0] < 1000
    assert len(table.entries) == len({hash(w) for w in table.entries}) == 244


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


def test_kl_memo_budget_error_names_the_requested_element(monkeypatch, capsys):
    # the memo runs out while it stores a shorter element (length 12 here),
    # but the error gives the length of the element asked for
    monkeypatch.setattr(heckecells.hecke, "KL_MEMO_TERMS", 2000)
    word = ".".join(["s0.s1.s2"] * 12 + ["s0"])
    assert main(["kl", "--type", "C2", "--w", word]) == 3
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    record = json.loads(err)
    assert record["code"] == 3
    assert record["message"] == "canonical basis at length 37 needs over 2000 memo terms"


def test_module_memo_budget_exits_3(monkeypatch, capsys):
    # the antispherical memo counts its terms like the algebra's, against
    # its own budget; past it, `cells` is the exit-3 error
    args = ["cells", "--type", "C2", "--len", "16", "--margin", "4"]
    c = build_context("C2")
    for w in c.aw.enumerate_fW(16):
        c.asph._coded(w)
    memo = c.asph._canon_cache
    assert memo.terms == sum(len(elts) for elts, _, _ in memo.values()) > 500
    monkeypatch.setattr(heckecells.hecke, "ASPH_MEMO_TERMS", 500)
    assert main(args) == 3
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert json.loads(err)["code"] == 3 and "memo terms" in json.loads(err)["message"]
    monkeypatch.setattr(heckecells.hecke, "ASPH_MEMO_TERMS", memo.terms)
    assert main(args) == 0


def test_kl_self_dual_and_triangular(ctx):
    c = ctx("C2")
    for w in c.aw.enumerate_W(5):
        h = c.hecke.kl_basis(w)
        assert bar(c.aw, h) == h
        assert h.terms.get(w, ZERO) == ONE
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
    assert c.hecke.asph_project(standard(aw.identity)) == AsphElt({aw.identity: ONE})
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
    assert mul_by_word(c.asph, ne, [1]) == ne.scale(LaurentPoly.v(1, -1))
    # canonical generator: N_e (H_{s0} + v) = N_{s0} + v N_e
    assert c.asph.mul_by_kl_gen(ne, 0) == AsphElt({s0: ONE, aw.identity: V})


def test_asph_action_consistent_with_projection(ctx):
    c = ctx("C2")
    rng = random.Random(5)
    for _ in range(30):
        word = [rng.randrange(3) for _ in range(rng.randrange(7))]
        h = mul_by_word(c.hecke, standard(c.aw.identity), word)
        i = rng.randrange(3)
        lhs = c.hecke.asph_project(kl_mul(c.hecke, h, i))
        rhs = c.asph.mul_by_kl_gen(c.hecke.asph_project(h), i)
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
    u = from_word(c.aw, (0, 1, 2))
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


def _first_prefix(aw, entries, w):
    """ws for the first right descent s of w whose ws is an entry, or None."""
    return next(
        (ws for i in range(len(aw.gens))
         if (ws := aw.mult_gen(w, i)).length < w.length and ws in entries),
        None,
    )


@pytest.mark.parametrize("type_str,bound", [("A2", 10), ("C2", 10), ("G2", 10), ("B3", 8)])
def test_table_validation_builds_only_the_identity_interval(type_str, bound, monkeypatch):
    # every term of a ball's 0-basis is found by the Z-property in its prefix
    # entry, so the full interval walk serves the identity alone
    c = build_context(type_str)
    entries = table_from_zero_basis(c.hecke, bound).entries
    full, calls = c.aw.bruhat_interval, []
    monkeypatch.setattr(c.aw, "bruhat_interval", lambda w: calls.append(w) or full(w))
    CanonicalBasisTable(c.aw, 0, entries)
    assert calls == [c.aw.identity]


def test_table_validation_falls_back_when_a_prefix_lacks_a_term(ctx, monkeypatch):
    # u without its identity term is still unitriangular; each entry whose
    # first prefix entry is u misses e there and takes the interval walk
    c = ctx("C2")
    aw = c.aw
    entries = dict(table_from_zero_basis(c.hecke, 8).entries)
    u = from_word(aw, (0, 1, 2, 1))
    entries[u] = HeckeElt({y: x for y, x in entries[u].terms.items() if y != aw.identity})
    above = [w for w in entries if _first_prefix(aw, entries, w) == u]
    full, calls = aw.bruhat_interval, []
    monkeypatch.setattr(aw, "bruhat_interval", lambda w: calls.append(w) or full(w))
    CanonicalBasisTable(aw, 0, entries)
    assert above and sorted(calls, key=aw.sort_key) == sorted(
        [aw.identity, *above], key=aw.sort_key
    )
    w = above[0]
    beside = next(y for y in entries if y.length == w.length and y != w)
    bad = {**entries, w: entries[w] + HeckeElt({beside: V})}
    expected = _raised(validate_table_oracle, aw, 0, bad)
    assert expected == (
        BasisTableError,
        f"entry {aw.to_word(w)} is not unitriangular: {aw.to_word(beside)} appears",
    )
    assert _raised(CanonicalBasisTable, aw, 0, bad) == expected


def test_fresh_table_parse_tests_no_term_and_validation_hashes_each_term_once(monkeypatch):
    # validation finds each term by one lookup in its prefix entry (35 072
    # element hashes on this table when it built Bruhat intervals), and a
    # parse tests each distinct coefficient text for zero, not each term
    # (18 899 LaurentPoly.__bool__ calls before)
    dump = table_from_zero_basis(build_context("C2").hecke, 13).dump_text()
    aw = build_context("C2").aw
    hashes, bools, validated = counting(monkeypatch, AffineElement, "__hash__"), [0], []
    is_nonzero, validate = LaurentPoly.__bool__, CanonicalBasisTable._validate

    def counted_bool(c):
        bools[0] += 1
        return is_nonzero(c)

    def counted_validate(table):
        before = hashes[0]
        validate(table)
        validated.append(hashes[0] - before)

    monkeypatch.setattr(LaurentPoly, "__bool__", counted_bool)
    monkeypatch.setattr(CanonicalBasisTable, "_validate", counted_validate)
    table = CanonicalBasisTable.parse(aw, dump)
    entries = len(table.entries)
    terms = sum(len(h.terms) for h in table.entries.values())
    texts = {c.serialize() for h in table.entries.values() for c in h.terms.values()}
    assert (entries, terms) == (244, 18_899)
    assert validated[0] <= terms + 3 * entries
    assert bools[0] <= len(texts)


def test_table_parse_drops_zero_terms(ctx):
    # a coefficient text that reads as zero drops its term, in the entry
    # where the first one appears and in every later entry
    aw = ctx("A1").aw
    text = (
        "p 0\nw=s1 : e:1*v^1, s1:1*v^0\nw=s0 : e:0, s0:1*v^0\n"
        "w=s1.s0 : e:1*v^2, s0:1*v^1, s1:1*v^1+-1*v^1, s1.s0:1*v^0\n"
    )
    table = CanonicalBasisTable.parse(aw, text)
    s1, s0, s1s0 = (aw.from_word_str(w) for w in ("s1", "s0", "s1.s0"))
    assert table.entries[s1] == HeckeElt({aw.identity: V, s1: ONE})
    assert table.entries[s0] == HeckeElt({s0: ONE})
    assert set(table.entries[s1s0].terms) == {aw.identity, s0, s1s0}
    assert all(c for h in table.entries.values() for c in h.terms.values())
    assert "e:0" not in table.dump_text() and "s1:" not in table.dump_text().splitlines()[-1]


def test_table_parse_errors(ctx):
    c = ctx("A1")
    with pytest.raises(BasisTableError):
        CanonicalBasisTable.parse(c.aw, "w=s0 : s0:1*v^0\n")  # missing p header
    with pytest.raises(BasisTableError):
        CanonicalBasisTable.parse(c.aw, "p 0\ngarbage line\n")


def _kl_with_table(tmp_path, capsys, text, word):
    """(exit code, stdout, stderr) of `kl --type A1 --w word` on a table file."""
    path = tmp_path / "table.txt"
    path.write_text(text)
    code = main(["kl", "--type", "A1", "--basis", str(path), "--w", word])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize(
    "text,message",
    [
        ("p 0\nw=s1 : e:1*v^1, s1:1*v^0\np 3\n", "line 3 repeats the p header: 'p 3'"),
        (
            "provenance a\np 0\nprovenance b\nw=s1 : e:1*v^1, s1:1*v^0\n",
            "line 3 repeats the provenance header: 'provenance b'",
        ),
    ],
    ids=["p", "provenance"],
)
def test_text_table_rejects_a_repeated_header(ctx, tmp_path, capsys, text, message):
    # a second p or provenance line is exit 4 naming it (the last one won
    # before: `p 0 ... p 3` loaded as a p = 3 table)
    with pytest.raises(BasisTableError, match=message):
        CanonicalBasisTable.parse(ctx("A1").aw, text)
    code, out, err = _kl_with_table(tmp_path, capsys, text, "s1")
    assert code == 4 and out == "" and len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "table", "message": message, "code": 4}


_JSON_ENTRY = '{"w":"s1","terms":[["e","1*v^1"],["s1","1*v^0"]]}'


@pytest.mark.parametrize(
    "text,key",
    [
        ('{"p":0,"p":3,"entries":[%s]}' % _JSON_ENTRY, "p"),
        ('{"p":0,"entries":[%s]}' % _JSON_ENTRY.replace('{"w":"s1"', '{"w":"s0","w":"s1"'), "w"),
    ],
    ids=["p", "w"],
)
def test_json_table_rejects_a_repeated_key(ctx, tmp_path, capsys, text, key):
    # json.loads keeps the last of two equal keys: `"p": 0, "p": 3` loaded
    # as a p = 3 table with exit 0 before
    message = f"JSON table repeats the key {key!r} in one object"
    with pytest.raises(BasisTableError, match=re.escape(message)):
        CanonicalBasisTable.parse(ctx("A1").aw, text)
    code, out, err = _kl_with_table(tmp_path, capsys, text, "s1")
    assert code == 4 and out == "" and len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "table", "message": message, "code": 4}
    # one key each, the same table loads
    ok = text.replace('"p":0,"p":3', '"p":0').replace('"w":"s0",', "")
    assert CanonicalBasisTable.parse(ctx("A1").aw, ok).p == 0


@pytest.mark.parametrize("value", ["5", "null"])
def test_table_rejects_a_provenance_that_is_not_text(ctx, tmp_path, capsys, value):
    # a number loaded with exit 0 before, and `cells --basis` printed it
    text = '{"p":0,"provenance":%s,"entries":[%s]}' % (value, _JSON_ENTRY)
    message = f"table provenance {json.loads(value)!r} is not text"
    with pytest.raises(BasisTableError, match=re.escape(message)):
        CanonicalBasisTable.parse(ctx("A1").aw, text)
    code, out, err = _kl_with_table(tmp_path, capsys, text, "s1")
    assert code == 4 and out == "" and len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "table", "message": message, "code": 4}
    ok = text.replace(f'"provenance":{value}', '"provenance":"text"')
    assert CanonicalBasisTable.parse(ctx("A1").aw, ok).provenance == "text"


def test_json_table_finds_a_late_repeated_key_in_one_pass(ctx):
    # the repeat was found by rebuilding a dict of every earlier key for each
    # key (8 000 keys took 1.5 s); the first key seen twice is named
    keys = ",".join(f'"k{i}":0' for i in range(20_000))
    text = '{"p":0,"entries":[],%s,"k19990":1,"k7":1}' % keys
    message = "JSON table repeats the key 'k19990' in one object"
    with pytest.raises(BasisTableError, match=re.escape(message)):
        CanonicalBasisTable.parse(ctx("A1").aw, text)


# provenances the text format cannot hold: its header is one stripped line
_BAD_PROVENANCES = ["a\nb", "   ", "a\u2028b", " padded ", "x\r", "tab\t", "a\x1cb"]


@pytest.mark.parametrize("value", _BAD_PROVENANCES, ids=range(len(_BAD_PROVENANCES)))
def test_table_rejects_a_provenance_the_text_format_cannot_hold(ctx, tmp_path, capsys, value):
    # "a\nb" dumped to a text its own parse rejected (exit 4), and trailing
    # whitespace was dropped; the JSON format kept both
    message = f"table provenance {value!r} spans lines or ends in whitespace"
    text = json.dumps({"p": 0, "provenance": value, "entries": json.loads(f"[{_JSON_ENTRY}]")})
    with pytest.raises(BasisTableError, match=re.escape(message)):
        CanonicalBasisTable.parse(ctx("A1").aw, text)
    with pytest.raises(BasisTableError, match=re.escape(message)):
        table_from_zero_basis(ctx("A1").hecke, 3, provenance=value)
    code, out, err = _kl_with_table(tmp_path, capsys, text, "s1")
    assert code == 4 and out == "" and len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "table", "message": message, "code": 4}


@pytest.mark.parametrize("value", ["a b", " lead", 'quo"te', "back\\slash", "ψ ∈ ᶠW, é", ""])
def test_provenance_round_trips_through_both_formats(ctx, value):
    c = ctx("A1")
    table = table_from_zero_basis(c.hecke, 3, provenance=value)
    for dump in (table.dump_text, table.dump_json):
        text = dump()
        loaded = CanonicalBasisTable.parse(c.aw, text)
        assert loaded.provenance == value
        assert (loaded.dump_text(), loaded.dump_json()) == (table.dump_text(), table.dump_json())


def _parsed(aw, text):
    """(p, provenance, entries) of the table parse reads from text, or the
    (type, message) of the error it raises."""
    try:
        table = CanonicalBasisTable.parse(aw, text)
    except BasisTableError as e:
        return type(e), str(e)
    return table.p, table.provenance, table.entries


# A1 tables: one item in several spacings and entries, blank items, trailing
# commas and zero coefficients
_HAND_TABLES = [
    "p 0\nprovenance hand\nw=e : e:1*v^0\nw=s0 : e:1*v^1, s0:1*v^0,\n"
    "w=s1 :e:1*v^1,s1:1*v^0 ,, \n"
    "w=s0.s1 : e:1*v^2 ,  s0:1*v^1, s1 : 1*v^1, s0.s1:1*v^0, s1.s0:0\n"
    "w=s1.s0 : , e:1*v^2, s0:1*v^1,s1:1*v^1, s1.s0:1*v^0 , s0.s1:0*v^3,\n",
    "# comment\n\np 0\nw= s1 : e:1*v^1, s1:1*v^0,s0:0\nw=s0: s0:1*v^0, e:1*v^1 , s1 : 0",
]

# malformed A1 tables: an item with no ':' after one that parsed, two bad
# items on a line, bad word and coefficient tokens, a term listed twice
_MALFORMED_TEXT = [
    "p 0\nw=s1 : e:1*v^1, s1:1*v^0\nw=s0 : e:1*v^1, s0 1*v^0\n",
    "p 0\nw=s0 : e:1*v^1, bad, s0, s0:1*v^0\n",
    "p 0\nw=s0 : e:1*v^1, s7:1*v^0\n",
    "p 0\nw=s0 : e:1*v^1, s0:1*x^0\n",
    "p 0\nw=s1 : e:1*v^1, s1:1*v^0, e:1*v^1\n",
    "p 0\nw=s1 : e:1*v^1, s1:1*v^0\nq 1\n",
]


def test_text_parse_matches_term_by_term_oracle(ctx, monkeypatch):
    # items are split once per distinct text; parse reads the same table,
    # and raises the same error, as it does splitting every item anew
    aw = ctx("A1").aw
    big = table_from_zero_basis(ctx("C2").hecke, 13).dump_text()
    cases = [(ctx("C2").aw, big)] + [(aw, text) for text in _HAND_TABLES + _MALFORMED_TEXT]
    for case_aw, text in cases:
        got = _parsed(case_aw, text)
        with monkeypatch.context() as m:
            m.setattr(heckecells.hecke, "_text_rows", text_rows_oracle)
            assert _parsed(case_aw, text) == got
        assert _raised(_text_rows, text) or _text_rows(text) == text_rows_oracle(text)
        assert _raised(_text_rows, text) == _raised(text_rows_oracle, text)
    assert [len(_parsed(aw, text)) for text in _HAND_TABLES] == [3, 3]
    assert all(len(_parsed(aw, text)) == 2 for text in _MALFORMED_TEXT)
    assert _parsed(aw, _MALFORMED_TEXT[1])[1] == "term 'bad' on line 2 has no word"


# C_{s1 s0} + C_e, a nonnegative bar-invariant combination of the 0-basis
_P2_PASSES = "p 2\nw=s1.s0 : e:1*v^0+1*v^2, s0:1*v^1, s1:1*v^1, s1.s0:1*v^0\n"
# H_s1 + v^3 H_e = C_s1 + (v^3 - v) C_e
_P2_FAILS = "p 2\nw=s1 : e:1*v^3, s1:1*v^0\n"


def test_positive_p_table_is_checked_against_the_zero_basis(ctx, tmp_path, capsys):
    # at p > 0 every entry must expand on the computed 0-canonical basis with
    # bar-invariant nonnegative coefficients (Jensen-Williamson 2017, section 4)
    aw = ctx("A1").aw
    table = CanonicalBasisTable.parse(aw, _P2_PASSES)
    w = aw.from_word_str("s1.s0")
    assert Hecke(aw).to_canonical(table.entry(w)) == {w: ONE, aw.identity: ONE}
    code, out, _ = _kl_with_table(tmp_path, capsys, _P2_PASSES, "s1.s0")
    assert code == 0 and json.loads(out)["basis_p"] == 2
    message = (
        "p=2 entry s1 has coefficient -1*v + v^3 at e on the 0-canonical basis: "
        "not bar-invariant and nonnegative"
    )
    with pytest.raises(BasisTableError, match=re.escape(message)):
        CanonicalBasisTable.parse(aw, _P2_FAILS)
    code, out, err = _kl_with_table(tmp_path, capsys, _P2_FAILS, "s1")
    assert code == 4 and out == "" and json.loads(err)["message"] == message
    # the same entry passes as a p = 0 table's: only p > 0 tables are expanded
    CanonicalBasisTable.parse(aw, _P2_FAILS.replace("p 2", "p 0"))


def test_zero_basis_relabelled_positive_p_passes_the_expansion_check(ctx):
    # each entry of the 0-basis is one basis element, coefficient 1
    c = ctx("C2")
    entries = table_from_zero_basis(c.hecke, 9).entries
    CanonicalBasisTable(c.aw, 2, entries)
    top = max(entries, key=c.aw.sort_key)
    bad = dict(entries)
    bad[top] = entries[top] + HeckeElt({c.aw.identity: V + V * V * V})
    with pytest.raises(BasisTableError, match=f"p=3 entry {c.aw.to_word(top)} has coefficient"):
        CanonicalBasisTable(c.aw, 3, bad)


@pytest.mark.parametrize(
    "type_str,bound,p,provenance",
    [
        pytest.param("A1", 12, 0, "self", id="A1-12"),
        pytest.param("A2", 10, 0, "self", id="A2-10"),
        pytest.param("C2", 13, 0, "self", id="C2-13"),
        pytest.param("G2", 12, 0, "self", id="G2-12"),
        pytest.param("C2", 9, 2, "relabelled", id="C2-9-p2"),
        pytest.param("G2", 8, 0, 'say "hi" \\ ψ ∈ ᶠW', id="G2-8-quoted"),
    ],
)
def test_table_dumps_match_term_by_term_oracle(ctx, type_str, bound, p, provenance):
    # the JSON dump is written from the rows, json.dumps only for p and provenance
    c = ctx(type_str)
    table = CanonicalBasisTable(c.aw, p, table_from_zero_basis(c.hecke, bound).entries, provenance)
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


@pytest.mark.parametrize("type_str", ["A1", "A2", "B2", "C2", "G2"])
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


@pytest.mark.parametrize("p", [0, 2])
@pytest.mark.parametrize("prefixed", [True, False], ids=["prefix", "no-prefix"])
def test_table_validation_names_the_first_bad_term_of_an_entry(ctx, p, prefixed):
    # the first bad term in the entry's own order is named, and a term that
    # fails two checks gets the message of the first: below w, then (p = 0)
    # in vZ[v], then nonnegative; -v is in vZ[v], so only the sign check
    # catches it, and v^-1 is bad only at p = 0
    c = ctx("C2")
    aw = c.aw
    entries = table_from_zero_basis(c.hecke, 6).entries
    top = max(entries, key=aw.sort_key)
    low = next(y for y in entries[top].terms if y.length == 1)
    beside = next(y for y in entries if y.length == top.length and y != top)
    w = aw.to_word(top)
    negative = f"entry {w} has a negative coefficient at "
    not_below = f"entry {w} is not unitriangular: {aw.to_word(beside)} appears"
    outside = f"p=0 entry {w} has an off-diagonal coefficient outside vZ[v]" if p == 0 else None
    kinds = [
        (low, -V, negative + aw.to_word(low)),
        (beside, V, not_below),
        (aw.identity, VINV, outside),
    ]
    cases = [[first, second] for first in kinds for second in kinds if first is not second]
    cases += [
        [(aw.identity, -VINV, outside or negative + "e")],
        [(beside, -V, not_below)],
    ]
    rest = {y: x for y, x in entries[top].terms.items() if y not in (low, beside, aw.identity)}
    for bad in cases:
        expected = next(message for _, _, message in bad if message is not None)
        terms = {y: x for y, x, _ in bad}
        for merged in ({**terms, **rest}, {**rest, **terms}):
            table = {**entries, top: HeckeElt(merged)} if prefixed else {top: HeckeElt(merged)}
            assert _raised(CanonicalBasisTable, aw, p, table) == (BasisTableError, expected)
