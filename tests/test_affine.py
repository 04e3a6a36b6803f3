import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckecells.affine import AffineWeyl, UnsupportedRegimeError
from heckecells.hecke import HeckeElt, coset_project
from heckecells.laurent import ONE, V, LaurentPoly
from heckecells.rootdata import FiniteWeylElement, _mat_mul, build_root_datum

from oracles import (
    built_elements,
    coset_project_oracle,
    dot_walk_oracle,
    from_finite,
    generate_finite_weyl,
    greedy_word,
    left_descent_oracle,
    length_oracle,
    mat_mul_oracle,
    min_coset_rep_oracle,
    mult_gen_left_oracle,
    mult_gen_oracle,
)


def left_step_matches(aw, i, x):
    """The left step on x's record gives the record, translation and length
    of the general product s_i x (built after the step, from scratch)."""
    nrec, lam, change = aw._left_step(x.rec, x.trans, i)
    y = mult_gen_left_oracle(aw, i, x)
    return (nrec, lam, x.length + change) == (y.rec, y.trans, y.length)


def bfs_ball(aw, radius):
    """Graph distance from the identity in the Cayley graph of (W, S)."""
    dist = {aw.identity: 0}
    q = deque([aw.identity])
    while q:
        w = q.popleft()
        if dist[w] >= radius:
            continue
        for s in aw.gens:
            ws = aw.mult(w, s)
            if ws not in dist:
                dist[ws] = dist[w] + 1
                q.append(ws)
    return dist


# -- group law ------------------------------------------------------------


def test_identity_and_involutions(ctx):
    aw = ctx("C2").aw
    for s in aw.gens:
        assert aw.mult(s, s) == aw.identity
        assert aw.mult(s, aw.identity) == s
        assert s.length == 1


def test_a1_s0_s1_is_translation(ctx):
    aw = ctx("A1").aw
    s0, s1 = aw.gens
    assert aw.mult(s0, s1) == aw.translation((2,))


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from(["A1", "C2", "G2"]),
    st.lists(st.integers(0, 2), min_size=0, max_size=6),
    st.lists(st.integers(0, 2), min_size=0, max_size=6),
)
def test_mult_associative_and_inverse(type_str, wa, wb):
    aw = AffineWeyl(build_root_datum(type_str))
    ngens = len(aw.gens)
    a = aw.from_word([i % ngens for i in wa])
    b = aw.from_word([i % ngens for i in wb])
    ab = aw.mult(a, b)
    assert aw.mult(ab, aw.inverse(b)) == a
    assert aw.mult(aw.inverse(a), ab) == b


# -- interning and the caches on each element ---------------------------------


def test_elements_are_interned(ctx):
    for t in ("A1", "C2", "G2"):
        aw = ctx(t).aw
        other = AffineWeyl(aw.datum)
        for w in aw.enumerate_W(5):
            for x in [aw.mult(om, w) for om in aw.omega]:
                word = aw.to_word(x)
                assert aw.from_word_str(word) is x
                assert aw.inverse(aw.inverse(x)) is x
                for i, s in enumerate(aw.gens):
                    assert aw.mult_gen(x, i) is aw.mult(x, s)
                    assert left_step_matches(aw, i, x)
                twin = other.from_word_str(word)
                assert twin == x and hash(twin) == hash(x) and twin is not x


@pytest.mark.parametrize("type_str,bound", [("A2", 8), ("C2", 8), ("G2", 8), ("B3", 6)])
def test_element_caches_match_uncached_products(type_str, bound):
    aw = AffineWeyl(build_root_datum(type_str))
    for w in aw.enumerate_W(bound):
        for i, s in enumerate(aw.gens):
            assert aw.mult_gen(w, i) == aw.mult(w, s)
            assert left_step_matches(aw, i, w)
        assert aw.reduced_word(w) == greedy_word(aw, w)
        assert w.length == length_oracle(aw, w.fin, w.trans)
    # every memoized finite product is the context's record of the product
    # of its two factors
    products = [
        (rec, other, prod) for rec in aw._records.values() for other, prod in rec.products.items()
    ]
    assert products
    for rec, other, prod in products:
        assert prod.fin == rec.fin * other.fin and prod is aw._records[prod.fin.mat]


STEP_BALLS = [
    ("A1", 8), ("A2", 6), ("A3", 4), ("A4", 3), ("B2", 6), ("B3", 5), ("B4", 3),
    ("C2", 6), ("C3", 5), ("C4", 3), ("D4", 3), ("F4", 3), ("G2", 7), ("E6", 2),
]


@pytest.mark.parametrize("type_str,radius", STEP_BALLS)
def test_generator_steps_match_general_products(type_str, radius):
    # each step taken from the finite part's record, on a ball built by
    # general products and on its Omega-translates on both sides, against the
    # general product; the elements are rebuilt in a fresh context longest
    # first, so right steps down as well as up build new elements, and every
    # element there has the oracle's length
    aw = AffineWeyl(build_root_datum(type_str))
    ball = list(bfs_ball(aw, radius))
    elems = ball + [aw.mult(om, w) for om in aw.omega[1:] for w in ball]
    elems += [aw.mult(w, om) for om in aw.omega[1:] for w in ball]
    fresh = AffineWeyl(aw.datum)
    for x in sorted(elems, key=lambda a: -a.length):
        x = fresh.element(x.fin, x.trans)
        for i in range(len(fresh.gens)):
            assert fresh.mult_gen(x, i) is mult_gen_oracle(fresh, x, i)
            assert left_step_matches(fresh, i, x)
    for y in built_elements(fresh):
        assert y.length == length_oracle(fresh, y.fin, y.trans)


@pytest.mark.parametrize("type_str", ["A2", "C2", "G2", "B3"])
def test_step_records_fill_only_steps_taken(type_str, monkeypatch):
    # a right entry is filled exactly when an element of that finite part
    # took that step, and a left entry exactly when a left-descent walk
    # stepped from that record: a new context and each later stage fill no
    # entry ahead.  A dot-action walk also fills the right entries it steps
    # through, but keeps only its end element, and no stage here calls one.
    left_steps, left_step = set(), AffineWeyl._left_step

    def counting(aw, rec, lam, i):
        left_steps.add((id(rec), i))
        return left_step(aw, rec, lam, i)

    monkeypatch.setattr(AffineWeyl, "_left_step", counting)
    aw = AffineWeyl(build_root_datum(type_str))

    def filled(side):
        return {
            (id(rec), i) for rec in aw._records.values()
            for i, entry in enumerate(getattr(rec, side)) if entry is not None
        }

    def taken_right():
        return {
            (id(a.rec), i) for a in built_elements(aw)
            for i, b in enumerate(a.right) if b is not None
        }

    stages = (
        lambda: None,
        lambda: aw.enumerate_fW(6),
        lambda: [aw.min_coset_rep(aw.translation((k,) * aw.datum.rank)) for k in range(-3, 4)],
        lambda: [aw.to_word(aw.mult(om, w)) for om in aw.omega for w in aw.enumerate_W(4)],
    )
    for stage in stages:
        stage()
        assert filled("right") == taken_right()
        assert filled("left") == left_steps
    assert left_steps


def test_new_context_fills_flags_only_where_lengths_computed(monkeypatch):
    # a length from scratch fills its record's flags, and nothing else does:
    # the records a new context meets on the left-descent walks to
    # w_{-varpi} hold none
    counted, length = set(), AffineWeyl._length

    def counting(aw, rec, trans):
        counted.add(id(rec))
        return length(aw, rec, trans)

    monkeypatch.setattr(AffineWeyl, "_length", counting)
    aw = AffineWeyl(build_root_datum("A12"))
    with_flags = {id(rec) for rec in aw._records.values() if rec.flags is not None}
    assert with_flags == counted >= {id(x.rec) for x in (aw.identity, *aw.gens)}
    assert len(aw._records) > len(with_flags)


def test_mat_mul_matches_entrywise_product():
    for t in ("A3", "B3", "G2", "F4"):
        d = build_root_datum(t)
        mats = [s.mat for s in d.simple_reflections] + [d.reflection(d.highest_root).mat]
        for a, b in itertools.product(mats, repeat=2):
            assert _mat_mul(a, b) == mat_mul_oracle(a, b)


# -- length -----------------------------------------------------------------


def test_length_examples(ctx):
    aw = ctx("A1").aw
    assert aw.identity.length == 0
    assert aw.gens[0].length == 1
    assert aw.translation((2,)).length == 2


def test_translation_length_dominant(ctx):
    # l(t_lam) = sum_{a>0} <lam, a^vee> for dominant lam
    for t in ("A1", "C2", "G2"):
        d = ctx(t).datum
        aw = ctx(t).aw
        for lam in itertools.product(range(3), repeat=d.rank):
            expect = sum(d.pairing(lam, r) for r in d.positive_roots)
            assert aw.translation(lam).length == expect


def test_length_matches_bfs(ctx):
    for t in ("A1", "C2"):
        aw = ctx(t).aw
        dist = bfs_ball(aw, 7)
        for w, dd in dist.items():
            assert w.length == dd


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["A1", "C2", "G2"]),
    st.lists(st.integers(0, 2), min_size=0, max_size=8),
    st.integers(0, 2),
)
def test_length_changes_by_one(type_str, word, gen):
    aw = AffineWeyl(build_root_datum(type_str))
    ngens = len(aw.gens)
    a = aw.from_word([i % ngens for i in word])
    s = aw.gens[gen % ngens]
    assert abs(aw.mult(a, s).length - a.length) == 1


def test_xi_identities(ctx):
    # additivity on dominant translations and conjugation invariance
    for t in ("A1", "C2"):
        aw = ctx(t).aw
        d = ctx(t).datum
        dom = [
            lam
            for lam in itertools.product(range(3), repeat=d.rank)
            if d.in_root_lattice(lam)
        ]
        for lam in dom:
            for mu in dom:
                both = tuple(a + b for a, b in zip(lam, mu))
                assert (
                    aw.translation(both).length
                    == aw.translation(lam).length + aw.translation(mu).length
                )
        words = [[0], [1], [0, 1], [1, 0, 1]]
        for lam in dom:
            for word in words:
                w = aw.from_word(word)
                conj = aw.mult(aw.mult(w, aw.translation(lam)), aw.inverse(w))
                assert conj.length == aw.translation(lam).length


# -- Bruhat order ----------------------------------------------------------


def subword_leq(aw, y, w):
    """Subword-property oracle: some subword of a reduced word of w is y."""
    word = aw.reduced_word(w)
    k = y.length
    for positions in itertools.combinations(range(len(word)), k):
        if aw.from_word([word[i] for i in positions]) == y:
            return True
    return False


def test_bruhat_examples(ctx):
    aw = ctx("A1").aw
    s0, s1 = aw.gens
    s0s1 = aw.mult(s0, s1)
    for w in (aw.identity, s0, s1, s0s1):
        assert aw.bruhat_leq(aw.identity, w)
    assert aw.bruhat_leq(s0, s0s1)
    assert not aw.bruhat_leq(s0s1, s0)


def test_bruhat_against_subword_oracle():
    # all pairs of a small ball
    for type_str, bound in (("A2", 6), ("C2", 7), ("G2", 8), ("B3", 5)):
        aw = AffineWeyl(build_root_datum(type_str))
        ball = aw.enumerate_W(bound)
        for y in ball:
            for w in ball:
                assert aw.bruhat_leq(y, w) == subword_leq(aw, y, w), (type_str, y, w)


def test_bruhat_rejects_extended_elements():
    # (Omega, W), (W, Omega) and (Omega, Omega), also when y's walk runs;
    # G2 is left out, its Omega is trivial
    for type_str in ("A1", "A2", "C2", "B3"):
        aw = AffineWeyl(build_root_datum(type_str))
        ball = aw.enumerate_W(3)
        for om in aw.omega[1:]:
            for w in ball:
                x = aw.mult(om, w)
                for y, v in ((x, w), (w, x), (x, x), (om, w), (aw.mult(w, om), w)):
                    with pytest.raises(ValueError, match="only defined on W"):
                        aw.bruhat_leq(y, v)


# -- coset minimality and w_lambda ----------------------------------------


def _left_descents(aw, a):
    out, i = set(), aw.left_descent(a.rec, a.trans)
    while i is not None:
        out.add(i)
        i = aw.left_descent(a.rec, a.trans, i + 1)
    return out


@pytest.mark.parametrize(
    "type_str,bound",
    [("A1", 8), ("A2", 6), ("C2", 6), ("G2", 8), ("B3", 4), ("C3", 4), ("D4", 3)],
)
def test_left_descents_match_product_oracle(type_str, bound):
    # every generator, s0 included, on a W ball and its Omega-twists on both
    # sides; the ball is built by products alone, with no descent decision
    aw = AffineWeyl(build_root_datum(type_str))
    ball = list(bfs_ball(aw, bound))
    elems = ball + [aw.mult(om, w) for om in aw.omega[1:] for w in ball]
    elems += [aw.mult(w, om) for om in aw.omega[1:] for w in ball]
    for a in elems:
        expected = {i for i in range(len(aw.gens)) if left_descent_oracle(aw, a, i)}
        assert _left_descents(aw, a) == expected
        assert aw.in_fW(a) == (not expected - {0})


def test_descent_decisions_build_only_the_path_taken():
    aw = AffineWeyl(build_root_datum("C2"))
    rng = random.Random(3)
    words = [[rng.randrange(3) for _ in range(rng.randrange(1, 12))] for _ in range(40)]
    fresh = [aw.from_word(w) for w in words]
    fresh += [aw.mult(aw.omega[1], a) for a in fresh]
    fresh = list(dict.fromkeys(fresh))
    assert len(fresh) > 40

    def filled():
        return sum(x is not None for rec in aw._records.values() for x in rec.left)

    # in_fW builds no element and fills no left entry
    count, left = len(built_elements(aw)), filled()
    for a in fresh:
        aw.in_fW(a)
    assert (len(built_elements(aw)), filled()) == (count, left)
    # reduced_word builds no element and min_coset_rep at most the
    # representative; each fills at most one left entry per step
    for a in fresh:
        if aw.in_affine_weyl(a):
            before, count = filled(), len(built_elements(aw))
            steps = len(aw.reduced_word(a))
            assert filled() - before <= steps and len(built_elements(aw)) == count
        before, count = filled(), len(built_elements(aw))
        steps = a.length - aw.min_coset_rep(a).length
        assert filled() - before <= steps and len(built_elements(aw)) - count <= 1


@pytest.mark.parametrize("type_str", ["A1", "C2", "G2"])
def test_reduced_word_stores_one_word(type_str):
    # to_word of a long element stores its word on it alone: the elements
    # its left-descent walk passes hold none, so memory stays linear in the
    # length of the walk
    aw = AffineWeyl(build_root_datum(type_str))
    w = aw.from_word([i % len(aw.gens) for i in range(60)])
    assert w.length >= 30
    assert aw.to_word(w) == ".".join(f"s{i}" for i in greedy_word(aw, w))
    assert len(w.word) == w.length
    rec, lam = w.rec, w.trans
    for i in w.word:
        rec, lam, change = aw._left_step(rec, lam, i)
        assert change == -1
        cur = rec.elements.get(lam)
        assert cur is None or cur.word is None or cur is aw.identity
    assert rec.elements.get(lam) is aw.identity


def test_long_reduced_word_walk_builds_no_element():
    # the alcove of a far weight is a long element; its word is found by a
    # left-descent walk on the records that builds nothing, so the walk
    # costs no element per letter
    aw = AffineWeyl(build_root_datum("A1"))
    a = aw.alcove_of((400000,), 5).element
    count = len(built_elements(aw))
    word = aw.to_word(a)
    assert len(built_elements(aw)) - count <= 1
    other = AffineWeyl(aw.datum)
    assert word == ".".join(f"s{i}" for i in greedy_word(other, other.element(a.fin, a.trans)))


@pytest.mark.parametrize("type_str", ["A2", "C2", "G2"])
def test_coset_rep_walk_builds_only_the_representative(type_str):
    # min_coset_rep of a fresh translation builds only its representative,
    # and every element of its walk that already existed gets it; the walk is
    # traced by general products in another context
    datum = build_root_datum(type_str)
    lam = tuple(-3 - k for k in range(datum.rank))
    other = AffineWeyl(datum)
    path = [other.translation(lam)]
    while (i := other.left_descent(path[-1].rec, path[-1].trans, 1)) is not None:
        path.append(other.mult(other.gens[i], path[-1]))
    assert len(path) > 3
    aw = AffineWeyl(datum)
    a = aw.translation(lam)
    met = [aw.element(x.fin, x.trans) for x in path[1:-1:2]]
    count = len(built_elements(aw))
    rep = aw.min_coset_rep(a)
    assert len(built_elements(aw)) == count + 1
    assert rep == path[-1] and rep.rep is rep
    assert all(x.rep is rep for x in [a, *met])


def test_coset_minimality_examples(ctx):
    aw = ctx("C2").aw
    assert aw.in_fW(aw.identity) and aw.in_fWf(aw.identity)
    for s in aw.gens[1:]:
        assert not aw.in_fW(s) and not aw.in_fWf(s)
    assert aw.in_fW(aw.gens[0]) and aw.in_fWf(aw.gens[0])


def test_w_lambda_examples(ctx):
    aw = ctx("A1").aw
    assert aw.w_lambda((0,)) == aw.identity
    assert aw.w_lambda((2,)) == aw.translation((2,))
    assert aw.w_lambda((-2,)) == aw.gens[0]
    # brute-force minimization over the finite Weyl group
    d = ctx("A1").datum
    for lam in [(-4,), (4,), (-6,)]:
        cands = [
            aw.mult(from_finite(aw, u), aw.translation(lam))
            for u in generate_finite_weyl(d)
        ]
        assert aw.w_lambda(lam) == min(cands, key=lambda x: x.length)


def test_char_fW_equivalences(ctx):
    # the three characterizations of fW membership agree
    for t in ("A1", "C2"):
        aw = ctx(t).aw
        d = ctx(t).datum
        wf = generate_finite_weyl(d)
        for w in aw.enumerate_W(8):
            lam = w.fin.apply(w.trans)
            v = w.fin
            cond1 = all(
                aw.mult(from_finite(aw, u), w).length >= w.length for u in wf
            )
            cond2 = d.is_dominant(lam) and w.length == aw.translation(
                lam
            ).length - length_oracle(aw, v, (0,) * d.rank)
            cond3 = d.is_dominant(lam) and all(
                d.pairing(lam, r) >= 1
                for r in d.positive_roots
                if v.apply_inverse(r.fund) not in d._posroot_fund
            )
            assert cond1 == cond2 == cond3 == aw.in_fW(w)


def test_fWf_matches_antidominant_w_lambda(ctx):
    # fWf consists of the w_lambda for antidominant lambda in the root lattice;
    # the coset of w = u t_nu is W_f t_nu, so the label is the raw translation
    aw = ctx("C2").aw
    d = ctx("C2").datum
    for w in aw.enumerate_W(8):
        lam = w.trans
        rep = aw.min_coset_rep(aw.translation(lam))
        expected = rep == w and d.is_dominant(tuple(-c for c in lam))
        assert aw.in_fWf(w) == expected


@pytest.mark.parametrize("type_str,bound", [("A2", 8), ("C2", 8), ("G2", 8), ("B3", 6)])
def test_coset_length_drop_matches_prefix_oracle(type_str, bound):
    # x = u . rep with u = x . rep^-1 finite; the length drop is l(u), and
    # both coset projections scale by the stripped scalar to that power
    aw = AffineWeyl(build_root_datum(type_str))
    zero = (0,) * aw.datum.rank
    for w in aw.enumerate_W(bound):
        for x in [aw.mult(om, w) for om in aw.omega]:
            rep = aw.min_coset_rep(x)
            u = aw.mult(x, aw.inverse(rep))
            assert u.trans == zero and aw.in_fW(rep)
            k = length_oracle(aw, u.fin, zero)
            assert x.length - rep.length == k
            sign = -1 if k % 2 else 1
            assert coset_project(aw, HeckeElt({x: 1}), -1) == HeckeElt({rep: sign})
            assert coset_project(aw, HeckeElt({x: ONE}), -V) == HeckeElt(
                {rep: LaurentPoly.v(k, sign)}
            )


@pytest.mark.parametrize("type_str", ["A2", "C2", "G2"])
def test_cached_coset_rep_matches_uncached_walk(type_str):
    # in a fresh context, in a shuffled order, so that later walks stop at
    # representatives that earlier ones cached
    aw = AffineWeyl(build_root_datum(type_str))
    xs = [aw.mult(om, w) for w in aw.enumerate_W(8) for om in aw.omega]
    random.Random(5).shuffle(xs)
    for x in xs:
        assert aw.min_coset_rep(x) is min_coset_rep_oracle(aw, x)
        assert x.rep is aw.min_coset_rep(x)


@pytest.mark.parametrize("type_str", ["A2", "C2", "G2"])
def test_coset_project_matches_oracle(ctx, type_str):
    aw = ctx(type_str).aw
    ball = aw.enumerate_W(8)
    xs = ball + [aw.mult(om, w) for w in ball for om in aw.omega[1:]]
    polys = {x: LaurentPoly({k % 3: 1 + k % 4, -k % 5: -1}) for k, x in enumerate(xs)}
    ints = {x: k % 7 - 3 for k, x in enumerate(xs)}
    for terms, strip in ((polys, -V), (ints, -1)):
        assert coset_project(aw, HeckeElt(terms), strip) == coset_project_oracle(
            aw, HeckeElt(terms), strip
        )
        for x, c in terms.items():
            single = HeckeElt({x: c})
            assert coset_project(aw, single, strip) == coset_project_oracle(aw, single, strip)


def test_length_fW_dominant_translation(ctx):
    for t in ("A1", "C2"):
        aw = ctx(t).aw
        d = ctx(t).datum
        dom = [
            lam
            for lam in itertools.product(range(3), repeat=d.rank)
            if d.in_root_lattice(lam)
        ]
        for w in aw.enumerate_fW(6):
            for lam in dom:
                tw = aw.mult(aw.translation(lam), w)
                assert tw.length == aw.translation(lam).length + w.length
                assert aw.in_fW(tw)


# -- dot action and alcoves ---------------------------------------------------


def test_dot_action_examples(ctx):
    aw = ctx("A1").aw
    assert aw.dot_action(aw.identity, (3,), 5) == (3,)
    assert aw.dot_action(aw.translation((2,)), (0,), 5) == (10,)
    assert aw.dot_action(aw.gens[0], (0,), 5) == (8,)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(0, 1), min_size=0, max_size=5),
    st.lists(st.integers(0, 1), min_size=0, max_size=5),
    st.integers(-4, 4),
)
def test_dot_action_group_compatible(wa, wb, mu0):
    aw = AffineWeyl(build_root_datum("A1"))
    a = aw.from_word(wa)
    b = aw.from_word(wb)
    mu = (mu0,)
    p = 7
    assert aw.dot_action(aw.mult(a, b), mu, p) == aw.dot_action(
        a, aw.dot_action(b, mu, p), p
    )


def test_alcove_examples(ctx):
    aw = ctx("A1").aw
    assert aw.alcove_of((0,), 5).element == aw.identity
    alc = aw.alcove_of((5,), 5)
    assert alc.element == aw.gens[0]
    assert alc.floors == (1,)


def test_alcove_floors_consistent(ctx):
    for t in ("A1", "C2"):
        aw = ctx(t).aw
        d = ctx(t).datum
        p = 7
        for lam in itertools.product(range(0, 15, 2), repeat=d.rank):
            alc = aw.alcove_of(lam, p)
            assert aw.in_fW(alc.element)
            for n, r in zip(alc.floors, d.positive_roots):
                val = d.pairing(tuple(a + b for a, b in zip(lam, d.rho)), r)
                assert n * p <= val < (n + 1) * p
            # the dot image of an interior point lands in the alcove
            assert aw.dot_action(alc.element, (0,) * d.rank, p) == (
                aw.dot_action(alc.element, (0,) * d.rank, p)
            )


def test_alcove_low_p_rejected(ctx):
    aw = ctx("C2").aw
    with pytest.raises(UnsupportedRegimeError):
        aw.alcove_of((0, 0), 3)


def _outcome(walk, mu0, mu1, p):
    """(element, nu) of a walk, or (exception type, message) if it raises."""
    try:
        return walk(mu0, mu1, p)
    except Exception as e:
        return type(e), str(e)


def test_dot_walk_matches_oracle():
    # the walk on step records against the walk by one matrix product per
    # reflection, each in its own context: dominant, non-dominant and wall
    # weights, tie-breaking by rho and none, p = h, h + 1 and a prime above;
    # the oracle's element gets its length from scratch, the walk counts it
    rng = random.Random(20)
    for t in ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
              "D4", "D5", "F4", "G2", "E6"):
        d = build_root_datum(t)
        aw, ref = AffineWeyl(d), AffineWeyl(d)
        h, rank = d.coxeter_number, d.rank
        prime = next(q for q in itertools.count(h + 2) if all(q % k for k in range(2, q)))
        for p in (h, h + 1, prime):
            weights = [(-1,) * rank] + [
                tuple(rng.randint(lo, 3 * p) for _ in range(rank))
                for lo in (0, -3 * p, -3 * p)
            ]
            for mu0, mu1 in itertools.product(weights, ((0,) * rank, d.rho)):
                got = _outcome(aw.dot_walk, mu0, mu1, p)
                want = _outcome(lambda *a: dot_walk_oracle(ref, *a), mu0, mu1, p)
                assert got == want
                assert getattr(got[0], "length", None) == getattr(want[0], "length", None)
        # a weight of the wrong length fails alike
        got = _outcome(aw.dot_walk, (), d.rho, h + 1)
        assert got[0] is IndexError
        assert got == _outcome(lambda *a: dot_walk_oracle(ref, *a), (), d.rho, h + 1)


def test_dot_walk_builds_only_its_result(monkeypatch):
    # 10 000 reflections take their finite parts from the records: at most
    # |W_f| (rank + 1) = 4 finite products, and only the alcove's element is new
    aw = AffineWeyl(build_root_datum("A1"))
    before = built_elements(aw)
    products, mul = [], FiniteWeylElement.__mul__
    monkeypatch.setattr(FiniteWeylElement, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    alc = aw.alcove_of((50000,), 5)
    assert len(products) <= 4
    after = built_elements(aw)
    assert len(after) == len(before) + 1 and alc.element in after and alc.element not in before


def test_dot_walk_fills_no_flags_or_descents():
    # a walk reads right step entries alone and counts its element's length
    # as it goes: it fills no record's flags or left-descent pairs
    aw = AffineWeyl(build_root_datum("E6"))

    def state():
        return {id(rec): (rec.flags, list(rec.descents)) for rec in aw._records.values()}

    before = state()
    alc = aw.alcove_of((5, 0, 2, 1, 0, 7), 13)
    after = state()
    assert len(after) > len(before)
    empty = (None, [None] * len(aw.gens))
    assert all(entries == before.get(key, empty) for key, entries in after.items())
    w = alc.element
    assert w.length == length_oracle(aw, w.fin, w.trans)


# -- enumeration, omega, serialization ------------------------------------------


def test_enumerate_fW_examples(ctx):
    aw = ctx("A1").aw
    assert aw.enumerate_fW(0) == [aw.identity]
    words = [aw.to_word(w) for w in aw.enumerate_fW(3)]
    assert words == ["e", "s0", "s0.s1", "s0.s1.s0"]


def test_enumerate_fW_matches_filter_oracle(ctx):
    aw = ctx("C2").aw
    ball = aw.enumerate_W(10)
    expect = sorted(
        (w for w in ball if aw.in_fW(w)), key=aw.sort_key
    )
    assert aw.enumerate_fW(10) == expect


BALL_SIZES = [("A1", 16), ("A2", 10), ("C2", 10), ("G2", 10), ("B3", 6)]


def _check_ball(aw, ball):
    assert ball == sorted(ball, key=aw.sort_key)
    for w in ball:
        assert w.word == greedy_word(aw, w), w


@pytest.mark.parametrize("type_str,bound", BALL_SIZES)
def test_ball_words_are_greedy_words(type_str, bound):
    # enumeration leaves in each ball element the smallest reduced word, set by
    # the first breadth-first step into it, and returns the ball in (length,
    # word) order; a second, larger ball on the same context mixes cached words
    # with new ones
    aw = AffineWeyl(build_root_datum(type_str))
    balls = ((aw.enumerate_fW, bound), (aw.enumerate_W, bound // 2), (aw.enumerate_W, bound))
    for enumerate_ball, size in balls:
        ball = enumerate_ball(size)
        _check_ball(aw, ball)
    # on a fresh context, the greedy walk of reduced_word first sets the words
    # of every other longest element, and of no element on their paths
    primed = AffineWeyl(build_root_datum(type_str))
    tops = [primed.from_word(w.word) for w in ball if w.length == bound][::2]
    assert tops and all(primed.reduced_word(x) == greedy_word(primed, x) for x in tops)
    for enumerate_ball in (primed.enumerate_fW, primed.enumerate_W):
        _check_ball(primed, enumerate_ball(bound))


@pytest.mark.parametrize("type_str,bound", BALL_SIZES)
def test_enumerate_fW_builds_only_the_ball_and_its_neighbours(type_str, bound):
    aw = AffineWeyl(build_root_datum(type_str))
    built = set(built_elements(aw))
    ball = aw.enumerate_fW(bound)
    neighbours = {ws for w in ball for ws in w.right if ws is not None}
    assert set(built_elements(aw)) <= built | set(ball) | neighbours


def test_omega_group(ctx):
    for t, order in [("A1", 2), ("A2", 3), ("C2", 2), ("G2", 1), ("A3", 4)]:
        aw = ctx(t).aw
        assert len(aw.omega) == order == aw.datum.fundamental_group_order()
        for om in aw.omega:
            assert om.length == 0


def test_omega_is_the_length_zero_part_of_small_translations():
    # every length-zero element is u . t_lam with lam a W_f-image of a
    # minuscule weight, so its coordinates lie in {-1, 0, 1}
    for t in ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2"):
        d = build_root_datum(t)
        aw = AffineWeyl(d)
        length_zero = {
            x
            for u in generate_finite_weyl(d)
            for lam in itertools.product((-1, 0, 1), repeat=d.rank)
            if (x := aw.element(u, lam)).length == 0
        }
        assert set(aw.omega) == length_zero


def test_word_serialization_round_trip(ctx):
    aw = ctx("C2").aw
    rng = random.Random(3)
    for _ in range(40):
        w = aw.from_word([rng.randrange(3) for _ in range(rng.randrange(8))])
        if rng.random() < 0.5:
            w = aw.mult(rng.choice(aw.omega), w)
        assert aw.from_word_str(aw.to_word(w)) == w


@pytest.mark.parametrize("type_str,bound", [("A2", 6), ("C2", 7), ("G2", 8), ("A3", 5)])
def test_bruhat_intervals_from_prefixes(ctx, type_str, bound, monkeypatch):
    aw = ctx(type_str).aw
    full = aw.bruhat_interval
    calls = []
    monkeypatch.setattr(aw, "bruhat_interval", lambda w: calls.append(w) or full(w))

    def prefix(w):
        return aw.mult_gen(w, aw.reduced_word(w)[-1])

    # a prefix-closed set: only the identity is built by the full walk
    ball = aw.enumerate_W(bound)
    assert dict(aw.bruhat_intervals(reversed(ball))) == {w: full(w) for w in ball}
    assert calls == [aw.identity]
    # with one element u missing, each w whose prefix is u takes the full walk
    u = next(w for w in ball if w.length == bound // 2)
    rest = [w for w in ball if w != u]
    calls.clear()
    assert dict(aw.bruhat_intervals(rest)) == {w: full(w) for w in rest}
    fallback = {w for w in rest if w.length and prefix(w) == u}
    assert fallback and sorted(calls, key=aw.sort_key) == sorted(
        {aw.identity} | fallback, key=aw.sort_key
    )
