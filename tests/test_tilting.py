import itertools
import random

import pytest

from heckecells.affine import AffineWeyl, UnsupportedRegimeError
from heckecells.hecke import specialize_v1
from heckecells.rootdata import build_root_datum
from heckecells.tilting import (
    GroupAlgebraElt,
    MZeroElt,
    c_of_module,
    dot_orbit_element,
    fundamental_alcove_weights,
    fusion_multiplicity,
    in_fundamental_alcove,
    mzero_act,
    summand_multiplicity,
    tensor_translate,
    tilting_class,
    wall_crossing,
    weyl_module_character,
)

from oracles import length_oracle, tensor_character


def fusion_oracle(c, lam, mu, nu, p, length_cap=36):
    """Brute-force alternating sum over a long fW enumeration."""
    total = 0
    for w in c.aw.enumerate_fW(length_cap):
        eta = c.aw.dot_action(w, nu, p)
        if c.datum.is_dominant(eta):
            k = c.datum.tensor_multiplicity(lam, mu, eta)
            total += -k if w.length % 2 else k
    return total


def test_tilting_class_examples(ctx):
    c = ctx("A1")
    aw = c.aw
    assert tilting_class(c.provider, aw.identity) == MZeroElt({aw.identity: 1})
    s0 = aw.gens[0]
    assert tilting_class(c.provider, s0) == MZeroElt({s0: 1, aw.identity: 1})


def test_tilting_class_nonnegative(ctx):
    for t in ("A1", "C2"):
        c = ctx(t)
        for w in c.aw.enumerate_fW(8):
            assert all(v >= 0 for v in tilting_class(c.provider, w).terms.values())


def test_wall_crossing_examples(ctx):
    c = ctx("A1")
    aw = c.aw
    ne = tilting_class(c.provider, aw.identity)
    assert not wall_crossing(aw, ne, 1)  # finite wall kills the unit class
    assert wall_crossing(aw, ne, 0) == tilting_class(c.provider, aw.gens[0])
    assert not wall_crossing(aw, MZeroElt(), 0)


def test_wall_crossing_specializes_the_module_action(ctx):
    # specializing v to 1 commutes with the action of H_s + v
    c = ctx("C2")
    for y in c.aw.enumerate_fW(8):
        for i in range(len(c.aw.gens)):
            prod = c.asph.mul_by_kl_gen(c.asph.canonical(y), i)
            assert wall_crossing(c.aw, tilting_class(c.provider, y), i) == MZeroElt(
                specialize_v1(prod)
            )


def test_c_of_module_examples(ctx):
    c = ctx("A1")
    aw = c.aw
    p = 5
    trivial = weyl_module_character(c.datum, (0,))
    assert c_of_module(aw, trivial, p) == GroupAlgebraElt({aw.identity: 1})
    # module with no weight on the orbit of zero
    off = {(4,): 1, (-4,): 1}
    assert c_of_module(aw, off, p) == GroupAlgebraElt()
    # Weyl module of highest weight 8: weights 0, 8, -2 meet the orbit
    cm = c_of_module(aw, weyl_module_character(c.datum, (8,)), p)
    s_alpha = aw.gens[1]
    assert cm == GroupAlgebraElt({aw.identity: 1, aw.gens[0]: 1, s_alpha: 1})


def test_dot_orbit_element(ctx):
    c = ctx("A1")
    aw = c.aw
    assert dot_orbit_element(aw, (8,), 5) == aw.gens[0]
    assert dot_orbit_element(aw, (10,), 5) == aw.translation((2,))
    assert dot_orbit_element(aw, (4,), 5) is None  # wall weight
    assert dot_orbit_element(aw, (6,), 5) is None


def test_dot_orbit_element_inverts_dot_action(ctx):
    # the shared alcove walk, run on unperturbed points, undoes w ._p 0
    for t, p in (("C2", 7), ("G2", 13)):
        aw = ctx(t).aw
        zero = (0,) * aw.datum.rank
        for w in aw.enumerate_W(8):
            assert dot_orbit_element(aw, aw.dot_action(w, zero, p), p) == w


def test_tensor_translate_examples(ctx):
    c = ctx("A1")
    aw = c.aw
    p = 5
    ne = tilting_class(c.provider, aw.identity)
    trivial = weyl_module_character(c.datum, (0,))
    assert tensor_translate(aw, ne, trivial, p) == ne
    out = tensor_translate(aw, ne, weyl_module_character(c.datum, (8,)), p)
    assert out == MZeroElt({aw.gens[0]: 1})
    # bilinearity in the class
    x = MZeroElt({aw.gens[0]: 2, aw.identity: 3})
    m = weyl_module_character(c.datum, (2,))
    lhs = tensor_translate(aw, x, m, p)
    rhs = tensor_translate(aw, MZeroElt({aw.gens[0]: 2}), m, p) + tensor_translate(
        aw, MZeroElt({aw.identity: 3}), m, p
    )
    assert lhs == rhs


def test_translation_one_step_matches_character_oracle(ctx):
    # theta(pr0(M(w.0) (x) M)) computed by raw character arithmetic
    c = ctx("A1")
    aw = c.aw
    d = c.datum
    p = 5

    def oracle(w, m):
        # ch M(w.0) (x) M = sum_tau m_tau chi(w.0 + tau); a regular term in
        # the principal block contributes det(u) N(rep) where u.rep is the
        # coset factorization of the orbit element (the finite dot-reflection
        # sign, with u the finite part of y . rep^-1); other terms vanish or
        # sit in other blocks
        out = {}
        lam = aw.dot_action(w, (0,), p)
        for tau, mult in m.items():
            eta = (lam[0] + tau[0],)
            y = dot_orbit_element(aw, eta, p)
            if y is None:
                continue
            rep = aw.min_coset_rep(y)
            u = aw.mult(y, aw.inverse(rep)).fin
            s2 = -1 if length_oracle(aw, u, (0,) * d.rank) % 2 else 1
            out[rep] = out.get(rep, 0) + mult * s2
        return MZeroElt(out)

    for w in aw.enumerate_fW(4):
        for hw in ((2,), (6,), (8,)):
            m = weyl_module_character(d, hw)
            assert tensor_translate(aw, MZeroElt({w: 1}), m, p) == oracle(w, m)


def test_iterated_translation_is_action_by_product(ctx):
    # acting twice equals acting by the group-algebra product; translating by
    # the tensor character in one step can differ (blocks re-enter), so only
    # the operator identity is asserted
    c = ctx("A1")
    aw = c.aw
    p = 5
    m1 = weyl_module_character(c.datum, (8,))
    m2 = weyl_module_character(c.datum, (2,))
    c1 = c_of_module(aw, m1, p)
    c2 = c_of_module(aw, m2, p)
    prod = GroupAlgebraElt()
    for g1, n1 in c1.terms.items():
        for g2, n2 in c2.terms.items():
            prod = prod + GroupAlgebraElt({aw.mult(g1, g2): n1 * n2})
    for w in aw.enumerate_fW(4):
        x = MZeroElt({w: 1})
        assert mzero_act(aw, mzero_act(aw, x, c1), c2) == mzero_act(aw, x, prod)


def test_one_step_two_step_counterexample(ctx):
    # fixed sample where the one-step translate by M (x) M' differs from the
    # two-step translate: the intermediate projection loses blocks that
    # return to the principal block
    c = ctx("A1")
    aw = c.aw
    p = 5
    m1 = weyl_module_character(c.datum, (8,))
    m2 = weyl_module_character(c.datum, (2,))
    m12 = tensor_character(m1, m2)
    x = tilting_class(c.provider, aw.gens[0])
    one = tensor_translate(aw, x, m12, p)
    two = tensor_translate(aw, tensor_translate(aw, x, m1, p), m2, p)
    assert one != two


# -- fusion ---------------------------------------------------------------------


def test_fusion_examples(ctx):
    c = ctx("A1")
    aw = c.aw
    assert fusion_multiplicity(aw, (1,), (1,), (0,), 5) == 1
    assert fusion_multiplicity(aw, (3,), (3,), (2,), 5) == 0
    assert fusion_multiplicity(aw, (3,), (3,), (0,), 5) == 1
    for lam in range(4):
        assert fusion_multiplicity(aw, (lam,), (0,), (lam,), 5) == 1


def test_fusion_terms_lie_within_the_level_bound(monkeypatch):
    # fusion_multiplicity enumerates fW to bound = |Phi+| (floor(level/p) + 2)
    # and no further, and on fW to bound + 1 every nonzero term of the
    # alternating sum has l(w) <= |Phi+| floor(level / p), with the same sum
    asked, enumerate_fW = [], AffineWeyl.enumerate_fW
    monkeypatch.setattr(
        AffineWeyl, "enumerate_fW", lambda aw, bound: asked.append(bound) or enumerate_fW(aw, bound)
    )
    rng = random.Random(23)
    for type_str, p, triples in (("A1", 7, 8), ("A2", 5, 8), ("C2", 7, 6), ("G2", 13, 4), ("A3", 5, 3)):
        aw = AffineWeyl(build_root_datum(type_str))
        d, npos = aw.datum, len(aw.datum.positive_roots)
        alcove = fundamental_alcove_weights(d, p)
        for _ in range(triples):
            lam, mu, nu = (rng.choice(alcove) for _ in range(3))
            level = sum(c * (a + b + 2) for c, a, b in zip(d.affine_root.coroot, lam, mu))
            bound = npos * (level // p + 2)
            asked.clear()
            val = fusion_multiplicity(aw, lam, mu, nu, p)
            assert asked == [bound]
            total = 0
            for w in enumerate_fW(aw, bound + 1):
                eta = aw.dot_action(w, nu, p)
                if d.is_dominant(eta) and (k := d.tensor_multiplicity(lam, mu, eta)):
                    assert w.length <= npos * (level // p)
                    total += -k if w.length % 2 else k
            assert total == val


def test_fusion_rejects_wall_weights(ctx):
    c = ctx("A1")
    with pytest.raises(UnsupportedRegimeError):
        fusion_multiplicity(c.aw, (4,), (0,), (4,), 5)


def test_fusion_commutative_and_oracle_a1(ctx):
    c = ctx("A1")
    aw = c.aw
    p = 5
    alcove = [(k,) for k in range(p - 1)]
    for lam in alcove:
        for mu in alcove:
            for nu in alcove:
                val = fusion_multiplicity(aw, lam, mu, nu, p)
                assert val == fusion_multiplicity(aw, mu, lam, nu, p)
                assert val == fusion_oracle(c, lam, mu, nu, p)


def test_fusion_c2_spot_oracle(ctx):
    c = ctx("C2")
    aw = c.aw
    p = 7
    alcove = [
        lam
        for lam in itertools.product(range(p), repeat=2)
        if in_fundamental_alcove(c.datum, lam, p)
    ]
    rng = random.Random(2)
    for _ in range(5):
        lam, mu, nu = (rng.choice(alcove) for _ in range(3))
        assert fusion_multiplicity(aw, lam, mu, nu, p) == fusion_oracle(
            c, lam, mu, nu, p, length_cap=28
        )


def test_summand_multiplicity(ctx):
    c = ctx("A1")
    aw = c.aw
    p = 5
    assert summand_multiplicity(aw, tilting_class(c.provider, aw.identity), (0,), p) == 1
    assert summand_multiplicity(aw, tilting_class(c.provider, aw.gens[0]), (0,), p) == 0
    # non-principal fundamental-alcove weights see nothing in the class
    assert summand_multiplicity(aw, tilting_class(c.provider, aw.gens[0]), (1,), p) == 0


def test_alternating_sum_vanishes_off_fundamental_alcove(ctx):
    # the alternating sum of standard multiplicities of any non-unit tilting
    # class vanishes
    for t in ("A1", "C2"):
        c = ctx(t)
        aw = c.aw
        for w in aw.enumerate_fW(8):
            if w == aw.identity:
                continue
            total = sum(
                -v if x.length % 2 else v
                for x, v in tilting_class(c.provider, w).terms.items()
            )
            assert total == 0


def test_georgiev_mathieu_dimension_criterion(ctx):
    # weights in the fundamental alcove have Weyl dimension prime to p
    for t, ps in [("A1", (7, 11)), ("C2", (7, 11, 13))]:
        c = ctx(t)
        d = c.datum
        for p in ps:
            for lam in itertools.product(range(2 * p), repeat=d.rank):
                if in_fundamental_alcove(d, lam, p):
                    assert d.weyl_dimension(lam) % p != 0
                    cls = tilting_class(
                        c.provider, c.aw.alcove_of(lam, p).element
                    )
                    assert summand_multiplicity(c.aw, cls, (0,) * d.rank, p) == 1


def test_tilting_class_json_round_trip(ctx):
    import json

    from heckecells.tilting import tilting_class_json

    c = ctx("C2")
    aw = c.aw
    for w in aw.enumerate_fW(6):
        x = tilting_class(c.provider, w)
        obj = tilting_class_json(aw, x)
        assert obj["schema"] == 1
        text = json.dumps(obj, sort_keys=True)
        terms = json.loads(text)["terms"]
        assert MZeroElt({aw.from_word_str(word): n for word, n in terms.items()}) == x
