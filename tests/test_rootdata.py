import itertools
import math
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckecells.rootdata import CartanType, build_root_datum, solve_exact

from oracles import root_half_norm, symmetrizer_oracle, weyl_orbit


def test_cartan_type_parsing():
    assert CartanType.from_string("C2") == CartanType("C", 2)
    assert str(CartanType.from_string("E7")) == "E7"
    with pytest.raises(ValueError):
        CartanType.from_string("H3")
    with pytest.raises(ValueError):
        CartanType("G", 3)
    with pytest.raises(ValueError):
        CartanType("E", 5)
    with pytest.raises(ValueError):
        CartanType("B", 1)


def test_a1_basics(ctx):
    d = ctx("A1").datum
    assert len(d.positive_roots) == 1
    assert d.rho == (1,)
    assert d.pairing(d.rho, 0) == 1
    alpha = d.positive_roots[0]
    assert d.pairing(alpha.fund, alpha) == 2
    assert d.pairing((0,), alpha) == 0


def test_g2_fundamental_weights(ctx):
    # varpi_1 = 2 alpha_1 + alpha_2 and varpi_2 = 3 alpha_1 + 2 alpha_2
    d = ctx("G2").datum
    assert d.root_coords((1, 0)) == (2, 1)
    assert d.root_coords((0, 1)) == (3, 2)


def test_c2_root_lengths(ctx):
    d = ctx("C2").datum
    assert len(d.positive_roots) == 4
    halfnorms = sorted(root_half_norm(d, r) for r in d.positive_roots)
    assert halfnorms == [1, 1, 2, 2]  # two short, two long
    # alpha_1 short, alpha_2 long
    assert root_half_norm(d, d.simple_roots[0]) == 1
    assert root_half_norm(d, d.simple_roots[1]) == 2


def test_rho_pairing_all_types(ctx):
    for t in ("A1", "A2", "B2", "C2", "G2", "A3", "D4"):
        d = ctx(t).datum
        for i in range(d.rank):
            assert d.pairing(d.rho, i) == 1


def test_adjoint_dimension_cross_check(ctx):
    for t in ("A2", "C2", "G2", "A3"):
        d = ctx(t).datum
        assert d.weyl_dimension(d.highest_root.fund) == 2 * len(d.positive_roots) + d.rank


# -- weight multiplicities -------------------------------------------------


def test_highest_weight_multiplicity_is_one(ctx):
    d = ctx("C2").datum
    for lam in [(0, 0), (1, 0), (2, 1), (0, 3)]:
        assert d.all_weights(lam)[lam] == 1


def test_a1_weight_string_oracle(ctx):
    # weights of the (lam+1)-dimensional module are lam, lam-2, ..., -lam
    d = ctx("A1").datum
    for lam in range(7):
        weights = d.all_weights((lam,))
        assert weights == {(k,): 1 for k in range(-lam, lam + 1, 2)}
    assert d.all_weights((4,))[(0,)] == 1


def test_g2_adjoint_zero_weight(ctx):
    # Cartan dimension of the 14-dimensional module: 14 - 12 roots = 2
    d = ctx("G2").datum
    assert d.weyl_dimension((0, 1)) == 14
    assert d.all_weights((0, 1))[(0, 0)] == 2
    nonzero = {w for w, m in d.all_weights((0, 1)).items() if w != (0, 0)}
    roots = {r.fund for r in d.positive_roots}
    roots |= {tuple(-c for c in r.fund) for r in d.positive_roots}
    assert nonzero == roots


def test_weyl_dimension_examples(ctx):
    a1 = ctx("A1").datum
    assert a1.weyl_dimension((0,)) == 1
    for lam in range(9):
        assert a1.weyl_dimension((lam,)) == lam + 1


def test_dimension_equals_weight_count(ctx):
    for t in ("A1", "A2", "C2", "G2"):
        d = ctx(t).datum
        coords = range(0, 5) if d.rank == 1 else range(0, 5)
        for lam in itertools.product(coords, repeat=d.rank):
            if sum(lam) > 5:
                continue
            assert sum(d.all_weights(lam).values()) == d.weyl_dimension(lam)


def test_weight_multiplicity_weyl_invariant(ctx):
    d = ctx("C2").datum
    lam = (2, 1)
    for mu in d.all_weights(lam):
        for orbit_elt in weyl_orbit(d, mu):
            assert d.all_weights(lam).get(orbit_elt, 0) == d.all_weights(lam)[mu]


def _char_mul(a, b):
    """Product of two characters, as dicts weight -> multiplicity."""
    out = {}
    for x, m in a.items():
        for y, n in b.items():
            key = tuple(map(add, x, y))
            out[key] = out.get(key, 0) + m * n
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize(
    "type_str,top",
    [("A1", 5), ("A2", 2), ("A3", 1), ("B2", 2), ("B3", 1), ("C2", 2), ("C3", 1),
     ("D4", 1), ("G2", 2)],
)
def test_all_weights_satisfy_weyl_character_formula(type_str, top):
    # ch V(lam) . e^rho prod_{a>0} (1 - e^-a) = sum_w sign(w) e^{w(lam+rho)};
    # lam + rho is regular, so each orbit point has one sign
    d = build_root_datum(type_str)
    zero = (0,) * d.rank
    denominator = {d.rho: 1}
    for r in d.positive_roots:
        denominator = _char_mul(denominator, {zero: 1, tuple(-c for c in r.fund): -1})
    for lam in itertools.product(range(top + 1), repeat=d.rank):
        shifted = tuple(map(add, lam, d.rho))
        alternating = {nu: d.dominant_representative(nu)[1] for nu in weyl_orbit(d, shifted)}
        assert _char_mul(d.all_weights(lam), denominator) == alternating, (type_str, lam)


def test_all_weights_rejects_non_dominant_weights(ctx):
    d = ctx("C2").datum
    with pytest.raises(ValueError, match="not dominant"):
        d.all_weights((1, -1))
    with pytest.raises(ValueError, match="not dominant"):
        d.all_weights((-1, 0)).get((0, 0), 0)


# -- tensor multiplicities ----------------------------------------------------


def _character_ring_oracle_a1(lam, mu, nu):
    # multiply characters as Laurent polynomials in one variable, then
    # decompose greedily against highest weights
    def char(n):
        return {k: 1 for k in range(-n, n + 1, 2)}

    prod: dict[int, int] = {}
    for a in char(lam):
        for b in char(mu):
            prod[a + b] = prod.get(a + b, 0) + 1
    mult = 0
    while prod:
        top = max(k for k, v in prod.items() if v)
        if top < 0:
            break
        c = prod[top]
        if top == nu:
            mult = c
        for k in char(top):
            prod[k] = prod.get(k, 0) - c
            if not prod[k]:
                del prod[k]
    return mult


def test_tensor_with_trivial(ctx):
    d = ctx("C2").datum
    for lam in [(0, 0), (1, 0), (1, 2)]:
        assert d.tensor_multiplicity(lam, (0, 0), lam) == 1


def test_a1_tensor_oracle(ctx):
    d = ctx("A1").datum
    assert d.tensor_multiplicity((1,), (1,), (0,)) == 1
    assert d.tensor_multiplicity((1,), (1,), (2,)) == 1
    assert d.tensor_multiplicity((3,), (3,), (6,)) == 1
    for lam in range(5):
        for mu in range(5):
            for nu in range(9):
                assert d.tensor_multiplicity((lam,), (mu,), (nu,)) == (
                    _character_ring_oracle_a1(lam, mu, nu)
                )


SYMMETRIZER_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"{s}{n}" for s in "BC" for n in range(2, 7)]
    + [f"D{n}" for n in range(4, 8)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("type_str", SYMMETRIZER_TYPES)
def test_symmetrizer_from_highest_root(type_str):
    # read off the highest root; the oracle propagates along the Dynkin graph
    d = build_root_datum(type_str)
    C, sym = d.cartan, d.symmetrizer
    assert sym == symmetrizer_oracle(C)
    assert all(sym[i] * C[i][j] == sym[j] * C[j][i] for i in range(d.rank) for j in range(d.rank))


def test_tensor_symmetric_and_dimension_sum(ctx):
    for t in ("A1", "C2"):
        d = ctx(t).datum
        weights = (
            [(a,) for a in range(4)]
            if d.rank == 1
            else [(a, b) for a in range(3) for b in range(3)]
        )
        for lam in weights[:4]:
            for mu in weights[:4]:
                total = 0
                # candidate nu: dominant weights below lam + mu
                top = tuple(a + b for a, b in zip(lam, mu))
                cands = itertools.product(*(range(0, c + 7) for c in top))
                for nu in cands:
                    k = d.tensor_multiplicity(lam, mu, nu)
                    assert k == d.tensor_multiplicity(mu, lam, nu)
                    total += k * d.weyl_dimension(nu)
                assert total == d.weyl_dimension(lam) * d.weyl_dimension(mu)


# -- root lattice ----------------------------------------------------------------


@pytest.mark.parametrize("type_str", ["A1", "A2", "A3", "C2", "G2", "B3", "D4"])
def test_in_root_lattice_matches_rational_root_coords(type_str):
    d = build_root_datum(type_str)
    # reference: the inverse Cartan matrix from one exact solve, over the
    # common denominator of its entries
    n = d.rank
    _, inv = solve_exact(d.cartan, [[int(i == j) for j in range(n)] for i in range(n)])
    den = math.lcm(*(c.denominator for row in inv for c in row))
    num = [[int(c * den) for c in row] for row in inv]
    for w in itertools.product(range(-6, 7), repeat=n):
        ref = tuple(Fraction(sum(a * x for a, x in zip(row, w)), den) for row in num)
        assert d.root_coords(w) == ref
        assert d.in_root_lattice(w) == all(c.denominator == 1 for c in ref)


# -- inner product sanity ------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["A1", "A2", "C2", "G2"]),
    st.lists(st.integers(-4, 4), min_size=2, max_size=2),
    st.lists(st.integers(-4, 4), min_size=2, max_size=2),
)
def test_inner_product_symmetric_definite(type_str, x, y):
    d = build_root_datum(type_str)
    x = tuple(x[: d.rank]) if d.rank <= len(x) else tuple(x) + (0,)
    y = tuple(y[: d.rank]) if d.rank <= len(y) else tuple(y) + (0,)
    assert d.inner(x, y) == d.inner(y, x)
    if any(x):
        assert d.inner(x, x) > 0
