from hypothesis import given, settings
from hypothesis import strategies as st

from heckecells.laurent import ONE, V, VINV, ZERO, LaurentPoly

from oracles import in_positive_part, positive_part

polys = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=6).map(
    LaurentPoly
)


@settings(max_examples=100, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@settings(max_examples=100, deadline=None)
@given(polys, polys)
def test_bar_is_ring_involution(a, b):
    assert a.bar().bar() == a
    assert (a * b).bar() == a.bar() * b.bar()
    assert (a + b).bar() == a.bar() + b.bar()


@settings(max_examples=100, deadline=None)
@given(polys)
def test_serialize_round_trip(a):
    assert LaurentPoly.deserialize(a.serialize()) == a


@settings(max_examples=60, deadline=None)
@given(polys, st.integers(-5, 5))
def test_shift_and_eval(a, k):
    assert a.shift(k) == a * LaurentPoly.v(k)
    assert a.shift(k).at_one() == a.at_one()


def test_small_identities():
    assert V * VINV == ONE
    assert (V + VINV).c.get(1, 0) == 1
    p = LaurentPoly({1: 2, -1: 2, 0: 1})
    assert p.bar() == p
    assert p.at_one() == 5
    assert not in_positive_part(p)
    assert in_positive_part(LaurentPoly({1: 1, 2: 3}))
    assert positive_part(p) == LaurentPoly({1: 2})
