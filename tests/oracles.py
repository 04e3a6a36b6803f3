"""Independent oracles used by the test suite.

These deliberately avoid the code paths they are checking: the canonical
basis oracle solves the bar-invariance equations triangularly, the
antispherical oracle goes through the full algebra and projects, and the
length oracle applies the finite part to every positive root.
"""

from heckecells.hecke import Hecke, HeckeElt
from heckecells.laurent import ONE, LaurentPoly


def kl_oracle(hecke: Hecke, w) -> HeckeElt:
    """Bar-involution linear solve for the 0-canonical basis element at w.

    Unknowns h_y for y < w; bar-invariance gives h_z - bar(h_z) =
    sum_{y > z} bar(h_y) R_{z,y} with R the bar matrix of the standard
    basis, solved downward by length.  Off-diagonal coefficients must land
    in vZ[v]; any inconsistency raises.
    """
    aw = hecke.aw
    interval = sorted(aw.bruhat_interval(w), key=aw.sort_key, reverse=True)
    assert interval[0] == w
    bar_rows = {y: hecke.bar_standard(y) for y in interval}
    coeffs = {w: ONE}
    for z in interval[1:]:
        known = LaurentPoly()
        for y, hy in coeffs.items():
            known = known + hy.bar() * bar_rows[y].coeff(z)
        # h_z - bar(h_z) = known, h_z in vZ[v]
        assert known.coeff(0) == 0, "constant term obstructs bar-invariance"
        hz = known.positive_part()
        assert hz - hz.bar() == known, "bar equation not antisymmetric"
        if hz:
            coeffs[z] = hz
    return HeckeElt(coeffs)


def length_oracle(aw, fin, trans) -> int:
    """Iwahori-Matsumoto hyperplane count of fin . t_trans, applying fin to
    every positive root."""
    d = aw.datum
    total = 0
    for r in d.positive_roots:
        pair = sum(c * x for c, x in zip(r.coroot, trans))
        if fin.apply(r.fund) in d._posroot_fund:
            total += abs(pair)
        else:
            total += abs(1 + pair)
    return total


def left_descent_oracle(aw, a, i) -> bool:
    """True if s_i a < a, by building the product s_i . a."""
    return aw.mult(aw.gens[i], a).length < a.length


def asph_canonical_oracle(hecke: Hecke, w) -> "object":
    """Projection of the algebra canonical basis element (dual path)."""
    return hecke.asph_project(hecke.kl_basis(w))
