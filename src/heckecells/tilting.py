"""Character-level tilting combinatorics at v = 1.

The v = 1 antispherical module M0 is a right Z[W]-module with standard basis
(N0_w : w in fW); a group element acts on a basis vector by coset rewriting,
each stripped finite reflection contributing a sign.  Classes of
indecomposable tilting objects in the principal block are the specialized
canonical basis elements, wall-crossing is right multiplication by s + 1, and
translation by a module character acts through its dot-orbit group-algebra
element.  The modular Verlinde formula computes fusion multiplicities in the
interior fundamental alcove by an alternating sum of classical tensor
multiplicities over dot-translates.
"""

from __future__ import annotations

import itertools
import warnings

from .affine import AffineElement, AffineWeyl, UnsupportedRegimeError
from .hecke import HeckeElt, coset_project, kl_gen_action
from .rootdata import Weight


WeightMultiset = dict[Weight, int]


def weyl_module_character(datum, lam) -> WeightMultiset:
    """Weight multiset of the Weyl module with highest weight lam."""
    return dict(datum.all_weights(lam))


def tilting_class(provider, w: AffineElement) -> HeckeElt:
    """Standard-basis class of the indecomposable tilting object at w . 0.

    With the 0-canonical basis this is exact only in the large-p regime; a
    caller that serializes the class passes ``provider.p`` as the ``basis_p``
    of :func:`tilting_class_json`.
    """
    return HeckeElt({y: c.at_one() for y, c in provider.asph_canonical(w).terms.items()})


def mzero_act(aw: AffineWeyl, x: HeckeElt, c: HeckeElt) -> HeckeElt:
    """Right action of a group-algebra element on M0: the product x c in
    Z[W], rewritten onto fW with a sign per stripped finite reflection."""
    prod: dict[AffineElement, int] = {}
    for g, n in c.terms.items():
        for w, m in x.terms.items():
            z = aw.mult(w, g)
            prod[z] = prod.get(z, 0) + m * n
    return coset_project(aw, HeckeElt(prod), -1)


def wall_crossing(aw: AffineWeyl, x: HeckeElt, i: int) -> HeckeElt:
    """Right multiplication by s + 1: the canonical generator at v = 1."""
    return kl_gen_action(aw, x, i, aw.in_fW, 1, 1)


def dot_orbit_element(aw: AffineWeyl, lam, p: int) -> "AffineElement | None":
    """The x in W with x ._p 0 = lam, or None when lam is off the orbit."""
    d = aw.datum
    if p <= d.coxeter_number:
        warnings.warn("dot action below the Coxeter number regime", stacklevel=2)
    x, nu = aw.dot_walk(lam, (0,) * d.rank, p)
    return None if any(nu) else x


def c_of_module(aw: AffineWeyl, m: WeightMultiset, p: int) -> HeckeElt:
    """Group-algebra element of a character: dot-orbit weights with multiplicity."""
    out: dict[AffineElement, int] = {}
    for lam, mult in m.items():
        if not mult:
            continue
        x = dot_orbit_element(aw, lam, p)
        if x is not None:
            out[x] = out.get(x, 0) + mult
    return HeckeElt(out)


def tensor_translate(aw: AffineWeyl, x: HeckeElt, m: WeightMultiset, p: int) -> HeckeElt:
    """Class of the principal-block projection of (tensor by the character m)."""
    return mzero_act(aw, x, c_of_module(aw, m, p))


def in_fundamental_alcove(datum, lam, p: int) -> bool:
    """Interior fundamental alcove membership (all walls strict)."""
    lam = tuple(lam)
    if any(c < 0 for c in lam):
        return False
    at = datum.affine_root
    return sum(c * (x + 1) for c, x in zip(at.coroot, lam)) < p


def fundamental_alcove_weights(datum, p: int) -> list[Weight]:
    """The weights of the interior fundamental alcove C_p, sorted."""
    if p < 1:
        raise ValueError(f"the fundamental alcove needs p >= 1, got p={p}")
    return sorted(
        lam
        for lam in itertools.product(range(p), repeat=datum.rank)
        if in_fundamental_alcove(datum, lam, p)
    )


def fusion_multiplicity(aw: AffineWeyl, lam, mu, nu, p: int) -> int:
    """Multiplicity of T(nu) in T(lam) (x) T(mu) for weights inside C_p.

    Alternating sum of the classical tensor multiplicities m(lam, mu; eta)
    over the w in fW of length <= bound = |Phi+| (floor(level / p) + 2),
    level = <lam + mu + 2 rho, theta^vee>, with eta = w ._p nu dominant.  No
    term lies beyond: eta + rho is inside the alcove of w, so l(w) is the sum
    over a > 0 of floor(<eta + rho, a^vee> / p); as eta <= lam + mu when m is
    nonzero and theta^vee (the highest coroot) is dominant, each pairing is
    at most <lam + mu + rho, theta^vee> < level, so l(w) <= |Phi+| floor(level
    / p) < bound.
    """
    d = aw.datum
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    for x in (lam, mu, nu):
        if not in_fundamental_alcove(d, x, p):
            raise UnsupportedRegimeError(
                "fusion multiplicities need all three weights inside the "
                "fundamental alcove"
            )
    at = d.affine_root
    level = sum(c * (a + b + 2) for c, a, b in zip(at.coroot, lam, mu))
    bound = len(d.positive_roots) * (level // p + 2)
    total = 0
    for w in aw.enumerate_fW(bound):
        eta = aw.dot_action(w, nu, p)
        if d.is_dominant(eta) and (k := d.tensor_multiplicity(lam, mu, eta)):
            total += -k if w.length % 2 else k
    return total


def fusion_rows(aw: AffineWeyl, lam, mu, p: int) -> list[tuple[Weight, int]]:
    """The nonzero rows (nu, N(lam, mu; nu)) of T(lam) (x) T(mu), nu sorted.

    The Kac-Walton fold (Kac, Exercise 13.35; Walton 1990): each weight tau
    of V(mu), with multiplicity m, adds (-1)^l(w) m at nu, where w ._p nu =
    lam + tau walks lam + tau into the closed fundamental alcove; a nu on a
    wall adds nothing.
    """
    d = aw.datum
    if p < 1:
        raise ValueError(f"the fundamental alcove needs p >= 1, got p={p}")
    lam, mu = tuple(lam), tuple(mu)
    if not (in_fundamental_alcove(d, lam, p) and in_fundamental_alcove(d, mu, p)):
        raise UnsupportedRegimeError("fusion rows need lam and mu inside the fundamental alcove")
    rows: dict[Weight, int] = {}
    for tau, m in d.all_weights(mu).items():
        w, nu = aw.dot_walk(tuple(map(sum, zip(lam, tau))), (0,) * d.rank, p)
        if in_fundamental_alcove(d, nu, p):
            rows[nu] = rows.get(nu, 0) + (-m if w.length % 2 else m)
    return sorted((nu, n) for nu, n in rows.items() if n)


def tilting_class_json(aw: AffineWeyl, x: HeckeElt, basis_p: int = 0) -> dict:
    """JSON form of a class in M0, keyed by reduced words."""
    return {
        "schema": 1,
        "type": str(aw.datum.cartan_type),
        "basis_p": basis_p,
        "terms": {
            aw.to_word(w): c
            for w, c in sorted(x.terms.items(), key=lambda t: aw.sort_key(t[0]))
        },
    }
