"""Affine Hecke algebra over Z[v, v^-1] and its antispherical module.

The algebra has standard basis {H_w} with H_s^2 = 1 + (v^-1 - v) H_s and
length-additive products.  The canonical basis elements are the unique
bar-self-dual elements that are unitriangular with off-diagonal coefficients
in v Z[v]; one descent recursion with mu-term corrections computes them in
the algebra and in the antispherical module, on Kronecker-coded integers: a
coefficient n(v) is held as n(2^64) next to n(1).  It is nonnegative
(Kazhdan-Lusztig 1980; Elias-Williamson 2014), so its base-2^64 digits are
exact while n(1) < 2^63; a failed check raises UnsupportedRegimeError (exit
3), as does an algebra memo past KL_MEMO_TERMS terms.  By the uniqueness
every right descent of w leads to the same element at w, so the recursion
starts from the memoized one with the fewest terms.  The antispherical
module is sgn tensored over the finite Hecke algebra, with standard basis
N_w indexed by the minimal coset representatives fW; finite simple
reflections act on the sign line by -v.

Positive-characteristic canonical bases are never computed here: they are
ingested from :class:`CanonicalBasisTable` files and only validated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, compress
from math import isqrt
from typing import NamedTuple

from .affine import AffineElement, AffineWeyl, UnsupportedRegimeError
from .laurent import ONE, V, VINV, ZERO, LaurentPoly
from .rootdata import CartanType, RootDatum, build_root_datum


class BasisTableError(ValueError):
    """Malformed or inconsistent canonical-basis table data."""


@dataclass
class HeckeElt:
    """Finitely supported combination of basis elements indexed by W.

    The one sparse element type: H_w in the Hecke algebra, N_w in the
    antispherical module (support in fW), and, with integer coefficients,
    M0 and the group algebra at v = 1.
    """

    terms: dict[AffineElement, LaurentPoly] = field(default_factory=dict)

    def __post_init__(self):
        # the element owns the dict it is given; it is rebuilt only to drop zeros
        if not all(self.terms.values()):
            self.terms = {w: c for w, c in self.terms.items() if c}

    def coeff(self, w: AffineElement) -> LaurentPoly:
        return self.terms.get(w, LaurentPoly())

    def support(self):
        return self.terms.keys()

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other: "HeckeElt") -> "HeckeElt":
        out = dict(self.terms)
        for w, c in other.terms.items():
            n = out.get(w)
            out[w] = c if n is None else n + c
        return HeckeElt(out)

    def __sub__(self, other: "HeckeElt") -> "HeckeElt":
        return self + HeckeElt({w: -c for w, c in other.terms.items()})

    def scale(self, p) -> "HeckeElt":
        return HeckeElt({w: c * p for w, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, HeckeElt) and self.terms == other.terms


AsphElt = HeckeElt


_BITS, _MASK, _BOUND = 64, (1 << 64) - 1, 1 << 63
_DIGIT1 = _MASK << _BITS  # the digit of v^1 in a code

# Budget on the terms of one Hecke algebra's canonical memo, under 2 GiB:
# `kl` on the C2 word (s0.s1.s2)^k.s0 memoizes 0.8 M terms (174 MiB) at length
# 61 and 3.9 M (1.06 GiB) at length 91.  Past it, `kl` is the exit-3 error.
KL_MEMO_TERMS = 6_000_000


class _BudgetMemo(dict):
    """A canonical memo that counts the terms stored in it, up to KL_MEMO_TERMS."""

    terms = 0

    def __setitem__(self, w, out):
        if self.terms + len(out[0]) > KL_MEMO_TERMS:
            raise UnsupportedRegimeError(
                f"canonical basis at length {w.length} needs over {KL_MEMO_TERMS} memo terms"
            )
        self.terms += len(out[0])
        super().__setitem__(w, out)


def _canonical(aw: AffineWeyl, keep, memo: dict, w: AffineElement) -> tuple[list, list, list]:
    """Coded canonical basis element at w by the descent recursion with mu-terms.

    For any right descent s of w, C_w = C_ws (H_s + v) minus mu(y, ws) C_y
    for every y with ys < y: the right side is bar-invariant, unitriangular
    with off-diagonal coefficients in vZ[v], and such an element is unique
    (Kazhdan-Lusztig 1979).  So s is chosen by cost: among the descents whose
    C_ws is in ``memo``, the one with the fewest terms, else the smallest
    descent (du Cloux 2002); a walk in length order finds every candidate
    memoized.  H_s + v acts as in ``kl_gen_action`` with ``keep``, and
    ``memo`` caches finished elements, each a triple of parallel lists: the
    support z, and n(2^64) and n(1) for the coefficient n at z, with zero
    codes dropped, in an order that follows the descent taken.  The loop
    sums every term through one dict from z to its position, so a term costs
    one lookup.  Off the diagonal n lies in vZ[v], so v^-1 is an exact shift
    and mu(y, ws) is digit 1 at y.
    """
    out = memo.get(w)
    if out is not None:
        return out
    if w.length == 0:
        out = ([w], [1], [1])
    else:
        mult_gen = aw.mult_gen
        i = lower = None
        for j, ws in enumerate(w.right):
            ws = ws or mult_gen(w, j)
            if ws.length < w.length:
                got = memo.get(ws)
                if got is not None and (lower is None or len(got[0]) < len(lower[0])):
                    i, lower = j, got
                elif i is None:
                    i, first = j, ws
        if lower is None:
            lower = _canonical(aw, keep, memo, first)
        index, elts, codes, ones = {}, [], [], []
        for x, c, n in zip(*lower):
            xs = x.right[i] or mult_gen(x, i)
            if xs.length > x.length:
                if keep is not None and not keep(xs):
                    continue
                cx = c << _BITS
            else:
                cx = c >> _BITS
                mu = cx & _MASK
                if mu:
                    for z, cz, nz in zip(*_canonical(aw, keep, memo, x)):
                        k = index.get(z)
                        if k is None:
                            index[z] = len(elts)
                            elts.append(z)
                            codes.append(-mu * cz)
                            ones.append(-mu * nz)
                        else:
                            codes[k] -= mu * cz
                            ones[k] -= mu * nz
            k = index.get(xs)
            if k is None:
                index[xs] = len(elts)
                elts.append(xs)
                codes.append(c)
                ones.append(n)
            else:
                codes[k] += c
                ones[k] += n
            k = index.get(x)
            if k is None:
                index[x] = len(elts)
                elts.append(x)
                codes.append(cx)
                ones.append(n)
            else:
                codes[k] += cx
                ones[k] += n
        k = index.get(w)
        diag = 0 if k is None else codes[k]
        elts, ones, codes = [list(compress(col, codes)) for col in (elts, ones, codes)]
        if diag != 1 or max(ones) >= _BOUND:
            raise UnsupportedRegimeError(f"canonical basis at length {w.length} is not exact")
        out = (elts, codes, ones)
    memo[w] = out
    return out


@lru_cache(maxsize=1 << 12)
def _decode(code: int, one: int) -> LaurentPoly:
    """The coefficient n(v) with code = n(2^64) and one = n(1).

    As n has no negative coefficient, a carry would lower the digit sum
    below n(1): a negative code, a digit of 2^63 or more, or a digit sum
    other than n(1) raises the exit-3 error.

    >>> print(_decode(1 << 64 | 3 << 128, 4))
    v + 3*v^2
    """
    digits, k, rest = {}, 0, max(code, 0)
    while rest:
        if rest & _MASK:
            digits[k] = rest & _MASK
        rest >>= _BITS
        k += 1
    if code < 0 or max(digits.values(), default=0) >= _BOUND or sum(digits.values()) != one:
        raise UnsupportedRegimeError(f"coded coefficient {code} (n(1) = {one}) is not exact")
    return LaurentPoly(digits)


def _decode_elt(coded: tuple[list, list, list]) -> HeckeElt:
    return HeckeElt({z: _decode(c, n) for z, c, n in zip(*coded)})


def _to_canonical(x: HeckeElt, canonical, sort_key) -> dict[AffineElement, LaurentPoly]:
    """Expand x in a canonical basis by leading-term subtraction.

    ``canonical(w)`` is the basis element at w.  The subtraction works on a
    private copy of x's terms, so neither x nor a cached basis element is
    changed.
    """
    rest = dict(x.terms)
    out: dict[AffineElement, LaurentPoly] = {}
    while rest:
        w = max(rest, key=sort_key)
        c = rest[w]
        out[w] = c
        for y, cy in canonical(w).terms.items():
            n = rest.get(y, ZERO) - cy * c
            if n:
                rest[y] = n
            else:
                rest.pop(y, None)
    return out


def kl_gen_action(aw: AffineWeyl, x: HeckeElt, i: int, keep, up, down) -> HeckeElt:
    """Right action of a generator on the standard basis.

    x_w goes to x_ws + up x_w when ws > w and to x_ws + down x_w when
    ws < w: (up, down) = (v, v^-1) is the canonical generator H_s + v,
    (0, v^-1 - v) is H_s and (v - v^-1, 0) is H_s^-1.  A term whose ws > w
    fails ``keep`` is dropped: in the antispherical module (keep = in_fW)
    such a ws gives (-v + v) N_w = 0 under H_s + v.  ``keep`` is None in
    the algebra; up = down = 1 gives the wall-crossing s + 1 on M0.
    """
    out: dict[AffineElement, LaurentPoly] = {}
    for w, c in x.terms.items():
        ws = aw.mult_gen(w, i)
        if ws.length > w.length:
            if keep is not None and not keep(ws):
                continue
            cw = c * up
        else:
            cw = c * down
        n = out.get(ws)
        out[ws] = c if n is None else n + c
        n = out.get(w)
        out[w] = cw if n is None else n + cw
    return HeckeElt(out)


def coset_project(aw: AffineWeyl, x: HeckeElt, strip) -> HeckeElt:
    """Rewrite each x_w onto the minimal representative rep of W_f w.

    w = u . rep with u in W_f, and each of the l(u) = l(w) - l(rep)
    stripped finite reflections multiplies the coefficient by ``strip``:
    -v in the antispherical module, -1 on M0 at v = 1.  Each power of
    ``strip`` is computed once per call.
    """
    out: dict = {}
    powers = [None, strip]
    for w, c in x.terms.items():
        rep = w.rep or aw.min_coset_rep(w)
        k = w.length - rep.length
        if k:
            while len(powers) <= k:
                powers.append(powers[-1] * strip)
            c = c * powers[k]
        n = out.get(rep)
        out[rep] = c if n is None else n + c
    return HeckeElt(out)


def _check_in_fW(aw: AffineWeyl, w: AffineElement) -> None:
    if not aw.in_fW(w):
        raise ValueError("canonical antispherical elements are indexed by fW")


def specialize_v1(x: HeckeElt) -> dict[AffineElement, int]:
    """Specialize v to 1; returns the integer coefficient map."""
    return {w: n for w, c in x.terms.items() if (n := c.at_one())}


class Hecke:
    """The affine Hecke algebra attached to an :class:`AffineWeyl` context."""

    def __init__(self, aw: AffineWeyl):
        self.aw = aw
        self._kl_cache: dict[AffineElement, tuple[list, list, list]] = _BudgetMemo()
        self._bar_std_cache: dict[AffineElement, HeckeElt] = {}

    # -- standard basis ------------------------------------------------

    def unit(self) -> HeckeElt:
        return HeckeElt({self.aw.identity: ONE})

    def mul_by_gen(self, h: HeckeElt, i: int) -> HeckeElt:
        """Right multiplication by the standard generator H_s."""
        return kl_gen_action(self.aw, h, i, None, LaurentPoly(), VINV - V)

    # -- bar involution -----------------------------------------------------

    def bar_standard(self, w: AffineElement) -> HeckeElt:
        """bar(H_w) = (H_{w^{-1}})^{-1}, via H_s^{-1} = H_s + (v - v^{-1})."""
        cached = self._bar_std_cache.get(w)
        if cached is not None:
            return cached
        out = self.unit()
        for i in self.aw.reduced_word(w):
            out = kl_gen_action(self.aw, out, i, None, V - VINV, LaurentPoly())
        self._bar_std_cache[w] = out
        return out

    def bar(self, h: HeckeElt) -> HeckeElt:
        out = HeckeElt()
        for w, c in h.terms.items():
            out = out + self.bar_standard(w).scale(c.bar())
        return out

    # -- canonical basis ------------------------------------------------------

    def kl_basis(self, w: AffineElement) -> HeckeElt:
        """The 0-canonical basis element at w, decoded from the memo on each call."""
        return _decode_elt(_canonical(self.aw, None, self._kl_cache, w))

    def to_canonical(self, h: HeckeElt) -> dict[AffineElement, LaurentPoly]:
        """Expand in the 0-canonical basis by leading-term subtraction."""
        return _to_canonical(h, self.kl_basis, self.aw.sort_key)

    # -- antispherical projection ----------------------------------------------

    def asph_project(self, h: HeckeElt) -> AsphElt:
        """Image of 1 (x) h in the antispherical module."""
        return coset_project(self.aw, h, -V)


class AsphModule:
    """The antispherical right module with its standard and canonical bases."""

    def __init__(self, hecke: Hecke):
        self.hecke = hecke
        self.aw = hecke.aw
        self._canon_cache: dict[AffineElement, tuple[list, list, list]] = {}
        self._canon_elts: dict[AffineElement, AsphElt] = {}

    def mul_by_gen(self, n: AsphElt, i: int) -> AsphElt:
        """Right action of the standard generator H_s."""
        return self.mul_by_kl_gen(n, i) - n.scale(V)

    def mul_by_kl_gen(self, n: AsphElt, i: int) -> AsphElt:
        """Right action of the canonical generator H_s + v."""
        return kl_gen_action(self.aw, n, i, self.aw.in_fW, V, VINV)

    def canonical(self, w: AffineElement) -> AsphElt:
        """0-canonical basis element of the antispherical module.

        It equals asph_project(kl_basis(w)) (checked in the tests).
        """
        out = self._canon_elts.get(w)
        if out is None:
            _check_in_fW(self.aw, w)
            out = self._canon_elts[w] = _decode_elt(self._coded(w))
        return out

    def _coded(self, w: AffineElement) -> tuple[list, list, list]:
        """The canonical element at w in fW as ``_canonical`` codes it."""
        return _canonical(self.aw, self.aw.in_fW, self._canon_cache, w)

    def to_canonical(self, n: AsphElt) -> dict[AffineElement, LaurentPoly]:
        return _to_canonical(n, self.canonical, self.aw.sort_key)


class CanonicalBasisTable:
    """Ingested canonical-basis table: w -> expansion of the basis element.

    The label p records which p-canonical basis the table claims to hold
    (0 means the ordinary Kazhdan-Lusztig basis, otherwise it is a prime
    below 2^31; never a bool); provenance is free text.  Entries are validated
    to be indexed by W and unitriangular with diagonal coefficient 1, each
    against its lower Bruhat interval, built from its prefix's, and to have
    no negative coefficient (true of every p-canonical basis).  Validation
    tests each distinct coefficient once, a dump serializes each once, and a
    parse or dump resolves each distinct word once.
    """

    def __init__(self, aw: AffineWeyl, p: int, entries: dict, provenance: str = ""):
        self.aw = aw
        self.p = p
        self.entries = entries
        self.provenance = provenance
        self._validate()

    def _validate(self):
        p = self.p
        # trial division; 2^31 bounds its cost and exceeds every practical p
        if type(p) is not int or not (
            p == 0 or 1 < p < 2**31 and all(p % q for q in range(2, isqrt(p) + 1))
        ):
            raise BasisTableError(f"table label p={p!r} is not 0 or a prime below 2^31")
        aw, entries = self.aw, self.entries
        for w in entries:
            if not aw.in_affine_weyl(w):
                raise BasisTableError(f"entry {aw.to_word(w)} is not in W")
        # coefficients that no off-diagonal term may carry: a negative one,
        # and at p = 0 one outside vZ[v]; each distinct coefficient is tested once
        flagged = {
            i for i, c in _coefficients(entries).items()
            if min(c.c.values()) < 0 or p == 0 and min(c.c) < 1
        }
        for w, below in aw.bruhat_intervals(entries):
            terms = entries[w].terms
            diag = terms.get(w, ZERO)
            if diag != ONE:
                raise BasisTableError(f"diagonal coefficient of {aw.to_word(w)} is {diag}, not 1")
            # at p = 0 the diagonal 1 is flagged too: it may be the only one
            if below.issuperset(terms) and sum(
                map(flagged.__contains__, map(id, terms.values()))
            ) == (id(diag) in flagged):
                continue
            # name the first offending term
            for y, c in terms.items():
                if y not in below:
                    raise BasisTableError(
                        f"entry {aw.to_word(w)} is not unitriangular: {aw.to_word(y)} appears"
                    )
                if p == 0 and y != w and min(c.c) < 1:
                    raise BasisTableError(
                        f"p=0 entry {aw.to_word(w)} has an off-diagonal "
                        "coefficient outside vZ[v]"
                    )
                if min(c.c.values()) < 0:
                    raise BasisTableError(
                        f"entry {aw.to_word(w)} has a negative coefficient at {aw.to_word(y)}"
                    )

    def entry(self, w: AffineElement) -> HeckeElt:
        h = self.entries.get(w)
        if h is None:
            raise BasisTableError(f"element {self.aw.to_word(w)} missing from table")
        return h

    # -- wire formats --------------------------------------------------------

    def _rows(self) -> list:
        """(word of w, [(word of y, coefficient text), ...]) per entry, both
        in (length, word) order: the distinct elements are sorted once and
        each gets its rank and word, and each distinct coefficient is
        serialized once."""
        aw, entries = self.aw, self.entries
        order = sorted(set(entries).union(*(h.terms for h in entries.values())), key=aw.sort_key)
        rank = {y: k for k, y in enumerate(order)}
        words = [aw.to_word(y) for y in order]
        text = {i: c.serialize() for i, c in _coefficients(entries).items()}
        rows = []
        for w in sorted(entries, key=rank.__getitem__):
            terms = entries[w].terms
            ranked = sorted(zip(map(rank.__getitem__, terms), terms.values()))
            rows.append((words[rank[w]], [(words[k], text[id(c)]) for k, c in ranked]))
        return rows

    def dump_text(self) -> str:
        lines = [f"p {self.p}"]
        if self.provenance:
            lines.append(f"provenance {self.provenance}")
        for w, terms in self._rows():
            lines.append(f"w={w} : " + ", ".join(map(":".join, terms)))
        return "\n".join(lines) + "\n"

    def dump_json(self) -> str:
        obj = {
            "schema": 1,
            "p": self.p,
            "provenance": self.provenance,
            "entries": [{"w": w, "terms": terms} for w, terms in self._rows()],
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def parse(cls, aw: AffineWeyl, text: str) -> "CanonicalBasisTable":
        """Read either wire format; any malformed content is a BasisTableError."""
        text = text.lstrip()
        # call-local memos: exceptions are not cached, so a bad token still raises
        word, poly = lru_cache(None)(aw.from_word_str), lru_cache(None)(LaurentPoly.deserialize)
        try:
            p, provenance, rows = (_json_rows if text.startswith("{") else _text_rows)(text)
            entries: dict[AffineElement, HeckeElt] = {}
            for w_word, terms in rows:
                w = word(w_word)
                if w in entries:
                    raise BasisTableError(f"duplicate entry {w_word}")
                h = {word(y): poly(c) for y, c in terms}
                if len(h) != len(terms):
                    raise BasisTableError(f"entry {w_word} lists a term twice")
                entries[w] = HeckeElt(h)
            return cls(aw, p, entries, provenance)
        except BasisTableError:
            raise
        except (ValueError, KeyError, TypeError, AttributeError) as e:
            raise BasisTableError(f"malformed table: {type(e).__name__}: {e}") from e


def _coefficients(entries: dict) -> dict:
    """id -> coefficient, each distinct coefficient object of the entries
    once; the entries keep every one alive, so no id is reused."""
    values = [h.terms.values() for h in entries.values()]
    return dict(zip(map(id, chain.from_iterable(values)), chain.from_iterable(values)))


def _text_rows(text: str) -> tuple:
    """(p, provenance, rows) of the text format, rows as ``CanonicalBasisTable._rows``
    makes them."""
    p = None
    provenance = ""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("p "):
            p = int(line[2:])
        elif line.startswith("provenance "):
            provenance = line[len("provenance "):]
        elif line.startswith("w="):
            head, _, body = line.partition(":")
            terms = []
            for item in filter(str.strip, body.split(",")):
                y, sep, c = item.rpartition(":")
                if not sep:
                    raise BasisTableError(f"term {item.strip()!r} on line {lineno} has no word")
                terms.append((y.strip(), c.strip()))
            rows.append((head[2:].strip(), terms))
        else:
            raise BasisTableError(f"unparseable line {lineno}: {line!r}")
    return p, provenance, rows


def _json_rows(text: str) -> tuple:
    """(p, provenance, rows) of the JSON format, rows as ``CanonicalBasisTable._rows``
    makes them."""
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise BasisTableError(f"bad JSON table: {e}") from e
    rows = [(rec["w"], rec["terms"]) for rec in obj.get("entries", [])]
    return obj.get("p"), obj.get("provenance", ""), rows


def load_basis_table(aw: AffineWeyl, path) -> CanonicalBasisTable:
    """Read and validate a canonical-basis table from a file path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise BasisTableError(f"table is not UTF-8: {e}") from e
    return CanonicalBasisTable.parse(aw, text)


def table_from_zero_basis(hecke: Hecke, bound: int, provenance: str = "self") -> CanonicalBasisTable:
    """Tabulate the computed 0-canonical basis up to a length bound."""
    entries = {
        w: hecke.kl_basis(w) for w in hecke.aw.enumerate_W(bound)
    }
    return CanonicalBasisTable(hecke.aw, 0, entries, provenance)


class ZeroBasisProvider:
    """Canonical-basis provider backed by the internal 0-basis recursion."""

    def __init__(self, hecke: Hecke, asph: AsphModule):
        self.hecke = hecke
        self.asph = asph
        self.p = 0
        self.provenance = "computed 0-canonical basis"

    def hecke_canonical(self, w: AffineElement) -> HeckeElt:
        return self.hecke.kl_basis(w)

    def asph_canonical(self, w: AffineElement) -> AsphElt:
        return self.asph.canonical(w)

    def asph_to_canonical(self, n: AsphElt):
        return self.asph.to_canonical(n)

    def kl_gen_targets(self, y: AffineElement) -> list:
        """Per generator s, the canonical-basis support of N_y (H_s + v), read
        off the W-graph: y when ys < y, else ys (if in fW) and each z with
        zs < z and mu(z, y) != 0, digit 1 of N_y's code at z (Kazhdan-Lusztig
        1979, Soergel 1997).  The z with mu(z, y) != 0 are read once for all s."""
        aw = self.hecke.aw
        mult_gen = aw.mult_gen
        out, mus = [], None
        for i in range(len(aw.gens)):
            ys = y.right[i] or mult_gen(y, i)
            if ys.length < y.length:
                out.append([y])
                continue
            if mus is None:
                elts, codes, _ = self.asph._coded(y)
                mus = [z for z, c in zip(elts, codes) if c & _DIGIT1]
            targets = [z for z in mus if (z.right[i] or mult_gen(z, i)).length < z.length]
            out.append([ys] + targets if aw.in_fW(ys) else targets)
        return out


class TableBasisProvider:
    """Canonical-basis provider backed by an ingested table; the only code
    that reads basis elements from a table."""

    def __init__(self, hecke: Hecke, asph: AsphModule, table: CanonicalBasisTable):
        self.hecke = hecke
        self.asph = asph
        self.table = table
        self.p = table.p
        self.provenance = table.provenance or f"ingested p={table.p} table"
        self._canon: dict[AffineElement, AsphElt] = {}

    def hecke_canonical(self, w: AffineElement) -> HeckeElt:
        return self.table.entry(w)

    def asph_canonical(self, w: AffineElement) -> AsphElt:
        """Projection of the tabulated algebra element, memoized."""
        out = self._canon.get(w)
        if out is None:
            _check_in_fW(self.hecke.aw, w)
            out = self.hecke.asph_project(self.table.entry(w))
            self._canon[w] = out
        return out

    def asph_to_canonical(self, n: AsphElt):
        return _to_canonical(n, self.asph_canonical, self.hecke.aw.sort_key)

    def kl_gen_targets(self, y: AffineElement) -> list:
        """Per generator s, the canonical-basis support of N_y (H_s + v), by
        leading-term expansion: the W-graph rule of the 0-basis fails for p > 0."""
        ny = self.asph_canonical(y)
        return [
            self.asph_to_canonical(self.asph.mul_by_kl_gen(ny, i))
            for i in range(len(self.hecke.aw.gens))
        ]


class Context(NamedTuple):
    """The arithmetic objects of one Cartan type, sharing their memo caches."""

    datum: RootDatum
    aw: AffineWeyl
    hecke: Hecke
    asph: AsphModule
    provider: "ZeroBasisProvider | TableBasisProvider"


def build_context(type_str: CartanType | str, basis_path=None) -> Context:
    """A fresh context; the provider reads the table file at basis_path when
    one is given and computes the 0-canonical basis otherwise."""
    datum = build_root_datum(type_str)
    aw = AffineWeyl(datum)
    hecke = Hecke(aw)
    asph = AsphModule(hecke)
    if basis_path:
        provider = TableBasisProvider(hecke, asph, load_basis_table(aw, basis_path))
    else:
        provider = ZeroBasisProvider(hecke, asph)
    return Context(datum, aw, hecke, asph, provider)
