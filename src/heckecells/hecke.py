"""Affine Hecke algebra over Z[v, v^-1] and its antispherical module.

The algebra has standard basis {H_w} with H_s^2 = 1 + (v^-1 - v) H_s and
length-additive products.  The canonical basis elements are the unique
bar-self-dual elements that are unitriangular with off-diagonal coefficients
in v Z[v]; one descent recursion with mu-term corrections computes them in
the algebra and in the antispherical module, on Kronecker-coded integers: a
coefficient n(v) is held as n(2^64) next to n(1).  It is nonnegative
(Kazhdan-Lusztig 1980; Elias-Williamson 2014), so its base-2^64 digits are
exact while n(1) < 2^63; a failed check raises UnsupportedRegimeError (exit
3), as does a memo past its budget of terms.  By the uniqueness
every right descent of w leads to the same element at w, so the recursion
starts from the memoized one with the fewest terms.  For that descent s,
C_w (H_s + v) = (v + v^-1) C_w, so the coefficient at zs is v times the one
at z whenever zs < z: the recursion sums only the upper member z of each
pair {z, zs} and writes the lower one as its shift.  The antispherical
module is sgn tensored over the finite Hecke algebra, with standard basis
N_w indexed by the minimal coset representatives fW; finite simple
reflections act on the sign line by -v.

Positive-characteristic canonical bases are never computed here: they are
ingested from :class:`CanonicalBasisTable` files and only validated, a
term y of an entry w by the Z-property (y <= w iff min(y, ys) <= ws for a
right descent s; Bjorner-Brenti, Prop. 2.2.7) against the entry ws.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress
from math import isqrt
from operator import attrgetter
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


def _elt(terms: dict) -> HeckeElt:
    """A HeckeElt on a terms dict with no zero coefficient (decoded or parsed), as is."""
    out = object.__new__(HeckeElt)
    out.terms = terms
    return out


_BITS, _MASK, _BOUND = 64, (1 << 64) - 1, 1 << 63
_DIGIT1 = _MASK << _BITS  # the digit of v^1 in a code

# Budget on the terms of one Hecke algebra's canonical memo, under 2 GiB:
# `kl` on the C2 word (s0.s1.s2)^k.s0 memoizes 0.8 M terms (174 MiB) at length
# 61 and 3.9 M (1.06 GiB) at length 91.  Past it, `kl` is the exit-3 error.
KL_MEMO_TERMS = 6_000_000

# Budget on the terms of one antispherical module's canonical memo, under
# 2 GiB at about 100 bytes a term: `cells --type C4 --len 60 --margin 16`
# memoizes 10.5 M terms (1010 MiB).  Past it, `cells` is the exit-3 error.
ASPH_MEMO_TERMS = 20_000_000


class _OverBudget(Exception):
    """A canonical memo reached its budget (see :meth:`_BudgetMemo.coded`)."""


class _BudgetMemo(dict):
    """A canonical memo that counts the terms stored in it, up to the module
    constant named ``budget`` (read at each store, once per entry)."""

    terms = 0

    def __init__(self, budget: str):
        self.budget = budget

    def __setitem__(self, w, out):
        if self.terms + len(out[0]) > globals()[self.budget]:
            raise _OverBudget
        self.terms += len(out[0])
        super().__setitem__(w, out)

    def coded(self, aw: AffineWeyl, keep, w: AffineElement) -> tuple[list, list, list]:
        """``_canonical`` at the context's own instance of w; past the budget, the
        exit-3 error names the length of w, not that of the entry that overflowed."""
        try:
            return _canonical(aw, keep, self, aw.element(w.fin, w.trans))
        except _OverBudget:
            raise UnsupportedRegimeError(
                f"canonical basis at length {w.length} needs over "
                f"{globals()[self.budget]} memo terms"
            ) from None


def _canonical(aw: AffineWeyl, keep, memo: dict, w: AffineElement) -> tuple[list, list, list]:
    """Coded canonical basis element at w by the descent recursion with mu-terms.

    For any right descent s of w, C_w = C_ws (H_s + v) minus mu(y, ws) C_y
    for every y with ys < y: the right side is bar-invariant, unitriangular
    with off-diagonal coefficients in vZ[v], and such an element is unique
    (Kazhdan-Lusztig 1979).  So s is chosen by cost: among the descents whose
    C_ws is in ``memo``, the one with the fewest terms, else the smallest
    descent (du Cloux 2002); a walk in length order finds every candidate
    memoized.  H_s + v acts as in ``kl_gen_action`` with ``keep`` (None or
    ``in_fW``, whose flag a step up may already have set), and
    ``memo`` caches finished elements, each a triple of parallel lists: the
    support z, and n(2^64) and n(1) for the coefficient n at z, with zero
    codes dropped, in an order that follows the descent taken.  Off the
    diagonal n lies in vZ[v], so v^-1 is an exact shift and mu(y, ws) is
    digit 1 at y.

    Every summand is s-symmetric (C_y for ys < y as much as C_ws (H_s + v)),
    and so is C_w: n at zs is v times n at z when zs < z, and in the module
    n = 0 at a z whose zs > z lies outside fW (fW is closed under right
    prefixes, so the lower member of a kept pair is in fW).  The loop
    therefore sums only the upper members z: an ascending term x of C_ws
    adds its code c to xs, a descending one adds c >> 64 to x, and a
    mu-term only the upper half of C_y.  It sums through one dict from z.key
    (w, and so every z, is the context's own instance) to its position.
    After it, each lower zs is appended with the code of z shifted by 64
    bits and the same n(1); when that shift equals the code c that C_ws
    holds at z (zs then got nothing else), the object c itself is stored,
    so the memo holds no more distinct code objects than a sum over both
    members would.
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
        # per upper member z: its lower member zs, and the code object C_ws
        # holds at z when z is a descending term (else 0), reused at zs
        index, elts, codes, ones, lows, shared = {}, [], [], [], [], []
        for x, c, n in zip(*lower):
            xs = x.right[i] or mult_gen(x, i)
            if xs.length > x.length:
                if keep is not None and not (xs.fmin or xs.fmin is None and keep(xs)):
                    continue
                x, xs, q = xs, x, 0
            else:
                q, c = c, c >> _BITS
                mu = c & _MASK
                if mu:
                    for z, cz, nz in zip(*_canonical(aw, keep, memo, x)):
                        zs = z.right[i] or mult_gen(z, i)
                        if zs.length > z.length:
                            continue
                        k = index.get(z.key)
                        if k is None:
                            index[z.key] = len(elts)
                            elts.append(z)
                            codes.append(-mu * cz)
                            ones.append(-mu * nz)
                            lows.append(zs)
                            shared.append(0)
                        else:
                            codes[k] -= mu * cz
                            ones[k] -= mu * nz
            k = index.get(x.key)
            if k is None:
                index[x.key] = len(elts)
                elts.append(x)
                codes.append(c)
                ones.append(n)
                lows.append(xs)
                shared.append(q)
            else:
                codes[k] += c
                ones[k] += n
        k = index.get(w.key)
        diag = 0 if k is None else codes[k]
        elts, ones, lows, shared, codes = [
            list(compress(col, codes)) for col in (elts, ones, lows, shared, codes)
        ]
        if diag != 1 or max(ones) >= _BOUND:
            raise UnsupportedRegimeError(f"canonical basis at length {w.length} is not exact")
        # C_w (H_s + v) = (v + v^-1) C_w: the code at zs is the one at z shifted
        shared = [q if q >> _BITS == c else c << _BITS for c, q in zip(codes, shared)]
        out = (elts + lows, codes + shared, ones + ones)
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
    return _elt({z: _decode(c, n) for z, c, n in zip(*coded)})


def to_canonical(x: HeckeElt, canonical) -> dict[AffineElement, LaurentPoly]:
    """Expand x in a canonical basis by leading-term subtraction.

    ``canonical(w)`` is the basis element at w; a longest remaining term is
    Bruhat-maximal among the rest (the expansion is unique).  The private
    copy of x's terms keeps x and every cached basis element unchanged.
    """
    rest = dict(x.terms)
    out: dict[AffineElement, LaurentPoly] = {}
    while rest:
        w = max(rest, key=attrgetter("length"))
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


class Hecke:
    """The affine Hecke algebra attached to an :class:`AffineWeyl` context."""

    def __init__(self, aw: AffineWeyl):
        self.aw = aw
        self._kl_cache = _BudgetMemo("KL_MEMO_TERMS")

    # -- canonical basis ------------------------------------------------------

    def kl_basis(self, w: AffineElement) -> HeckeElt:
        """The 0-canonical basis element at w, decoded from the memo on each call."""
        return _decode_elt(self._kl_cache.coded(self.aw, None, w))


class AsphModule:
    """The antispherical right module with its standard and canonical bases."""

    def __init__(self, hecke: Hecke):
        self.hecke = hecke
        self.aw = hecke.aw
        self._canon_cache = _BudgetMemo("ASPH_MEMO_TERMS")
        self._canon_elts: dict[AffineElement, HeckeElt] = {}

    def mul_by_kl_gen(self, n: HeckeElt, i: int) -> HeckeElt:
        """Right action of the canonical generator H_s + v."""
        return kl_gen_action(self.aw, n, i, self.aw.in_fW, V, VINV)

    def canonical(self, w: AffineElement) -> HeckeElt:
        """0-canonical basis element of the antispherical module.

        It equals coset_project(aw, kl_basis(w), -V) (checked in the tests).
        """
        out = self._canon_elts.get(w)
        if out is None:
            _check_in_fW(self.aw, w)
            out = self._canon_elts[w] = _decode_elt(self._coded(w))
        return out

    def _coded(self, w: AffineElement) -> tuple[list, list, list]:
        """The canonical element at w in fW as ``_canonical`` codes it."""
        return self._canon_cache.coded(self.aw, self.aw.in_fW, w)


class CanonicalBasisTable:
    """Ingested canonical-basis table: w -> expansion of the basis element.

    The label p records which p-canonical basis the table claims to hold
    (0 means the ordinary Kazhdan-Lusztig basis, otherwise it is a prime
    below 2^31; never a bool); provenance is free text.  Entries are validated
    to be indexed by W and unitriangular with diagonal coefficient 1, and to
    have no negative coefficient (true of every p-canonical basis); at p > 0
    each entry's expansion on the computed 0-canonical basis must have
    bar-invariant nonnegative coefficients.  Validation tests each distinct
    coefficient once and, in (length, word) order, walks each entry's terms
    once, finding each term y of w as min(y, ys) in the entry ws for a right
    descent s; as a p-canonical element is supported on its whole lower
    interval (Jensen-Williamson 2017), only an entry with no prefix entry, or
    a term its prefix entry lacks, builds the Bruhat interval of w, once.  A
    parse or dump resolves each word once.
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
        provenance = self.provenance
        if not isinstance(provenance, str):
            raise BasisTableError(f"table provenance {provenance!r} is not text")
        # the text format holds the provenance on one header line, stripped
        if provenance and (len(provenance.splitlines()) > 1 or provenance != provenance.rstrip()):
            raise BasisTableError(f"table provenance {provenance!r} spans lines or ends in whitespace")
        aw, entries = self.aw, self.entries
        for w in entries:
            if not aw.in_affine_weyl(w):
                raise BasisTableError(f"entry {aw.to_word(w)} is not in W")
        bad = {}  # id -> (outside vZ[v] at p = 0, negative) of each distinct coefficient
        for w in sorted(entries, key=aw.sort_key):
            terms = entries[w].terms
            diag = terms.get(w, ZERO)
            if diag != ONE:
                raise BasisTableError(f"diagonal coefficient of {aw.to_word(w)} is {diag}, not 1")
            # y <= w iff min(y, ys) <= ws: find it in the first prefix entry ws,
            # or, from the first term that entry lacks, in the interval of w
            below = None
            for i, ws in enumerate(w.right):
                ws = ws or aw.mult_gen(w, i)
                if ws.length < w.length and (h := entries.get(ws)) is not None:
                    prefix = h.terms
                    break
            else:
                below = aw.bruhat_interval(w)
            for y, c in terms.items():
                if below is None:
                    ys = y.right[i] or aw.mult_gen(y, i)
                    if (ys if ys.length < y.length else y) not in prefix:
                        below = aw.bruhat_interval(w)
                if below is not None and y not in below:
                    raise BasisTableError(
                        f"entry {aw.to_word(w)} is not unitriangular: {aw.to_word(y)} appears"
                    )
                if (flags := bad.get(id(c))) is None:
                    flags = bad[id(c)] = (p == 0 and min(c.c) < 1, min(c.c.values()) < 0)
                if flags[0] and y != w:
                    raise BasisTableError(
                        f"p=0 entry {aw.to_word(w)} has an off-diagonal coefficient outside vZ[v]"
                    )
                if flags[1]:
                    raise BasisTableError(
                        f"entry {aw.to_word(w)} has a negative coefficient at {aw.to_word(y)}"
                    )
        if p:
            # a p-canonical element is a bar-invariant combination of the
            # 0-canonical basis with nonnegative coefficients (Jensen-Williamson
            # 2017, section 4)
            hecke = Hecke(aw)
            for w, h in entries.items():
                for y, c in to_canonical(h, hecke.kl_basis).items():
                    if min(c.c.values()) < 0 or c.bar() != c:
                        raise BasisTableError(
                            f"p={p} entry {aw.to_word(w)} has coefficient {c} at "
                            f"{aw.to_word(y)} on the 0-canonical basis: not "
                            "bar-invariant and nonnegative"
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
        text = {}  # id -> text; the entries keep each coefficient alive, so no id is reused
        rows = []
        for w in sorted(entries, key=rank.__getitem__):
            terms = entries[w].terms
            ranked = sorted(zip(map(rank.__getitem__, terms), terms.values()))
            rows.append((words[rank[w]], [
                (words[k], text.get(id(c)) or text.setdefault(id(c), c.serialize())) for k, c in ranked
            ]))
        return rows

    def dump_text(self) -> str:
        lines = [f"p {self.p}"]
        if self.provenance:
            lines.append(f"provenance {self.provenance}")
        for w, terms in self._rows():
            lines.append(f"w={w} : " + ", ".join(map(":".join, terms)))
        return "\n".join(lines) + "\n"

    def dump_json(self) -> str:
        # the schema-1 object as json.dumps(obj, sort_keys=True, separators=(",",
        # ":")) writes it, from the rows: words and coefficient texts use only
        # [a-z0-9.*^+-] (entries lie in W, so no omega: token) and need no
        # escaping; p and provenance go through json.dumps.  Every entry holds
        # its diagonal term, so no term list is empty.
        entries = ",".join(
            '{"terms":[["%s"]],"w":"%s"}' % ('"],["'.join(map('","'.join, terms)), w)
            for w, terms in self._rows()
        )
        p, provenance = json.dumps(self.p), json.dumps(self.provenance)
        return f'{{"entries":[{entries}],"p":{p},"provenance":{provenance},"schema":1}}\n'

    @classmethod
    def parse(cls, aw: AffineWeyl, text: str) -> "CanonicalBasisTable":
        """Read either wire format; any malformed content is a BasisTableError."""
        text = text.lstrip()
        # call-local memos: exceptions are not cached, so a bad token still raises
        word, zeros = lru_cache(None)(aw.from_word_str), []
        @lru_cache(None)
        def poly(c: str) -> LaurentPoly:  # each distinct text is tested for zero once
            out = LaurentPoly.deserialize(c)
            if not out:
                zeros.append(c)
            return out
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
                entries[w] = HeckeElt(h) if zeros else _elt(h)
            return cls(aw, p, entries, provenance)
        except BasisTableError:
            raise
        except (ValueError, KeyError, TypeError, AttributeError) as e:
            raise BasisTableError(f"malformed table: {type(e).__name__}: {e}") from e


def _text_rows(text: str) -> tuple:
    """(p, provenance, rows) of the text format, rows as ``CanonicalBasisTable._rows``
    makes them; each distinct item text is split and stripped once."""
    header = {}
    rows = []
    items = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(" ")
        if key in ("p", "provenance") and value:
            if key in header:
                raise BasisTableError(f"line {lineno} repeats the {key} header: {line!r}")
            header[key] = value
        elif line.startswith("w="):
            head, _, body = line.partition(":")
            terms = []
            for item in filter(str.strip, body.split(",")):
                term = items.get(item)
                if term is None:
                    y, sep, c = item.rpartition(":")
                    if not sep:
                        raise BasisTableError(f"term {item.strip()!r} on line {lineno} has no word")
                    term = items[item] = (y.strip(), c.strip())
                terms.append(term)
            rows.append((head[2:].strip(), terms))
        else:
            raise BasisTableError(f"unparseable line {lineno}: {line!r}")
    p = header.get("p")
    return p if p is None else int(p), header.get("provenance", ""), rows


def _json_rows(text: str) -> tuple:
    """(p, provenance, rows) of the JSON format, rows as ``CanonicalBasisTable._rows``
    makes them."""
    try:
        obj = json.loads(text, object_pairs_hook=_json_object)
    except (json.JSONDecodeError, RecursionError) as e:
        raise BasisTableError(f"bad JSON table: {e}") from e
    rows = [(rec["w"], rec["terms"]) for rec in obj.get("entries", [])]
    return obj.get("p"), obj.get("provenance", ""), rows


def _json_object(pairs: list) -> dict:
    """A JSON object; a repeated key is an error, like a repeated text header."""
    if len(obj := dict(pairs)) < len(pairs):
        seen = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise BasisTableError(f"JSON table repeats the key {key!r} in one object")
    return obj


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

    def asph_canonical(self, w: AffineElement) -> HeckeElt:
        return self.asph.canonical(w)

    def asph_to_canonical(self, n: HeckeElt):
        return to_canonical(n, self.asph.canonical)

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
            out.append([ys] + targets if ys.fmin or ys.fmin is None and aw.in_fW(ys) else targets)
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
        self._canon: dict[AffineElement, HeckeElt] = {}

    def hecke_canonical(self, w: AffineElement) -> HeckeElt:
        return self.table.entry(w)

    def asph_canonical(self, w: AffineElement) -> HeckeElt:
        """Projection of the tabulated algebra element, memoized."""
        out = self._canon.get(w)
        if out is None:
            _check_in_fW(self.hecke.aw, w)
            out = coset_project(self.hecke.aw, self.table.entry(w), -V)
            self._canon[w] = out
        return out

    def asph_to_canonical(self, n: HeckeElt):
        return to_canonical(n, self.asph_canonical)

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
