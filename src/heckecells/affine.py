"""Extended affine Weyl group arithmetic.

Elements are pairs ``w . t_lambda`` with ``w`` in the finite Weyl group and
``lambda`` in the weight lattice; this canonical form makes multiplication
exact and cheap.  The lexicographically smallest reduced word of each element
of an enumerated ball is set by the walk's first step into it; for any other
element it is recovered on demand by greedy left descent.
The length function is the Iwahori-Matsumoto hyperplane count

    l(w t_lambda) = sum_{a>0, w(a)>0} |<lambda, a^vee>|
                  + sum_{a>0, w(a)<0} |1 + <lambda, a^vee>|.

Each finite part w gets one record, which every element w t_lambda points
to.  It holds w's elements by translation, and every other entry is filled
on first use: the flags [w(a) < 0], by the first length computed from
scratch; per generator, a (coroot, bound) pair that decides a left descent
by one pairing and builds no element (Bjorner-Brenti, 8.3); per generator
and side, a step entry; per finite part w', the record of w w'.  A generator
step changes the length by exactly one; a right step moves lambda to
lambda - k alpha_i, and k with the flag [w(alpha_i) < 0] held in its entry
decides which way; a left step, decided by the left-descent pair, keeps
lambda but for s0.  The walks to a weight's alcove, a reduced word and a
minimal coset representative step by these entries and build at most the
element they return.

Generators are indexed ``0`` for the affine reflection ``s0`` and ``1..rank``
for the finite simple reflections, matching the word tokens ``s0, s1, ...``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter, mul

from .rootdata import FiniteWeylElement, RootDatum, Weight, closure


class UnsupportedRegimeError(ValueError):
    """Raised when a computation is requested outside its valid regime."""


class AffineElement:
    """Element of the extended affine Weyl group, as (finite part, translation).

    Interned: an :class:`AffineWeyl` context holds one object per element;
    equality and hashing use the canonical form, so an element equals (and
    hashes like) the same element of another context of the same type.  The
    context caches on it its product with the i-th generator, ``right[i]``,
    its reduced ``word``, ``fmin`` (is it in fW) and ``rep``, the minimal
    representative of its coset W_f a; ``rec`` is its finite part's record.
    """

    __slots__ = ("fin", "trans", "length", "_hash", "right", "word", "fmin", "rep", "rec")

    def __init__(self, rec: "_FiniteRecord", trans: Weight, length: int, ngens: int):
        self.rec = rec
        self.fin = fin = rec.fin
        self.trans = trans
        self.length = length
        self._hash = hash((fin.mat, trans))
        self.right = [None] * ngens
        self.word = self.fmin = self.rep = None

    def __eq__(self, other):
        return self is other or (
            isinstance(other, AffineElement)
            and self.fin.mat == other.fin.mat
            and self.trans == other.trans
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"AffineElement(trans={self.trans}, length={self.length})"


class _FiniteRecord:
    """What one finite part w decides for all its elements w t_lam.

    ``elements`` maps lam to the context's element.  Every other entry is
    filled on first use: ``flags``, [w(a) < 0] over the positive roots, by a
    length computed from scratch; ``descents[i]``, (c, n) with s_i . w t_lam
    shorter iff <lam, c> < n, by a left descent test or step; ``right[i]``,
    (record of w s_i, [w(alpha_i) < 0]), by a right step of an element or of
    :meth:`AffineWeyl.dot_walk`; ``left[i]``, (record of s_i w, shift) with
    s_i . w t_lam = s_i w t_{lam + shift} (shift None for i >= 1), by a left
    step of a left-descent walk; ``products[r]``, the record of w times r's
    finite part, by :meth:`AffineWeyl.mult`.
    """

    __slots__ = ("fin", "elements", "flags", "descents", "right", "left", "products")

    def __init__(self, fin: FiniteWeylElement, ngens: int):
        self.fin = fin
        self.elements: dict[Weight, AffineElement] = {}
        self.flags = None
        self.descents, self.right, self.left = [None] * ngens, [None] * ngens, [None] * ngens
        self.products: dict[_FiniteRecord, _FiniteRecord] = {}


@dataclass(frozen=True)
class Alcove:
    """A dominant-chamber alcove: its minimal coset representative and the
    integer floor data (n_a per positive root, in datum root order)."""

    element: AffineElement
    floors: tuple[int, ...]


class AffineWeyl:
    """Arithmetic context for one affine Weyl group.

    Every operation returns the context's one instance of each element (see
    :meth:`element`).  All caches only grow and every write stores the same
    value.
    """

    def __init__(self, datum: RootDatum):
        self.datum = datum
        d = datum
        self._records: dict[tuple, _FiniteRecord] = {}
        # alpha_i per generator, alpha_0 the affine root theta
        self._step_roots = (d.affine_root.fund,) + tuple(r.fund for r in d.simple_roots)
        self._theta_coroot = d.affine_root.coroot
        self.identity = self.element(d.identity_finite, (0,) * d.rank)
        self.identity.word = ()
        s0 = self.element(d.reflection(d.affine_root), tuple(-c for c in d.affine_root.fund))
        if s0.length != 1:
            raise AssertionError("affine generator must have length 1")
        self.gens: tuple[AffineElement, ...] = (s0,) + tuple(
            self.element(s, (0,) * d.rank) for s in d.simple_reflections
        )
        self.omega = self._build_omega()
        self._omega_inv = tuple(self.inverse(om) for om in self.omega)

    # -- construction of elements ----------------------------------------

    def element(self, fin: FiniteWeylElement, trans) -> AffineElement:
        """The context's one instance of fin . t_trans; its length is computed once."""
        return self._at(self._record(fin), tuple(trans))

    def _at(self, rec: _FiniteRecord, trans: Weight) -> AffineElement:
        """rec's element at trans; a new one gets its length from scratch."""
        return rec.elements.get(trans) or self._new(rec, trans, self._length(rec, trans))

    def _length(self, rec: _FiniteRecord, trans: Weight) -> int:
        """One pairing per positive root against rec's flags, filled by the
        first call."""
        roots = self.datum.positive_roots
        if rec.flags is None:
            pos, fin = self.datum._posroot_fund, rec.fin
            rec.flags = tuple(int(fin.apply(r.fund) not in pos) for r in roots)
        return sum(abs(sum(map(mul, r.coroot, trans)) + f) for r, f in zip(roots, rec.flags))

    def _new(self, rec: _FiniteRecord, trans: Weight, length: int) -> AffineElement:
        out = rec.elements[trans] = AffineElement(rec, trans, length, len(rec.right))
        return out

    def _record(self, fin: FiniteWeylElement) -> _FiniteRecord:
        """The record of the finite part w, built once with no entry filled."""
        rec = self._records.get(fin.mat)
        if rec is None:
            rec = self._records[fin.mat] = _FiniteRecord(fin, len(self._step_roots))
        return rec

    def _descent(self, rec: _FiniteRecord, i: int) -> tuple:
        """Fill rec.descents[i]: (c, n) with s_i . w t_lam shorter than w t_lam
        iff <lam, c> < n.  With beta = w^-1(alpha_i) (the affine root theta
        for i = 0), k = <lam, beta^vee> and n0 = [beta < 0], the test is
        k < n0 for i >= 1 and k > n0 for i = 0."""
        pos = self.datum._posroot_fund
        beta = rec.fin.apply_inverse(self._step_roots[i])
        n0 = int(beta not in pos)
        coroot = pos[tuple(-x for x in beta) if n0 else beta].coroot
        # c = beta^vee; for s0, c and n are negated so that k > n0 reads c < n
        sign = (-1) ** (n0 + (i == 0))
        pair = rec.descents[i] = tuple(sign * c for c in coroot), -n0 if i == 0 else n0
        return pair

    def _right_step(self, rec: _FiniteRecord, lam: Weight, i: int) -> tuple:
        """(record of w s_i, translation, length change) for w t_lam . s_i.

        The translation is lam - k alpha_i, whatever w, with k = lam_i for
        i >= 1 and <lam, theta^vee> + 1 for s0.  With the entry's flag
        f = [w(alpha_i) < 0], the step goes down iff k + f > 0 for i >= 1
        and iff k + f <= 0 for s0; rec.right[i] is filled on first use.
        """
        step = rec.right[i]
        if step is None:
            fin = rec.fin
            f = int(fin.apply(self._step_roots[i]) not in self.datum._posroot_fund)
            step = rec.right[i] = (self._record(fin * self.gens[i].fin), f)
        nrec, f = step
        k = lam[i - 1] if i else sum(map(mul, self._theta_coroot, lam)) + 1
        if k:
            lam = tuple([x - k * r for x, r in zip(lam, self._step_roots[i])])
        return nrec, lam, -1 if (k + f > 0) == (i > 0) else 1

    def _left_step(self, rec: _FiniteRecord, lam: Weight, i: int) -> tuple:
        """(record of s_i w, translation, length change) for s_i . w t_lam:
        s0 . w t_lam = s_theta w t_{lam + w^-1(-theta)}, s_i . w t_lam = s_i w
        t_lam for i >= 1, and rec.descents[i] decides the change; rec.left[i]
        and rec.descents[i] are filled on first use."""
        step = rec.left[i]
        if step is None:
            g = self.gens[i]
            shift = rec.fin.apply_inverse(g.trans) if i == 0 else None
            step = rec.left[i] = (self._record(g.fin * rec.fin), shift)
        nrec, shift = step
        c, n = rec.descents[i] or self._descent(rec, i)
        change = -1 if sum(map(mul, c, lam)) < n else 1
        if shift is not None:
            lam = tuple([x + y for x, y in zip(lam, shift)])
        return nrec, lam, change

    def translation(self, lam) -> AffineElement:
        return self.element(self.datum.identity_finite, lam)

    # -- group operations -------------------------------------------------

    def mult(self, a: AffineElement, b: AffineElement) -> AffineElement:
        # (w t_lam)(w' t_mu) = w w' t_{w'^{-1}(lam) + mu}
        rec = a.rec.products.get(b.rec)
        if rec is None:
            rec = a.rec.products[b.rec] = self._record(a.fin * b.fin)
        moved = b.fin.apply_inverse(a.trans)
        return self._at(rec, tuple([x + y for x, y in zip(moved, b.trans)]))

    def mult_gen(self, a: AffineElement, i: int) -> AffineElement:
        """Right multiplication by the i-th simple generator, cached on a and
        read off the record's right entry (see :meth:`_right_step`)."""
        out = a.right[i]
        if out is None:
            nrec, lam, change = self._right_step(a.rec, a.trans, i)
            out = a.right[i] = nrec.elements.get(lam) or self._new(nrec, lam, a.length + change)
        return out

    def inverse(self, a: AffineElement) -> AffineElement:
        fin = a.fin.inverse()
        trans = tuple(-c for c in a.fin.apply(a.trans))
        return self.element(fin, trans)

    def in_affine_weyl(self, a: AffineElement) -> bool:
        """True if the element lies in W (translation in the root lattice)."""
        return self.datum.in_root_lattice(a.trans)

    # -- descents, cosets, words -------------------------------------------

    def left_descent(self, rec: _FiniteRecord, lam: Weight, start: int = 0) -> int | None:
        """The first generator i >= start with s_i . w t_lam < w t_lam (rec is
        w's record), or None; one pairing per generator tried, none built."""
        for i in range(start, len(rec.descents)):
            c, n = rec.descents[i] or self._descent(rec, i)
            if sum(map(mul, c, lam)) < n:
                return i
        return None

    def min_coset_rep(self, a: AffineElement) -> AffineElement:
        """Minimal representative rep of W_f a.

        a = u . rep with u in W_f of length a.length - rep.length: each left
        step strips one finite reflection.  The walk moves on (record,
        translation) pairs down to the first element with a known
        representative; the elements it passes keep it, and only rep may be
        built.
        """
        path, rec, lam, length, cur = [], a.rec, a.trans, a.length, a
        while cur is None or cur.rep is None:
            path.append(cur)
            i = self.left_descent(rec, lam, 1)
            if i is None:
                cur = cur or self._new(rec, lam, length)
                cur.rep = cur
                break
            rec, lam, change = self._left_step(rec, lam, i)
            length += change
            cur = rec.elements.get(lam)
        for elem in filter(None, path):
            elem.rep = cur.rep
        return cur.rep

    def in_fW(self, a: AffineElement) -> bool:
        """True if a is minimal in W_f a, cached on a."""
        if a.fmin is None:
            a.fmin = self.left_descent(a.rec, a.trans, 1) is None
        return a.fmin

    def in_fWf(self, a: AffineElement) -> bool:
        """True if a is minimal in both W_f a and a W_f."""
        return self.in_fW(a) and not any(
            self.mult_gen(a, i).length < a.length for i in range(1, len(self.gens))
        )

    def w_lambda(self, lam) -> AffineElement:
        """The unique shortest element of the coset W_f t_lambda."""
        return self.min_coset_rep(self.translation(lam))

    def reduced_word(self, a: AffineElement) -> tuple[int, ...]:
        """Lexicographically smallest reduced word (generator indices).

        Only valid on W; elements with a nontrivial length-zero part keep
        that part out of the word (see :meth:`to_word`).  Elements of an
        enumerated ball already hold theirs (see :meth:`_ball`); otherwise it
        is the first left descent i, then the word of s_i a, down to the first
        element with a known word, on (record, translation) pairs: no element
        is built and only a keeps the word.
        """
        letters, rec, lam, cur = [], a.rec, a.trans, a
        while cur is None or cur.word is None:
            i = self.left_descent(rec, lam)
            if i is None:
                raise ValueError("element is not in W; use to_word for W_ext")
            letters.append(i)
            rec, lam, _ = self._left_step(rec, lam, i)
            cur = rec.elements.get(lam)
        a.word = tuple(letters) + cur.word
        return a.word

    def sort_key(self, a: AffineElement):
        return (a.length, self.reduced_word(a))

    def from_word(self, word) -> AffineElement:
        out = self.identity
        for i in word:
            out = self.mult_gen(out, i)
        return out

    # -- Bruhat order ------------------------------------------------------

    def bruhat_interval(self, b: AffineElement) -> set[AffineElement]:
        """The lower Bruhat interval {y : y <= b} of b in W, by the subword
        property (Bjorner-Brenti, Thm 2.2.2): each letter s of the reduced
        word of b adds ys for every y found so far.

        >>> from heckecells.rootdata import build_root_datum
        >>> aw = AffineWeyl(build_root_datum("A1"))
        >>> sorted(aw.to_word(y) for y in aw.bruhat_interval(aw.from_word((0, 1))))
        ['e', 's0', 's0.s1', 's1']
        """
        below = {self.identity}
        for i in self.reduced_word(b):
            below |= {self.mult_gen(y, i) for y in below}
        return below

    def bruhat_intervals(self, elements):
        """Yield (w, lower Bruhat interval of w) for elements of W in (length,
        word) order: with s the last letter of w, I(ws) and its right translate
        by s when ws came one length before, else :meth:`bruhat_interval`."""
        prev = {}
        for _, group in groupby(sorted(elements, key=self.sort_key), key=attrgetter("length")):
            cur = {}
            for w in group:
                word = self.reduced_word(w)
                lower = prev.get(self.mult_gen(w, word[-1])) if word else None
                cur[w] = below = self.bruhat_interval(w) if lower is None else (
                    lower | {self.mult_gen(y, word[-1]) for y in lower}
                )
                yield w, below
            prev = cur

    def bruhat_leq(self, a: AffineElement, b: AffineElement) -> bool:
        """Bruhat order on W: a lies in the lower interval of b."""
        if not (self.in_affine_weyl(a) and self.in_affine_weyl(b)):
            raise ValueError("Bruhat order is only defined on W")
        return a in self.bruhat_interval(b)

    # -- length-zero subgroup ------------------------------------------------

    def _build_omega(self) -> tuple[AffineElement, ...]:
        """The length-zero elements: the identity and, for each minuscule
        fundamental weight varpi_i, the inverse of w_{-varpi_i}."""
        d = self.datum
        out = [self.identity]
        for i in range(d.rank):
            if d.affine_root.coroot[i] == 1:
                varpi = tuple(-1 if k == i else 0 for k in range(d.rank))
                out.append(self.inverse(self.w_lambda(varpi)))
        if any(om.length for om in out):
            raise AssertionError("constructed length-zero element has length > 0")
        if len(set(out)) != d.fundamental_group_order():
            raise AssertionError("length-zero subgroup has wrong order")
        return tuple(sorted(out, key=lambda a: (a != self.identity, a.trans)))

    def omega_part(self, a: AffineElement) -> tuple[int, AffineElement]:
        """Write a = omega . w with w in W; returns (omega index, w)."""
        for k, om_inv in enumerate(self._omega_inv):
            w = self.mult(om_inv, a) if k else a  # omega[0] is the identity
            if self.in_affine_weyl(w):
                return k, w
        raise ValueError("element has no length-zero decomposition")

    # -- serialization ---------------------------------------------------------

    def to_word(self, a: AffineElement) -> str:
        k, w = self.omega_part(a)
        tokens = [f"s{i}" for i in self.reduced_word(w)]
        if k:
            tokens.insert(0, f"omega:{k}")
        return ".".join(tokens) if tokens else "e"

    def from_word_str(self, s: str) -> AffineElement:
        s = s.strip()
        if s in ("", "e"):
            return self.identity
        out = self.identity
        for tok in s.split("."):
            tok = tok.strip()
            if tok.startswith("omega:"):
                elems, index = self.omega, tok[6:]
            elif tok.startswith("s"):
                elems, index = self.gens, tok[1:]
            else:
                raise ValueError(f"bad word token {tok!r}")
            if not index.isdecimal() or int(index) >= len(elems):
                raise ValueError(f"bad word token {tok!r}: no such generator")
            k = int(index)
            out = self.mult_gen(out, k) if elems is self.gens else self.mult(out, elems[k])
        return out

    # -- dot action and alcoves --------------------------------------------------

    def dot_action(self, a: AffineElement, mu, p: int) -> Weight:
        """p-dilated dot action: (w t_lam) ._p mu = w(mu + p lam + rho) - rho."""
        if p <= self.datum.coxeter_number:
            warnings.warn("dot action below the Coxeter number regime", stacklevel=2)
        d = self.datum
        shifted = tuple(
            m + p * t + r for m, t, r in zip(mu, a.trans, d.rho)
        )
        img = a.fin.apply(shifted)
        return tuple(x - r for x, r in zip(img, d.rho))

    def dot_walk(self, mu0, mu1, p: int) -> tuple[AffineElement, Weight]:
        """Walk the point mu0 + eps*mu1 (eps > 0 infinitesimal) into the
        fundamental p-alcove by dot-action reflections in its walls.

        A step reflects in a wall the point lies strictly beyond; ties on a
        wall are broken by mu1, and with mu1 = 0 a point on a wall stays.
        Returns (w, nu) with w ._p nu = mu0, nu the end point's mu0 part.
        Each reflection steps w to w s_i as :meth:`mult_gen` does, on w's
        finite-part record, translation and length, and only w itself is built.
        """
        d, theta = self.datum, self._theta_coroot
        nu0, nu1 = tuple(mu0), tuple(mu1)
        rec, lam, length = self._record(d.identity_finite), (0,) * d.rank, 0
        for _ in range(100000):
            # rho = (1, ..., 1), and <rho, theta^vee> = h - 1
            for i in range(1, d.rank + 1):
                c0, c1 = nu0[i - 1] + 1, nu1[i - 1]
                if (c0, c1) < (0, 0):
                    break
            else:
                c0 = sum(map(mul, theta, nu0)) + d.coxeter_number - 1 - p
                c1 = sum(map(mul, theta, nu1))
                if (c0, c1) <= (0, 0):
                    return rec.elements.get(lam) or self._new(rec, lam, length), nu0
                i = 0
            # s ._p nu = nu - c * alpha_i, c being nu's signed distance past the wall
            root = self._step_roots[i]
            nu0 = tuple(x - c0 * r for x, r in zip(nu0, root))
            nu1 = tuple(x - c1 * r for x, r in zip(nu1, root))
            rec, lam, change = self._right_step(rec, lam, i)
            length += change
        raise UnsupportedRegimeError("weight too far from the fundamental alcove")

    def alcove_of(self, lam, p: int) -> Alcove:
        """The alcove whose lower closure contains the dominant weight lam.

        Lower walls are included, upper walls excluded; ties are resolved by
        pushing lam infinitesimally in the rho direction, which keeps every
        comparison exact.
        """
        d = self.datum
        if p < d.coxeter_number:
            raise UnsupportedRegimeError(f"p={p} below the Coxeter number {d.coxeter_number}")
        if p == d.coxeter_number:
            warnings.warn("p equals the Coxeter number; alcove walk is degenerate", stacklevel=2)
        if not d.is_dominant(lam):
            raise ValueError("alcove_of expects a dominant weight")

        lam = tuple(lam)
        w, _ = self.dot_walk(lam, d.rho, p)
        floors = tuple(
            sum(c * (x + r) for c, x, r in zip(rt.coroot, lam, d.rho)) // p
            for rt in d.positive_roots
        )
        return Alcove(element=w, floors=floors)

    # -- enumeration ---------------------------------------------------------

    def _ball(self, bound: int, keep) -> list[AffineElement]:
        """Elements of length <= bound reached from the identity by
        length-increasing generator steps through elements passing ``keep``
        (all of them when ``keep`` is None), in (length, word) order.

        ``keep`` is closed under prefixes (W and fW are), and a prefix of a
        smallest reduced word is a smallest reduced word, so the word of w is
        the least word(y) + (i,) over the steps y -> w = y s_i.  Breadth-first
        search takes each length level in word order and the generators in
        index order, so the first step into w is that least one: it sets the
        word, and the search order is already (length, word).
        """

        def up(w):
            if w.length < bound:
                for i in range(len(self.gens)):
                    ws = self.mult_gen(w, i)
                    if ws.length == w.length + 1 and (keep is None or keep(ws)):
                        if ws.word is None:
                            ws.word = w.word + (i,)
                        yield ws

        return closure([self.identity], up)

    def enumerate_fW(self, bound: int) -> list[AffineElement]:
        """All elements of fW of length <= bound, in (length, word) order."""
        return self._ball(bound, self.in_fW)

    def enumerate_W(self, bound: int) -> list[AffineElement]:
        """All elements of W of length <= bound, in (length, word) order."""
        return self._ball(bound, None)
