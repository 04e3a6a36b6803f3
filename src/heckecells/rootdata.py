"""Exact root-system and finite-Weyl-group arithmetic for the simple types.

Weights live in the fundamental-weight basis, so a weight is just a tuple of
integers of length ``rank`` and dominance means "all coordinates >= 0".  Roots
are particular integer vectors in that basis (the columns of the Cartan
matrix), carried around together with their expansion over simple roots and
the expansion of their coroot over simple coroots.  Everything is exact:
plain ints, with :class:`fractions.Fraction` for the few linear solves.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

Weight = tuple[int, ...]

_TYPE_RE = re.compile(r"^([A-G])(\d+)$")


@dataclass(frozen=True)
class CartanType:
    """An irreducible Cartan type, e.g. ``CartanType("C", 2)``.

    >>> CartanType.from_string("G2")
    CartanType(series='G', rank=2)
    """

    series: str
    rank: int

    def __post_init__(self):
        series, rank = self.series, self.rank
        ok = (
            (series == "A" and rank >= 1)
            or (series in ("B", "C") and rank >= 2)
            or (series == "D" and rank >= 4)
            or (series == "E" and rank in (6, 7, 8))
            or (series == "F" and rank == 4)
            or (series == "G" and rank == 2)
        )
        if not ok:
            raise ValueError(f"invalid rank {rank} for series {series}")

    @classmethod
    def from_string(cls, s: str) -> "CartanType":
        m = _TYPE_RE.match(s.strip())
        if not m:
            raise ValueError(f"cannot parse Cartan type {s!r}")
        return cls(m.group(1), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.series}{self.rank}"


def cartan_matrix(ct: CartanType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix with entries C[i][j] = <alpha_j, alpha_i^vee>.

    Bourbaki numbering; for C2 and G2 the first simple root is short.
    """
    n = ct.rank
    C = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i, j, cij=-1, cji=-1):
        # C[i][j] = <alpha_j, alpha_i^vee>
        C[i][j] = cij
        C[j][i] = cji

    if ct.series in ("A", "B", "C"):
        for i in range(n - 1):
            bond(i, i + 1)
        if ct.series == "B" and n >= 2:
            # alpha_n short: <alpha_{n-1}, alpha_n^vee> = -2
            bond(n - 2, n - 1, cij=-1, cji=-2)
        if ct.series == "C" and n >= 2:
            # alpha_n long: <alpha_n, alpha_{n-1}^vee> = -2
            bond(n - 2, n - 1, cij=-2, cji=-1)
    elif ct.series == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif ct.series == "E":
        # chain 1-3-4-5-...-n with 2 attached to 4 (Bourbaki)
        chain = [0] + list(range(2, n))
        for a, b in zip(chain, chain[1:]):
            bond(a, b)
        bond(1, 3)
    elif ct.series == "F":
        bond(0, 1)
        # alpha_2 long, alpha_3 short: <alpha_2, alpha_3^vee> = -2
        bond(1, 2, cij=-1, cji=-2)
        bond(2, 3)
    elif ct.series == "G":
        # alpha_1 short, alpha_2 long: <alpha_2, alpha_1^vee> = -3
        bond(0, 1, cij=-3, cji=-1)
    return tuple(tuple(row) for row in C)


@dataclass(frozen=True)
class Root:
    """A root with its three coordinate systems.

    fund    -- coordinates in the fundamental-weight basis
    simple  -- expansion over the simple roots
    coroot  -- expansion of the associated coroot over simple coroots
    """

    fund: Weight
    simple: tuple[int, ...]
    coroot: tuple[int, ...]

    @property
    def height(self) -> int:
        return sum(self.simple)

    @property
    def coheight(self) -> int:
        return sum(self.coroot)


class FiniteWeylElement:
    """Element of the finite Weyl group as an integer matrix on weight coords.

    The inverse matrix is carried along so that products never need a linear
    solve.  Instances are immutable and hash on the matrix alone.
    """

    __slots__ = ("mat", "inv", "_hash")

    def __init__(self, mat, inv):
        self.mat = mat
        self.inv = inv
        self._hash = hash(mat)

    def __eq__(self, other):
        return isinstance(other, FiniteWeylElement) and self.mat == other.mat

    def __hash__(self):
        return self._hash

    def __mul__(self, other: "FiniteWeylElement") -> "FiniteWeylElement":
        return FiniteWeylElement(
            _mat_mul(self.mat, other.mat), _mat_mul(other.inv, self.inv)
        )

    def inverse(self) -> "FiniteWeylElement":
        return FiniteWeylElement(self.inv, self.mat)

    def apply(self, weight) -> Weight:
        return tuple(sum(map(mul, row, weight)) for row in self.mat)

    def apply_inverse(self, weight) -> Weight:
        return tuple(sum(map(mul, row, weight)) for row in self.inv)

    def __repr__(self):
        return f"FiniteWeylElement({self.mat})"


def _mat_mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple([sum(map(mul, row, col)) for col in cols]) for row in a)


def _identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


class RootDatum:
    """Root system data for one irreducible simply-connected type.

    All member structures are built once and never mutated afterwards; the
    internal memo caches only grow.
    """

    def __init__(self, cartan_type: CartanType):
        self.cartan_type = cartan_type
        self.rank = cartan_type.rank
        self.cartan = cartan_matrix(cartan_type)
        self.rho: Weight = (1,) * self.rank

        self._build_roots()
        self._build_symmetrizer()
        self._build_inverse_cartan()
        self.identity_finite = FiniteWeylElement(
            _identity_matrix(self.rank), _identity_matrix(self.rank)
        )
        self.simple_reflections: list[FiniteWeylElement] = [
            self.reflection(r) for r in self.simple_roots
        ]
        self._weights_cache: dict[Weight, dict[Weight, int]] = {}
        self._validate()

    # -- construction -------------------------------------------------

    def _build_roots(self):
        n = self.rank
        C = self.cartan
        simples = []
        for j in range(n):
            fund = tuple(C[i][j] for i in range(n))
            simples.append(
                Root(
                    fund=fund,
                    simple=tuple(1 if k == j else 0 for k in range(n)),
                    coroot=tuple(1 if k == j else 0 for k in range(n)),
                )
            )
        self.simple_roots: list[Root] = simples

        # Orbit of the simple roots under the simple reflections, tracking
        # simple-root and simple-coroot coordinates simultaneously.
        def reflections(r):
            for i in range(n):
                simple, coroot = list(r.simple), list(r.coroot)
                simple[i] -= r.fund[i]  # <beta, alpha_i^vee>
                coroot[i] -= sum(r.coroot[k] * C[k][i] for k in range(n))  # <alpha_i, beta^vee>
                yield Root(self.reflect(r.fund, i), tuple(simple), tuple(coroot))

        roots = closure(simples, reflections)
        positives = [r for r in roots if all(c >= 0 for c in r.simple)]
        positives.sort(key=lambda r: (r.height, r.simple))
        self.positive_roots: list[Root] = positives
        self._posroot_fund = {r.fund: r for r in positives}

        self.highest_root = max(positives, key=lambda r: r.height)
        # the root whose coroot is the highest coroot (affine wall data)
        self.affine_root = max(positives, key=lambda r: r.coheight)
        self.coxeter_number = 1 + self.highest_root.height
        if self.affine_root.coheight != self.coxeter_number - 1:
            raise AssertionError("coroot heights inconsistent with Coxeter number")

    def _build_symmetrizer(self):
        # minimal positive integers d with d_i * C[i][j] = d_j * C[j][i], i.e.
        # d_i proportional to (alpha_i, alpha_i).  The highest root theta has
        # theta^vee = 2 theta / (theta, theta), so its coefficients satisfy
        # a_i^vee = a_i (alpha_i, alpha_i) / (theta, theta); the short roots
        # give the least ratio a_i^vee / a_i.
        theta = self.highest_root
        ratios = [Fraction(c, a) for c, a in zip(theta.coroot, theta.simple)]
        short = min(ratios)
        self.symmetrizer: tuple[int, ...] = tuple(int(r / short) for r in ratios)

    def _build_inverse_cartan(self):
        # Since alpha_j = sum_i cartan[i][j] varpi_i, a weight x has root
        # coordinates inv(cartan) @ x = adj(cartan) @ x / det(cartan).
        n = self.rank
        self._cartan_det, inv = solve_exact(self.cartan, _identity_matrix(n))
        self._adj_cartan = tuple(tuple(int(self._cartan_det * c) for c in row) for row in inv)

    def _validate(self):
        if 2 * len(self.positive_roots) + self.rank != self.weyl_dimension(
            self.highest_root.fund
        ):
            raise AssertionError("positive-root count vs adjoint dimension")
        neg = {tuple(-c for c in r.fund) for r in self.positive_roots}
        pos = set(self._posroot_fund)
        for w in self.simple_reflections:
            for r in self.positive_roots:
                img = w.apply(r.fund)
                if img not in pos and img not in neg:
                    raise AssertionError("roots not closed under reflections")

    # -- basic linear data ---------------------------------------------

    def pairing(self, weight, coroot) -> int:
        """<weight, coroot> where coroot is a simple index or a Root."""
        if isinstance(coroot, int):
            return weight[coroot]
        return sum(c * x for c, x in zip(coroot.coroot, weight))

    def root_coords(self, weight) -> tuple[Fraction, ...]:
        """Expansion of a weight over the simple roots (rational in general)."""
        det = self._cartan_det
        return tuple(Fraction(sum(map(mul, row, weight)), det) for row in self._adj_cartan)

    def in_root_lattice(self, weight) -> bool:
        """True when the root coordinates adj(cartan) . weight / det are integers."""
        det = self._cartan_det
        return all(sum(a * x for a, x in zip(row, weight)) % det == 0 for row in self._adj_cartan)

    def is_dominant(self, weight) -> bool:
        return all(c >= 0 for c in weight)

    def fundamental_group_order(self) -> int:
        return abs(self._cartan_det)

    def inner(self, x, y) -> Fraction:
        """W-invariant inner product with (alpha_i, alpha_i)/2 = symmetrizer d_i."""
        rc = self.root_coords(y)
        return sum(
            (rc[i] * x[i] * self.symmetrizer[i] for i in range(self.rank)),
            start=Fraction(0),
        )

    # -- finite Weyl group ---------------------------------------------

    def reflect(self, weight, i: int) -> Weight:
        """The simple reflection s_i(weight) = weight - <weight, alpha_i^vee> alpha_i."""
        pair = weight[i]
        if not pair:
            return weight
        return tuple([x - pair * a for x, a in zip(weight, self.simple_roots[i].fund)])

    def reflection(self, root: Root) -> FiniteWeylElement:
        n = self.rank
        mat = tuple(
            tuple(
                (1 if k == m else 0) - root.fund[k] * root.coroot[m]
                for m in range(n)
            )
            for k in range(n)
        )
        return FiniteWeylElement(mat, mat)

    def dominant_representative(self, weight) -> tuple[Weight, int]:
        """The dominant W_f-conjugate of a weight and the sign (-1)^length.

        Returns ``(dominant, sign)``; ``sign`` is the determinant of the
        element used to move the weight into the dominant chamber.
        """
        w = tuple(weight)
        sign = 1
        while True:
            for i in range(self.rank):
                if w[i] < 0:
                    w = self.reflect(w, i)
                    sign = -sign
                    break
            else:
                return w, sign

    # -- representation-theoretic quantities -----------------------------

    def weyl_dimension(self, lam) -> int:
        """Weyl dimension formula, exact."""
        lam = tuple(lam)
        if not self.is_dominant(lam):
            raise ValueError("weight not dominant")
        num = Fraction(1)
        lr = tuple(a + b for a, b in zip(lam, self.rho))
        for r in self.positive_roots:
            num *= Fraction(self.pairing(lr, r), self.pairing(self.rho, r))
        assert num.denominator == 1
        return int(num)

    def all_weights(self, lam) -> dict[Weight, int]:
        """Full weight multiset of the Weyl module V(lam), memoized per
        highest weight (do not mutate the result).

        Demazure character formula ch V(lam) = D_{w0}(e^lam) (Jantzen,
        II.14.18): one step D_i per letter of the walk from rho to -rho, a
        reduced word of w0.  With n = <mu, alpha_i^vee>, D_i sends e^mu to
        e^mu + ... + e^(mu - n alpha_i) for n >= 0, to 0 for n = -1, and to
        -(e^(mu + alpha_i) + ... + e^(mu + (-n-1) alpha_i)) for n <= -2.

        >>> build_root_datum("A2").all_weights((1, 1))[(0, 0)]
        2
        """
        lam = tuple(lam)
        out = self._weights_cache.get(lam)
        if out is None:
            if not self.is_dominant(lam):
                raise ValueError("weight not dominant")
            out, walk = {lam: 1}, self.rho
            while (i := next((j for j, c in enumerate(walk) if c > 0), None)) is not None:
                walk = self.reflect(walk, i)
                alpha, step = self.simple_roots[i].fund, {}
                for mu, m in out.items():
                    n = mu[i]
                    ks, sign = (range(0, -n - 1, -1), m) if n >= 0 else (range(1, -n), -m)
                    for k in ks:
                        nu = tuple(x + k * a for x, a in zip(mu, alpha))
                        step[nu] = step.get(nu, 0) + sign
                out = {mu: m for mu, m in step.items() if m}
            self._weights_cache[lam] = out
        return out

    def tensor_multiplicity(self, lam, mu, nu) -> int:
        """Multiplicity of V(nu) in V(lam) (x) V(mu), characteristic 0.

        Brauer-Klimyk: sum the dot-reflected shifts lam + tau over the
        weights tau of V(mu).
        """
        lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
        for x in (lam, mu, nu):
            if not self.is_dominant(x):
                raise ValueError("weights must be dominant")
        total = 0
        for tau, m in self.all_weights(mu).items():
            shifted = tuple(
                lam[i] + tau[i] + self.rho[i] for i in range(self.rank)
            )
            if any(c == 0 for c in shifted):
                continue
            dom, sign = self.dominant_representative(shifted)
            if any(c == 0 for c in dom):
                continue
            if tuple(a - b for a, b in zip(dom, self.rho)) == nu:
                total += sign * m
        return total


def closure(starts, step) -> list:
    """Everything reachable from ``starts`` along ``step``, in breadth-first
    order: the starts first, each element once.  ``step(x)`` yields the
    neighbours of x."""
    seen = dict.fromkeys(starts)
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for y in step(x):
                if y not in seen:
                    seen[y] = None
                    nxt.append(y)
        frontier = nxt
    return list(seen)


def solve_exact(a, b) -> tuple[int, list[list[Fraction]]]:
    """Exact Gauss-Jordan solve of a . x = b for an invertible integer matrix.

    ``b`` has one column per right-hand side.  Returns ``(det(a), x)`` with
    the rows of ``x`` as lists of Fractions.
    """
    n = len(a)
    m = [[Fraction(v) for v in row] + [Fraction(v) for v in rhs] for row, rhs in zip(a, b)]
    det = Fraction(1)
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        f = m[col][col]
        det *= f
        m[col] = [v / f for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                g = m[r][col]
                m[r] = [u - g * v for u, v in zip(m[r], m[col])]
    return int(det), [row[n:] for row in m]


def build_root_datum(t: "CartanType | str") -> RootDatum:
    """Build the root datum for a Cartan type given as object or string."""
    if isinstance(t, str):
        t = CartanType.from_string(t)
    return RootDatum(t)
