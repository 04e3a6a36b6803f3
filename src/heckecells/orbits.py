"""Nilpotent orbit bookkeeping: Bala-Carter enumeration, closure order,
the cell-to-orbit dictionary, and the support-variety prediction records.

Orbits are enumerated as pairs (I, J) of simple-root subsets, J inside I,
such that the parabolic of the Levi on I determined by J is distinguished
(even-grading count criterion).  Two pairs give the same orbit exactly when
their neutral elements h have the same dominant weighted Dynkin diagram
(alpha_j(h))_j, so the pairs are grouped by that integer vector, and it
also gives the dimension: dim = |Phi| minus the number of roots alpha with
alpha(h) in {0, 1, -1}.  All of it is integer arithmetic after one small
solve per pair, so every type answers, E6-E8 included.  The closure order
is dominance of partitions in type A and the chain by dimension in rank
<= 2; in rank >= 3 outside type A there is none here, and closure_order
answers None.

The dictionary between antispherical cells and orbits follows one chain
rule in rank <= 2: the trusted cells, ordered by how many trusted cells
reach them, meet the orbits in decreasing dimension, which is monotone
because reach is transitive (see build_orbit_table).  In rank >= 3 it has
three universal entries (identity cell -> regular, cell of s0 ->
subregular, minimal cell -> zero once every orbit has a trusted cell).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, groupby
from operator import le, mul

from .affine import AffineWeyl, UnsupportedRegimeError
from .cells import CellPartition
from .rootdata import solve_exact


class UnsupportedTypeError(ValueError):
    """Raised when a table-driven operation has no data for the type."""


@dataclass(frozen=True)
class NilpotentOrbit:
    bala_carter: tuple[tuple[int, ...], tuple[int, ...]]
    dimension: int
    name: str


def _is_distinguished(levi_roots, I, J) -> bool:
    """Even-grading criterion on the Levi on I, whose positive roots are
    given by their simple coordinates.  A root's half-degree is its
    coefficient sum on I - J; distinguished means
    2 #(half-degree 0) + |I| == #(half-degree 1)."""
    degrees = [sum(c for i, c in enumerate(r) if i not in J) for r in levi_roots]
    return 2 * degrees.count(0) + len(I) == degrees.count(1)


def _weighted_dynkin_diagram(datum, I, J) -> tuple[int, ...]:
    """Dominant weighted Dynkin diagram (alpha_j(h))_j of the pair (I, J).

    h is the neutral element: the coroot combination on I with alpha_i(h)
    equal to 2 on I - J and 0 on J.  Its values on all simple roots are
    integers (h sits in an sl2-triple), and simple reflections make them
    dominant.  Two distinguished pairs are Weyl conjugate exactly when their
    diagrams agree (Bala-Carter; Kostant).

    >>> from heckecells.rootdata import build_root_datum
    >>> _weighted_dynkin_diagram(build_root_datum("G2"), {0, 1}, {0})
    (0, 2)
    >>> _weighted_dynkin_diagram(build_root_datum("C2"), {1}, set())
    (1, 0)
    """
    idx = sorted(I)
    C = datum.cartan
    # sum_i x_i C[i][j] = alpha_j(h) for j in I
    _, x = solve_exact(
        [[C[i][j] for i in idx] for j in idx], [[0 if j in J else 2] for j in idx]
    )
    a = [int(sum(x[pos][0] * C[i][j] for pos, i in enumerate(idx))) for j in range(datum.rank)]
    while (j := next((j for j, c in enumerate(a) if c < 0), None)) is not None:
        a = [c - a[j] * C[j][k] for k, c in enumerate(a)]
    return tuple(a)


def _partition_of_pair(datum, I) -> tuple[int, ...]:
    """Type A only: the partition attached to a Levi subset of the path
    graph, a part k + 1 per run of k nodes in I, then ones up to rank + 1."""
    runs = [len(list(g)) + 1 for inside, g in groupby(range(datum.rank), I.__contains__)
            if inside]
    return tuple(sorted(runs, reverse=True)) + (1,) * (datum.rank + 1 - sum(runs))


def _distinguished_pairs(datum):
    """All pairs (I, J), J inside I, whose parabolic of the Levi on I is
    distinguished, as sorted tuples."""
    n = datum.rank
    for imask in range(1 << n):
        sub = [i for i in range(n) if imask >> i & 1]
        # the positive roots supported on I
        levi = [
            r.simple for r in datum.positive_roots
            if all(c == 0 or i in sub for i, c in enumerate(r.simple))
        ]
        for jbits in range(1 << len(sub)):
            J = tuple(i for t, i in enumerate(sub) if jbits >> t & 1)
            if _is_distinguished(levi, sub, J):
                yield tuple(sub), J


def enumerate_orbits(datum) -> list[NilpotentOrbit]:
    """All nilpotent orbits of the type, via distinguished parabolic pairs
    grouped by their dominant weighted Dynkin diagram."""
    classes: dict[tuple[int, ...], list] = {}
    for pair in _distinguished_pairs(datum):
        classes.setdefault(_weighted_dynkin_diagram(datum, *pair), []).append(pair)
    nroots = 2 * len(datum.positive_roots)
    orbits = []
    for diagram, reps in classes.items():
        # dominant, so alpha(h) >= 0 on positive roots; dim = |Phi| - #{alpha(h) in {0, 1, -1}}
        degrees = [sum(map(mul, r.simple, diagram)) for r in datum.positive_roots]
        orbits.append((nroots - 2 * degrees.count(0) - degrees.count(1), min(reps)))
    return _named_orbits(datum, sorted(orbits))


def _named_orbits(datum, orbits) -> list[NilpotentOrbit]:
    """Names for the (dimension, Bala-Carter pair) list, sorted by dimension."""
    named = []
    series = datum.cartan_type.series
    nroots = 2 * len(datum.positive_roots)
    count = len(orbits)
    for pos, (dim, rep) in enumerate(orbits):
        if series == "A":
            name = "[" + ",".join(str(p) for p in _partition_of_pair(datum, rep[0])) + "]"
        elif datum.rank <= 2:
            # B2 = C2 has 4 orbits, G2 has 5
            ladder = {
                4: ["zero", "minimal", "subregular", "regular"],
                5: ["zero", "minimal", "middle", "subregular", "regular"],
            }[count]
            name = ladder[pos]
        else:
            if dim == 0:
                name = "zero"
            elif dim == nroots:
                name = "regular"
            elif dim == nroots - 2:
                name = "subregular"
            else:
                name = f"bc:I={list(rep[0])};J={list(rep[1])}"
        named.append(NilpotentOrbit(bala_carter=rep, dimension=dim, name=name))
    return named


def closure_order(datum, orbits: list[NilpotentOrbit]):
    """Reflexive closure-order matrix leq[i][j] = (orbit i below orbit j), or
    None where no order is known here: rank >= 3 outside type A.

    Type A is dominance of partitions (Gerstenhaber; Collingwood-McGovern,
    ch. 6), compared by partial sums.  Both partitions sum to rank + 1 and
    have no zero parts, so where the shorter one ends its partial sum is
    rank + 1 and the longer one's is less: map may stop there.  In rank <= 2
    the orbits form a chain by dimension (B2 = C2: 0, 4, 6, 8; G2: 0, 6, 8,
    10, 12).
    """
    if datum.cartan_type.series == "A":
        keys = [tuple(accumulate(_partition_of_pair(datum, o.bala_carter[0]))) for o in orbits]
    elif datum.rank <= 2:
        keys = [(o.dimension,) for o in orbits]
    else:
        return None
    return tuple(tuple(all(map(le, a, b)) for b in keys) for a in keys)


@dataclass
class OrbitTable:
    orbits: list[NilpotentOrbit]
    leq: "tuple[tuple[bool, ...], ...] | None"
    cell_map: dict[int, int]

    def closure_chain(self, idx: int) -> list[str]:
        if self.leq is None:
            return [self.orbits[idx].name]
        below = [
            (self.orbits[i].dimension, self.orbits[i].name)
            for i in range(len(self.orbits))
            if self.leq[i][idx]
        ]
        return [name for _dim, name in sorted(below)]


def build_orbit_table(aw: AffineWeyl, partition: CellPartition) -> OrbitTable:
    """Orbit list plus the cell-to-orbit dictionary for the partition.

    In rank <= 2 there must be one trusted cell per orbit.  The fewer
    trusted cells reach a cell, the higher it sits (the identity's cell is
    reached by itself alone), so sorted that way the cells meet the orbits
    in decreasing dimension.  In rank >= 3 only the universal entries are
    pinned.
    """
    datum = aw.datum
    orbits = enumerate_orbits(datum)
    leq = closure_order(datum, orbits)

    trusted = partition.trusted_cells()
    reach = partition.reach
    if datum.rank <= 2:
        if len(trusted) != len(orbits):
            raise ValueError(
                f"expected {len(orbits)} trusted cells (one per nilpotent orbit), "
                f"found {len(trusted)}; use a larger --len/--margin"
            )
        # The match is monotone: reach is transitive, so a cell b below a
        # cell a is reached by every trusted cell that reaches a, and by b
        # itself, which a is not.  So b sorts after a and meets the smaller
        # orbit, and in rank <= 2 the closure order is the chain by
        # dimension.  The orbits are sorted by dimension, dimensions
        # distinct, so top-down is the list reversed.
        chain = sorted(trusted, key=lambda c: sum(c in reach[c2] for c2 in trusted))
        cell_map = dict(zip(chain, reversed(range(len(orbits)))))
        return OrbitTable(orbits=orbits, leq=leq, cell_map=cell_map)

    trusted_set = set(trusted)
    by_dim = {o.dimension: i for i, o in enumerate(orbits)}
    nroots = 2 * len(datum.positive_roots)
    # the identity's cell is {e}, always trusted
    cell_map = {partition.cell_index(aw.identity): by_dim[nroots]}

    # the minimal trusted cell is the zero cell only once every orbit has a
    # trusted cell; in a smaller ball it is just the lowest cell resolved
    minimal = [c for c in trusted if (reach[c] & trusted_set) == {c}]
    if len(minimal) == 1 and len(trusted) == len(orbits):
        cell_map[minimal[0]] = by_dim[0]

    # the cell of s0 is the a-value-1 cell, Lusztig's subregular cell
    s0_cell = partition.cell_index(aw.gens[0])
    if s0_cell in trusted_set:
        cell_map[s0_cell] = by_dim[nroots - 2]
    return OrbitTable(orbits=orbits, leq=leq, cell_map=cell_map)


@dataclass
class PredictionRecord:
    cartan_type: str
    p: int
    mode: str
    lam: tuple[int, ...]
    w_word: str
    cell: "int | None"
    orbit: "NilpotentOrbit | None"
    closure_chain: list[str]
    status: str
    empty_variety: bool = False
    basis_p: int = 0

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "type": self.cartan_type,
            "p": self.p,
            "mode": self.mode,
            "lambda": list(self.lam),
            "w_reduced_word": self.w_word,
            "cell": self.cell,
            "orbit_name": None if self.orbit is None else self.orbit.name,
            "bala_carter": None
            if self.orbit is None
            else [list(self.orbit.bala_carter[0]), list(self.orbit.bala_carter[1])],
            "dimension": None if self.orbit is None else self.orbit.dimension,
            "closure_chain": self.closure_chain,
            "status": self.status,
            "empty_variety": self.empty_variety,
            "basis_p": self.basis_p,
        }


def _status_for(datum, p: int, orbit: "NilpotentOrbit | None") -> str:
    """theorem for the zero, subregular and regular orbits, for C2 at p > 5
    and for G2 at p > 7 off the middle orbit; conjectural otherwise."""
    if orbit is None:
        return "unknown"
    nroots = 2 * len(datum.positive_roots)
    ct = str(datum.cartan_type)
    if (
        orbit.dimension in (0, nroots - 2, nroots)
        or ct == "C2" and p > 5
        or ct == "G2" and p > 7 and orbit.name != "middle"
    ):
        return "theorem"
    return "conjectural"


def humphreys_predict(
    aw: AffineWeyl,
    partition: CellPartition,
    table: OrbitTable,
    lam,
    p: int,
    mode: str = "absolute",
) -> PredictionRecord:
    """Predicted support variety of the indecomposable tilting module at lam.

    The absolute mode returns the orbit closure attached to the cell of the
    alcove of lam; the relative mode additionally reports the empty variety
    off the double-coset representatives.  The status field records whether
    the predicted equality is proved or conjectural; the containment of the
    prediction in the actual variety is proved in all cases.
    """
    datum = aw.datum
    if mode not in ("absolute", "relative"):
        raise ValueError("mode must be absolute or relative")
    if p <= datum.coxeter_number:
        raise UnsupportedRegimeError("predictions need p > Coxeter number")
    lam = tuple(lam)
    if not datum.is_dominant(lam):
        raise ValueError("prediction needs a dominant weight")
    w = aw.alcove_of(lam, p).element
    if mode == "relative" and aw.dot_action(w, (0,) * datum.rank, p) != lam:
        raise ValueError("relative mode needs lam = w ._p 0 exactly")
    empty = mode == "relative" and not aw.in_fWf(w)
    cell = partition.cell_index(w)
    orbit = None
    chain: list[str] = []
    if not empty and cell is not None and partition.trusted[cell]:
        idx = table.cell_map.get(cell)
        if idx is not None:
            orbit = table.orbits[idx]
            chain = table.closure_chain(idx)
    return PredictionRecord(
        cartan_type=str(datum.cartan_type),
        p=p,
        mode=mode,
        lam=lam,
        w_word=aw.to_word(w),
        cell=cell,
        orbit=orbit,
        closure_chain=chain,
        status="theorem" if empty else _status_for(datum, p, orbit),
        empty_variety=empty,
        basis_p=partition.basis_p,
    )
