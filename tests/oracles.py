"""Independent oracles used by the test suite.

These deliberately avoid the code paths they are checking: the canonical
basis oracle solves the bar-invariance equations triangularly, the
antispherical oracle projects that solve from the full algebra, the
recursion oracles run the descent recursion on ``LaurentPoly`` coefficients,
on codes summed in two dicts and on codes summed at both members of every
pair {z, zs}, the length oracle applies the finite part
to every positive root, the orbit oracles conjugate root sets by
breadth-first search and pair roots with an unreflected grading cocharacter,
the decomposition oracle peels one translation at a time, the generation
oracle enumerates Y0 and Z, the subregular oracle searches the cells below
the identity cell, the orbit-table oracle pins the universal cells before it
walks the rank-2 chain, the status oracle reads orbit names, the
symmetrizer oracle propagates the ratios d_j / d_i along the Dynkin graph,
the table oracles sort, serialize, split and validate a table term by term
against Bruhat intervals, each built from its prefix's, the bar oracles
apply H_s^-1 letter by letter, the
coset oracles walk the left descents of every element anew and multiply by
the stripped scalar once per reflection, the word oracle descends greedily
by general products, the step oracles take each generator step as a general
product, the matrix oracle multiplies entry by entry, the target oracle
scans N_y's codes for mu once per generator, the cell-graph oracle keys
Tarjan's search and the reach sets by element, the ball oracle finds each
element of a length ball once through an element-keyed breadth-first search
and leaves words alone, the dot-walk oracle composes
its element by one matrix product per reflection, the alcove-vertex oracle
maps the fundamental simplex in Fractions, the Levi oracles tally the
grading degrees and the runs of a Levi subset one by one, the
stabilization oracles keep the chain's early exits and a running maximum,
the fusion-row oracle sums over fW once per alcove weight nu, and the
lowest-cell oracle searches right-descent prefixes for a w_J by general
products.  The helpers at the end have callers only in the tests.
"""

import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from heckecells.affine import AffineElement, AffineWeyl, UnsupportedRegimeError
from heckecells.cells import CellPartition, cell_edges
from heckecells.hecke import (
    _BITS, _BOUND, _MASK, BasisTableError, Hecke, HeckeElt, coset_project, kl_gen_action,
)
from heckecells.laurent import ONE, V, VINV, ZERO, LaurentPoly
from heckecells.orbits import OrbitTable, closure_order, enumerate_orbits
from heckecells.rootdata import build_root_datum, closure, solve_exact
from heckecells.tilting import fusion_multiplicity, in_fundamental_alcove


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
    bar_rows = {y: bar_standard(aw, y) for y in interval}
    coeffs = {w: ONE}
    for z in interval[1:]:
        known = LaurentPoly()
        for y, hy in coeffs.items():
            known = known + hy.bar() * bar_rows[y].terms.get(z, ZERO)
        # h_z - bar(h_z) = known, h_z in vZ[v]
        assert known.c.get(0, 0) == 0, "constant term obstructs bar-invariance"
        hz = positive_part(known)
        assert hz - hz.bar() == known, "bar equation not antisymmetric"
        if hz:
            coeffs[z] = hz
    return HeckeElt(coeffs)


def bar_standard(aw, w) -> HeckeElt:
    """bar(H_w) = (H_{w^{-1}})^{-1}, via H_s^{-1} = H_s + (v - v^{-1})."""
    out = HeckeElt({aw.identity: ONE})
    for i in aw.reduced_word(w):
        out = kl_gen_action(aw, out, i, None, V - VINV, LaurentPoly())
    return out


def bar(aw, h: HeckeElt) -> HeckeElt:
    """The bar involution on the Hecke algebra, term by term."""
    out = HeckeElt()
    for w, c in h.terms.items():
        out = out + bar_standard(aw, w).scale(c.bar())
    return out


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
    """Projection of the bar-involution solve in the algebra (dual path)."""
    return coset_project(hecke.aw, kl_oracle(hecke, w), -V)


def specialize_v1(x: HeckeElt) -> dict:
    """Specialize v to 1: the integer coefficient map of x, zeros dropped."""
    return {w: n for w, c in x.terms.items() if (n := c.at_one())}


def laurent_canonical(aw, mul_by_kl_gen, memo: dict, w) -> HeckeElt:
    """Canonical basis element at w by the descent recursion with mu-terms.

    With s the smallest right descent of w, C_w = C_ws (H_s + v) minus
    mu(y, ws) C_y for every y with ys < y.  ``mul_by_kl_gen`` is the right
    action of H_s + v on the module (the algebra or the antispherical
    module) and ``memo`` its cache of finished elements.
    """
    out = memo.get(w)
    if out is not None:
        return out
    if w.length == 0:
        out = HeckeElt({w: ONE})
    else:
        i = next(i for i in range(len(aw.gens)) if aw.mult_gen(w, i).length < w.length)
        lower = laurent_canonical(aw, mul_by_kl_gen, memo, aw.mult_gen(w, i))
        acc = dict(mul_by_kl_gen(lower, i).terms)
        for y, c in lower.terms.items():
            mu = c.c.get(1, 0)
            if mu and aw.mult_gen(y, i).length < y.length:
                for z, cz in laurent_canonical(aw, mul_by_kl_gen, memo, y).terms.items():
                    prev = acc.get(z)
                    delta = cz.scale(-mu)
                    acc[z] = delta if prev is None else prev + delta
        out = HeckeElt(acc)
        assert out.terms.get(w, ZERO) == ONE
    memo[w] = out
    return out


def two_dict_canonical(aw, keep, memo: dict, w) -> tuple[dict, dict]:
    """Coded canonical basis element at w by the descent recursion with mu-terms.

    With s the smallest right descent of w, C_w = C_ws (H_s + v) minus
    mu(y, ws) C_y for every y with ys < y; H_s + v acts as in ``kl_gen_action``
    with ``keep``, and ``memo`` caches finished elements, each a pair of maps
    z -> n(2^64) and z -> n(1) for its coefficient n at z.  Off the diagonal
    n lies in vZ[v], so v^-1 is an exact shift and mu(y, ws) is digit 1 at y.
    The reference for ``hecke._canonical``, which starts from the memoized
    descent with the fewest terms and sums through one position index.
    """
    out = memo.get(w)
    if out is not None:
        return out
    if w.length == 0:
        out = ({w: 1}, {w: 1})
    else:
        mult_gen = aw.mult_gen
        i = next(i for i in range(len(aw.gens)) if mult_gen(w, i).length < w.length)
        codes, ones = two_dict_canonical(aw, keep, memo, mult_gen(w, i))
        acc, acc1 = {}, {}
        # codes and ones list their terms in the same order
        for (x, c), n in zip(codes.items(), ones.values()):
            xs = mult_gen(x, i)
            if xs.length > x.length:
                if keep is not None and not keep(xs):
                    continue
                cx = c << _BITS
            else:
                cx = c >> _BITS
                mu = cx & _MASK
                if mu:
                    ycodes, yones = two_dict_canonical(aw, keep, memo, x)
                    for (z, cz), nz in zip(ycodes.items(), yones.values()):
                        acc[z] = acc.get(z, 0) - mu * cz
                        acc1[z] = acc1.get(z, 0) - mu * nz
            acc[xs] = acc.get(xs, 0) + c
            acc1[xs] = acc1.get(xs, 0) + n
            acc[x] = acc.get(x, 0) + cx
            acc1[x] = acc1.get(x, 0) + n
        codes = {z: c for z, c in acc.items() if c}
        ones = {z: acc1[z] for z in codes}
        if codes.get(w) != 1 or max(ones.values()) >= _BOUND:
            raise UnsupportedRegimeError(f"canonical basis at length {w.length} is not exact")
        out = (codes, ones)
    memo[w] = out
    return out


def both_members_canonical(aw, keep, memo: dict, w) -> tuple[list, list, list]:
    """Coded canonical basis element at w, summed over both members of each pair.

    The recursion of ``hecke._canonical`` (from the memoized descent with the
    fewest terms, through one position index keyed by id) as it was before
    it summed only the upper member z (zs < z) of each pair {z, zs}: every
    term of C_ws (H_s + v) and of each mu-term C_y is summed at xs and at x.
    Its memo entries are the same triples of parallel lists, with the terms
    in another order.
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
            lower = both_members_canonical(aw, keep, memo, first)
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
                    for z, cz, nz in zip(*both_members_canonical(aw, keep, memo, x)):
                        k = index.get(id(z))
                        if k is None:
                            index[id(z)] = len(elts)
                            elts.append(z)
                            codes.append(-mu * cz)
                            ones.append(-mu * nz)
                        else:
                            codes[k] -= mu * cz
                            ones[k] -= mu * nz
            k = index.get(id(xs))
            if k is None:
                index[id(xs)] = len(elts)
                elts.append(xs)
                codes.append(c)
                ones.append(n)
            else:
                codes[k] += c
                ones[k] += n
            k = index.get(id(x))
            if k is None:
                index[id(x)] = len(elts)
                elts.append(x)
                codes.append(cx)
                ones.append(n)
            else:
                codes[k] += cx
                ones[k] += n
        k = index.get(id(w))
        diag = 0 if k is None else codes[k]
        elts, ones, codes = [list(itertools.compress(col, codes)) for col in (elts, ones, codes)]
        if diag != 1 or max(ones) >= _BOUND:
            raise UnsupportedRegimeError(f"canonical basis at length {w.length} is not exact")
        out = (elts, codes, ones)
    memo[w] = out
    return out


def conjugacy_classes_oracle(datum, pairs):
    """Group pairs (I, J) under simultaneous Weyl conjugacy (orbit BFS)."""
    n = datum.rank
    simple_fund = [r.fund for r in datum.simple_roots]

    def state_of(pair):
        I, J = pair
        return (
            frozenset(simple_fund[i] for i in I),
            frozenset(simple_fund[j] for j in J),
        )

    def reflections(state):
        si, sj = state
        for k in range(n):
            yield (
                frozenset(datum.reflect(v, k) for v in si),
                frozenset(datum.reflect(v, k) for v in sj),
            )

    targets = {state_of(p): p for p in pairs}
    assigned: dict = {}
    classes: list[list] = []
    for p in pairs:
        if p in assigned:
            continue
        cls = []
        for st in closure([state_of(p)], reflections):
            other = targets.get(st)
            if other is not None and other not in assigned:
                assigned[other] = len(classes)
                cls.append(other)
        classes.append(cls)
    return classes


def orbit_dimension_oracle(datum, I, J) -> int:
    """|Phi| minus the roots pairing to 0 or +-1 with the grading cocharacter
    h = sum x_i alpha_i^vee (2 on I - J, 0 on J), paired in Fractions."""
    idx = sorted(I)
    C = datum.cartan
    x = {}
    if idx:
        _, sol = solve_exact(
            [[C[i][j] for i in idx] for j in idx], [[0 if j in J else 2] for j in idx]
        )
        x = {i: sol[pos][0] for pos, i in enumerate(idx)}
    small = 0
    for r in datum.positive_roots:
        val = sum(x.get(i, Fraction(0)) * r.fund[i] for i in x)
        assert val.denominator == 1
        v = int(val)
        if v == 0:
            small += 2
        elif v in (1, -1):
            small += 1
    return 2 * len(datum.positive_roots) - small


def decompose_oracle(aw, consts, w):
    """t_lambda . z for w in fW by peeling varpi_i = k_i e_i off while the
    i-th coordinate of the translation part exceeds k_i."""
    lam = [0] * aw.datum.rank
    cur = w
    while True:
        mu = cur.fin.apply(cur.trans)
        for i, k in enumerate(consts):
            if mu[i] > k:
                varpi = tuple(k * (j == i) for j in range(aw.datum.rank))
                cur = aw.mult(aw.translation(tuple(-c for c in varpi)), cur)
                lam = [a + b for a, b in zip(lam, varpi)]
                break
        else:
            return tuple(lam), cur


def enumerated_generation_sets(aw, k_alpha):
    """Y0 and Z by enumeration: Y0 the root-lattice points of the box
    prod_i [0, k_i], Z the elements t_lambda v in fW with lambda in Y0 and
    v in W_f."""
    d = aw.datum
    y_zero = sorted(
        lam
        for lam in itertools.product(*(range(k + 1) for k in k_alpha))
        if d.in_root_lattice(lam)
    )

    z_set = {
        w for v in generate_finite_weyl(d) for lam in y_zero
        if aw.in_fW(w := aw.mult(aw.translation(lam), from_finite(aw, v)))
    }
    return y_zero, sorted(z_set, key=aw.sort_key)


def subregular_cover_oracle(aw, partition) -> "int | None":
    """The trusted cell covered by the identity cell, when it is unique."""
    trusted_set = set(partition.trusted_cells())
    id_cell = partition.cell_of.get(aw.identity)
    below_id = (partition.reach[id_cell] & trusted_set) - {id_cell}
    covers = [
        c
        for c in below_id
        if not any(
            c in partition.reach[c2] and c2 != c for c2 in below_id
        )
    ]
    return covers[0] if len(covers) == 1 else None


def orbit_table_oracle(aw, partition) -> OrbitTable:
    """The cell-to-orbit dictionary with the universal entries pinned first
    and, in rank <= 2, the remaining trusted cells matched along the
    preorder chain and verified monotone against the closure order."""
    datum = aw.datum
    orbits = enumerate_orbits(datum)
    leq = closure_order(datum, orbits)

    trusted = partition.trusted_cells()
    trusted_set = set(trusted)
    cell_map: dict[int, int] = {}

    by_dim = {o.dimension: i for i, o in enumerate(orbits)}
    nroots = 2 * len(datum.positive_roots)
    # the identity's cell is {e}, always trusted
    cell_map[partition.cell_of.get(aw.identity)] = by_dim[nroots]

    # the minimal trusted cell is the zero cell only once every orbit has a
    # trusted cell; in a smaller ball it is just the lowest cell resolved
    minimal = [
        c for c in trusted if (partition.reach[c] & trusted_set) == {c}
    ]
    if len(minimal) == 1 and len(trusted) == len(orbits):
        cell_map[minimal[0]] = by_dim[0]

    # the cell of s0 is the a-value-1 cell, Lusztig's subregular cell
    s0_cell = partition.cell_of.get(aw.gens[0])
    if s0_cell in trusted_set:
        cell_map[s0_cell] = by_dim[nroots - 2]

    if datum.rank <= 2:
        if len(trusted) != len(orbits):
            raise ValueError(
                f"expected {len(orbits)} trusted cells (one per nilpotent orbit), "
                f"found {len(trusted)}; use a larger --len/--margin"
            )
        remaining_cells = [c for c in trusted if c not in cell_map]
        remaining_orbits = sorted(
            (i for i in range(len(orbits)) if i not in cell_map.values()),
            key=lambda i: -orbits[i].dimension,
        )
        # order remaining cells from top (closest to identity) down
        remaining_cells.sort(
            key=lambda c: sum(
                1 for c2 in trusted if c in partition.reach[c2]
            )
        )
        if len(remaining_cells) != len(remaining_orbits):
            raise AssertionError("cell/orbit bookkeeping out of sync")
        for c, o in zip(remaining_cells, remaining_orbits):
            cell_map[c] = o
        # verify the chain match is consistent: cell preorder implies
        # closure order
        for a in trusted:
            for b in trusted:
                if b in partition.reach[a] and not leq[cell_map[b]][cell_map[a]]:
                    raise AssertionError(
                        "cell preorder inconsistent with orbit closure order"
                    )

    return OrbitTable(orbits=orbits, leq=leq, cell_map=cell_map)


def levi_roots_oracle(datum, I: frozenset[int]):
    """The positive roots supported on the simple-root subset I."""
    out = []
    for r in datum.positive_roots:
        if all(c == 0 or i in I for i, c in enumerate(r.simple)):
            out.append(r)
    return out


def is_distinguished_oracle(levi_roots, I: frozenset[int], J: frozenset[int]) -> bool:
    """Even-grading criterion on the positive roots of the Levi on I:
    #(degree 0 roots) + |I| == #(degree 2 roots)."""
    graded = I - J
    deg0 = 0
    deg2 = 0
    for r in levi_roots:
        deg = 2 * sum(c for i, c in enumerate(r.simple) if i in graded)
        if deg == 0:
            deg0 += 2  # both signs
        elif deg == 2:
            deg2 += 1
    return deg0 + len(I) == deg2


def partition_of_pair_oracle(datum, I) -> tuple[int, ...]:
    """Type A only: the partition attached to a Levi subset of the path graph."""
    n = datum.rank
    parts = []
    run = 0
    for i in range(n):
        if i in I:
            run += 1
        else:
            if run:
                parts.append(run + 1)
            run = 0
    if run:
        parts.append(run + 1)
    total = sum(parts)
    parts.extend([1] * (n + 1 - total))
    return tuple(sorted(parts, reverse=True))


def stabilization_n_oracle(
    aw: AffineWeyl,
    consts: tuple[int, ...],
    partition: CellPartition,
    w: AffineElement,
    psi,
) -> "int | None":
    """Least n at which the chain t_{n x_psi} w becomes cell-stationary.

    Returns None when the chain leaves the trusted range before the repeat
    is observed and confirmed stationary within the range.
    """
    # x_psi = sum of varpi_i = k_i e_i over i in psi
    x_psi = tuple(k if i in psi else 0 for i, k in enumerate(consts))
    if all(c == 0 for c in x_psi):
        return 0
    shift = aw.translation(x_psi)

    cells_seen = []
    cur = w
    while True:
        idx = partition.cell_of.get(cur)
        if idx is None or not partition.trusted[idx]:
            break
        cells_seen.append(idx)
        cur = aw.mult(shift, cur)
    if len(cells_seen) < 2:
        return None
    # first index from which every further observed cell is the same
    last = cells_seen[-1]
    n = len(cells_seen) - 1
    while n > 0 and cells_seen[n - 1] == last:
        n -= 1
    if n == len(cells_seen) - 1:
        # the repeat was never observed inside the trusted range
        return None
    return n


def observed_stabilization_bound_oracle(
    aw: AffineWeyl, consts: tuple[int, ...], partition: CellPartition
) -> int:
    """Max observed n(w, x_psi) over trusted elements and all psi."""
    d = aw.datum
    core = partition.length_bound - partition.margin
    best = 0
    subsets = [[i for i in range(d.rank) if mask & (1 << i)] for mask in range(1, 1 << d.rank)]
    for i, comp in enumerate(partition.cells):
        if not partition.trusted[i]:
            continue
        for w in comp:
            if w.length > core:
                continue
            for psi in subsets:
                n = stabilization_n_oracle(aw, consts, partition, w, psi)
                if n is not None and n > best:
                    best = n
    return best


def status_oracle(datum, p: int, orbit) -> str:
    """Support-variety status by orbit name, with a type-A dimension branch."""
    if orbit is None:
        return "unknown"
    if orbit.name in ("regular", "subregular", "zero"):
        return "theorem"
    ct = datum.cartan_type
    if ct.series == "A":
        # rank <= 2 type A orbits are all covered by the universal names;
        # larger ranks carry partition names and stay conjectural here
        nroots = 2 * len(datum.positive_roots)
        if orbit.dimension in (0, nroots, nroots - 2):
            return "theorem"
        return "conjectural"
    if str(ct) == "C2" and p > 5:
        return "theorem"
    if str(ct) == "G2" and p > 7 and orbit.name != "middle":
        return "theorem"
    return "conjectural"


# -- helpers with callers only in the tests ------------------------------------


def table_rows_oracle(table) -> list:
    """(word of w, [(word of y, coefficient text), ...]) per entry, both in
    (length, word) order, sorting every entry's terms by ``sort_key``."""
    to_word, key = lru_cache(None)(table.aw.to_word), table.aw.sort_key
    serialize = lru_cache(None)(LaurentPoly.serialize)
    return [
        (to_word(w), [(to_word(y), serialize(h.terms[y])) for y in sorted(h.terms, key=key)])
        for w, h in sorted(table.entries.items(), key=lambda e: key(e[0]))
    ]


def dump_text_oracle(table) -> str:
    lines = [f"p {table.p}"]
    if table.provenance:
        lines.append(f"provenance {table.provenance}")
    for w, terms in table_rows_oracle(table):
        lines.append(f"w={w} : " + ", ".join(f"{y}:{c}" for y, c in terms))
    return "\n".join(lines) + "\n"


def dump_json_oracle(table) -> str:
    obj = {
        "schema": 1,
        "p": table.p,
        "provenance": table.provenance,
        "entries": [{"w": w, "terms": terms} for w, terms in table_rows_oracle(table)],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def text_rows_oracle(text: str) -> tuple:
    """(p, provenance, rows) of the text format, splitting and stripping
    every item of every line anew."""
    header = {}
    rows = []
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
                y, sep, c = item.rpartition(":")
                if not sep:
                    raise BasisTableError(f"term {item.strip()!r} on line {lineno} has no word")
                terms.append((y.strip(), c.strip()))
            rows.append((head[2:].strip(), terms))
        else:
            raise BasisTableError(f"unparseable line {lineno}: {line!r}")
    p = header.get("p")
    return p if p is None else int(p), header.get("provenance", ""), rows


def bruhat_intervals(aw, elements):
    """Yield (w, lower Bruhat interval of w) for elements of W in (length,
    word) order: with s the last letter of w, I(ws) and its right translate
    by s when ws came one length before, else ``aw.bruhat_interval``."""
    prev = {}
    for _, group in itertools.groupby(sorted(elements, key=aw.sort_key), key=lambda w: w.length):
        cur = {}
        for w in group:
            word = aw.reduced_word(w)
            lower = prev.get(aw.mult_gen(w, word[-1])) if word else None
            cur[w] = below = aw.bruhat_interval(w) if lower is None else (
                lower | {aw.mult_gen(y, word[-1]) for y in lower}
            )
            yield w, below
        prev = cur


def validate_table_oracle(aw, p, entries) -> None:
    """The table checks term by term: the p label, entries in W, diagonal 1,
    every term in the lower Bruhat interval and, at p = 0, every
    off-diagonal coefficient in vZ[v]; negative coefficients pass."""
    # trial division; 2^31 bounds its cost and exceeds every practical p
    if type(p) is not int or not (
        p == 0 or 1 < p < 2**31 and all(p % q for q in range(2, isqrt(p) + 1))
    ):
        raise BasisTableError(f"table label p={p!r} is not 0 or a prime below 2^31")
    for w in entries:
        if not aw.in_affine_weyl(w):
            raise BasisTableError(f"entry {aw.to_word(w)} is not in W")
    for w, below in bruhat_intervals(aw, entries):
        h = entries[w]
        diag = h.terms.get(w, ZERO)
        if diag != ONE:
            raise BasisTableError(
                f"diagonal coefficient of {aw.to_word(w)} is {diag}, not 1"
            )
        for y, c in h.terms.items():
            if y not in below:
                raise BasisTableError(
                    f"entry {aw.to_word(w)} is not unitriangular: "
                    f"{aw.to_word(y)} appears"
                )
            if p == 0 and y != w and not in_positive_part(c):
                raise BasisTableError(
                    f"p=0 entry {aw.to_word(w)} has an off-diagonal "
                    "coefficient outside vZ[v]"
                )


def min_coset_rep_oracle(aw, a):
    """Minimal representative of W_f a by the left-descent walk, reading
    and filling no cached representative."""
    while (i := aw.left_descent(a.rec, a.trans, 1)) is not None:
        a = aw.mult(aw.gens[i], a)
    return a


def coset_project_oracle(aw, x: HeckeElt, strip) -> HeckeElt:
    """Each x_w onto the minimal representative of W_f w, multiplied by
    ``strip`` once per stripped finite reflection."""
    out: dict = {}
    for w, c in x.terms.items():
        rep = min_coset_rep_oracle(aw, w)
        for _ in range(w.length - rep.length):
            c = c * strip
        n = out.get(rep)
        out[rep] = c if n is None else n + c
    return HeckeElt(out)


def greedy_word(aw, a):
    """Lexicographically smallest reduced word by uncached greedy descent."""
    word = []
    while a.length:
        i = next(i for i, s in enumerate(aw.gens) if aw.mult(s, a).length < a.length)
        word.append(i)
        a = aw.mult(aw.gens[i], a)
    return tuple(word)


def mult_gen_oracle(aw, a, i):
    """a . s_i as a general product, reading and filling no cached step."""
    return aw.mult(a, aw.gens[i])


def mult_gen_left_oracle(aw, i, a):
    """s_i . a as a general product, reading and filling no cached step."""
    return aw.mult(aw.gens[i], a)


def mat_mul_oracle(a, b):
    """Square matrix product, entry by entry."""
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def kl_gen_targets_oracle(provider, y, i):
    """Canonical-basis support of N_y (H_s + v) for the 0-basis, scanning
    N_y's codes for mu anew for each generator."""
    aw = provider.hecke.aw
    ys = aw.mult_gen(y, i)
    if ys.length < y.length:
        return [y]
    elts, codes, _ = provider.asph._coded(y)
    mus = [z for z, c in zip(elts, codes)
           if c >> _BITS & _MASK and aw.mult_gen(z, i).length < z.length]
    return [ys] + mus if aw.in_fW(ys) else mus


def ball_oracle(aw, bound: int, keep) -> list:
    """Elements of length <= bound reached from the identity by upward
    generator steps through elements passing ``keep`` (all when None), in
    breadth-first order, each kept once by ``closure``'s element-keyed dict."""

    def up(w):
        if w.length < bound:
            for i in range(len(aw.gens)):
                ws = aw.mult_gen(w, i)
                if ws.length > w.length and (keep is None or keep(ws)):
                    yield ws

    return closure([aw.identity], up)


def right_cells_oracle(aw, bound: int, margin: int, provider) -> CellPartition:
    """``right_cells`` on elements: successor sets, Tarjan's index, link and
    stack, and the reach sets all keyed by the elements themselves."""
    succ = {}
    for e in cell_edges(aw, provider, bound):
        succ.setdefault(e.frm, set()).add(e.to)
    index, low, on_stack, stack, emitted, work = {}, {}, set(), [], [], []

    def push(node):
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        work.append((node, iter(succ.get(node, ()))))

    for root in succ:
        if root not in index:
            push(root)
        while work:
            node, it = work[-1]
            for nxt in it:
                if nxt not in index:
                    push(nxt)
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = []
                    while True:
                        x = stack.pop()
                        on_stack.discard(x)
                        comp.append(x)
                        if x == node:
                            break
                    emitted.append(comp)
    comps = sorted(
        (tuple(sorted(c, key=aw.sort_key)) for c in emitted), key=lambda c: aw.sort_key(c[0])
    )
    cell_of = {w: i for i, comp in enumerate(comps) for w in comp}
    reach = [None] * len(comps)
    for comp in emitted:
        i = cell_of[comp[0]]
        acc = {i}
        for j in {cell_of[x] for w in comp for x in succ.get(w, ())} - {i}:
            acc |= reach[j]
        reach[i] = frozenset(acc)
    return CellPartition(
        length_bound=bound,
        margin=margin,
        cells=comps,
        trusted=[comp[0].length <= bound - margin for comp in comps],
        cell_of=cell_of,
        reach=reach,
        basis_p=provider.p,
        provenance=provider.provenance,
    )


def dot_walk_oracle(aw, mu0, mu1, p: int):
    """``AffineWeyl.dot_walk`` composing the element as (finite part,
    translation) by one matrix product per reflection, as ``mult`` does,
    with the length computed once at the end."""
    d = aw.datum
    at = d.affine_root
    nu0, nu1 = tuple(mu0), tuple(mu1)
    fin, trans = d.identity_finite, (0,) * d.rank
    guard = 0
    while True:
        guard += 1
        if guard > 100000:
            raise UnsupportedRegimeError("weight too far from the fundamental alcove")
        for i in range(d.rank):
            c0, c1 = nu0[i] + d.rho[i], nu1[i]
            if (c0, c1) < (0, 0):
                root, g = d.simple_roots[i].fund, aw.gens[i + 1]
                break
        else:
            c0 = sum(c * (x + r) for c, x, r in zip(at.coroot, nu0, d.rho)) - p
            c1 = sum(c * x for c, x in zip(at.coroot, nu1))
            if (c0, c1) <= (0, 0):
                break
            root, g = at.fund, aw.gens[0]
        # s ._p nu = nu - c * root, where c is nu's signed distance past the wall
        nu0 = tuple(x - c0 * r for x, r in zip(nu0, root))
        nu1 = tuple(x - c1 * r for x, r in zip(nu1, root))
        # w <- w . s, as in mult, with the length computed once at the end
        fin = fin * g.fin
        trans = tuple(x + y for x, y in zip(g.fin.apply_inverse(trans), g.trans))
    return aw.element(fin, trans), nu0


def fusion_rows_oracle(aw, lam, mu, p: int) -> list:
    """The nonzero rows (nu, N) of T(lam) (x) T(mu), one alternating sum
    over fW (``fusion_multiplicity``) per nu = lam + tau inside C_p, tau a
    weight of V(mu): N <= m(lam, mu; nu), which vanishes at any other nu."""
    d = aw.datum
    lam, mu = tuple(lam), tuple(mu)
    rows = []
    for nu in sorted({tuple(map(sum, zip(lam, tau))) for tau in d.all_weights(mu)}):
        if in_fundamental_alcove(d, nu, p) and (n := fusion_multiplicity(aw, lam, mu, nu, p)):
            rows.append((nu, n))
    return rows


@lru_cache(maxsize=None)
def lowest_cell_subsets(type_str: str) -> tuple[frozenset, ...]:
    """The proper J of S (generator indices) whose longest element w_J has
    length |Phi+|; w_J is reached by ascents in J from the identity."""
    aw = AffineWeyl(build_root_datum(type_str))
    n, out = len(aw.gens), []
    for J in itertools.chain.from_iterable(itertools.combinations(range(n), k) for k in range(1, n)):
        w = aw.identity
        while ups := [i for i in J if aw.mult(w, aw.gens[i]).length > w.length]:
            w = aw.mult(w, aw.gens[ups[0]])
        if w.length == len(aw.datum.positive_roots):
            out.append(frozenset(J))
    return tuple(out)


def shi_lowest_cell(aw, w, memo=None) -> bool:
    """Is w in Shi's lowest two-sided cell c0 (J. London Math. Soc. 1987)?

    c0 is the set of w = x . w_J . y with lengths adding, over the J with
    l(w_J) = |Phi+|.  w is in it iff its right descents contain such a J
    (y = e), or ws is for a right descent s: a prefix x . w_J of w stays a
    prefix of ws when s is a descent of y.  ``memo`` maps elements to the
    answer; descents and steps are general products.
    """
    memo = {} if memo is None else memo
    got = memo.get(w)
    if got is None:
        subsets = lowest_cell_subsets(str(aw.datum.cartan_type))
        steps = [aw.mult(w, s) for s in aw.gens]
        descents = {i for i, ws in enumerate(steps) if ws.length < w.length}
        got = memo[w] = any(J <= descents for J in subsets) or any(
            shi_lowest_cell(aw, steps[i], memo) for i in descents
        )
    return got


def alcove_vertices_oracle(aw, w, p: int) -> list:
    """The vertices of w's alcove in rho-shifted coordinates, in Fractions:
    the fundamental simplex 0, p/c_1 e_1, p/c_2 e_2 (theta^vee = (c_1, c_2))
    under x -> u(x + p beta) for w = u t_beta."""
    at = aw.datum.affine_root
    base = [(Fraction(0), Fraction(0))]
    for i in range(2):
        c = at.coroot[i]
        base.append(tuple(Fraction(p, c) if j == i else Fraction(0) for j in range(2)))
    return [w.fin.apply(tuple(x[j] + p * w.trans[j] for j in range(2))) for x in base]


def built_elements(aw) -> list:
    """Every element the context holds."""
    return [a for rec in aw._records.values() for a in rec.elements.values()]


def generate_finite_weyl(datum) -> list:
    """All elements of W_f (use with care in high rank)."""
    return closure(
        [datum.identity_finite], lambda w: [w * s for s in datum.simple_reflections]
    )


def from_finite(aw, fin):
    """The element fin . t_0 of the affine Weyl group."""
    return aw.element(fin, (0,) * aw.datum.rank)


def from_word(aw, word):
    """The product of the generators s_i, i in word, from the identity."""
    out = aw.identity
    for i in word:
        out = aw.mult_gen(out, i)
    return out


def leq_R(w, y, partition: CellPartition) -> "bool | None":
    """Whether w <=_R y in a computed preorder: w's cell is reached from y's.
    None when either element is outside the ball or its cell is untrusted."""
    cw, cy = partition.cell_of.get(w), partition.cell_of.get(y)
    if cw is None or cy is None or not (partition.trusted[cw] and partition.trusted[cy]):
        return None
    return cw in partition.reach[cy]


def standard(w) -> HeckeElt:
    """The standard basis element H_w, or N_w in the antispherical module."""
    return HeckeElt({w: ONE})


def kl_gen(hecke: Hecke, i: int) -> HeckeElt:
    """The canonical generator H_s + v."""
    return HeckeElt({hecke.aw.gens[i]: ONE, hecke.aw.identity: V})


def kl_mul(hecke: Hecke, h: HeckeElt, i: int) -> HeckeElt:
    """Right multiplication by the canonical generator H_s + v."""
    return kl_gen_action(hecke.aw, h, i, None, V, VINV)


def mul_by_word(module, x: HeckeElt, word) -> HeckeElt:
    """x acted on by the standard generator H_s = (H_s + v) - v for each
    letter s of word, in the algebra (module a Hecke) or the antispherical
    module (an AsphModule)."""
    keep = None if isinstance(module, Hecke) else module.aw.in_fW
    for i in word:
        x = kl_gen_action(module.aw, x, i, keep, V, VINV) - x.scale(V)
    return x


def hecke_mul(hecke: Hecke, a: HeckeElt, b: HeckeElt) -> HeckeElt:
    """Full product in the algebra; the right factor is expanded along
    reduced words."""
    out = HeckeElt()
    for w, c in b.terms.items():
        out = out + mul_by_word(hecke, a, hecke.aw.reduced_word(w)).scale(c)
    return out


def bs_product(hecke: Hecke, word) -> HeckeElt:
    """Product of canonical generators along a word (Bott-Samelson class)."""
    out = standard(hecke.aw.identity)
    for i in word:
        out = kl_mul(hecke, out, i)
    return out


def is_nonnegative(p: LaurentPoly) -> bool:
    return all(v >= 0 for v in p.c.values())


def in_positive_part(p: LaurentPoly) -> bool:
    """True when every exponent is >= 1 (the ideal v Z[v])."""
    return all(k >= 1 for k in p.c)


def positive_part(p: LaurentPoly) -> LaurentPoly:
    """The terms of p with exponent >= 1."""
    return LaurentPoly({k: v for k, v in p.c.items() if k >= 1})


def symmetrizer_oracle(cartan) -> tuple[int, ...]:
    """Minimal positive integers d with d_i * C[i][j] = d_j * C[j][i],
    propagated along the Dynkin graph from d_0 = 1."""
    n = len(cartan)
    d = [Fraction(0)] * n
    d[0] = Fraction(1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if i != j and cartan[i][j] != 0 and d[j] == 0:
                d[j] = d[i] * cartan[i][j] / cartan[j][i]
                todo.append(j)
    denom = math.lcm(*(x.denominator for x in d))
    ints = [int(x * denom) for x in d]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


def root_half_norm(datum, root) -> int:
    """(beta, beta)/2 in the symmetrizer normalization."""
    for i in range(datum.rank):
        if root.coroot[i] != 0:
            val = Fraction(root.simple[i] * datum.symmetrizer[i], root.coroot[i])
            assert val.denominator == 1
            return int(val)
    raise AssertionError("zero root")


def weyl_orbit(datum, weight) -> set:
    return set(
        closure([tuple(weight)], lambda w: [datum.reflect(w, i) for i in range(datum.rank)])
    )


def tensor_character(m1: dict, m2: dict) -> dict:
    """Weight multiset of a tensor product: the product of two characters."""
    out: dict = {}
    for a, ma in m1.items():
        for b, mb in m2.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, 0) + ma * mb
    return out


def counting(monkeypatch, owner, name) -> list:
    """A one-item list counting the calls of owner.<name> from now on."""
    calls, method = [0], getattr(owner, name)

    def counted(*args):
        calls[0] += 1
        return method(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls
