"""Right-cell preorder and partition on fW, plus the finite-generation toolkit.

The preorder is generated by single canonical-generator expansions: there is
an edge y -> w (with witness s) whenever the canonical basis element indexed
by w appears in N_y-bar . (H_s + v).  Cells are the strongly connected
components of that edge graph, computed on a length-truncated ball: node k
is the k-th element of the walk over fW, which lists them in (length, word)
order, and the search, the cell order and reachability run on the numbers.

For p = 0 the targets are read off the W-graph: y when ys < y, else ys (if
in fW) and each z with zs < z and mu(z, y) != 0, the v^1 coefficient stored
in N_y, read once per source y.  A table's p-canonical basis keeps the
leading-term expansion.  Under both, AffineWeyl takes each generator step
from its finite part's record.

Truncation policy: edges are expanded from every source of length <= L, so
targets up to length L+1 are known exactly; the walk over fW that lists the
sources runs to L+1, gives each target its smallest reduced word and
lists the nodes in (length, word) order, so no sort key is built.  A
component is *trusted* when it reaches down to the core zone: some member
has length <= L - margin.  A target of length L+1 is never a source, so it
is a singleton sink component and never trusted.  The margin is an
engineering contract, not a theorem: it is the room we give merging paths
near the boundary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .affine import AffineElement, AffineWeyl


class CellEdge(NamedTuple):
    frm: AffineElement
    to: AffineElement
    witness: int  # generator index


@dataclass
class CellPartition:
    length_bound: int
    margin: int
    cells: list[tuple[AffineElement, ...]]  # each in (length, word) order
    trusted: list[bool]
    cell_of: dict[AffineElement, int]  # the fW ball to length_bound + 1, in (length, word) order
    reach: list[frozenset[int]]  # cell ids reachable from each cell (incl. itself)
    basis_p: int = 0
    provenance: str = ""

    def trusted_cells(self) -> list[int]:
        return [i for i, t in enumerate(self.trusted) if t]


def cell_edges(aw: AffineWeyl, provider, bound: int) -> list[CellEdge]:
    """All single-generator expansion edges from sources of length <= bound.

    The walk over fW runs one length further than the sources: every target
    lies in fW with length <= bound + 1, so the walk's first step into it
    gives it its smallest reduced word (see ``AffineWeyl._ball``)."""
    return [
        CellEdge(y, w, i)
        for y in aw.enumerate_fW(bound + 1) if y.length <= bound
        for i, targets in enumerate(provider.kl_gen_targets(y))
        for w in targets
    ]


def _strongly_connected_components(succ: list) -> list[list[int]]:
    """Iterative Tarjan on the nodes 0..n-1, succ[k] listing the successors
    of k; returns the components as lists of nodes, in emission order.  An
    emitted node's index becomes n, so that it lowers no other node's link."""
    n = len(succ)
    index, low, stack, comps, work, visits = [-1] * n, [0] * n, [], [], [], itertools.count()

    def push(node):
        index[node] = low[node] = next(visits)
        stack.append(node)
        work.append((node, iter(succ[node])))

    for root in range(n):
        if index[root] < 0:
            push(root)
        while work:
            node, it = work[-1]
            for nxt in it:
                if index[nxt] < 0:
                    push(nxt)
                    break
                low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    x, comp = None, []
                    while x != node:
                        x = stack.pop()
                        index[x] = n
                        comp.append(x)
                    comps.append(comp)
    return comps


def right_cells(
    aw: AffineWeyl, bound: int, margin: int, provider
) -> CellPartition:
    """Cell partition of the length-<=bound ball of fW under the given basis."""
    if not 0 <= margin <= bound:
        raise ValueError("need 0 <= margin <= length bound")
    # Node k is the k-th element of the walk over fW to length bound + 1, in
    # (length, word) order.  It holds every target (in fW, of length at most
    # bound + 1), and each of its elements is one: of length bound + 1, ys for
    # a source y, the leading term of N_y.(H_s + v) in any unitriangular
    # basis.  Targets are numbered by key; only an element of another
    # context, such as one a table read there returns, has no number.
    nodes = aw.enumerate_fW(bound + 1)
    num = {w.key: k for k, w in enumerate(nodes)}
    succ: list[list[int]] = [[] for _ in nodes]
    for y, out in zip(nodes, succ):
        if y.length > bound:
            break
        for w in itertools.chain.from_iterable(provider.kl_gen_targets(y)):
            k = num.get(w.key)
            if k is None:
                raise ValueError(f"cell target {aw.to_word(w)} is not an element of this context")
            out.append(k)
    # A cell lists its nodes by number, in (length, word) order, and the cells
    # go by their least number; neither depends on the search's visit order.
    emitted = _strongly_connected_components(succ)
    ranked = sorted(map(sorted, emitted))
    cell = [0] * len(nodes)
    for i, comp in enumerate(ranked):
        for k in comp:
            cell[k] = i
    comps = [tuple(map(nodes.__getitem__, comp)) for comp in ranked]

    # a node of length bound + 1 has no out-edges, so it is a singleton
    # component; its length already fails the core test
    core = bound - margin
    trusted = [comp[0].length <= core for comp in comps]

    # Tarjan emits a component only after every component it reaches, so one
    # pass in emission order closes the condensation reachability.
    reach: list = [None] * len(comps)
    for comp in emitted:
        i = cell[comp[0]]
        acc = {i}
        for j in {cell[x] for k in comp for x in succ[k]} - {i}:
            acc |= reach[j]
        reach[i] = frozenset(acc)

    return CellPartition(
        length_bound=bound,
        margin=margin,
        cells=comps,
        trusted=trusted,
        cell_of=dict(zip(nodes, cell)),
        reach=reach,
        basis_p=provider.p,
        provenance=provider.provenance,
    )


def export_partition_json(aw: AffineWeyl, partition: CellPartition) -> dict:
    cells = [
        {"id": i, "trusted": trusted, "size": len(comp), "members": [aw.to_word(w) for w in comp]}
        for i, (comp, trusted) in enumerate(zip(partition.cells, partition.trusted))
    ]
    n = len(partition.cells)
    matrix = [
        [1 if i in partition.reach[j] else 0 for j in range(n)] for i in range(n)
    ]
    return {
        "schema": 1,
        "type": str(aw.datum.cartan_type),
        "length_bound": partition.length_bound,
        "margin": partition.margin,
        "basis_p": partition.basis_p,
        "provenance": partition.provenance,
        "cells": cells,
        "preorder": matrix,
    }


# -- finite generation machinery ------------------------------------------------


def generation_constants(aw: AffineWeyl) -> tuple[int, ...]:
    """Per-simple-root constants k = (k_1, ..., k_n) of the translation
    semigroup acting on fW: k_i is the least k > 0 with k e_i in the root
    lattice.

    varpi_i = k_i e_i is the minimal dominant root-lattice weight orthogonal
    to all simple coroots but the i-th, and k_Phi = max(k).  The finite set
    Z of decompose_fW is never built: z is in Z exactly when its translation
    part nu lies in the root lattice with 0 <= nu_i <= k_i, and z is in fW.
    """
    d = aw.datum
    return tuple(
        next(
            k for k in itertools.count(1)
            if d.in_root_lattice(tuple(k * (j == i) for j in range(d.rank)))
        )
        for i in range(d.rank)
    )


def decompose_fW(
    aw: AffineWeyl, consts: tuple[int, ...], w: AffineElement
) -> tuple[tuple[int, ...], AffineElement]:
    """Write w in fW as t_lambda . z with lambda dominant in Y and z in Z.

    Peeling varpi_i = k_i e_i off the translation part mu of w changes only
    mu_i, so it happens n_i = max(0, ceil(mu_i / k_i) - 1) times, after
    which mu_i <= k_i; lambda = sum n_i varpi_i.
    """
    if not (aw.in_fW(w) and aw.in_affine_weyl(w)):
        raise ValueError("decompose_fW expects an element of fW")
    # translation part mu of w = t_mu v
    mu = w.fin.apply(w.trans)
    lam = tuple(max(0, -(-m // k) - 1) * k for m, k in zip(mu, consts))
    z = aw.mult(aw.translation(tuple(-c for c in lam)), w)
    nu = z.fin.apply(z.trans)
    # nu is in the root lattice with no test: w is in W and so is each varpi_i
    if not (all(0 <= c <= k for c, k in zip(nu, consts)) and aw.in_fW(z)):
        raise AssertionError("decomposition left the finite set Z")
    return lam, z


def stabilization_n(
    aw: AffineWeyl,
    consts: tuple[int, ...],
    partition: CellPartition,
    w: AffineElement,
    psi,
) -> "int | None":
    """Least n at which the chain t_{n x_psi} w becomes cell-stationary.

    Returns None exactly when the last cell the chain meets inside the
    trusted range does not repeat there.
    """
    # x_psi = sum of varpi_i = k_i e_i over i in psi
    x_psi = tuple(k if i in psi else 0 for i, k in enumerate(consts))
    if not any(x_psi):
        return 0
    shift = aw.translation(x_psi)
    seen, cur = [], w
    while (idx := partition.cell_of.get(cur)) is not None and partition.trusted[idx]:
        seen.append(idx)
        cur = aw.mult(shift, cur)
    # first index from which every observed cell is the last one
    n = len(seen) - 1
    while n > 0 and seen[n - 1] == seen[-1]:
        n -= 1
    return n if n < len(seen) - 1 else None


def observed_stabilization_bound(
    aw: AffineWeyl, consts: tuple[int, ...], partition: CellPartition
) -> int:
    """Max observed n(w, x_psi) over trusted core elements and nonempty psi."""
    rank = aw.datum.rank
    core = partition.length_bound - partition.margin
    subsets = [[i for i in range(rank) if mask >> i & 1] for mask in range(1, 1 << rank)]
    ns = (
        stabilization_n(aw, consts, partition, w, psi)
        for comp, trusted in zip(partition.cells, partition.trusted) if trusted
        for w in comp if w.length <= core
        for psi in subsets
    )
    return max((n for n in ns if n is not None), default=0)


def cell_generators(
    aw: AffineWeyl,
    consts: tuple[int, ...],
    partition: CellPartition,
    cell_id: int,
) -> set[AffineElement]:
    """Finite generating set K for a trusted cell.

    K consists of the cell members of the form t_lambda z with all pairing
    ratios floor(<lambda, a^vee>/k_a) bounded by the stabilization constant.
    Every trusted member of the cell must factor as t_mu . v with v in K and
    mu dominant; a verification failure raises.
    """
    if not partition.trusted[cell_id]:
        raise ValueError("cell_generators needs a trusted cell")
    bound = max(consts) * max(observed_stabilization_bound(aw, consts, partition), 1)
    d = aw.datum
    members = partition.cells[cell_id]
    K = set()
    for w in members:
        lam, _ = decompose_fW(aw, consts, w)
        if all(lam[i] // consts[i] <= bound for i in range(d.rank)):
            K.add(w)
    by_fin = {}
    for v in K:
        by_fin.setdefault(v.fin, []).append(v)
    core = partition.length_bound - partition.margin
    for w in members:
        if w.length > core:
            continue
        diffs = (
            tuple(a - b for a, b in zip(w.fin.apply(w.trans), v.fin.apply(v.trans)))
            for v in by_fin.get(w.fin, ())
        )
        # members and K lie in W, so each difference mu is in the root lattice
        if not any(all(c >= 0 for c in mu) for mu in diffs):
            raise AssertionError(
                f"cell member {aw.to_word(w)} does not factor through K"
            )
    return K
