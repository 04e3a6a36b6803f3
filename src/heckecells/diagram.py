"""SVG rendering of rank-2 dominant-chamber alcove pictures colored by cell.

Alcoves are drawn in the rho-shifted coordinates, where the alcove of w is
the image of the fundamental simplex under the p-dilated affine action of w.
The embedding into the plane is the exact Gram matrix of the fundamental
weights, factored once; every coordinate that reaches the SVG is formatted
with a fixed precision so that identical inputs give identical bytes.
"""

from __future__ import annotations

import math

from .affine import AffineWeyl, UnsupportedRegimeError
from .cells import CellPartition

_PALETTE = [
    "#4e79a7",
    "#f28e2b",
    "#59a14f",
    "#e15759",
    "#b07aa1",
    "#edc948",
    "#76b7b2",
    "#ff9da7",
    "#9c755f",
    "#bab0ac",
]
_UNTRUSTED = "#d8d8d8"


def _embedding(datum):
    g11 = datum.inner((1, 0), (1, 0))
    g12 = datum.inner((1, 0), (0, 1))
    g22 = datum.inner((0, 1), (0, 1))
    a = math.sqrt(float(g11))
    b = float(g12) / a
    c = math.sqrt(float(g22) - b * b)

    def embed(x):
        return (x[0] * a + x[1] * b, x[1] * c)

    return embed


def _alcove_corners(aw: AffineWeyl, p: int):
    """(d, corners), corners(w) the vertices of w's alcove in rho-shifted
    coordinates times d = c_1 c_2, theta^vee = (c_1, c_2): integers, and an
    int / int rounds as float(Fraction) does.  The fundamental simplex has
    vertices 0 and p/c_i e_i; w = u t_beta maps x to u(x + p beta)."""
    c1, c2 = aw.datum.affine_root.coroot
    d = c1 * c2
    base = ((0, 0), (p * c2, 0), (0, p * c1))

    def corners(w):
        t1, t2 = d * p * w.trans[0], d * p * w.trans[1]
        return [w.fin.apply((x + t1, y + t2)) for x, y in base]

    return d, corners


def render_cell_diagram(aw: AffineWeyl, partition: CellPartition, p: int) -> str:
    """SVG document of the alcoves of the partition's fW ball, up to its
    length bound, in the (length, word) order of ``partition.cell_of``.

    Alcoves near the origin carry their reduced-word labels; the cutoff is
    chosen so that at least 16 alcoves are labeled when that many exist.
    """
    datum = aw.datum
    if datum.rank != 2:
        raise UnsupportedRegimeError("alcove diagrams are drawn for rank-2 types only")
    if p < 1:
        raise ValueError(f"alcove diagrams need p >= 1, got p={p}")
    embed = _embedding(datum)
    bound = partition.length_bound
    drawn = [(w, cid) for w, cid in partition.cell_of.items() if w.length <= bound]
    label_max = drawn[min(15, len(drawn) - 1)][0].length

    d, corners = _alcove_corners(aw, p)

    polys = []
    labels = []
    xs, ys = [], []
    for w, cid in drawn:
        verts = [embed((x / d, y / d)) for x, y in corners(w)]
        for vx, vy in verts:
            xs.append(vx)
            ys.append(vy)
        color = _PALETTE[cid % len(_PALETTE)] if partition.trusted[cid] else _UNTRUSTED
        polys.append((verts, color))
        if w.length <= label_max:
            bx = sum(v[0] for v in verts) / 3.0
            by = sum(v[1] for v in verts) / 3.0
            labels.append((bx, by, aw.to_word(w)))

    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    pad = 0.04 * max(maxx - minx, maxy - miny, 1.0)
    scale = 640.0 / max(maxx - minx, 1e-9)

    def tx(x):
        return (x - minx + pad) * scale

    def ty(y):
        return (maxy - y + pad) * scale

    width = tx(maxx + pad)
    height = ty(miny - pad)

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.4f} {height:.4f}">'
    )
    out.append(
        f"<!-- antispherical cells, type {datum.cartan_type}, p={p}, "
        f"length bound {bound} -->"
    )
    for verts, color in polys:
        pts = " ".join(f"{tx(x):.4f},{ty(y):.4f}" for x, y in verts)
        out.append(
            f'<polygon class="alcove" points="{pts}" fill="{color}" '
            f'stroke="#222222" stroke-width="0.8"/>'
        )
    for bx, by, text in labels:
        out.append(
            f'<text x="{tx(bx):.4f}" y="{ty(by):.4f}" font-size="9" '
            f'text-anchor="middle" fill="#111111">{text}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
