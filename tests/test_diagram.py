import os

import pytest

from heckecells.affine import AffineWeyl, UnsupportedRegimeError
from heckecells.cells import right_cells
from heckecells.cli import main
from heckecells.diagram import _alcove_corners, _embedding, render_cell_diagram

from oracles import alcove_vertices_oracle, counting


@pytest.mark.parametrize(
    "type_str,p", [("A2", 5), ("A2", 7), ("B2", 5), ("B2", 11), ("C2", 7), ("C2", 9),
                   ("G2", 11), ("G2", 13)],
)
def test_integer_alcove_corners_match_fraction_vertices(ctx, type_str, p):
    # the corners are the Fraction vertices times d, and dividing an int by
    # d rounds to the same float as float(Fraction), so the embedded points
    # (and the SVG bytes) agree
    aw = ctx(type_str).aw
    d, corners = _alcove_corners(aw, p)
    embed = _embedding(aw.datum)
    for w in aw.enumerate_fW(14):
        got, want = corners(w), alcove_vertices_oracle(aw, w, p)
        assert [(x / d, y / d) for x, y in got] == [tuple(map(float, v)) for v in want]
        assert got == [tuple(d * c for c in v) for v in want]
        assert [embed((x / d, y / d)) for x, y in got] == [embed(v) for v in want]


def test_plot_walks_the_ball_once(monkeypatch):
    # the diagram draws the partition's own ball: a plot job walks fW once
    walks = counting(monkeypatch, AffineWeyl, "_ball")
    args = ["plot", "--type", "G2", "--p", "11", "--len", "24", "--margin", "8"]
    assert main(args + ["--out", os.devnull]) == 0
    assert walks == [1]


def test_rank_three_diagram_is_unsupported(ctx):
    # the same refusal, and exit code, as the plot command's own rank check
    c = ctx("B3")
    part = right_cells(c.aw, 4, 1, c.provider)
    with pytest.raises(UnsupportedRegimeError, match="rank-2"):
        render_cell_diagram(c.aw, part, 7)
