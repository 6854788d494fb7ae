from fractions import Fraction

import pytest

from linearr.arrangement import build_arrangement
from linearr.geometry import ArrangementError
from linearr.nomenclature import parse_nomenclature, realize_nomenclature
from linearr.svg import RenderSpec, render_svg, svg_text

THREE = [(1, -1, 0), (1, 0, 1), (1, 1, 3)]


def test_three_line_drawing_contents(tmp_path):
    arr = build_arrangement(THREE)
    spec = RenderSpec(path=str(tmp_path / "t.svg"))
    text = svg_text(arr, spec)
    assert text.count("<line ") == 3
    assert text.count("<polygon ") == 1
    assert text.count("<text ") == 3
    render_svg(arr, spec)
    assert (tmp_path / "t.svg").read_text() == text


def test_rendering_is_deterministic():
    arr = build_arrangement(THREE)
    spec = RenderSpec(path="unused.svg", padding=Fraction(3, 2))
    assert svg_text(arr, spec) == svg_text(arr, spec)


def test_seven_line_figure_counts():
    arr = realize_nomenclature(
        parse_nomenclature("1^+1 2^-1 3^+1 7^+1 6^+1 4^-1 5^+1")
    )
    text = svg_text(arr, RenderSpec(path="unused.svg"))
    assert text.count("<line ") == 7
    assert text.count("<polygon ") == 5  # the five oracle triangles
    assert text.count("<text ") == 7


def test_label_and_shade_switches():
    arr = build_arrangement(THREE)
    bare = svg_text(arr, RenderSpec(path="u.svg", labels=False, shade=False))
    assert "<text " not in bare and "<polygon " not in bare
    assert bare.count("<line ") == 3


def test_padding_must_be_nonnegative():
    with pytest.raises(ArrangementError) as err:
        RenderSpec(path="u.svg", padding=Fraction(-1))
    assert err.value.code == "bad-token"


def test_two_line_arrangement_renders_with_padding():
    arr = build_arrangement([(1, -1, 0), (1, 0, 1)])
    text = svg_text(arr, RenderSpec(path="u.svg", shade=False))
    assert text.count("<line ") == 2
