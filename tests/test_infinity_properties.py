"""Property test of the symbolic rules' symmetries: the line-at-infinity
rule and Theorem B are order statements on a nomenclature's labels and
signs, so negating every sign and reflecting every label (x -> n + 1 - x)
keep each position's at-infinity status, negation keeps the triangle set
and reflection maps it by the same reflection."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from linearr.infinity import is_line_at_infinity_symbolic, nomenclature_triangles
from linearr.nomenclature import Nomenclature


@st.composite
def nomenclatures(draw):
    n = draw(st.integers(3, 10))
    labels = draw(st.permutations(range(1, n + 1)))
    i, j, k = sorted(labels[:3])
    lead = {i: 1, j: -1, k: 1} if draw(st.booleans()) else {i: -1, j: 1, k: -1}
    tail = draw(st.lists(st.sampled_from((1, -1)), min_size=n - 3, max_size=n - 3))
    return Nomenclature(tuple(labels), tuple(lead[x] for x in labels[:3]) + tuple(tail))


def reflected(nom: Nomenclature) -> Nomenclature:
    return Nomenclature(tuple(nom.n + 1 - x for x in nom.labels), nom.signs)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(nomenclatures())
def test_rules_respect_negation_and_reflection(nom):
    mirror = reflected(nom)
    for t in range(1, nom.n + 1):
        status = is_line_at_infinity_symbolic(nom, t)
        assert is_line_at_infinity_symbolic(nom.negated(), t) == status
        assert is_line_at_infinity_symbolic(mirror, t) == status
    triangles = nomenclature_triangles(nom)
    assert nomenclature_triangles(nom.negated()) == triangles
    assert nomenclature_triangles(mirror) == {
        tuple(sorted(nom.n + 1 - x for x in tri)) for tri in triangles
    }
