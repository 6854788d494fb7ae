"""Property test of the uniqueness theorem beyond any census: a cycle on up
to 300 lines is rebuilt from its triangle list alone."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from linearr.cyclicity import cycle_triangles, reconstruct_cycle, validate_cycle


@st.composite
def cycles(draw):
    n = draw(st.integers(4, 300))
    second = draw(st.sets(st.integers(2, n), min_size=1, max_size=n - 2))
    rest = [v for v in range(2, n + 1) if v not in second]
    c = validate_cycle([1, *rest, *sorted(second)])
    assume(c is not None)
    return c


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cycles())
def test_every_cycle_is_rebuilt_from_its_triangles(c):
    assert reconstruct_cycle(cycle_triangles(c), c.n) == c
