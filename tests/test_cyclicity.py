"""Cycles: validation, the census, detection, realization and the
construction of a cycle from its triangle list, which equals the census
search it replaced (kept here as ``reconstruct_cycle_by_census``)."""

import random
from functools import lru_cache

import pytest

from linearr import cyclicity
from linearr.arrangement import (
    bounded_faces,
    is_isomorphic_trivial,
    triangle_equivalence_classes,
    triangle_faces_oracle,
)
from linearr.cyclicity import (
    GonalityCycle,
    cycle_triangles,
    detect_gonality_cycle,
    enumerate_cycles,
    format_cycle,
    parse_cycle,
    realize_cycle,
    reconstruct_cycle,
    validate_cycle,
)
from linearr.geometry import ArrangementError
from linearr.nomenclature import parse_nomenclature, realize_nomenclature


def test_validate_examples():
    c = validate_cycle((1, 3, 4, 2, 5))
    assert c is not None and c.r == 3
    assert validate_cycle((1, 2, 3, 4)) is None
    c = validate_cycle((1, 3, 2))
    assert c is not None and c.r == 2


def test_validate_malformed_inputs():
    with pytest.raises(ArrangementError) as err:
        validate_cycle((1, 2, 2))
    assert err.value.code == "not-a-permutation"
    with pytest.raises(ArrangementError) as err:
        validate_cycle((2, 1, 3))
    assert err.value.code == "must-start-at-1"
    with pytest.raises(ArrangementError) as err:
        validate_cycle(())
    assert err.value.code == "must-start-at-1"


def test_cycle_text_roundtrip():
    c = parse_cycle("(1 4 5 2 3)")
    assert c.seq == (1, 4, 5, 2, 3)
    assert format_cycle(c) == "(1 4 5 2 3)"
    with pytest.raises(ArrangementError):
        parse_cycle("1 5 2")
    with pytest.raises(ArrangementError):
        parse_cycle("(1 2 3)")  # shape-invalid


@pytest.mark.parametrize(
    "text",
    ["(\u0661 \u0663 \u0662)", "(1 3 \uff12)", "(1 3 2 " + "4" * 5000 + ")", "(1 +3 2)"],
    ids=["arabic-indic", "fullwidth", "5000-digits", "plus-sign"],
)
def test_cycle_labels_follow_the_file_loader(text):
    with pytest.raises(ArrangementError) as err:
        parse_cycle(text)
    assert err.value.code == "bad-token"


@pytest.mark.parametrize("n,count", [(3, 1), (4, 4), (5, 11), (6, 26), (7, 57)])
def test_census_counts(n, count):
    cycles = enumerate_cycles(n)
    assert len(cycles) == count == 2 ** (n - 1) - n
    assert len({c.seq for c in cycles}) == count


def test_census_range_guard():
    for n in (2, 25):
        with pytest.raises(ArrangementError) as err:
            enumerate_cycles(n)
        assert err.value.code == "n-out-of-range"


def test_census_stops_where_its_list_outgrows_memory():
    # the list of every cycle on 20 lines already takes about 180 MB
    with pytest.raises(ArrangementError) as err:
        enumerate_cycles(21)
    assert err.value.code == "n-out-of-range"


def test_unique_three_cycle():
    assert [c.seq for c in enumerate_cycles(3)] == [(1, 3, 2)]


def test_cycle_triangles_fixtures():
    c = validate_cycle((1, 2, 4, 3))
    assert cycle_triangles(c) == {(1, 2, 4), (1, 2, 3)}
    c = validate_cycle((1, 3, 4, 2, 5))
    assert cycle_triangles(c) == {(1, 3, 4), (1, 2, 5), (1, 3, 5), (2, 3, 4)}


def test_cycle_triangles_needs_four_lines():
    with pytest.raises(ArrangementError) as err:
        cycle_triangles(validate_cycle((1, 3, 2)))
    assert err.value.code == "n-too-small"


def test_three_line_detection():
    from linearr.arrangement import build_arrangement

    arr = build_arrangement([(1, -1, 0), (1, 0, 1), (1, 1, 3)])
    assert detect_gonality_cycle(arr).seq == (1, 3, 2)


def test_realize_detect_roundtrip_exhaustive_small():
    for n in (4, 5, 6):
        for c in enumerate_cycles(n):
            assert detect_gonality_cycle(realize_cycle(c)) == c


def test_realized_cycles_match_oracle_exhaustive_small():
    for n in (4, 5, 6):
        for c in enumerate_cycles(n):
            arr = realize_cycle(c)
            oracle = triangle_faces_oracle(arr)
            assert cycle_triangles(c) == oracle
            assert len(triangle_equivalence_classes(oracle)) <= 2


def test_seven_line_figure_has_no_cycle():
    arr = realize_nomenclature(
        parse_nomenclature("1^+1 2^-1 3^+1 7^+1 6^+1 4^-1 5^+1")
    )
    assert detect_gonality_cycle(arr) is None


def test_every_cycle_realization_has_single_ngon_face():
    for c in enumerate_cycles(5):
        faces = bounded_faces(realize_cycle(c))
        assert sum(1 for f in faces if len(f) == 5) == 1


def test_face_structure_is_ngon_quads_and_adjacent_triangles():
    from linearr.fuzzing import check_ngon_face_structure

    for c in enumerate_cycles(6):
        assert check_ngon_face_structure(realize_cycle(c), c)


def test_juxtaposed_side_criterion():
    from linearr.fuzzing import check_juxtaposed_sides

    for c in enumerate_cycles(6):
        assert check_juxtaposed_sides(c, triangle_faces_oracle(realize_cycle(c)))


def test_reconstruct_fixture():
    assert reconstruct_cycle({(1, 2, 4), (1, 2, 3)}, 4).seq == (1, 2, 4, 3)


def test_reconstruct_empty_and_unknown():
    for n in (4, 5, 9):
        assert reconstruct_cycle(set(), n) is None
    assert reconstruct_cycle({(1, 2, 3)}, 4) is None


def test_reconstruct_inverts_triangle_listing():
    for n in (4, 5, 6, 7, 8):
        for c in enumerate_cycles(n):
            assert reconstruct_cycle(cycle_triangles(c), n) == c


def test_reconstruct_range_guard():
    with pytest.raises(ArrangementError) as err:
        reconstruct_cycle(set(), 3)
    assert err.value.code == "n-out-of-range"
    # no upper limit: n = 21 answers
    assert reconstruct_cycle(set(), 21) is None
    c = validate_cycle((1, *range(3, 19), 20, 2, 19, 21))
    assert reconstruct_cycle(cycle_triangles(c), 21) == c


def test_realizations_isomorphic_iff_same_cycle():
    for n in (5, 6, 7):
        cycles = enumerate_cycles(n)
        arrs = {c.seq: realize_cycle(c) for c in cycles}
        others = {c.seq: realize_cycle(c, variant=1) for c in cycles}
        for c1 in cycles:
            for c2 in cycles:
                expected = c1 == c2
                assert is_isomorphic_trivial(arrs[c1.seq], others[c2.seq]) == expected


def test_cycle_value_object():
    c = GonalityCycle((1, 2, 4, 3), 3)
    assert c.n == 4
    assert str(c) == "(1 2 4 3)"


def test_reconstruct_beyond_the_indexed_range():
    # n = 15, one past the sizes whose lists are checked pairwise distinct
    n = 15
    c = enumerate_cycles(n)[123]
    assert reconstruct_cycle(cycle_triangles(c), n) == c


@lru_cache(maxsize=None)
def _census_index(n: int) -> dict:
    """Each triangle list on n lines with the first cycle, in census order,
    that has it."""
    index = {}
    for c in enumerate_cycles(n):
        index.setdefault(frozenset(cycle_triangles(c)), c)
    return index


def reconstruct_cycle_by_census(triangles, n: int):
    """The census search ``reconstruct_cycle`` replaced: the first cycle of
    ``enumerate_cycles(n)`` whose triangle list equals ``triangles``."""
    return _census_index(n).get(frozenset(tuple(sorted(t)) for t in triangles))


def random_cycle(n: int, rng: random.Random) -> GonalityCycle:
    """A uniformly drawn cycle on 1..n."""
    while True:
        second = rng.getrandbits(n + 1) & ~3  # bit v set: label v in the second run
        c = validate_cycle(sorted(range(1, n + 1), key=lambda v: second >> v & 1))
        if c is not None:
            return c


def test_triangle_lists_are_pairwise_distinct():
    # the uniqueness theorem, exhaustively where the census is small
    for n in range(4, 15):
        assert len(_census_index(n)) == len(enumerate_cycles(n)) == 2 ** (n - 1) - n


def test_reconstruct_equals_the_census_search_on_every_cycle():
    for n in range(4, 14):
        for c in enumerate_cycles(n):
            triangles = cycle_triangles(c)
            got = reconstruct_cycle(triangles, n)
            assert got == reconstruct_cycle_by_census(triangles, n) == c


def test_reconstruct_equals_the_census_search_on_perturbed_sets():
    rng = random.Random(12)
    answers = []
    for n in range(4, 11):
        cycles = enumerate_cycles(n)
        for _ in range(100):
            base = cycle_triangles(rng.choice(cycles))
            dropped = base - {rng.choice(sorted(base))}
            added = {tuple(sorted(rng.sample(range(1, n + 1), 3)))}
            toggled = base ^ {rng.choice(sorted(cycle_triangles(rng.choice(cycles))))}
            for triangles in (dropped, base | added, dropped | added, toggled):
                got = reconstruct_cycle(triangles, n)
                assert got == reconstruct_cycle_by_census(triangles, n)
                answers.append(got)
    assert len(answers) == 2800 and 0 < answers.count(None) < 2800


def test_reconstruct_needs_no_census(monkeypatch):
    def census(n):
        raise AssertionError("census enumerated")

    monkeypatch.setattr(cyclicity, "enumerate_cycles", census)
    monkeypatch.setattr(cyclicity, "_cycles", census)
    c = validate_cycle((1, 3, 4, 7, 2, 5, 6))
    assert reconstruct_cycle(cycle_triangles(c), 7) == c


@pytest.mark.parametrize("n", [21, 100, 1000, 2000])
def test_reconstruct_random_cycles_at_large_n(n):
    # 2000 labels: deeper than the default recursion limit
    rng = random.Random(n)
    for _ in range(3):
        c = random_cycle(n, rng)
        assert reconstruct_cycle(cycle_triangles(c), n) == c


def test_reconstruct_rejects_the_chain_set():
    # the costliest family known, about n^2 / 2 states
    n = 200
    assert reconstruct_cycle({(x - 2, x - 1, x) for x in range(3, n + 1)}, n) is None


def test_reconstruct_rejects_sets_no_list_can_be():
    assert reconstruct_cycle(set(), 10 ** 9) is None
    c = validate_cycle((1, 3, 4, 2, 5))
    assert reconstruct_cycle(cycle_triangles(c) | {(1, 2, 3), (1, 4, 5)}, 5) is None
    assert reconstruct_cycle({(1, 2, 6)}, 5) is None  # a label beyond n
