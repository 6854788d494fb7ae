"""Guards of the integer side-sign kernel: ``missed_quadrant`` equals the
sample-point form kept here as a reference, faces are walked once per
arrangement, concurrency errors name the first triple, and invariant checks
survive ``python -O``."""

import os
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest

from linearr import arrangement
from linearr.arrangement import (
    bounded_faces,
    build_arrangement,
    missed_quadrant,
    triangles_from_faces,
)
from linearr.cyclicity import detect_gonality_cycle, parse_cycle, realize_cycle
from linearr.fuzzing import gen_generic
from linearr.geometry import ArrangementError, Point, side
from linearr.nomenclature import parse_nomenclature, realize_nomenclature

SRC = Path(__file__).resolve().parent.parent / "src"

NOMENCLATURES = [
    "1^+1 2^-1 3^+1 7^+1 6^+1 4^-1 5^+1",
    "4^-1 2^+1 7^+1 1^+1 9^-1 3^-1 8^+1 5^+1 6^-1",
    "5^+1 3^-1 8^-1 1^-1 10^-1 2^+1 9^-1 4^+1 7^+1 6^-1",
]
CYCLES = ["(1 3 4 2 5)", "(1 2 5 7 3 4 6 8)", "(1 4 6 9 2 3 5 7 8 10)"]


def missed_quadrant_by_samples(arr, i, j, m):
    """The three-sample-point form ``missed_quadrant`` had before the kernel:
    classify a point on each ray and on the segment of line m cut by lines
    i and j, and return the one sign pair none of them has."""
    vim, vjm = arr.vertex(i, m), arr.vertex(j, m)
    li, lj = arr.line(i), arr.line(j)
    samples = (
        Point(2 * vim.x - vjm.x, 2 * vim.y - vjm.y),
        Point((vim.x + vjm.x) / 2, (vim.y + vjm.y) / 2),
        Point(2 * vjm.x - vim.x, 2 * vjm.y - vim.y),
    )
    met = {(side(li, p), side(lj, p)) for p in samples}
    assert len(met) == 3 and all(s1 and s2 for s1, s2 in met)
    missing = [q for q in ((1, 1), (1, -1), (-1, 1), (-1, -1)) if q not in met]
    assert len(missing) == 1
    return missing[0]


def kernel_arrangements():
    for seed in range(200):
        yield gen_generic(3 + seed % 6, seed)
    for variant in (0, 1):
        for text in NOMENCLATURES:
            yield realize_nomenclature(parse_nomenclature(text), variant)
        for text in CYCLES:
            yield realize_cycle(parse_cycle(text), variant)


def test_missed_quadrant_equals_the_sample_point_form():
    checked = 0
    for arr in kernel_arrangements():
        for i, j, m in permutations(arr.ids, 3):
            assert missed_quadrant(arr, i, j, m) == missed_quadrant_by_samples(arr, i, j, m)
            checked += 1
    assert checked > 20000


def test_bounded_faces_walks_each_arrangement_once(monkeypatch):
    walks = []
    walk = arrangement._walk_faces

    def counting_walk(arr):
        walks.append(arr)
        return walk(arr)

    monkeypatch.setattr(arrangement, "_walk_faces", counting_walk)
    arr = realize_cycle(parse_cycle("(1 2 5 7 3 4 6 8)"))  # walks once to detect
    assert len(walks) == 1
    first = bounded_faces(arr)
    first.clear()  # a caller's list is its own
    again = bounded_faces(arr)
    assert bounded_faces(arr) == again and len(again) == 7 * 6 // 2
    assert detect_gonality_cycle(arr) == parse_cycle("(1 2 5 7 3 4 6 8)")
    assert len(triangles_from_faces(arr)) >= 2
    assert walks == [arr]
    other = realize_nomenclature(parse_nomenclature(NOMENCLATURES[0]))
    bounded_faces(other)
    bounded_faces(other)
    assert walks == [arr, other]


@pytest.mark.parametrize(
    "raw, message",
    [
        # four lines through (1, 1): every triple is concurrent
        (
            [(1, -1, 0), (1, 0, 1), (1, 1, 2), (1, -2, -1)],
            "lines 1,2,3 pass through Point(x=Fraction(1, 1), y=Fraction(1, 1))",
        ),
        # ids 1, 3, 5 meet at (0, 0) and ids 2, 4, 5 at (-2, 2)
        (
            [(1, 0, 0), (1, -2, 0), (1, 1, 0), (2, 1, -2), (1, -1, -4)],
            "lines 1,3,5 pass through Point(x=Fraction(0, 1), y=Fraction(0, 1))",
        ),
    ],
)
def test_concurrent_triple_names_the_first_triple_in_combination_order(raw, message):
    with pytest.raises(ArrangementError) as err:
        build_arrangement(raw)
    assert err.value.code == "concurrent-triple"
    assert str(err.value) == message


def test_realize_checks_its_labels_under_optimize():
    """With the direction ladder reversed the ids come out mirrored; the check
    that catches it must not vanish under ``python -O``."""
    script = "\n".join([
        "import linearr.nomenclature as nm",
        "from linearr.geometry import ArrangementError",
        "ladder = nm.direction_ladder",
        "nm.direction_ladder = lambda n, variant=0: ladder(n, variant)[::-1]",
        "print('debug' if __debug__ else 'optimized')",
        "try:",
        "    nm.realize_nomenclature(nm.parse_nomenclature('1^+1 2^-1 3^+1 5^-1 4^+1'))",
        "except ArrangementError as exc:",
        "    print(exc.code)",
        "else:",
        "    print('returned')",
    ])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["optimized", "internal-invariant"]
