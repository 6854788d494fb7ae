"""Byte-for-byte comparison with the committed golden outputs.

The files under ``tests/golden/`` were written by ``tests/golden/generate.py``:
the fuzz reports and the cycle files with the library as it stood before its
predicates moved to the integer side-sign kernel, the nomenclature
realizations and their analyze reports since ``realize_nomenclature`` uses
integer intercepts, and the two SVG drawings while the ``Fraction`` vertex
table still lived on the arrangement.  Every fuzz report, realization,
analyze report and drawing must come out byte-identical.
"""

import importlib.util
from pathlib import Path

import pytest

from linearr.fileio import format_arrangement

GOLDEN = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("golden_generate", GOLDEN / "generate.py")
generate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate)


def golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="ascii")


@pytest.mark.parametrize(
    "case", generate.FUZZ_CASES, ids=lambda c: generate.fuzz_name(c[0], c[1])
)
def test_fuzz_reports_match_golden(case, tmp_path):
    text, json_text = generate.fuzz_outputs(case, tmp_path)
    name = generate.fuzz_name(case[0], case[1])
    assert text == golden(f"{name}.txt")
    assert json_text == golden(f"{name}.json")


def test_realizations_and_analyze_reports_match_golden(tmp_path):
    names = []
    for name, arr in generate.realizations():
        names.append(name)
        text = format_arrangement(arr)
        assert text == golden(f"realize-{name}.arr"), name
        if name in generate.ANALYZED:
            path = tmp_path / f"{name}.arr"
            path.write_text(text, encoding="ascii")
            assert generate.analyze_output(path) == golden(f"analyze-{name}.txt"), name
    assert len(names) == len(generate.VARIANTS) * (len(generate.NOMENCLATURES) + len(generate.CYCLES))


def test_drawings_match_golden():
    drawn = dict(generate.drawings())
    assert len(drawn) == len(generate.SVG_CASES)
    for name, text in drawn.items():
        assert text == golden(name), name
