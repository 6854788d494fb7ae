"""Write the golden output files that ``tests/test_golden.py`` compares against.

    PYTHONPATH=src python tests/golden/generate.py

Each case is a fixed input and the exact bytes the library produced for it:
fuzz reports (text and JSON, through the CLI), realized ``.arr`` files of
nomenclatures and gonality cycles in both ladder variants, the
``analyze`` report of some of those files, and two SVG drawings.  The
fuzz reports and the cycle files were written by the library before the
integer side-sign kernel replaced its ``Fraction`` predicates, so they pin
that change to byte-identical output.  The drawings were written while the
arrangement still held its ``Fraction`` vertex table, which moved into
``svg.py``.  The nomenclature realizations and their analyze
reports were rewritten when ``realize_nomenclature`` moved to integer
intercepts, which shortens the coefficients (the ``line k:`` lines) but
keeps every order, corner, triangle and class line.  Regenerate the files
only for a change that is meant to alter output.
"""

from __future__ import annotations

import contextlib
import io
import sys
from fractions import Fraction
from pathlib import Path

from linearr.arrangement import build_arrangement
from linearr.cli import cli_main
from linearr.cyclicity import parse_cycle, realize_cycle
from linearr.fileio import format_arrangement
from linearr.nomenclature import parse_nomenclature, realize_nomenclature
from linearr.svg import RenderSpec, svg_text

GOLDEN = Path(__file__).resolve().parent

# (family, seed, trials, n_min, n_max)
FUZZ_CASES = [
    ("generic", 7, 80, 3, 8),
    ("infinity", 7, 80, 3, 10),
    ("cyclic", 7, 80, 4, 12),
    ("generic", 1234, 12, 7, 9),
    ("infinity", 1234, 12, 11, 16),
    ("cyclic", 1234, 12, 13, 16),
]

NOMENCLATURES = [
    "9^+1 18^-1 21^+1 7^-1 5^-1 15^-1 16^-1 6^+1 3^+1 2^+1 17^+1 4^-1 8^-1 24^-1 "
    "11^-1 1^+1 13^-1 12^-1 23^+1 19^+1 20^-1 22^+1 10^+1 14^-1",
    "5^+1 24^+1 14^-1 15^-1 2^+1 4^-1 12^+1 23^-1 20^+1 11^-1 1^-1 3^+1 21^+1 19^+1 "
    "22^-1 17^+1 7^+1 10^-1 8^+1 16^-1 18^-1 13^+1 6^-1 9^+1",
    "20^+1 28^+1 22^-1 15^-1 35^-1 34^+1 37^+1 40^+1 3^+1 16^+1 36^+1 10^-1 5^-1 "
    "4^-1 23^+1 1^-1 30^-1 25^-1 12^+1 14^-1 38^-1 39^-1 24^-1 18^+1 26^-1 19^-1 "
    "8^-1 29^+1 31^-1 32^-1 21^+1 6^+1 33^+1 7^+1 27^+1 13^+1 17^+1 2^+1 11^-1 9^+1",
    "1^-1 10^-1 7^+1 17^+1 32^-1 14^-1 34^-1 39^-1 29^-1 25^+1 23^-1 27^+1 18^-1 "
    "4^-1 31^+1 37^-1 35^-1 20^+1 40^-1 9^-1 24^+1 16^+1 26^-1 36^+1 38^-1 5^-1 "
    "8^-1 22^-1 15^-1 13^+1 30^-1 28^+1 11^+1 33^+1 3^-1 19^-1 21^+1 6^-1 12^+1 2^+1",
]

CYCLES = [
    "(1 4 7 9 10 13 15 18 19 20 23 2 3 5 6 8 11 12 14 16 17 21 22 24)",
    "(1 3 8 9 12 13 15 16 19 22 2 4 5 6 7 10 11 14 17 18 20 21 23 24)",
    "(1 2 4 5 6 16 18 19 20 21 22 24 25 26 27 29 30 31 33 34 38 39 3 7 8 9 10 11 "
    "12 13 14 15 17 23 28 32 35 36 37 40)",
    "(1 2 3 4 6 9 10 11 12 16 18 22 26 27 29 32 33 35 36 37 39 5 7 8 13 14 15 17 "
    "19 20 21 23 24 25 28 30 31 34 38 40)",
]

VARIANTS = (0, 1)
ANALYZED = ("nomenclature-0-v0", "nomenclature-1-v0", "cycle-0-v0", "cycle-1-v0")

# a translated three-line input with wide padding, and a shaded realization
SVG_CASES = [
    ("three", lambda: build_arrangement([(1, -1, 0), (1, 0, 1), (1, 1, 3)]), Fraction(3, 2)),
    ("seven", lambda: realize_nomenclature(parse_nomenclature(
        "1^+1 2^-1 3^+1 7^+1 6^+1 4^-1 5^+1")), Fraction(1)),
]


def fuzz_name(family: str, seed: int) -> str:
    return f"fuzz-{family}-seed{seed}"


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


def fuzz_outputs(case, workdir: Path) -> tuple[str, str]:
    """Report text and JSON file text of one fuzz case, through the CLI."""
    family, seed, trials, n_min, n_max = case
    json_path = workdir / f"{fuzz_name(family, seed)}.json"
    code, text = run_cli([
        "fuzz", "--family", family, "--trials", str(trials), "--n-min", str(n_min),
        "--n-max", str(n_max), "--seed", str(seed), "--json", str(json_path),
    ])
    if code != 0:
        raise RuntimeError(f"fuzz case {case} failed:\n{text}")
    return text, json_path.read_text(encoding="ascii")


def realizations():
    """(name, realized arrangement) for every encoding and ladder variant."""
    for kind, texts, parse, realize in (
        ("nomenclature", NOMENCLATURES, parse_nomenclature, realize_nomenclature),
        ("cycle", CYCLES, parse_cycle, realize_cycle),
    ):
        for k, text in enumerate(texts):
            for variant in VARIANTS:
                yield f"{kind}-{k}-v{variant}", realize(parse(text), variant)


def analyze_output(arr_path: Path) -> str:
    code, text = run_cli(["analyze", str(arr_path)])
    if code != 0:
        raise RuntimeError(f"analyze of {arr_path} exited {code}")
    return text


def drawings():
    """(file name, SVG text) of every drawing case."""
    for name, make, padding in SVG_CASES:
        yield f"svg-{name}.svg", svg_text(make(), RenderSpec(path="unused.svg", padding=padding))


def main() -> int:
    for case in FUZZ_CASES:
        text, json_text = fuzz_outputs(case, GOLDEN)
        (GOLDEN / f"{fuzz_name(case[0], case[1])}.txt").write_text(text, encoding="ascii")
        print(f"wrote {fuzz_name(case[0], case[1])}.txt/.json ({len(json_text)} bytes json)")
    for name, arr in realizations():
        path = GOLDEN / f"realize-{name}.arr"
        path.write_text(format_arrangement(arr), encoding="ascii")
        if name in ANALYZED:
            (GOLDEN / f"analyze-{name}.txt").write_text(analyze_output(path), encoding="ascii")
        print(f"wrote realize-{name}.arr")
    for name, text in drawings():
        (GOLDEN / name).write_text(text, encoding="ascii")
        print(f"wrote {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
