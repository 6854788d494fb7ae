"""Command-line interface.

Exit codes: 0 success, 1 a queried property is false or a mismatch was
found, 2 invalid input or usage.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .arrangement import (
    corner_points,
    is_line_at_infinity_geom,
    triangle_equivalence_classes,
    triangle_faces_oracle,
)
from .cyclicity import _cycles, cycle_triangles, detect_gonality_cycle, parse_cycle, realize_cycle
from .fileio import load_arrangement, parse_rational, save_arrangement
from .fuzzing import FuzzConfig, fuzz_differential
from .geometry import ArrangementError
from .infinity import is_line_at_infinity_symbolic, nomenclature_triangles
from .nomenclature import (
    canonical_infinity_permutation,
    derive_nomenclature,
    format_nomenclature,
    parse_nomenclature,
    realize_nomenclature,
)
from .svg import RenderSpec, render_svg


def _triple_text(tri) -> str:
    return " ".join(str(x) for x in tri)


def _set_text(triangles) -> str:
    return "; ".join(_triple_text(t) for t in sorted(triangles)) or "-"


def _cmd_analyze(args) -> int:
    arr = load_arrangement(args.file)
    print(f"n={arr.n}")
    for i, ln in enumerate(arr.lines, 1):
        print(f"line {i}: {ln.a} {ln.b} {ln.c}")
    for i, row in enumerate(arr.order_rows, 1):
        print(f"order {i}: " + " ".join(str(j) for j in row))
    corners = " ".join("{%d,%d}" % p for p in sorted(corner_points(arr)))
    print(f"corner points: {corners or '-'}")

    nom = None
    if arr.n >= 3:
        perm = canonical_infinity_permutation(arr)
        if perm is not None:
            nom = derive_nomenclature(arr, perm)
            print(f"canonical nomenclature: {format_nomenclature(nom)}")
        else:
            print("canonical nomenclature: not infinity-type")
    else:
        print("canonical nomenclature: not applicable (n < 3)")

    cycle = detect_gonality_cycle(arr) if arr.n >= 3 else None
    print(f"gonality cycle: {cycle if cycle is not None else 'none'}")

    mismatch = False
    if arr.n >= 3:
        oracle = triangle_faces_oracle(arr)
        print(f"triangles[oracle]: {_set_text(oracle)}")
        if nom is not None:
            signs = nomenclature_triangles(nom)
            print(f"triangles[thmB]: {_set_text(signs)}")
            mismatch |= signs != oracle
        if cycle is not None and arr.n >= 4:
            listed = cycle_triangles(cycle)
            print(f"triangles[thmA]: {_set_text(listed)}")
            mismatch |= listed != oracle
        classes = triangle_equivalence_classes(oracle)
        print(
            "equivalence classes: "
            + (" ".join("[" + _set_text(c) + "]" for c in classes) or "-")
        )
    if mismatch:
        print("MISMATCH: triangle methods disagree")
        return 1
    return 0


def _cmd_triangles(args) -> int:
    if (args.file is None) == (args.nomenclature is None):
        print("error: give exactly one of <file> or --nomenclature", file=sys.stderr)
        return 2
    nom = parse_nomenclature(args.nomenclature) if args.nomenclature else None
    arr = None
    if args.file:
        arr = load_arrangement(args.file)

    if args.method == "thmB":
        if nom is None:
            perm = canonical_infinity_permutation(arr)
            if perm is None:
                print("not infinity-type", file=sys.stderr)
                return 1
            nom = derive_nomenclature(arr, perm)
        triangles = nomenclature_triangles(nom)
    elif args.method == "thmA":
        if arr is None:
            arr = realize_nomenclature(nom)
        cycle = detect_gonality_cycle(arr)
        if cycle is None:
            print("no gonality cycle", file=sys.stderr)
            return 1
        triangles = cycle_triangles(cycle)
    else:
        if arr is None:
            arr = realize_nomenclature(nom)
        triangles = triangle_faces_oracle(arr)
    for tri in sorted(triangles):
        print(_triple_text(tri))
    return 0


def _cmd_infinity_line(args) -> int:
    nom = parse_nomenclature(args.nomenclature)
    if not 1 <= args.line <= nom.n:
        print(f"error: no line {args.line} in the nomenclature", file=sys.stderr)
        return 2
    t = nom.position_of(args.line)
    if args.geometric:
        status = is_line_at_infinity_geom(realize_nomenclature(nom), args.line)
    else:
        status = is_line_at_infinity_symbolic(nom, t)
    print("true" if status else "false")
    return 0 if status else 1


def _cmd_realize(args) -> int:
    if (args.nomenclature is None) == (args.cycle is None):
        print("error: give exactly one of --nomenclature or --cycle", file=sys.stderr)
        return 2
    if args.nomenclature:
        arr = realize_nomenclature(parse_nomenclature(args.nomenclature))
    else:
        arr = realize_cycle(parse_cycle(args.cycle))
    save_arrangement(arr, args.output)
    return 0


def _cmd_census(args) -> int:
    count = sum(1 for _ in _cycles(args.n))  # counted, not kept
    formula = 2 ** (args.n - 1) - args.n
    print(f"valid cycles: {count} (formula 2^{{n-1}}-n = {formula})")
    return 0 if count == formula else 1


def _cmd_fuzz(args) -> int:
    cfg = FuzzConfig(
        seed=args.seed,
        trials=args.trials,
        n_min=args.n_min,
        n_max=args.n_max,
        family=args.family,
    )
    report = fuzz_differential(cfg)
    sys.stdout.write(report.to_text())
    if args.json:
        with open(args.json, "w", encoding="ascii") as fh:
            json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if report.failures == 0 else 1


def _cmd_render(args) -> int:
    padding = parse_rational(args.padding)
    if padding is None:
        raise ArrangementError(
            "bad-token", f"bad padding {args.padding[:40]!r}: need an integer or p/q"
        )
    arr = load_arrangement(args.file)
    spec = RenderSpec(
        path=args.output,
        padding=padding,
        labels=not args.no_labels,
        shade=not args.no_shade,
    )
    render_svg(arr, spec)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    :func:`cli_main` call; parsing leaves it unchanged.  ``set_defaults(fn=...)``
    binds the ``_cmd_*`` functions as they are at first use."""
    parser = argparse.ArgumentParser(
        prog="linearr",
        description="Exact analysis of line arrangements: triangles, "
        "nomenclatures, gonality cycles, differential fuzzing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report on an arrangement file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("triangles", help="triangle set by a chosen method")
    p.add_argument("file", nargs="?")
    p.add_argument("--nomenclature")
    p.add_argument("--method", required=True, choices=("oracle", "thmA", "thmB"))
    p.set_defaults(fn=_cmd_triangles)

    p = sub.add_parser("infinity-line", help="line-at-infinity status of one line")
    p.add_argument("--nomenclature", required=True)
    p.add_argument("--line", type=int, required=True)
    p.add_argument("--geometric", action="store_true", help="decide on the realization")
    p.set_defaults(fn=_cmd_infinity_line)

    p = sub.add_parser("realize", help="write an arrangement realizing the input")
    p.add_argument("--nomenclature")
    p.add_argument("--cycle")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_realize)

    p = sub.add_parser("census", help="count the valid gonality cycles")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(fn=_cmd_census)

    p = sub.add_parser("fuzz", help="run the differential fuzz harness")
    p.add_argument("--family", required=True, choices=("generic", "infinity", "cyclic"))
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--json", help="also write a machine-readable summary here")
    p.set_defaults(fn=_cmd_fuzz)

    p = sub.add_parser("render", help="render an arrangement file to SVG")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--padding", default="1", help='viewport padding, a non-negative integer or p/q like "3/2"')
    p.add_argument("--no-labels", action="store_true")
    p.add_argument("--no-shade", action="store_true")
    p.set_defaults(fn=_cmd_render)
    return parser


def cli_main(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ArrangementError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
