"""Deterministic SVG rendering of arrangements.

The drawing is computed entirely in exact rationals and serialized with a
fixed-precision integer formatter, so the same arrangement always produces
byte-identical output.  One stroked segment per line, clipped to the vertex
bounding box plus padding; ids as labels; oracle triangles optionally shaded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arrangement import Arrangement, _homogeneous_vertices, triangle_faces_oracle
from .geometry import ArrangementError, Line, Point

_WIDTH = Fraction(800)
_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")


@dataclass(frozen=True)
class RenderSpec:
    path: str
    padding: Fraction = Fraction(1)
    labels: bool = True
    shade: bool = True

    def __post_init__(self):
        if self.padding < 0:
            raise ArrangementError("bad-token", f"padding must be >= 0, got {self.padding}")


def _fmt(q: Fraction) -> str:
    """Fixed three decimals, rounded half away from zero, via integers only."""
    num, den = q.numerator, q.denominator
    neg = num < 0
    quot, rem = divmod(abs(num) * 1000, den)
    if 2 * rem >= den:
        quot += 1
    text = f"{quot // 1000}.{quot % 1000:03d}"
    return "-" + text if neg and quot else text


def _clip(ln: Line, x0, x1, y0, y1):
    """The segment of a line inside the box, as (entry, exit) along its
    orientation; None if the box is missed (possible only with padding 0)."""
    pts = set()
    for yy in (y0, y1):
        x = Fraction(ln.c - ln.b * yy, ln.a)
        if x0 <= x <= x1:
            pts.add((x, yy))
    if ln.b != 0:
        for xx in (x0, x1):
            y = Fraction(ln.c - ln.a * xx, ln.b)
            if y0 <= y <= y1:
                pts.add((xx, y))
    if len(pts) < 2:
        return None
    dx, dy = ln.direction
    ordered = sorted(pts, key=lambda p: dx * p[0] + dy * p[1])
    return ordered[0], ordered[-1]


def svg_text(arr: Arrangement, spec: RenderSpec) -> str:
    homog = _homogeneous_vertices(arr.lines)
    vertex = {k: Point(Fraction(x, w), Fraction(y, w)) for k, (x, y, w) in homog.items()}
    vs = list(vertex.values())
    x0 = min(v.x for v in vs) - spec.padding
    x1 = max(v.x for v in vs) + spec.padding
    y0 = min(v.y for v in vs) - spec.padding
    y1 = max(v.y for v in vs) + spec.padding
    if x1 == x0:
        x0, x1 = x0 - 1, x1 + 1
    if y1 == y0:
        y0, y1 = y0 - 1, y1 + 1
    scale = _WIDTH / (x1 - x0)
    height = (y1 - y0) * scale

    def sx(x: Fraction) -> str:
        return _fmt((x - x0) * scale)

    def sy(y: Fraction) -> str:
        return _fmt((y1 - y) * scale)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_WIDTH)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(_WIDTH)} {_fmt(height)}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    if spec.shade:
        for idx, tri in enumerate(sorted(triangle_faces_oracle(arr)) if arr.n >= 3 else []):
            i, j, k = tri
            pts = (vertex[(i, j)], vertex[(j, k)], vertex[(i, k)])
            coords = " ".join(f"{sx(p.x)},{sy(p.y)}" for p in pts)
            colour = _PALETTE[idx % len(_PALETTE)]
            out.append(f'<polygon points="{coords}" fill="{colour}" fill-opacity="0.35"/>')
    for i, ln in enumerate(arr.lines, 1):
        seg = _clip(ln, x0, x1, y0, y1)
        if seg is None:
            continue
        (ax, ay), (bx, by) = seg
        out.append(
            f'<line x1="{sx(ax)}" y1="{sy(ay)}" x2="{sx(bx)}" y2="{sy(by)}" '
            'stroke="black" stroke-width="1.5"/>'
        )
        if spec.labels:
            out.append(
                f'<text x="{sx(bx)}" y="{sy(by)}" dx="-12" dy="14" '
                f'font-family="monospace" font-size="16">{i}</text>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_svg(arr: Arrangement, spec: RenderSpec) -> None:
    """Write the deterministic SVG for ``arr`` to ``spec.path``."""
    with open(spec.path, "w", encoding="ascii") as fh:
        fh.write(svg_text(arr, spec))
