"""Exact-arithmetic analysis of line arrangements in the plane."""

from .arrangement import (
    Arrangement,
    Face,
    bounded_faces,
    build_arrangement,
    corner_points,
    is_isomorphic_trivial,
    is_line_at_infinity_geom,
    triangle_equivalence_classes,
    triangle_faces_oracle,
    triangles_from_faces,
)
from .cyclicity import (
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
from .fileio import (
    format_arrangement,
    load_arrangement,
    parse_arrangement,
    save_arrangement,
)
from .fuzzing import FuzzConfig, FuzzReport, SplitMix64, fuzz_differential
from .geometry import ArrangementError, Line, Point, Rat, cmp_angle, intersect, line, side
from .infinity import (
    is_line_at_infinity_symbolic,
    is_nomenclature_triangle,
    nomenclature_triangles,
)
from .nomenclature import (
    Nomenclature,
    canonical_infinity_permutation,
    derive_nomenclature,
    format_nomenclature,
    parse_nomenclature,
    realize_nomenclature,
    triangle_signs,
)
from .svg import RenderSpec, render_svg, svg_text

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
