"""Deterministic generators and the differential fuzz harness.

Randomness comes from SplitMix64, chosen because it is a tiny integer-only
algorithm that any implementation on any platform reproduces bit for bit:

    state += 0x9E3779B97F4A7C15                       (mod 2^64)
    z = state; z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 (mod 2^64)
    z = (z ^ z >> 27) * 0x94D049BB133111EB            (mod 2^64)
    value = z ^ z >> 31

Bounded draws are ``value % k`` (the modulo bias is irrelevant here and the
rule is trivial to mirror); shuffles are Fisher-Yates from the top index
down; a wider mask takes one value per 64 bits, lowest bits first, so a
cycle on n labels reads one value per 64 labels.  Per-trial seeds are
derived, never shared, so trials are independent and could run concurrently;
the report only depends on the configuration.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property, partial
from itertools import combinations
from typing import Callable

from . import fileio
from .arrangement import (
    Arrangement,
    TriangleSet,
    build_arrangement,
    bounded_faces,
    corner_points,
    corner_points_quadrant,
    is_isomorphic_trivial,
    is_line_at_infinity_geom,
    triangle_equivalence_classes,
    triangle_faces_oracle,
    triangles_from_faces,
)
from .cyclicity import (
    GonalityCycle,
    _deal,
    cycle_triangles,
    detect_gonality_cycle,
    parse_cycle,
    realize_cycle,
    validate_cycle,
)
# side is not used here; perfbench's tracer test looks it up in this module.
from .geometry import ArrangementError, Line, line, meet, side  # noqa: F401
from .infinity import is_line_at_infinity_symbolic, nomenclature_triangles
from .nomenclature import (
    Nomenclature,
    canonical_infinity_permutation,
    derive_nomenclature,
    format_nomenclature,
    parse_nomenclature,
    realize_nomenclature,
)

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BOX = 32  # gen_generic's coefficient box: a in 1.._BOX, b and c in -_BOX.._BOX

FAMILIES = ("generic", "infinity", "cyclic")


class SplitMix64:
    """The SplitMix64 generator; see the module docstring for the algorithm."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, k: int) -> int:
        """Uniform-enough integer in [0, k)."""
        return self.next_u64() % k

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def sign(self) -> int:
        return 1 if self.below(2) == 0 else -1

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def derive_seed(seed: int, index: int) -> int:
    """Independent child seed for trial ``index``."""
    return SplitMix64(seed ^ ((index + 1) * _GOLDEN)).next_u64()


def gen_infinity_type(n: int, seed: int) -> tuple[Nomenclature, Arrangement]:
    """A uniformly drawn well-formed nomenclature and its realization."""
    if n < 3:
        raise ArrangementError("n-out-of-range", "infinity family needs n >= 3")
    rng = SplitMix64(seed)
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    i, j, k = sorted(labels[:3])
    pattern = {i: 1, j: -1, k: 1} if rng.below(2) == 0 else {i: -1, j: 1, k: -1}
    signs = [pattern[x] for x in labels[:3]] + [rng.sign() for _ in range(n - 3)]
    nom = Nomenclature(tuple(labels), tuple(signs))
    return nom, realize_nomenclature(nom)


def gen_cyclic(n: int, seed: int) -> tuple[GonalityCycle, Arrangement]:
    """A uniformly drawn gonality cycle and its realization.

    Bit x - 2 of a random mask deals label x to the first run; the mask takes
    one ``next_u64()`` word per 64 labels, lowest labels first, so word k
    deals labels 64k + 2 .. 64k + 65.  The n deals whose first run is {1..k}
    are no cycles and are drawn again, so every one of the 2^(n-1) - n cycles
    is equally likely.
    """
    if n < 4:
        raise ArrangementError("n-out-of-range", "cyclic family needs n >= 4")
    rng = SplitMix64(seed)
    while True:
        first = sum(rng.next_u64() << 64 * k for k in range((n + 62) // 64))
        cycle = _deal(n, (~first << 2) & ((2 << n) - 4))  # labels 2..n not first
        if cycle is not None:
            return cycle, realize_cycle(cycle)


def gen_generic(n: int, seed: int) -> Arrangement:
    """Random rational lines in a coefficient box, rejection-sampled into
    general position (the negative-control family)."""
    if n < 3:
        raise ArrangementError("n-out-of-range", "generic family needs n >= 3")
    rng = SplitMix64(seed)
    lines: list[Line] = []
    verts = []  # meet() of every pair of accepted lines
    while len(lines) < n:
        a = 1 + rng.below(_BOX)
        b = rng.below(2 * _BOX + 1) - _BOX
        c = rng.below(2 * _BOX + 1) - _BOX
        cand = line(a, b, c)
        if any(cand.a * ln.b == ln.a * cand.b for ln in lines):
            continue
        if any(cand.a * x + cand.b * y == cand.c * w for x, y, w in verts):
            continue
        verts.extend(meet(cand, ln) for ln in lines)
        lines.append(cand)
    return build_arrangement(lines)


@dataclass(frozen=True)
class FuzzConfig:
    seed: int
    trials: int
    n_min: int
    n_max: int
    family: str

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ArrangementError("bad-token", f"unknown family {self.family!r}")
        lo = 4 if self.family == "cyclic" else 3
        if not (lo <= self.n_min <= self.n_max):
            raise ArrangementError(
                "n-out-of-range", f"{self.family} family needs {lo} <= n_min <= n_max"
            )
        if self.trials < 0:
            raise ArrangementError("bad-token", "trials must be >= 0")


@dataclass
class Counterexample:
    """A failed check and what replays it; the JSON form is ``asdict``."""

    check: str
    trial: int
    n: int
    seed: int
    detail: str
    arrangement_text: str
    witness: str  # nomenclature or cycle text, "" when the case has no encoding
    family: str

    def lines(self) -> list[str]:
        out = [
            f"counterexample: check={self.check} trial={self.trial} n={self.n} seed={self.seed}",
            f"  witness: {self.witness or '-'}",
            f"  detail: {self.detail}",
        ]
        out += ["  " + ln for ln in self.arrangement_text.rstrip("\n").split("\n")]
        return out


@dataclass
class FuzzReport:
    config: FuzzConfig
    trials_run: int = 0
    checks: dict = field(default_factory=dict)  # name -> [pass, fail]
    note_violations: int = 0
    stability_violations: int = 0
    iso_reading_disagreements: int = 0
    non_infinity_count: int = 0
    counterexample: Counterexample | None = None

    def record(self, name: str, ok: bool, ce=None):
        """Count a check result; ``ce`` (a Counterexample or a zero-argument
        factory for one) is only materialized on the first failure."""
        slot = self.checks.setdefault(name, [0, 0])
        slot[0 if ok else 1] += 1
        if not ok and self.counterexample is None and ce is not None:
            self.counterexample = ce() if callable(ce) else ce

    @property
    def failures(self) -> int:
        return sum(f for _, f in self.checks.values())

    def to_text(self) -> str:
        cfg = self.config
        out = [
            f"fuzz family={cfg.family} trials={cfg.trials} "
            f"n=[{cfg.n_min},{cfg.n_max}] seed={cfg.seed}",
            f"trials run: {self.trials_run}",
        ]
        for name in sorted(self.checks):
            p, f = self.checks[name]
            out.append(f"check {name}: pass={p} fail={f}")
        out.append(f"note-violations: {self.note_violations}")
        out.append(f"stability-violations: {self.stability_violations}")
        out.append(f"iso-reading-disagreements: {self.iso_reading_disagreements}")
        if cfg.family == "generic":
            out.append(f"not-infinity-type: {self.non_infinity_count}")
        if self.counterexample is None:
            out.append("counterexample: none")
        else:
            out.extend(self.counterexample.lines())
        out.append("result: " + ("OK" if self.failures == 0 else "FAIL"))
        return "\n".join(out) + "\n"

    def to_json_dict(self) -> dict:
        cfg = self.config
        return {
            "family": cfg.family,
            "trials": cfg.trials,
            "n_min": cfg.n_min,
            "n_max": cfg.n_max,
            "seed": cfg.seed,
            "trials_run": self.trials_run,
            "checks": {k: {"pass": v[0], "fail": v[1]} for k, v in sorted(self.checks.items())},
            "note_violations": self.note_violations,
            "stability_violations": self.stability_violations,
            "iso_reading_disagreements": self.iso_reading_disagreements,
            "non_infinity_type": self.non_infinity_count,
            "failures": self.failures,
            "counterexample": None if self.counterexample is None else asdict(self.counterexample),
        }


# Alternate characterizations that exist only as fuzz oracles.


def at_infinity_in_subset(arr: Arrangement, m: int, subset) -> bool:
    """Is line m at infinity w.r.t. the sub-arrangement on ``subset`` ids?

    True iff all vertices of subset \\ {m} share one strict side of line m.
    Side signs are translation invariant, so the check needs no re-embedding
    of the sub-arrangement.  Vacuously true when fewer than two other lines
    remain.
    """
    pairs = combinations([i for i in subset if i != m], 2)
    signs = (arr.side_at(m, i, j) for i, j in pairs)
    first = next(signs, None)
    return all(s == first for s in signs)


def find_infinity_permutation(arr: Arrangement):
    """Any infinity permutation found by backtracking over all at-infinity
    choices (largest ids first), or None if the arrangement is not infinity
    type.  Exists to cross-check the implementation of the greedy rule,
    which is complete: it finds an insertion order whenever one exists (see
    :func:`~linearr.nomenclature.canonical_infinity_permutation`)."""
    memo: dict[frozenset, tuple | None] = {}

    def solve(fs: frozenset):
        if len(fs) <= 2:
            return tuple(sorted(fs))
        if fs in memo:
            return memo[fs]
        res = None
        for m in sorted(fs, reverse=True):
            if at_infinity_in_subset(arr, m, fs):
                sub = solve(fs - {m})
                if sub is not None:
                    res = sub + (m,)
                    break
        memo[fs] = res
        return res

    return solve(frozenset(arr.ids))


def is_isomorphic_trivial_global(a1: Arrangement, a2: Arrangement) -> bool:
    """Stricter reading of :func:`is_isomorphic_trivial`: one orientation
    choice shared by all lines."""
    if a1.n != a2.n:
        return False
    return all(r1 == r2 for r1, r2 in zip(a1.order_rows, a2.order_rows)) or all(
        r1 == tuple(reversed(r2)) for r1, r2 in zip(a1.order_rows, a2.order_rows)
    )


def vertex_quadrant_empty(arr: Arrangement, i: int, j: int) -> bool:
    """Is some quadrant around the vertex of i and j free of all other vertices?"""
    bits = arr._side_bits  # the quadrant of V_pq is (bit i, bit j) of its bits
    others = [x for x in arr.ids if x not in (i, j)]
    occupied = {(bits[v] >> i & 1, bits[v] >> j & 1) for v in combinations(others, 2)}
    return len(occupied) < 4


def check_corner_quadrants(arr: Arrangement) -> bool:
    """Order-table corners versus the missed-quadrant characterization, plus
    the empty-quadrant consequence at every corner."""
    direct = corner_points(arr)
    if direct != corner_points_quadrant(arr):
        return False
    return all(vertex_quadrant_empty(arr, i, j) for i, j in direct)


def check_triangle_opposite_orders(nom: Nomenclature, arr: Arrangement, oracle) -> bool:
    """For every oracle triangle beyond the base one: on both of its first
    two lines (in insertion order), the crossing with the third lies on the
    opposite side of their shared vertex from the crossings with every line
    inserted between the second and the third.  Sides are read off the
    ranks of the crossings in the order rows, which run along each line's
    conventional direction."""
    pos = {lab: p for p, lab in enumerate(nom.labels, 1)}
    ranks = [{lab: r for r, lab in enumerate(row)} for row in arr.order_rows]
    for tri in oracle:
        i, j, k = sorted((pos[x] for x in tri))
        if k <= 3:
            continue
        li, lj, lk = nom.label_at(i), nom.label_at(j), nom.label_at(k)
        for base, other in ((li, lj), (lj, li)):
            rank = ranks[base - 1]
            centre = rank[other]
            far = rank[lk] > centre
            for l in range(j + 1, k):
                if (rank[nom.label_at(l)] > centre) == far:
                    return False
    return True


def check_ngon_face_structure(arr: Arrangement, cycle: GonalityCycle) -> bool:
    """Every bounded face is the n-gon, a quadrilateral, or a triangle
    sharing an edge with the n-gon."""
    faces = bounded_faces(arr)
    ngons = [f for f in faces if len(f) == arr.n]
    if len(ngons) != 1:
        return False
    ngon_segments = ngons[0].segments
    for f in faces:
        if len(f) == arr.n or len(f) == 4:
            continue
        if len(f) != 3 or not (f.segments & ngon_segments):
            return False
    return True


def check_juxtaposed_sides(cycle: GonalityCycle, oracle) -> bool:
    """A circular boundary triple (a, b, c) bounds a triangle iff
    a > c > b or b > a > c or c > b > a."""
    seq = cycle.seq
    n = len(seq)
    for k in range(n):
        a, b, c = seq[k], seq[(k + 1) % n], seq[(k + 2) % n]
        want = (a > c > b) or (b > a > c) or (c > b > a)
        if (tuple(sorted((a, b, c))) in oracle) != want:
            return False
    return True


def check_face_census(arr: Arrangement) -> bool:
    """A simple arrangement of n lines has exactly (n-1)(n-2)/2 bounded faces."""
    return len(bounded_faces(arr)) == (arr.n - 1) * (arr.n - 2) // 2


class Case:
    """An arrangement and its encoding: the nomenclature or cycle it
    realizes, the nomenclature derived from a generic sample, or None.

    The oracle is computed at most once per case; the faces and the
    at-infinity table are already cached on the arrangement.
    """

    def __init__(self, arr: Arrangement, encoding: Nomenclature | GonalityCycle | None):
        self.arr = arr
        self.encoding = encoding

    @cached_property
    def oracle(self) -> TriangleSet:
        return triangle_faces_oracle(self.arr)


def _infinity_mismatch(case: Case) -> int:
    """The first position whose symbolic at-infinity status differs from
    the geometric one, or 0."""
    arr, nom = case.arr, case.encoding
    for t in range(1, nom.n + 1):
        if is_line_at_infinity_symbolic(nom, t) != is_line_at_infinity_geom(arr, nom.label_at(t)):
            return t
    return 0


def _duality_mismatch(case: Case) -> int:
    """The first position whose line is at infinity in exactly one of the
    arrangement and the realization of the negated nomenclature, or 0."""
    arr, nom = case.arr, case.encoding
    negated = realize_nomenclature(nom.negated())
    for t in range(1, nom.n + 1):
        label = nom.label_at(t)
        if is_line_at_infinity_geom(arr, label) != is_line_at_infinity_geom(negated, label):
            return t
    return 0


def _derived(case: Case) -> Nomenclature | None:
    """The nomenclature of the arrangement along the encoding's labels, or
    None when they are not an insertion order of the arrangement."""
    try:
        return derive_nomenclature(case.arr, case.encoding.labels)
    except ArrangementError as exc:
        if exc.code != "not-an-infinity-permutation":
            raise
        return None


@dataclass(frozen=True)
class Check:
    """One differential check: ``holds(case)`` is its verdict and
    ``detail(case)`` explains a failure.  A check that reads the encoding is
    skipped on a case without one."""

    name: str
    families: tuple[str, ...]
    holds: Callable[[Case], bool]
    detail: Callable[[Case], str]
    reads_encoding: bool = False


# Table order is the order a trial runs its checks, so of several checks
# failing in one trial the first listed keeps the counterexample.  The
# entries call the library through this module's globals, where the
# benchmark's tracer rebinds them.
_INF, _CYC, _NOM = ("infinity",), ("cyclic",), ("infinity", "generic")

CHECKS = {check.name: check for check in (
    Check("derive_realize_roundtrip", _INF,
          lambda c: _derived(c) == c.encoding,
          lambda c: "labels are not an insertion order of the arrangement"
          if _derived(c) is None else "derived " + format_nomenclature(_derived(c)),
          reads_encoding=True),
    Check("sign_rule_vs_oracle", _NOM,
          lambda c: nomenclature_triangles(c.encoding) == c.oracle,
          lambda c: f"signs {sorted(nomenclature_triangles(c.encoding))} vs oracle "
          f"{sorted(c.oracle)}",
          reads_encoding=True),
    Check("cycle_rule_vs_oracle", _CYC,
          lambda c: cycle_triangles(c.encoding) == c.oracle,
          lambda c: f"listed {sorted(cycle_triangles(c.encoding))} vs oracle "
          f"{sorted(c.oracle)}",
          reads_encoding=True),
    Check("detect_realize_roundtrip", _CYC,
          lambda c: detect_gonality_cycle(c.arr) == c.encoding,
          lambda c: "detected a different cycle", reads_encoding=True),
    Check("class_count_at_most_2", _CYC,
          lambda c: len(triangle_equivalence_classes(c.oracle)) <= 2,
          lambda c: f"{len(triangle_equivalence_classes(c.oracle))} classes"),
    Check("ngon_face_structure", _CYC,
          lambda c: check_ngon_face_structure(c.arr, c.encoding),
          lambda c: "face other than n-gon/quad/adjacent triangle"),
    Check("juxtaposed_sides", _CYC,
          lambda c: check_juxtaposed_sides(c.encoding, c.oracle),
          lambda c: "boundary triple criterion disagrees with oracle", reads_encoding=True),
    Check("faces_vs_oracle", FAMILIES,
          lambda c: triangles_from_faces(c.arr) == c.oracle,
          lambda c: "face walk and side oracle disagree"),
    Check("face_census", FAMILIES,
          lambda c: check_face_census(c.arr), lambda c: "bounded face count off"),
    Check("infinity_line_sym_vs_geom", _NOM,
          lambda c: not _infinity_mismatch(c),
          lambda c: f"disagreement at position {_infinity_mismatch(c)}", reads_encoding=True),
    Check("negation_duality_geom", _INF,
          lambda c: not _duality_mismatch(c),
          lambda c: f"status differs at position {_duality_mismatch(c)}", reads_encoding=True),
    Check("corner_quadrant_agreement", FAMILIES,
          lambda c: check_corner_quadrants(c.arr),
          lambda c: "corner characterizations disagree"),
    Check("triangle_opposite_orders", _INF,
          lambda c: check_triangle_opposite_orders(c.encoding, c.arr, c.oracle),
          lambda c: "crossing orders not opposite", reads_encoding=True),
)}

_FAMILY_CHECKS = {
    family: tuple(check for check in CHECKS.values() if family in check.families)
    for family in FAMILIES
}


def _one_smaller(encoding: Nomenclature | GonalityCycle):
    """Every valid encoding with one label dropped and the larger labels
    shifted down, largest dropped label first; label 1 of a cycle stays."""
    if isinstance(encoding, Nomenclature):
        for drop in range(encoding.n, 0, -1):
            labels = tuple(x - (x > drop) for x in encoding.labels if x != drop)
            signs = tuple(s for x, s in zip(encoding.labels, encoding.signs) if x != drop)
            try:
                smaller = Nomenclature(labels, signs)
            except ArrangementError:
                continue
            yield smaller
    else:
        for drop in range(encoding.n, 1, -1):
            smaller = validate_cycle(x - (x > drop) for x in encoding.seq if x != drop)
            if smaller is not None:
                yield smaller


def _minimize(encoding, fails):
    """Greedy one-label-at-a-time deletion while ``fails`` holds, down to
    3 lines for a nomenclature and 4 for a cycle."""
    floor = 3 if isinstance(encoding, Nomenclature) else 4
    current = encoding
    while current.n > floor:
        smaller = next((c for c in _one_smaller(current) if fails(c)), None)
        if smaller is None:
            break
        current = smaller
    return current


def _counterexample(check: Check, family: str, trial: int, seed: int, case: Case):
    """The counterexample of a failed check.  An infinity or cyclic case is
    first shrunk while the check fails on the realization of the smaller
    encoding; a candidate that cannot be realized does not fail."""
    if family != "generic":
        realize = realize_nomenclature if family == "infinity" else realize_cycle

        def fails(candidate) -> bool:
            try:
                return not check.holds(Case(realize(candidate), candidate))
            except ArrangementError:
                return False

        small = _minimize(case.encoding, fails)
        if small is not case.encoding:
            case = Case(realize(small), small)
    witness = "" if case.encoding is None else str(case.encoding)
    return Counterexample(
        check.name, trial, case.arr.n, seed, check.detail(case),
        fileio.format_arrangement(case.arr), witness, family,
    )


def _generate(family: str, n: int, seed: int) -> Case:
    """The case of one trial; a generic sample's encoding is the nomenclature
    of the first infinity permutation backtracking finds, if any."""
    if family == "generic":
        arr = gen_generic(n, seed)
        perm = find_infinity_permutation(arr)
        return Case(arr, None if perm is None else derive_nomenclature(arr, perm))
    generate = gen_infinity_type if family == "infinity" else gen_cyclic
    encoding, arr = generate(n, seed)
    return Case(arr, encoding)


def _trial(report: FuzzReport, family: str, trial: int, n: int, seed: int):
    """Run the family's checks on one case in table order, then its
    counters: note violations (the greedy rule finds no insertion order
    where backtracking does), stability of the realization across ladder
    variants, and the two readings of trivial isomorphism."""
    case = _generate(family, n, seed)
    arr, encoding = case.arr, case.encoding
    for check in _FAMILY_CHECKS[family]:
        if check.reads_encoding and encoding is None:
            continue
        ok = check.holds(case)
        report.record(
            check.name, ok, None if ok else partial(_counterexample, check, family, trial, seed, case)
        )

    if family == "generic":
        if encoding is None:
            report.non_infinity_count += 1
        elif canonical_infinity_permutation(arr) is None:
            report.note_violations += 1
        return
    if family == "infinity" and canonical_infinity_permutation(arr) is None:
        report.note_violations += find_infinity_permutation(arr) is not None
    realize = realize_nomenclature if family == "infinity" else realize_cycle
    other = realize(encoding, variant=1)
    stable = is_isomorphic_trivial(arr, other)
    if not stable:
        report.stability_violations += 1
    if stable != is_isomorphic_trivial_global(arr, other):
        report.iso_reading_disagreements += 1


def fuzz_differential(cfg: FuzzConfig) -> FuzzReport:
    """Run every applicable differential check on ``cfg.trials`` generated
    instances.  Failures are recorded, never raised; the first one is kept as
    a self-contained counterexample."""
    report = FuzzReport(cfg)
    for trial in range(cfg.trials):
        seed = derive_seed(cfg.seed, trial)
        n = cfg.n_min + SplitMix64(seed).below(cfg.n_max - cfg.n_min + 1)
        trial_seed = derive_seed(seed, 1)
        try:
            _trial(report, cfg.family, trial, n, trial_seed)
        except Exception as exc:  # a trial must never abort the harness
            detail = f"{type(exc).__name__}: {exc}"
            report.record("trial-exception", False, Counterexample(
                "trial-exception", trial, n, trial_seed, detail, "", "", cfg.family))
        report.trials_run += 1
    return report


def rerun_counterexample(ce: Counterexample) -> bool:
    """Re-evaluate a recorded counterexample from its serialized form.

    Returns True when the failure reproduces.  The arrangement is reloaded
    from its file text and the witness reparsed as the encoding of
    ``ce.family``, so the check runs on freshly built objects.  A trial
    exception reruns the whole trial from its seed.  An unknown family or
    check, a check that does not run on the family, and an encoding-reading
    check without a witness raise ``bad-token``.
    """
    if ce.family not in FAMILIES:
        raise ArrangementError("bad-token", f"unknown family {ce.family!r}")
    if ce.check == "trial-exception":
        probe = FuzzReport(FuzzConfig(ce.seed, 0, ce.n, ce.n, ce.family))
        try:
            _trial(probe, ce.family, ce.trial, ce.n, ce.seed)
        except Exception:
            return True
        return probe.failures > 0
    check = CHECKS.get(ce.check)
    if check is None:
        raise ArrangementError("bad-token", f"unknown check {ce.check!r}")
    if ce.family not in check.families:
        raise ArrangementError("bad-token", f"check {ce.check} does not run on family {ce.family}")
    if check.reads_encoding and not ce.witness:
        raise ArrangementError("bad-token", f"check {ce.check} needs a witness")
    parse = parse_cycle if ce.family == "cyclic" else parse_nomenclature
    encoding = parse(ce.witness) if ce.witness else None
    return not check.holds(Case(fileio.parse_arrangement(ce.arrangement_text), encoding))
