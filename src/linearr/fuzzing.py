"""Deterministic generators and the differential fuzz harness.

Randomness comes from SplitMix64, chosen because it is a tiny integer-only
algorithm that any implementation on any platform reproduces bit for bit:

    state += 0x9E3779B97F4A7C15                       (mod 2^64)
    z = state; z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 (mod 2^64)
    z = (z ^ z >> 27) * 0x94D049BB133111EB            (mod 2^64)
    value = z ^ z >> 31

Bounded draws are ``value % k`` (the modulo bias is irrelevant here and the
rule is trivial to mirror); shuffles are Fisher-Yates from the top index
down.  Per-trial seeds are derived, never shared, so trials are independent
and could run concurrently; the report only depends on the configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import fileio
from .arrangement import (
    Arrangement,
    build_arrangement,
    bounded_faces,
    corner_points,
    corner_points_quadrant,
    is_isomorphic_trivial,
    is_isomorphic_trivial_global,
    is_line_at_infinity_geom,
    triangle_equivalence_classes,
    triangle_faces_oracle,
    triangles_from_faces,
    vertex_quadrant_empty,
)
from .cyclicity import (
    GonalityCycle,
    _unrank_cycle,
    cycle_triangles,
    detect_gonality_cycle,
    format_cycle,
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
    find_infinity_permutation,
    format_nomenclature,
    realize_nomenclature,
)

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

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
    """A uniformly drawn gonality cycle and its realization."""
    if n < 4:
        raise ArrangementError("n-out-of-range", "cyclic family needs n >= 4")
    rng = SplitMix64(seed)
    if n <= 20:
        cycle = _unrank_cycle(n, rng.below(2 ** (n - 1) - n))
    else:
        while True:  # rejection on the first-run subset; almost always accepts
            mask = rng.next_u64()
            first = [1] + [x for x in range(2, n + 1) if mask >> (x - 2) & 1]
            second = [x for x in range(2, n + 1) if not mask >> (x - 2) & 1]
            cycle = validate_cycle(tuple(first + second))
            if cycle is not None:
                break
    return cycle, realize_cycle(cycle)


def gen_generic(n: int, seed: int, box: int = 32) -> Arrangement:
    """Random rational lines in a coefficient box, rejection-sampled into
    general position (the negative-control family)."""
    if n < 3:
        raise ArrangementError("n-out-of-range", "generic family needs n >= 3")
    rng = SplitMix64(seed)
    lines: list[Line] = []
    verts = []  # meet() of every pair of accepted lines
    while len(lines) < n:
        a = 1 + rng.below(box)
        b = rng.below(2 * box + 1) - box
        c = rng.below(2 * box + 1) - box
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
    check: str
    trial: int
    n: int
    seed: int
    detail: str
    arrangement_text: str
    witness: str  # nomenclature or cycle text, "" for plain arrangements

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
            "counterexample": None
            if self.counterexample is None
            else {
                "check": self.counterexample.check,
                "trial": self.counterexample.trial,
                "n": self.counterexample.n,
                "seed": self.counterexample.seed,
                "detail": self.counterexample.detail,
                "witness": self.counterexample.witness,
                "arrangement": self.counterexample.arrangement_text,
            },
        }


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


def _arr_text(arr: Arrangement) -> str:
    return fileio.format_arrangement(arr)


def _minimize_nomenclature(nom: Nomenclature, fails) -> Nomenclature:
    """Greedy one-label-at-a-time deletion while the failure persists."""
    current = nom
    improved = True
    while improved and current.n > 3:
        improved = False
        for drop in sorted(current.labels, reverse=True):
            labels = [x - (x > drop) for x in current.labels if x != drop]
            signs = [s for x, s in zip(current.labels, current.signs) if x != drop]
            try:
                smaller = Nomenclature(tuple(labels), tuple(signs))
            except ArrangementError:
                continue
            if fails(smaller):
                current = smaller
                improved = True
                break
    return current


def _minimize_cycle(cycle: GonalityCycle, fails) -> GonalityCycle:
    current = cycle
    improved = True
    while improved and current.n > 4:
        improved = False
        for drop in sorted(current.seq, reverse=True):
            if drop == 1:
                continue
            seq = tuple(x - (x > drop) for x in current.seq if x != drop)
            smaller = validate_cycle(seq)
            if smaller is not None and fails(smaller):
                current = smaller
                improved = True
                break
    return current


def _infinity_trial(report: FuzzReport, trial: int, n: int, seed: int):
    nom, arr = gen_infinity_type(n, seed)

    def ce(check, detail, witness_nom=None, witness_arr=None):
        def build():
            wn = witness_nom if witness_nom is not None else nom
            wa = witness_arr if witness_arr is not None else arr
            return Counterexample(
                check, trial, wn.n, seed, detail,
                _arr_text(wa), format_nomenclature(wn),
            )

        return build

    derived = derive_nomenclature(arr, nom.labels)
    report.record(
        "derive_realize_roundtrip",
        derived == nom,
        ce("derive_realize_roundtrip", f"derived {format_nomenclature(derived)}"),
    )

    oracle = triangle_faces_oracle(arr)
    symbolic = nomenclature_triangles(nom)
    if symbolic != oracle:

        def tri_fails(candidate: Nomenclature) -> bool:
            try:
                a = realize_nomenclature(candidate)
            except ArrangementError:
                return False
            return nomenclature_triangles(candidate) != triangle_faces_oracle(a)

        small = _minimize_nomenclature(nom, tri_fails)
        sarr = realize_nomenclature(small)
        report.record(
            "sign_rule_vs_oracle",
            False,
            ce(
                "sign_rule_vs_oracle",
                f"signs {sorted(nomenclature_triangles(small))} vs oracle "
                f"{sorted(triangle_faces_oracle(sarr))}",
                small,
                sarr,
            ),
        )
    else:
        report.record("sign_rule_vs_oracle", True)

    report.record(
        "faces_vs_oracle",
        triangles_from_faces(arr) == oracle,
        ce("faces_vs_oracle", "face walk and side oracle disagree"),
    )
    report.record(
        "face_census", check_face_census(arr), ce("face_census", "bounded face count off")
    )

    neg = nom.negated()
    neg_arr = realize_nomenclature(neg)
    inf_ok = dual_ok = True
    bad_t = 0
    for t in range(1, n + 1):
        s = is_line_at_infinity_symbolic(nom, t)
        g = is_line_at_infinity_geom(arr, nom.label_at(t))
        if s != g:
            inf_ok, bad_t = False, t
            break
        if g != is_line_at_infinity_geom(neg_arr, nom.label_at(t)):
            dual_ok, bad_t = False, t
            break
    report.record(
        "infinity_line_sym_vs_geom",
        inf_ok,
        ce("infinity_line_sym_vs_geom", f"disagreement at position {bad_t}"),
    )
    report.record(
        "negation_duality_geom",
        dual_ok,
        ce("negation_duality_geom", f"status differs at position {bad_t}", neg, neg_arr),
    )

    report.record(
        "corner_quadrant_agreement",
        check_corner_quadrants(arr),
        ce("corner_quadrant_agreement", "corner characterizations disagree"),
    )
    report.record(
        "triangle_opposite_orders",
        check_triangle_opposite_orders(nom, arr, oracle),
        ce("triangle_opposite_orders", "crossing orders not opposite"),
    )

    if canonical_infinity_permutation(arr) is None:
        if find_infinity_permutation(arr) is not None:
            report.note_violations += 1
    other = realize_nomenclature(nom, variant=1)
    if not is_isomorphic_trivial(arr, other):
        report.stability_violations += 1
    if is_isomorphic_trivial(arr, other) != is_isomorphic_trivial_global(arr, other):
        report.iso_reading_disagreements += 1


def _cyclic_trial(report: FuzzReport, trial: int, n: int, seed: int):
    cycle, arr = gen_cyclic(n, seed)

    def ce(check, detail, witness_cycle=None, witness_arr=None):
        def build():
            wc = witness_cycle if witness_cycle is not None else cycle
            wa = witness_arr if witness_arr is not None else arr
            return Counterexample(
                check, trial, wc.n, seed, detail,
                _arr_text(wa), format_cycle(wc),
            )

        return build

    oracle = triangle_faces_oracle(arr)
    listed = cycle_triangles(cycle)
    if listed != oracle:

        def tri_fails(candidate: GonalityCycle) -> bool:
            try:
                a = realize_cycle(candidate)
            except ArrangementError:
                return False
            return cycle_triangles(candidate) != triangle_faces_oracle(a)

        small = _minimize_cycle(cycle, tri_fails)
        sarr = realize_cycle(small)
        report.record(
            "cycle_rule_vs_oracle",
            False,
            ce(
                "cycle_rule_vs_oracle",
                f"listed {sorted(cycle_triangles(small))} vs oracle "
                f"{sorted(triangle_faces_oracle(sarr))}",
                small,
                sarr,
            ),
        )
    else:
        report.record("cycle_rule_vs_oracle", True)

    report.record(
        "detect_realize_roundtrip",
        detect_gonality_cycle(arr) == cycle,
        ce("detect_realize_roundtrip", "detected a different cycle"),
    )
    report.record(
        "class_count_at_most_2",
        len(triangle_equivalence_classes(oracle)) <= 2,
        ce("class_count_at_most_2", f"{len(triangle_equivalence_classes(oracle))} classes"),
    )
    report.record(
        "ngon_face_structure",
        check_ngon_face_structure(arr, cycle),
        ce("ngon_face_structure", "face other than n-gon/quad/adjacent triangle"),
    )
    report.record(
        "juxtaposed_sides",
        check_juxtaposed_sides(cycle, oracle),
        ce("juxtaposed_sides", "boundary triple criterion disagrees with oracle"),
    )
    report.record(
        "faces_vs_oracle",
        triangles_from_faces(arr) == oracle,
        ce("faces_vs_oracle", "face walk and side oracle disagree"),
    )
    report.record(
        "face_census", check_face_census(arr), ce("face_census", "bounded face count off")
    )
    report.record(
        "corner_quadrant_agreement",
        check_corner_quadrants(arr),
        ce("corner_quadrant_agreement", "corner characterizations disagree"),
    )

    other = realize_cycle(cycle, variant=1)
    if not is_isomorphic_trivial(arr, other):
        report.stability_violations += 1
    if is_isomorphic_trivial(arr, other) != is_isomorphic_trivial_global(arr, other):
        report.iso_reading_disagreements += 1


def _generic_trial(report: FuzzReport, trial: int, n: int, seed: int):
    arr = gen_generic(n, seed)

    def ce(check, detail):
        return lambda: Counterexample(check, trial, arr.n, seed, detail, _arr_text(arr), "")

    report.record(
        "corner_quadrant_agreement",
        check_corner_quadrants(arr),
        ce("corner_quadrant_agreement", "corner characterizations disagree"),
    )
    report.record(
        "faces_vs_oracle",
        triangles_from_faces(arr) == triangle_faces_oracle(arr),
        ce("faces_vs_oracle", "face walk and side oracle disagree"),
    )
    report.record(
        "face_census", check_face_census(arr), ce("face_census", "bounded face count off")
    )

    perm = find_infinity_permutation(arr)
    if perm is None:
        report.non_infinity_count += 1
        return
    if canonical_infinity_permutation(arr) is None:
        report.note_violations += 1
    nom = derive_nomenclature(arr, perm)
    oracle = triangle_faces_oracle(arr)
    report.record(
        "sign_rule_vs_oracle",
        nomenclature_triangles(nom) == oracle,
        lambda: Counterexample(
            "sign_rule_vs_oracle", trial, arr.n, seed,
            "signs disagree with oracle on a generic infinity-type sample",
            _arr_text(arr), format_nomenclature(nom),
        ),
    )
    ok = all(
        is_line_at_infinity_symbolic(nom, t)
        == is_line_at_infinity_geom(arr, nom.label_at(t))
        for t in range(1, arr.n + 1)
    )
    report.record(
        "infinity_line_sym_vs_geom",
        ok,
        lambda: Counterexample(
            "infinity_line_sym_vs_geom", trial, arr.n, seed,
            "symbolic and geometric status disagree",
            _arr_text(arr), format_nomenclature(nom),
        ),
    )


_TRIALS = {"infinity": _infinity_trial, "cyclic": _cyclic_trial, "generic": _generic_trial}


def fuzz_differential(cfg: FuzzConfig, extra_checks=None) -> FuzzReport:
    """Run every applicable differential check on ``cfg.trials`` generated
    instances.  Failures are recorded, never raised; the first one is kept as
    a self-contained counterexample.  ``extra_checks`` (name, fn(report,
    trial, n, seed)) exists for tests of the harness itself."""
    report = FuzzReport(cfg)
    run = _TRIALS[cfg.family]
    for trial in range(cfg.trials):
        seed = derive_seed(cfg.seed, trial)
        n = cfg.n_min + SplitMix64(seed).below(cfg.n_max - cfg.n_min + 1)
        try:
            run(report, trial, n, derive_seed(seed, 1))
        except Exception as exc:  # a trial must never abort the harness
            report.record(
                "trial-exception",
                False,
                Counterexample(
                    "trial-exception", trial, n, derive_seed(seed, 1),
                    f"{type(exc).__name__}: {exc}", "", cfg.family,
                ),
            )
        for name, fn in extra_checks or ():
            ok, ce = fn(trial, n, derive_seed(seed, 1))
            report.record(name, ok, ce)
        report.trials_run += 1
    return report


def rerun_counterexample(ce: Counterexample) -> bool:
    """Re-evaluate a recorded counterexample from its serialized form.

    Returns True when the failure reproduces.  The arrangement is reloaded
    from its file text and the witness string reparsed, so the check runs on
    freshly built objects.
    """
    arr = fileio.parse_arrangement(ce.arrangement_text)
    witness = ce.witness
    if ce.check in ("cycle_rule_vs_oracle", "juxtaposed_sides", "detect_realize_roundtrip"):
        from .cyclicity import parse_cycle

        cycle = parse_cycle(witness)
        oracle = triangle_faces_oracle(arr)
        if ce.check == "cycle_rule_vs_oracle":
            return cycle_triangles(cycle) != oracle
        if ce.check == "juxtaposed_sides":
            return not check_juxtaposed_sides(cycle, oracle)
        return detect_gonality_cycle(arr) != cycle
    if ce.check in (
        "sign_rule_vs_oracle",
        "derive_realize_roundtrip",
        "infinity_line_sym_vs_geom",
        "negation_duality_geom",
        "triangle_opposite_orders",
    ):
        from .nomenclature import parse_nomenclature

        nom = parse_nomenclature(witness)
        if ce.check == "sign_rule_vs_oracle":
            return nomenclature_triangles(nom) != triangle_faces_oracle(arr)
        if ce.check == "derive_realize_roundtrip":
            return derive_nomenclature(arr, nom.labels) != nom
        if ce.check == "triangle_opposite_orders":
            return not check_triangle_opposite_orders(nom, arr, triangle_faces_oracle(arr))
        if ce.check == "infinity_line_sym_vs_geom":
            return any(
                is_line_at_infinity_symbolic(nom, t)
                != is_line_at_infinity_geom(arr, nom.label_at(t))
                for t in range(1, nom.n + 1)
            )
        neg_arr = realize_nomenclature(nom)
        base_arr = realize_nomenclature(nom.negated())
        return any(
            is_line_at_infinity_geom(base_arr, nom.label_at(t))
            != is_line_at_infinity_geom(neg_arr, nom.label_at(t))
            for t in range(1, nom.n + 1)
        )
    if ce.check == "corner_quadrant_agreement":
        return not check_corner_quadrants(arr)
    if ce.check == "faces_vs_oracle":
        return triangles_from_faces(arr) != triangle_faces_oracle(arr)
    if ce.check == "face_census":
        return not check_face_census(arr)
    if ce.check == "class_count_at_most_2":
        return len(triangle_equivalence_classes(triangle_faces_oracle(arr))) > 2
    if ce.check == "ngon_face_structure":
        from .cyclicity import parse_cycle

        return not check_ngon_face_structure(arr, parse_cycle(witness))
    if ce.check == "trial-exception":
        probe = FuzzReport(FuzzConfig(ce.seed, 0, ce.n, ce.n, ce.witness))
        try:
            _TRIALS[ce.witness](probe, ce.trial, ce.n, ce.seed)
        except Exception:
            return True
        return probe.failures > 0
    raise ArrangementError("bad-token", f"unknown check {ce.check!r}")
