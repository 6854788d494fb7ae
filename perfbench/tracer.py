"""Span and call-count tracing of linearr, applied from outside the library.

The traced functions are the ones the per-layer metrics of BENCHMARK.json
name: ``<module>.<function>.calls``.

A :class:`Tracer` replaces each traced function with a recording wrapper in
every ``linearr`` module that holds it by name (the defining module, the
modules that imported it with ``from ... import``, and the package itself),
so calls between library modules are seen as well as the benchmark's own
calls.  Leaving the ``with`` block puts every original back.

Spans are kept in memory as ``(id, parent, item, name, start_ns, end_ns)``
tuples; ``parent`` is the span open when the call began (-1 at top level)
and ``item`` is the benchmark item the call belongs to.  :meth:`Tracer.write`
saves them as JSON lines when the run ends.

The lazy ``cached_property`` tables of an arrangement (vertices, side table,
order rows) are not traced: their fill cost lands in the self time of
whichever traced function touches them first.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import linearr  # noqa: F401  (loads every submodule into sys.modules)

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# The per-layer metrics of BENCHMARK.json, in report order; they name the
# traced functions.
PER_LAYER = json.loads(SPEC_PATH.read_text(encoding="utf-8"))["per_layer"]

FACE_WALK = "arrangement.bounded_faces"


def traced_functions(per_layer) -> tuple[list[str], list[str]]:
    """The ``<module>.<function>`` keys of the traced functions: those with a
    ``.calls`` metric.  Functions that also have a ``.total_s`` metric are
    recorded as spans; the others (called about a thousand times per fuzz
    trial, where a span each would cost more than the call) are only counted."""
    names = {m["name"] for m in per_layer}
    spanned, counted = [], []
    for m in per_layer:
        key, _, kind = m["name"].rpartition(".")
        if kind == "calls":
            (spanned if f"{key}.total_s" in names else counted).append(key)
    return spanned, counted


SPANNED, COUNTED = traced_functions(PER_LAYER)


class Tracer:
    """Records spans and counts while installed with ``with tracer:``."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.item = 0
        # (item, hash of the arrangement) for every face walk
        self.walks: list[tuple[int, int]] = []
        self._open: list[int] = []
        self._bindings = self._bind()

    def _span_wrapper(self, name: str, fn):
        spans, stack, walks = self.spans, self._open, self.walks
        clock = time.perf_counter_ns
        is_walk = name == FACE_WALK

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_walk:
                walks.append((self.item, hash(args[0])))
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, self.item, name, start, end)

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _bind(self) -> list[tuple[object, str, object, object]]:
        """(module, attribute, original, wrapper) for every place a traced
        function is bound by name inside the linearr package."""
        wrappers = {}  # id(original) -> (original, wrapper)
        for keys, make in ((SPANNED, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for key in keys:
                module, fn = key.split(".")
                original = getattr(sys.modules[f"linearr.{module}"], fn)
                wrappers[id(original)] = (original, make(key, original))
        bindings = []
        for modname in sorted(sys.modules):
            if modname != "linearr" and not modname.startswith("linearr."):
                continue
            mod = sys.modules[modname]
            for attr, value in vars(mod).items():
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    bindings.append((mod, attr, value, hit[1]))
        return bindings

    def __enter__(self) -> "Tracer":
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def layer_metrics(self, items_per_s: float) -> dict[str, float]:
        """Every per-layer metric of BENCHMARK.json, by name.

        ``total_s`` sums a function's spans; ``self_s`` subtracts from each
        span the spans of traced functions it called directly.  Nothing runs
        concurrently, so the children of a span never overlap.  The face-walk
        ``distinct_ratio`` counts, item by item, the distinct arrangements
        walked and divides their sum by the number of walks: 1.0 means no
        arrangement was walked twice within an item.
        """
        calls: Counter = Counter()
        total: dict = defaultdict(int)
        child: dict = defaultdict(int)
        for sid, parent, _, name, start, end in self.spans:
            child[parent] += end - start
        own: dict = defaultdict(int)
        for sid, _, _, name, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[sid]
        walked_items = defaultdict(set)
        for item, key in self.walks:
            walked_items[item].add(key)
        distinct = sum(len(keys) for keys in walked_items.values())

        out = {}
        for key in SPANNED:
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.total_s"] = total[key] / 1e9
            out[f"{key}.self_s"] = own[key] / 1e9
        out[f"{FACE_WALK}.distinct_ratio"] = distinct / len(self.walks) if self.walks else 0.0
        for key in COUNTED:
            out[f"{key}.calls"] = self.counts[key]
        out["trace.items_per_s"] = items_per_s
        return out

    def write(self, path) -> None:
        """Save the spans (times relative to the first span) and the counts."""
        base = self.spans[0][4] if self.spans else 0
        with open(path, "w", encoding="ascii") as fh:
            for sid, parent, item, name, start, end in self.spans:
                record = {
                    "id": sid,
                    "parent": parent,
                    "item": item,
                    "name": name,
                    "start_ns": start - base,
                    "end_ns": end - base,
                }
                fh.write(json.dumps(record) + "\n")
            fh.write(json.dumps({"counts": dict(sorted(self.counts.items()))}) + "\n")
