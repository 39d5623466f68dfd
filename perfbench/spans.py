"""Traced-run recorder: spans around repro's public functions.

The recorder measures the layers from outside.  It replaces a function
under the name the program looks it up by (``repro.nas.estimation.fit``,
because ``estimate_candidate`` calls the ``fit`` it imported by name;
``CheckpointStore.save`` on the class, because ``SearchDriver`` calls it on an
instance) with a wrapper that times the call, and puts the original
back in :meth:`SpanRecorder.restore`.  Spans stay in memory until the
run ends; :meth:`SpanRecorder.write_jsonl` writes them out.

A span's layer is the first dot-separated part of its name.  Its self
time is its duration minus the durations of its direct children.  Every
span is opened and closed on the one thread that drives the search, so
children are disjoint and their summed duration is the part of the
parent they cover; a negative self time therefore means a span was
counted twice, and :func:`layer_table` refuses it.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Callable, Optional

LAYERS = ("tensor", "checkpoint", "transfer", "analysis", "nas", "cluster",
          "service")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    candidate: Optional[str]


class SpanRecorder:
    """Collects spans from wrapped callables; a context manager that
    restores every wrapped name on exit."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.candidate: Optional[str] = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, owner, attr: str, name: str,
             candidate: Optional[Callable[..., Optional[str]]] = None):
        """Replace ``owner.attr`` with a timing wrapper recording spans
        called ``name``.  ``candidate(*args, **kwargs)`` names the
        candidate the call works for; spans opened inside inherit it."""
        owned = attr in vars(owner)
        raw = vars(owner).get(attr)
        original = getattr(owner, attr)
        rec = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            prev = rec.candidate
            if candidate is not None:
                rec.candidate = candidate(*args, **kwargs) or prev
            idx = len(rec.spans)
            rec.spans.append(Span(name, rec.clock(), 0.0,
                                  rec._stack[-1] if rec._stack else None,
                                  rec.candidate))
            rec._stack.append(idx)
            try:
                return original(*args, **kwargs)
            finally:
                rec._stack.pop()
                rec.spans[idx].end = rec.clock()
                rec.candidate = prev

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, raw, owned))

    def restore(self) -> None:
        """Put every wrapped name back; inherited attributes the wrapper
        shadowed are deleted again.  Idempotent."""
        while self._patches:
            owner, attr, raw, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its direct children's durations."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def layer_table(spans: list[Span]) -> dict:
    """Per span name: ``calls`` and ``busy_s`` over outermost spans (a
    span nested in one of the same name, as a shard's save inside the
    sharded store's save, is not counted again) and summed ``self_s``.
    Per layer: summed ``self_s``.  ``wall_s`` is the summed duration of
    root spans, which the layers' self times add up to."""
    selfs = self_times(spans)
    bad = [(s.name, t) for s, t in zip(spans, selfs) if t < -1e-9]
    if bad:
        raise ValueError(f"negative self time (a span counted twice): "
                         f"{bad[:3]}")
    names: dict = defaultdict(lambda: {"calls": 0, "busy_s": 0.0,
                                       "self_s": 0.0})
    layers = dict.fromkeys(LAYERS, 0.0)
    wall = 0.0
    for s, t in zip(spans, selfs):
        entry = names[s.name]
        entry["self_s"] += t
        layer = s.name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + t
        if s.parent is None:
            wall += s.end - s.start
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        if p is None:
            entry["calls"] += 1
            entry["busy_s"] += s.end - s.start
    return {"names": dict(names), "layers": layers, "wall_s": wall}
