"""Spans and counters recorded at the benchmark's own call sites into pdakit.

A span is (name, start_ns, end_ns, parent, op): the name is
``<module>.<function>``, parent is the index of the enclosing span (-1 for
none) and op numbers the benchmark operation the span belongs to.  Spans stay
in memory and are written out once, when the run ends.  With tracing off every
method is a plain pass-through, so the untraced run pays one Python call per
traced call site and nothing else.

A memory tracer (memory=True) also records, for each stage in MEMORY_STAGES,
the peak of the memory that the stage allocates, as tracemalloc sees it.
tracemalloc slows every allocation, so the harness runs it in a pass of its
own and keeps none of that pass's times.
"""

import json
import resource
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager

# Calls that only the traced run makes, to time a stage on its own: the
# subspace enumerations pg_triple performs internally, design resolution and
# certification that closed_form_row/build_triple perform internally, and one
# extra condition scan of the matched triple.
PROBES = frozenset({"subspaces.enumerate_subspaces", "designs.from_reference",
                    "designs.certify", "triples.check_conditions"})

# Stages whose allocation peak a memory tracer records.
MEMORY_STAGES = ("constructions.build_triple", "triples.complete_matching",
                 "triples.orientations", "sim.place")


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self, enabled: bool, memory: bool = False):
        self.enabled = enabled
        self.memory = memory
        self.spans: list = []
        self.counts: Counter = Counter()
        self.alloc_peak_mb: dict[str, float] = {}
        self._stack: list[int] = []
        self._op = -1

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs), inside a span called name when tracing; a
        memory tracer measures the stages in MEMORY_STAGES instead."""
        if not self.enabled:
            return fn(*args, **kwargs)
        if self.memory and name in MEMORY_STAGES:
            return self._alloc_peak(name, fn, *args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def _alloc_peak(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs); keep the largest peak, over calls, of the
        memory allocated during the call and not yet freed.  Memory that
        was allocated before the call is not counted."""
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
            tracemalloc.stop()
            self.alloc_peak_mb[name] = max(self.alloc_peak_mb.get(name, 0.0), peak)

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self._op)

    @contextmanager
    def op(self, name: str):
        """One benchmark operation: a root span with a fresh operation id."""
        if not self.enabled:
            yield
            return
        self._op += 1
        with self.span(f"bench.{name}"):
            yield

    def count(self, name: str, n: int = 1):
        if self.enabled:
            self.counts[name] += n

    def self_seconds(self, seconds) -> tuple[dict[str, float], dict[str, float]]:
        """Self time per span name and per layer (the name's first component).

        seconds(a, b) gives the duration of the perf_counter interval [a, b].
        A span's self time is its duration minus the durations of its direct
        children; spans on one thread nest, so children never overlap.
        """
        dur = [seconds(start / 1e9, end / 1e9) for _, start, end, _, _ in self.spans]
        child_s = [0.0] * len(self.spans)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child_s[parent] += dur[i]
        by_name: dict[str, float] = defaultdict(float)
        by_layer: dict[str, float] = defaultdict(float)
        for i, (name, _, _, _, _) in enumerate(self.spans):
            own = dur[i] - child_s[i]
            by_name[name] += own
            by_layer[name.split(".", 1)[0]] += own
        return dict(by_name), dict(by_layer)

    def write(self, path):
        """Write every span and counter as JSON; called once, at the end."""
        fields = ("name", "start_ns", "end_ns", "parent", "op")
        payload = {"spans": [dict(zip(fields, s)) for s in self.spans],
                   "counts": dict(self.counts)}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))
