"""Call counts, spans and check outcomes for one benchmark pass.

The benchmark calls every library function through ``Recorder.call``.
Call counts are always kept (a dict increment per call); spans are kept
only when tracing is on, so the untraced run measures the library with
nothing but that increment around each call.
"""

from __future__ import annotations

import itertools
import time
import tracemalloc
from collections import Counter


class Recorder:
    """Per-pass counters plus, when tracing, one span per library call.

    A span is ``(id, name, tag, start, end, parent, pass_id)`` with times
    in seconds from the recorder's creation.  Every call span's parent is
    the span of the pass it ran in; pass spans have no parent.
    """

    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.minima: dict[str, float] = {}
        self.peak_bytes = 0
        self._origin = time.perf_counter()
        self._ids = itertools.count(1)
        self._pass_span = None

    # -- passes -----------------------------------------------------------

    def begin_pass(self, pass_id: int) -> None:
        self.counts = Counter()
        self.minima = {}
        self.peak_bytes = 0
        self._pass_span = next(self._ids)
        self._pass_id = pass_id
        self._pass_start = time.perf_counter()

    def end_pass(self) -> None:
        if self.tracing:
            self.spans.append((self._pass_span, "pass", None,
                               self._pass_start - self._origin,
                               time.perf_counter() - self._origin,
                               None, self._pass_id))

    # -- calls ------------------------------------------------------------

    def call(self, name: str, fn, *args, tag: str | None = None,
             track_memory: bool = False, **kwargs):
        """Run ``fn(*args, **kwargs)``, counting it under ``name``/``tag``.

        With ``track_memory`` the traced run also records the call's
        tracemalloc peak (numpy reports its array buffers to tracemalloc).
        """
        self.counts[f"calls:{name}:{tag}"] += 1
        if not self.tracing:
            return fn(*args, **kwargs)
        if track_memory:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if track_memory:
                self.peak_bytes = max(self.peak_bytes,
                                      tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            self.spans.append((next(self._ids), name, tag,
                               start - self._origin, end - self._origin,
                               self._pass_span, self._pass_id))

    def add(self, name: str, n: int) -> None:
        """Add ``n`` to an exact per-pass count such as points sampled."""
        self.counts[name] += int(n)

    def low(self, name: str, value: float) -> None:
        """Keep the smallest ``value`` seen under ``name`` in this pass."""
        self.minima[name] = min(self.minima.get(name, value), value)


class Checks:
    """Gated checks and scored answers of one pass.

    A gated check is an acceptance gate that holds for every seed: any
    failure makes the run incorrect.  A scored answer is a label the
    library may get wrong for some seeded inputs (known weaknesses); a miss
    only lowers the hit ratio.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.answers = 0
        self.misses = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def error(self, what: str, exc: BaseException) -> None:
        """Count a gated step that raised as one failed check."""
        self.check(False, f"{what}: {type(exc).__name__}: {exc}")

    def answer(self, hit: bool) -> None:
        self.answers += 1
        self.misses += not hit

    @property
    def failed(self) -> int:
        return len(self.failures)
