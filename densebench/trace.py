"""Spans around calls into each layer, recorded from outside the program.

Each public function is wrapped at the module attribute its caller looks it
up through (for example `densemodal.kdeab.saturation_family` and
`densemodal.windows.saturation_family` are two call sites of one function),
so a function's recursive calls into itself are not traced.  Spans stay in
memory while the run lasts and are written out once at the end.
`restore()` puts every original back.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

# A span is [name, start ns, end ns, parent span index (-1 for a root), op id];
# its end stays 0 when a timeout struck before it closed.
NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.totals: defaultdict = defaultdict(float)
        self.seen_seeds: set = set()
        self.missing: list[str] = []
        self._originals: list = []

    # -- recording -----------------------------------------------------------

    def start_op(self, op: int) -> None:
        self.op = op
        self._stack.clear()

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> int:
        span = self.spans[index]
        span[END] = time.perf_counter_ns()
        # Pop down to this span: a timeout that interrupted an inner
        # wrapper between its end stamp and its pop must not shift parents.
        while self._stack and self._stack.pop() != index:
            pass
        return span[END] - span[START]

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_result=None, total: str = "") -> None:
        """Trace calls made through `owner.attr` as spans called `name`.

        `on_result(tracer, args, result)` records counts from a finished
        call; `total` names a counter that also sums the span durations.
        A call site the program no longer has is listed in `missing`.
        """
        fn = self._site(owner, attr)
        if fn is None:
            return
        calls = name + ".calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[calls] += 1
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self._close(index)
                if total:
                    self.totals[total] += elapsed / 1e6
            if on_result is not None:
                on_result(self, args, result)
            return result

        self._install(owner, attr, fn, traced)

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Trace a generator function: one span per resumption.

        Its work happens while the caller iterates, interleaved with the
        caller's own work, so each `next()` is a span of its own; calls
        count generators created and `.yield` counts items produced.
        """
        fn = self._site(owner, attr)
        if fn is None:
            return
        calls, yields = name + ".calls", name + ".yield"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[calls] += 1
            return self._resumptions(fn(*args, **kwargs), name, yields)

        self._install(owner, attr, fn, traced)

    def _resumptions(self, inner, name: str, yields: str):
        while True:
            index = self._open(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                self._close(index)
            self.counts[yields] += 1
            yield item

    def _site(self, owner, attr: str):
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}")
        return fn

    def _install(self, owner, attr: str, original, traced) -> None:
        self._originals.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put back every original; raise if any attribute was left wrapped."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"could not restore {attr}")

    # -- reading -------------------------------------------------------------

    def self_ms(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child = [0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0 and span[END]:
                child[span[PARENT]] += span[END] - span[START]
        out: defaultdict = defaultdict(float)
        for span, covered in zip(self.spans, child):
            if span[END]:  # a span opened as a timeout struck never closed
                out[span[NAME]] += (span[END] - span[START] - covered) / 1e6
        return dict(out)

    def write(self, path: str) -> None:
        """One tab-separated line per span: op, id, parent, name, start and end in ns."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(f"{op}\t{i}\t{parent}\t{name}\t{start}\t{end}\n")
