"""In-memory spans recorded around calls into dtopt, and their self times.

A span is ``[name, start_ns, end_ns, parent]`` where ``parent`` is the index
of the enclosing span in the same list, or -1 for a root. Spans are only
appended while a run is traced and are written out once it has ended, so
recording costs two clock reads and a list append per call.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

# Span name of the time spent computing per-layer counters; it is its own
# layer so the counters do not inflate the self time of the code they count.
HOOK_SPAN = "trace"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = perf_counter_ns()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` recorded as a span ``name``.

        ``before(args)`` runs ahead of the call and ``after(args, result)``
        after it, each inside a span of its own named HOOK_SPAN.
        """
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                idx = begin(HOOK_SPAN)
                try:
                    before(args)
                finally:
                    end(idx)
            idx = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(idx)
            if after is not None:
                idx = begin(HOOK_SPAN)
                try:
                    after(args, result)
                finally:
                    end(idx)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent}) + "\n")


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of its interval its children cover.

    Child intervals are clipped to the parent and merged first, so
    overlapping children are not subtracted twice.
    """
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def self_time_by_name(spans) -> dict[str, int]:
    totals: dict[str, int] = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] += own
    return dict(totals)


@contextmanager
def patched(targets):
    """Set ``owner.attr = replacement`` for each target; restore all on exit.

    Yields the originals as ``(owner, attr, original)`` so callers can check
    the restore with :func:`all_restored`.
    """
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, replacement in targets:
            setattr(owner, attr, replacement)
        yield saved
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def all_restored(saved) -> bool:
    return all(getattr(owner, attr) is original for owner, attr, original in saved)
