"""In-memory spans recorded from outside the program under test.

The benchmark times the calls *into* each layer's public functions; the
program itself carries no tracing (spans inside worker processes are
ROADMAP item 4).  A span has a name, start, end, the span that caused it
and the id of the job it belongs to.  Spans stay in memory and are
written once, as Chrome trace-event JSON (``chrome://tracing``,
Perfetto), when the run ends.  A span's self time is its duration minus
the part its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

__all__ = ["Tracer"]


class Tracer:
    """Records nested spans on one thread."""

    def __init__(self) -> None:
        # [name, start, end, parent index or None, job id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._job: Optional[str] = None
        self._origin = time.perf_counter()

    @contextmanager
    def job(self, job_id: str) -> Iterator[None]:
        """Spans opened inside share ``job_id``."""
        previous, self._job = self._job, job_id
        try:
            yield
        finally:
            self._job = previous

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._job])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner: Any, attr: str, name: str) -> Callable[[], None]:
        """Replace ``owner.attr`` by a version that records a span per
        call; returns the function that puts the original back."""
        original = getattr(owner, attr)

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        return lambda: setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------------

    def totals(self, since: int = 0) -> dict[str, float]:
        """Summed duration by span name, over spans recorded from index
        ``since`` on."""
        out: dict[str, float] = {}
        for name, start, end, _, _ in self.spans[since:]:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def self_times(self, since: int = 0) -> dict[str, float]:
        """Summed self time by span name (duration minus child spans)."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        out: dict[str, float] = {}
        for (name, *_), seconds in list(zip(self.spans, own))[since:]:
            out[name] = out.get(name, 0.0) + seconds
        return out

    def write_chrome(self, path: Path) -> None:
        """Write every span as a Chrome trace ``X`` (complete) event."""
        events = [
            {
                "name": name, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - self._origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": index, "parent": parent, "job": job},
            }
            for index, (name, start, end, parent, job) in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
