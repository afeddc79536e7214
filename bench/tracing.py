"""In-memory spans for the traced benchmark run.

Spans are recorded from the benchmark's own code, around calls into the
public functions of each xiboost module; nothing inside the package is
instrumented. Calls such as ``permutation_test`` or ``power_study`` hide
several layers, so the workloads replay the inner layer functions on the
same inputs right after the call and record each replay as a child of the
call's span. A child is attributed to its parent by id, not by time: the
parent's self time is its duration (times its worker count, for a span that
ran on a process pool) minus the durations of its children. The self times
of all spans of an operation therefore add up to the operation's traced wall
time, by construction; a negative self time means a replay took longer than
the call it stands for.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Optional


@dataclass
class Span:
    id: int
    name: str
    op: int
    parent: Optional[int]
    start: float
    end: float
    kind: Optional[str] = None
    workers: int = 1

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; :meth:`write` dumps them as JSON lines."""

    def __init__(self):
        self.spans: list[Span] = []
        self.notes: dict[str, list[float]] = {}
        self.op = -1

    def begin_op(self) -> None:
        self.op += 1

    @contextmanager
    def span(self, name: str, parent: Optional[Span] = None, kind: Optional[str] = None,
             workers: int = 1):
        sp = Span(id=len(self.spans), name=name, op=self.op,
                  parent=None if parent is None else parent.id,
                  start=time.perf_counter(), end=0.0, kind=kind, workers=workers)
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()

    def note(self, name: str, value: float) -> None:
        """Record a measurement that is not a span, such as a serial reference time."""
        self.notes.setdefault(name, []).append(value)

    def op_wall(self, op: int) -> float:
        """Traced wall time of one operation: the sum of its top-level spans."""
        return sum(s.seconds for s in self.spans if s.op == op and s.parent is None)

    def self_times(self) -> list[float]:
        """Self time of each span, position-aligned with :attr:`spans`."""
        own = [s.seconds * s.workers for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def write(self, path) -> None:
        with open(path, "w") as f:
            for s, own in zip(self.spans, self.self_times()):
                f.write(json.dumps({**asdict(s), "self": own}) + "\n")
