"""In-memory spans around the benchmark's calls into the simulator.

A span has a name, a start, an end and the span that was open when it
began.  Every span of one :class:`Spans` recorder shares its trace id.
Each span records two clocks: wall time (``start_ns``/``end_ns``) and the
process's CPU time (``cpu_start_ns``/``cpu_end_ns``).  The simulator runs
in one thread, so its CPU time is the host time it takes, without the time
the host gave to other processes.  The benchmark times its phases from
these spans in every run; only the traced run writes them out, when it
ends.
"""

from __future__ import annotations

import time
import uuid
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Spans:
    """A span recorder for one benchmark run."""

    def __init__(self, trace_id: Optional[str] = None) -> None:
        self.trace_id = trace_id or uuid.uuid4().hex
        self.records: List[dict] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = {"id": len(self.records), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start_ns": time.perf_counter_ns(), "end_ns": None,
                  "cpu_start_ns": time.process_time_ns(), "cpu_end_ns": None}
        self.records.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["cpu_end_ns"] = time.process_time_ns()
            record["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def durations(self, name: str, since: int = 0,
                  until: Optional[int] = None) -> List[float]:
        """CPU seconds of the spans called ``name`` among the records
        ``since:until``."""
        return [(r["cpu_end_ns"] - r["cpu_start_ns"]) / 1e9
                for r in self.records[since:until] if r["name"] == name]

    def seconds(self, name: str, since: int = 0,
                until: Optional[int] = None) -> float:
        """Total CPU seconds of the spans called ``name``."""
        return sum(self.durations(name, since, until))

    def self_seconds(self) -> Dict[str, float]:
        """Each span name's wall seconds minus what its child spans
        cover."""
        out: Dict[str, float] = {}
        child_ns: Dict[int, int] = {}
        for r in self.records:
            if r["parent"] is not None:
                child_ns[r["parent"]] = (child_ns.get(r["parent"], 0)
                                         + r["end_ns"] - r["start_ns"])
        for r in self.records:
            own = r["end_ns"] - r["start_ns"] - child_ns.get(r["id"], 0)
            out[r["name"]] = out.get(r["name"], 0.0) + own / 1e9
        return out

    def to_payload(self) -> dict:
        """JSON-ready form, with wall times relative to the first span."""
        t0 = self.records[0]["start_ns"] if self.records else 0
        return {"trace_id": self.trace_id,
                "spans": [dict(r, start_ns=r["start_ns"] - t0,
                               end_ns=r["end_ns"] - t0)
                          for r in self.records]}
