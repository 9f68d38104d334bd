"""In-memory span recorder for the traced benchmark run.

A span records a name, a start, an end, the span that caused it (its
parent) and the run id, plus work counters.  Spans stay in memory while the
run lasts and are written out as JSON lines once it ends.  A span's self
time is its duration minus the part of that interval its children cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Records nested spans of one run; single-threaded."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, **counters):
        """Time the body; the yielded dict takes counters set inside it."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            "counters": dict(counters),
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record["counters"]
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path: str) -> None:
        selfs = self_times(self.spans)
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(dict(record, self=selfs[record["id"]]),
                                        sort_keys=True) + "\n")


def duration(record: dict) -> float:
    return record["end"] - record["start"]


def children(spans: list[dict]) -> dict[int, list[dict]]:
    out: dict[int, list[dict]] = {}
    for record in spans:
        if record["parent"] is not None:
            out.setdefault(record["parent"], []).append(record)
    return out


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    kids = children(spans)
    out = {}
    for record in spans:
        covered, reach = 0.0, record["start"]
        for child in sorted(kids.get(record["id"], []), key=lambda c: c["start"]):
            lo, hi = max(child["start"], reach), min(child["end"], record["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[record["id"]] = duration(record) - covered
    return out


def nesting_errors(spans: list[dict]) -> list[str]:
    """Every child must lie inside its parent and carry the same run id."""
    by_id = {record["id"]: record for record in spans}
    errors = []
    for record in spans:
        if record["end"] is None or record["end"] < record["start"]:
            errors.append(f"span {record['id']} {record['name']} is not closed")
            continue
        parent = by_id.get(record["parent"])
        if record["parent"] is not None and parent is None:
            errors.append(f"span {record['id']} {record['name']} has no parent "
                          f"{record['parent']}")
        elif parent is not None:
            if parent["run"] != record["run"]:
                errors.append(f"span {record['id']} {record['name']} has run "
                              f"{record['run']}, parent has {parent['run']}")
            if not parent["start"] <= record["start"] <= record["end"] <= parent["end"]:
                errors.append(f"span {record['id']} {record['name']} lies outside "
                              f"its parent {parent['name']}")
    return errors
