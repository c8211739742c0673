"""Structured trace layer for the pair-analysis pipeline.

Every pipeline run can emit a stream of :class:`TraceEvent` records — one
per run phase and one per analyzed FF pair — replacing the ad-hoc
``time.perf_counter()`` bookkeeping the detector used to carry inline.
Events are plain dictionaries with a fixed envelope::

    {"v": 1, "event": "random_sim", "t": 0.0123, "frames": 2,
     "rounds": 2, "patterns": 512, "dropped": 4, "seconds": 0.0119, ...}

``v`` is the schema version, ``event`` the record type and ``t`` the time
offset (in seconds, by the tracer's clock) since the tracer was created.
Event types emitted by the pipeline:

``run_start`` / ``run_end``
    One pair per detection run.  ``run_end`` carries the summary counts,
    the run's seconds and ``metrics``: the result's counter blocks by
    name (``decision_session``, ``packed_implication``,
    ``implication_db``, ``hazard_exact``, ``backplane``,
    ``incremental``, ``cache``; see
    :attr:`~repro.core.result.DetectionResult.metrics`), each present
    only when its producer ran.
``stream_topology``
    One per run: launch-group and connected-pair totals, whether the
    packed reachability matrix was built in row blocks, and seconds.
``random_sim``
    One per run with random simulation: frames, rounds, patterns,
    dropped pairs, seconds and patterns per second.
``pair``
    One per analyzed FF pair: source/sink names, classification, the
    stage that settled it and the decision-search effort.
``launch_group``
    One per launch group once all its pairs are folded into the result:
    ``group_index``/``groups_total``, the launching FF, the group's
    pair count, how many the random filter dropped, and ``folded`` —
    the number of pair results settled so far (progress).
``decision_exec``
    One per run with ``workers > 1`` that decided any pair: whether the
    pool ran (``parallel``) or the pairs stayed below
    ``parallel_threshold`` (``serial-fallback``), and the pair count.
``decision_queue``
    One per parallel decision run: worker count, work-unit count and
    sizing (``unit_pairs``/``split``/``max_pairs_in_flight``) plus
    per-worker unit/pair/second totals from the work-stealing queue.
``disagreement``
    Emitted by the cross-check decider when two engines disagree.
``hazard_stage``
    One per run with ``--hazard-check exact``: the mode, how many
    multi-cycle pairs were checked/flagged and the pass's seconds.
``stage_start`` / ``stage_end``
    Only the Condition-2 extension pass (:mod:`repro.core.extended`)
    brackets its ``pair`` events with these, under
    ``"stage": "condition2"``.

A tracer writes each record to an optional JSON-lines sink as soon as it
is emitted (crash-safe for long runs) and keeps the records in memory
when no sink is given, which is what the tests inspect.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Callable, Iterator

#: schema version stamped into every record's ``v`` field.
TRACE_SCHEMA_VERSION = 1

#: progress callback signature: (pairs done, pairs total, last event dict).
ProgressFn = Callable[[int, int, dict[str, Any]], None]


class Tracer:
    """Collects structured pipeline events; optionally streams JSONL.

    Parameters
    ----------
    sink:
        Writable text stream; each event is written as one JSON line and
        flushed.  ``None`` keeps events only in :attr:`events`.
    clock:
        Monotonic time source.  Injectable so tests can emit fully
        deterministic traces.
    keep:
        Retain events in memory.  Defaults to ``True`` without a sink
        (so the caller can still see them) and ``False`` with one
        (million-pair runs should not accumulate a list).
    """

    def __init__(
        self,
        sink: IO[str] | None = None,
        clock: Callable[[], float] = time.perf_counter,
        keep: bool | None = None,
    ) -> None:
        self.sink = sink
        self.clock = clock
        self.keep = (sink is None) if keep is None else keep
        self.events: list[dict[str, Any]] = []
        self.emitted = 0
        self._t0 = clock()

    def emit(self, event: str, **fields: Any) -> dict[str, Any]:
        """Record one event; returns the full record dictionary."""
        record: dict[str, Any] = {
            "v": TRACE_SCHEMA_VERSION,
            "event": event,
            "t": round(self.clock() - self._t0, 6),
        }
        record.update(fields)
        self.emitted += 1
        if self.keep:
            self.events.append(record)
        if self.sink is not None:
            self.sink.write(json.dumps(record) + "\n")
            self.sink.flush()
        return record

    def select(self, event: str) -> list[dict[str, Any]]:
        """Retained events of one type (requires ``keep=True``)."""
        return [e for e in self.events if e["event"] == event]


@contextmanager
def open_trace(path: str | Path) -> Iterator[Tracer]:
    """Context manager yielding a tracer that writes JSONL to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        yield Tracer(sink=fh)


def read_trace(path: str | Path) -> list[dict[str, Any]]:
    """Parse a JSONL trace file back into event dictionaries."""
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events
