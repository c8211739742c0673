"""Test helpers for the fold's work units and its worker pool.

The launch-group fold spawns its pool only when at least
``repro.core.streaming.PARALLEL_THRESHOLD`` (128) pairs need deciding,
and sizes its units with ``_auto_chunk_size``.  :func:`forced_pool`
patches both, so ``workers > 1`` runs of a few pairs still go through
the pool, in units of a chosen size.  :func:`newest_first_pool` puts an
in-process double in the pool's place that hands settled units back
newest first.  :func:`launch_units` cuts a pair list the way the fold
cuts its stream of launch groups.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import Iterator, Sequence
from unittest import mock

from repro.circuit.topology import FFPair
from repro.core.pipeline import AnalysisContext
from repro.core.session import launch_runs
from repro.core.workqueue import LocalQueue, UnitResult, unit_stream


@contextmanager
def forced_pool(unit_pairs: int | None = None) -> Iterator[None]:
    """Send any ``workers > 1`` run to the pool; with ``unit_pairs``,
    cut every run (serial ones too) into units of that many pairs."""
    with ExitStack() as stack:
        stack.enter_context(
            mock.patch("repro.core.streaming.PARALLEL_THRESHOLD", 2)
        )
        if unit_pairs is not None:
            stack.enter_context(mock.patch(
                "repro.core.streaming._auto_chunk_size",
                lambda num_pairs, workers: unit_pairs,
            ))
        yield


class NewestFirstQueue(LocalQueue):
    """A pool double that settles units in-process, newest out first.

    A real pool hands units back in completion order; this one makes
    that order the reverse of submission, every time.
    """

    workers = 2
    backplane = None

    def next_result(self) -> UnitResult:
        return self._done.pop()

    def worker_summary(self) -> list:
        return []


@contextmanager
def newest_first_pool(unit_pairs: int = 1) -> Iterator[None]:
    """:func:`forced_pool` with :class:`NewestFirstQueue` as the pool."""

    def pool(ctx, decider, expansion, shared=None, publish=None):
        return NewestFirstQueue(ctx, decider, shared)

    with forced_pool(unit_pairs), mock.patch.object(
        AnalysisContext, "decision_pool", pool
    ):
        yield


def launch_units(
    pairs: Sequence[FFPair], size: int, split: int | None = None
) -> list[list[FFPair]]:
    """:func:`~repro.core.workqueue.unit_stream` over the launch groups
    (same-source runs) of a pair list."""
    return list(unit_stream(
        (pairs[start:end] for start, end in launch_runs(pairs)), size, split
    ))
