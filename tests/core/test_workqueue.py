"""Work-unit formation and the work-stealing decision pool."""

from __future__ import annotations

from hypothesis import given, settings

from repro.circuit.topology import FFPair
from repro.core.detector import DetectorOptions, MultiCycleDetector
from repro.core.pipeline import merge_session_stats
from repro.core.result import Stage
from repro.core.trace import Tracer
from repro.core.workqueue import MIN_SPLIT_PAIRS, split_threshold

from tests.core.pool_helpers import forced_pool, launch_units
from tests.strategies import random_sequential_circuit, seeds


def _group(source: int, sinks: list[int]) -> list[FFPair]:
    return [FFPair(source, sink) for sink in sinks]


def test_launch_units_concatenation_reproduces_input():
    pairs = (
        _group(1, [1, 2, 3]) + _group(2, [4]) + _group(3, [5, 6, 7, 8, 9])
    )
    units = launch_units(pairs, size=3)
    assert [p for unit in units for p in unit] == pairs


def test_launch_units_without_split_keeps_groups_whole():
    pairs = _group(1, list(range(10))) + _group(2, [1])
    units = launch_units(pairs, size=3, split=None)
    assert [len(u) for u in units] == [10, 1]


def test_launch_units_split_slices_oversized_groups():
    pairs = _group(1, list(range(10))) + _group(2, [1])
    units = launch_units(pairs, size=3, split=4)
    # The big group is cut into consecutive size-3 slices; the small
    # group stays whole; order is preserved end to end.
    assert [len(u) for u in units] == [3, 3, 3, 1, 1]
    assert [p for unit in units for p in unit] == pairs
    assert all(
        len({p.source for p in unit}) == 1 for unit in units
    ), "split units must stay single-source"


def test_split_threshold_floor():
    assert split_threshold(1) == MIN_SPLIT_PAIRS
    assert split_threshold(100) == 400


@given(seeds)
@settings(max_examples=20)
def test_launch_units_partition_property(seed):
    import random

    rng = random.Random(seed)
    pairs: list[FFPair] = []
    for source in range(rng.randrange(1, 8)):
        pairs.extend(_group(source, list(range(rng.randrange(1, 12)))))
    size = rng.randrange(1, 8)
    split = rng.choice([None, rng.randrange(4, 20)])
    units = launch_units(pairs, size, split=split)
    assert [p for unit in units for p in unit] == pairs
    assert all(unit for unit in units)
    if split is not None:
        assert all(len(unit) <= max(size, split) for unit in units)


def test_merge_session_stats_totals_and_high_water():
    total = merge_session_stats(None, {"pairs": 2, "trail_high_water": 7})
    total = merge_session_stats(total, {"pairs": 3, "trail_high_water": 5})
    total = merge_session_stats(total, None)
    assert total == {"pairs": 5, "trail_high_water": 7}
    assert merge_session_stats(None, None) is None


class _EchoDecider:
    """Pool-test stand-in: echoes each pair back with a bulky payload."""

    name = "echo"
    frames = 2

    def prepare(self, ctx):
        pass

    def decide(self, pair):
        return (pair, b"x" * 4096)


def test_pool_survives_queue_capacity_pressure(fig1):
    """Bulk submission plus bulky results must not wedge the pool.

    A pipe-backed queue holds ~64 KiB: with every unit submitted before
    any result is drained, workers block writing results, stop pulling
    tasks, and the parent blocks writing tasks — a three-way deadlock
    the first 10k-gate parallel run hit.  The pool's buffered queues
    keep both ends non-blocking; this pushes megabytes through each
    direction to pin that.
    """
    import threading

    from repro.core.pipeline import AnalysisContext
    from repro.core.workqueue import WorkStealingPool

    options = DetectorOptions(workers=2)
    expansion = AnalysisContext(fig1, options).expansion(2)
    pool = WorkStealingPool(fig1, options, _EchoDecider(), expansion, workers=2)
    units = [[FFPair(0, 0)] * 8 for _ in range(300)]
    out: list = []

    def submit_all_then_drain():
        for index, unit in enumerate(units):
            pool.submit(index, unit)
        for _ in units:
            out.append(pool.next_result())

    runner = threading.Thread(target=submit_all_then_drain, daemon=True)
    runner.start()
    runner.join(timeout=120)
    assert not runner.is_alive(), "pool deadlocked on queue capacity"
    assert sorted(r.index for r in out) == list(range(len(units)))
    assert sum(len(r.decided) for r in out) == 8 * 300
    pool.shutdown()


def test_pool_worker_summary_covers_all_units():
    """Every dispatched unit lands in exactly one worker's summary row."""
    circuit = random_sequential_circuit(11, max_dffs=8, max_gates=30)
    tracer = Tracer()
    with forced_pool(unit_pairs=2):
        result = MultiCycleDetector(
            circuit, DetectorOptions(workers=2), tracer=tracer
        ).run()
    queues = tracer.select("decision_queue")
    if not queues:  # no survivors reached the decision stage
        return
    queue = queues[-1]
    summary = queue["per_worker"]
    assert [row["worker"] for row in summary] == list(range(queue["workers"]))
    assert sum(row["units"] for row in summary) == queue["units"]
    decided_in_decision = sum(
        1 for r in result.pair_results if r.stage is not Stage.SIMULATION
    )
    assert sum(row["pairs"] for row in summary) == decided_in_decision


class _StallDecider:
    """Pool-test stand-in that never finishes a unit on its own."""

    name = "stall"
    frames = 2

    def prepare(self, ctx):
        pass

    def decide(self, pair):
        import time

        time.sleep(600)
        return (pair, None)


def test_killed_workers_raise_instead_of_hanging(fig1):
    """SIGKILLed workers send no failure report; the parent still ends."""
    import os
    import signal
    import time

    import pytest

    from repro.core.pipeline import AnalysisContext
    from repro.core.workqueue import WorkStealingPool

    options = DetectorOptions(workers=2)
    expansion = AnalysisContext(fig1, options).expansion(2)
    pool = WorkStealingPool(fig1, options, _StallDecider(), expansion, workers=2)
    for index in range(4):
        pool.submit(index, [FFPair(0, 0)])
    for proc in pool._procs:
        os.kill(proc.pid, signal.SIGKILL)
    for proc in pool._procs:
        proc.join(timeout=5)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="worker 0 exit code -9") as info:
        pool.next_result()
    assert time.monotonic() - started < 10
    assert "worker 1 exit code -9" in str(info.value)
    pool.shutdown()


def test_unit_stream_cuts_lazily_across_groups():
    """Units span groups, and one is yielded before the stream ends."""
    from repro.core.workqueue import unit_stream

    def groups():
        yield _group(1, [1, 2])
        yield _group(2, [3])
        yield _group(3, [4, 5, 6])
        raise AssertionError("read past the first complete unit")

    stream = unit_stream(groups(), size=3)
    assert next(stream) == _group(1, [1, 2]) + _group(2, [3])
