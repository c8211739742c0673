"""Stage 2: parallel random-pattern simulation (Section 4.3).

One word of random patterns is assigned to every primary input and FF
output, the circuit is simulated for two clock cycles, and a pair
``(FF_i, FF_j)`` is dropped as single-cycle as soon as some bit position
satisfies::

    FF_i(t) != FF_i(t+1)  and  FF_j(t+1) != FF_j(t+2)

— a concrete witness that the MC condition is violated.  All of this is
bitwise-parallel: with ``words`` 64-bit words per signal each round
simulates ``64 * words`` patterns, and the pair check is vectorised with
numpy over every remaining pair at once.

Following the paper, simulation continues until no pair has been dropped
for a full round of at least 32 consecutive patterns (a whole word-batch
here), with a hard round cap as a safety net.

Execution strategy
------------------
The filter is built for throughput, not just correctness:

* one :class:`~repro.logic.bitsim.BitSimulator` per word width is reused
  across every round (buffers included) — nothing is reallocated per
  round, and the compiled simulation plan behind it is cached on the
  circuit itself;
* logical rounds are evaluated in *super-rounds* of up to
  ``round_batch`` rounds packed side by side along the word axis.  At
  the small-array sizes involved, a numpy kernel over ``k * words``
  words costs nearly the same as over ``words`` words, so a super-round
  is almost ``k`` rounds for the price of one.  Random words are drawn
  per logical round in exactly the order the round-by-round loop used,
  and the drop/stop logic is replayed round by round on word slices, so
  the dropped-pair sets, round counts and pattern counts are identical
  to the unbatched execution (``round_batch=1``).

One drop representation
-----------------------
The alive set is a *packed pair matrix* (bit ``k`` of sink row ``j`` =
pair ``(dffs[k], dffs[j])``), the bounded-memory form the launch-group
fold reads group by group.  :func:`random_filter_packed` runs the rounds
over it; :func:`random_filter` and :func:`random_filter_k` pack their
pair list into it and read the survivors back in input order.
:func:`_run_rounds` owns every stochastic and control decision — the
RNG draw order, the wide simulation pass and the per-round drop/stop
replay — and delegates only the alive-set bookkeeping to
:class:`_PackedDrops`.  A pair is dropped iff its first simulated hit
round is at most the global stop round; hits are masked by the alive
set only for *counting*, never for outcome.  One bool per pair, driven
by the same engine, is the test oracle ``tests/core/pair_list_filter.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.netlist import Circuit
from repro.circuit.topology import FFPair, dff_rows
from repro.logic.bitsim import BitSimulator

#: default cap for rounds evaluated per super-round; the batch grows
#: 1, 2, 4, ... toward it so early-exiting runs waste little work.
ROUND_BATCH = 8

#: sink rows evaluated per block in the packed drop check (bounds the
#: unpacked temporary at ``block * num_dffs`` bytes plus the block's
#: alive pairs times ``words`` uint64 words).
_PACKED_BLOCK_ROWS = 256


@dataclass
class RandomFilterReport:
    """What the random-simulation stage did.

    ``survivors`` and ``dropped_pairs`` partition the input pair list, so
    downstream stages can attribute each dropped pair directly instead of
    reconstructing the partition from a ``(source, sink)`` key set.
    """

    survivors: list[FFPair]
    dropped_pairs: list[FFPair]
    rounds: int
    patterns: int

    @property
    def dropped(self) -> int:
        """Number of pairs refuted by simulation."""
        return len(self.dropped_pairs)


@dataclass
class PackedFilterReport:
    """Outcome of :func:`random_filter_packed`.

    ``alive`` is the survivor matrix in sink-major packed form: bit
    ``k`` of row ``j`` is set iff pair ``(dffs[k], dffs[j])`` survived.
    ``initial`` counts the pairs that entered the filter.
    """

    alive: np.ndarray
    rounds: int
    patterns: int
    initial: int

    @property
    def survivors(self) -> int:
        """Number of pairs still alive after the filter."""
        return int(np.bitwise_count(self.alive).sum())

    @property
    def dropped(self) -> int:
        """Number of pairs refuted by simulation."""
        return self.initial - self.survivors


class _PackedDrops:
    """Packed pair-matrix representation (sink rows × source bits).

    One round's hits are evaluated in sink-row blocks: the block's alive
    bits are unpacked to ``(sink, source)`` index pairs, each alive pair
    ANDs its sink's change words with its source's toggle words, and
    the hit pairs' bits are cleared before the block is repacked.  Only
    alive pairs are tested and only rows with a surviving bit are
    visited, so the work shrinks as pairs die.
    """

    def __init__(self, alive: np.ndarray, block_rows: int = _PACKED_BLOCK_ROWS) -> None:
        self.alive = alive
        self.block_rows = max(1, block_rows)

    def any_alive(self) -> bool:
        return bool(self.alive.any())

    def drop_round(
        self,
        source_toggles: np.ndarray,
        sink_changes: np.ndarray,
        window: slice,
    ) -> bool:
        toggles = source_toggles[:, window]
        changes = sink_changes[:, window]
        rows = np.flatnonzero(self.alive.any(axis=1))
        dropped = False
        for b0 in range(0, len(rows), self.block_rows):
            blk = rows[b0: b0 + self.block_rows]
            bits = np.unpackbits(
                self.alive[blk].view(np.uint8), axis=1, bitorder="little"
            )
            local, source = np.nonzero(bits)
            hits = (changes[blk[local]] & toggles[source]).any(axis=1)
            if not hits.any():
                continue
            dropped = True
            bits[local[hits], source[hits]] = 0
            self.alive[blk] = np.packbits(
                bits, axis=1, bitorder="little"
            ).view(np.uint64)
        return dropped


def _run_rounds(
    circuit: Circuit,
    strategy: _PackedDrops,
    frames: int,
    words: int,
    max_rounds: int,
    seed: int,
    sim: BitSimulator | None,
    round_batch: int,
) -> tuple[int, int]:
    """The shared super-round engine; returns ``(rounds, patterns)``.

    Every stochastic and control decision lives here — the RNG draw
    order, the wide simulation pass, the per-round replay and the
    quiet-stop.  ``strategy`` holds the alive set: ``any_alive()`` and
    ``drop_round(source_toggles, sink_changes, window)``, which applies
    one round's hits and returns True iff an alive pair was dropped.
    Any bookkeeping presented with the same circuit and the same
    initial alive set sees identical rounds and identical hit matrices.
    """
    round_batch = max(1, round_batch)
    rng = np.random.default_rng(seed)

    # One simulator per super-round width, reused across the whole run.
    sims: dict[int, BitSimulator] = {}
    plan = None
    if sim is not None:
        if sim.circuit is not circuit or sim.words != words:
            raise ValueError(
                "sim was built for a different circuit or word width"
            )
        sims[words] = sim
        plan = sim.plan

    sources = circuit.inputs + circuit.dffs
    pis = circuit.inputs

    rounds = 0
    patterns = 0
    batch = 1
    quiet = False
    while rounds < max_rounds and strategy.any_alive() and not quiet:
        k = min(batch, max_rounds - rounds)
        width = k * words
        wide = sims.get(width)
        if wide is None:
            wide = BitSimulator(circuit, width, plan=plan)
            sims[width] = wide

        # Draw per logical round, in the exact order the round-by-round
        # loop consumed the stream: sources first, then one PI refresh
        # per later frame.  This keeps results independent of batching.
        source_words = (
            np.empty((len(sources), width), dtype=np.uint64) if sources else None
        )
        pi_words = [
            np.empty((len(pis), width), dtype=np.uint64)
            for _ in range(frames - 1)
        ] if pis else []
        for r in range(k):
            window = slice(r * words, (r + 1) * words)
            if sources:
                source_words[:, window] = rng.integers(
                    0, 1 << 64, size=(len(sources), words), dtype=np.uint64
                )
            for refresh in pi_words:
                refresh[:, window] = rng.integers(
                    0, 1 << 64, size=(len(pis), words), dtype=np.uint64
                )

        # One wide pass simulates every round of the super-round at once.
        if sources:
            wide.values[sources] = source_words
        states = [wide.state_matrix()]
        for frame in range(frames):
            if frame > 0 and pis:
                wide.values[pis] = pi_words[frame - 1]
            wide.comb_eval()
            wide.clock()
            states.append(wide.state_matrix())

        source_toggles = states[0] ^ states[1]
        sink_changes = states[1] ^ states[2]
        for m in range(2, frames):
            sink_changes = sink_changes | (states[m] ^ states[m + 1])

        # Replay the per-round drop/stop logic on word slices.
        for r in range(k):
            if not strategy.any_alive():
                break
            rounds += 1
            patterns += 64 * words
            window = slice(r * words, (r + 1) * words)
            if not strategy.drop_round(source_toggles, sink_changes, window):
                # No pair dropped during >= 32 consecutive patterns: stop.
                quiet = True
                break
        batch = min(batch * 2, round_batch)
    return rounds, patterns


def _filter_pairs(
    circuit: Circuit,
    pairs: list[FFPair],
    frames: int,
    words: int,
    max_rounds: int,
    seed: int,
    sim: BitSimulator | None,
    round_batch: int,
) -> RandomFilterReport:
    """Filter a pair list through its packed sink-major matrix.

    ``frames`` is the number of clock cycles simulated per round; the
    source must toggle across the first edge and the sink change across
    any later edge for a pair to be dropped.
    """
    if not pairs:
        return RandomFilterReport([], [], 0, 0)
    row = dff_rows(circuit)
    sources = np.array([row[p.source] for p in pairs], dtype=np.intp)
    sinks = np.array([row[p.sink] for p in pairs], dtype=np.intp)
    cols = sources // 64
    bits = np.uint64(1) << (sources % 64).astype(np.uint64)
    alive = np.zeros((len(row), max(1, -(-len(row) // 64))), dtype=np.uint64)
    np.bitwise_or.at(alive, (sinks, cols), bits)
    report = random_filter_packed(
        circuit, alive, frames, words, max_rounds, seed, sim, round_batch
    )
    live = ((report.alive[sinks, cols] & bits) != 0).tolist()
    return RandomFilterReport(
        survivors=[p for p, keep in zip(pairs, live) if keep],
        dropped_pairs=[p for p, keep in zip(pairs, live) if not keep],
        rounds=report.rounds,
        patterns=report.patterns,
    )


def random_filter(
    circuit: Circuit,
    pairs: list[FFPair],
    words: int = 4,
    max_rounds: int = 256,
    seed: int = 2002,
    sim: BitSimulator | None = None,
    round_batch: int = ROUND_BATCH,
) -> RandomFilterReport:
    """Drop pairs whose MC condition is refuted by random simulation.

    Dropped pairs are guaranteed single-cycle (each had an explicit
    simulated counterexample); survivors go on to implication/ATPG.
    ``sim`` optionally supplies a caller-held simulator of width
    ``words`` to reuse (its evaluation plan is adopted for any wider
    super-round simulators the run creates).
    """
    return _filter_pairs(
        circuit, pairs, 2, words, max_rounds, seed, sim, round_batch
    )


def random_filter_k(
    circuit: Circuit,
    pairs: list[FFPair],
    k: int,
    words: int = 4,
    max_rounds: int = 256,
    seed: int = 2002,
    sim: BitSimulator | None = None,
    round_batch: int = ROUND_BATCH,
) -> RandomFilterReport:
    """k-cycle variant of :func:`random_filter`.

    A pair is dropped when some simulated pattern shows the source
    toggling at ``t+1`` while the sink changes anywhere in
    ``t+1 .. t+k`` — a witness against the k-cycle condition.  ``k = 2``
    coincides with :func:`random_filter` up to the RNG stream shape.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    return _filter_pairs(
        circuit, pairs, k, words, max_rounds, seed, sim, round_batch
    )


def random_filter_packed(
    circuit: Circuit,
    alive: np.ndarray,
    frames: int = 2,
    words: int = 4,
    max_rounds: int = 256,
    seed: int = 2002,
    sim: BitSimulator | None = None,
    round_batch: int = ROUND_BATCH,
) -> PackedFilterReport:
    """The random filter over a packed pair matrix (the launch-group fold).

    ``alive`` is the sink-major connected-pair matrix (bit ``k`` of row
    ``j`` = pair ``(dffs[k], dffs[j])``, e.g. the
    :func:`~repro.circuit.topology.sink_reach` rows with unwanted pairs
    masked off); it is copied, never mutated.  Peak memory is bounded
    by the packed matrix, never by per-pair arrays.
    """
    if frames < 2:
        raise ValueError("random filtering needs at least 2 frames")
    num_dffs = len(circuit.dffs)
    expected = (num_dffs, max(1, -(-num_dffs // 64)))
    if alive.shape != expected:
        raise ValueError(
            f"alive matrix shape {alive.shape} != expected {expected}"
        )
    alive = alive.astype(np.uint64, copy=True)
    initial = int(np.bitwise_count(alive).sum())
    if not initial:
        return PackedFilterReport(alive, 0, 0, 0)
    strategy = _PackedDrops(alive)
    rounds, patterns = _run_rounds(
        circuit, strategy, frames, words, max_rounds, seed, sim, round_batch
    )
    return PackedFilterReport(
        alive=alive, rounds=rounds, patterns=patterns, initial=initial
    )
