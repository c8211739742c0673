"""Pair-list random filter: the reference form of the §4.3 drop set.

:mod:`repro.core.random_filter` keeps the alive set only as the packed
sink-major matrix.  This oracle keeps one bool per input pair and drives
the same round engine (:func:`repro.core.random_filter._run_rounds`: RNG
draw order, wide simulation pass, quiet-round stop), so the differentials
hold the packed drop bookkeeping, and the packing of a pair list into it,
to an independent one.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.netlist import Circuit
from repro.circuit.topology import FFPair
from repro.core.random_filter import ROUND_BATCH, RandomFilterReport, _run_rounds
from repro.logic.bitsim import BitSimulator


class PairListDrops:
    """One bool per pair in a flat list."""

    def __init__(self, circuit: Circuit, pairs: list[FFPair]) -> None:
        dff_index = {dff: k for k, dff in enumerate(circuit.dffs)}
        self.source_rows = np.array([dff_index[p.source] for p in pairs])
        self.sink_rows = np.array([dff_index[p.sink] for p in pairs])
        self.alive = np.ones(len(pairs), dtype=bool)

    def any_alive(self) -> bool:
        return bool(self.alive.any())

    def drop_round(
        self,
        source_toggles: np.ndarray,
        sink_changes: np.ndarray,
        window: slice,
    ) -> bool:
        live_idx = np.flatnonzero(self.alive)
        hits = (
            source_toggles[self.source_rows[live_idx], window]
            & sink_changes[self.sink_rows[live_idx], window]
        ).any(axis=1)
        if hits.any():
            self.alive[live_idx[hits]] = False
            return True
        return False


def pair_list_filter(
    circuit: Circuit,
    pairs: list[FFPair],
    frames: int = 2,
    words: int = 4,
    max_rounds: int = 256,
    seed: int = 2002,
    sim: BitSimulator | None = None,
    round_batch: int = ROUND_BATCH,
) -> RandomFilterReport:
    """The report :func:`~repro.core.random_filter.random_filter_k` gives
    for ``k = frames`` (``frames = 2`` is ``random_filter``)."""
    if not pairs:
        return RandomFilterReport([], [], 0, 0)
    strategy = PairListDrops(circuit, pairs)
    rounds, patterns = _run_rounds(
        circuit, strategy, frames, words, max_rounds, seed, sim, round_batch
    )
    alive = strategy.alive
    return RandomFilterReport(
        survivors=[p for p, live in zip(pairs, alive) if live],
        dropped_pairs=[p for p, live in zip(pairs, alive) if not live],
        rounds=rounds,
        patterns=patterns,
    )
