"""Structural analyses: FF-pair connectivity.

Step 1 of the paper's flow drops every FF pair with no combinational path
between them; only *topologically connected* pairs enter the expensive
stages.  :func:`connected_ff_pairs` computes exactly that relation (the
"FF-pair" column of Table 1).

The relation is built in one form, the packed sink-major matrix of
:func:`sink_reach`: bit ``k`` of row ``j`` is set iff flip-flop ``k``
reaches the D input of flip-flop ``j`` (``words = ceil(num_dffs / 64)``
``uint64`` words per row).  It comes from a levelized sweep over the
cached CSR views: each source flip-flop seeds its own bit, each level
is one flat gather of every fanin row plus a segmented
``bitwise_or.reduceat`` (which handles ragged fanin counts natively),
and the D-driver rows are harvested at the end — in source blocks when
the scratch would exceed :data:`FULL_REACH_BUDGET_WORDS` (see
:func:`build_sink_reach`).  The matrix is cached per netlist version via
:meth:`Circuit.derived` and persisted to the artifact store when one is
active.  The same sweep runs top-down over the fanouts
(:func:`fanout_sweep_plan`) for the cone hashes of
:mod:`repro.circuit.structhash`.

Every query reads it: :func:`iter_launch_groups` streams the relation
one launching FF at a time (via a blocked bit-transpose, without ever
building the full pair list), :func:`launch_group_stats` counts it by
popcount, and :func:`connected_ff_pairs` / :func:`source_ffs_of_sink`
read it back as pairs or per-sink sets.  Pair order is canonical:
ascending bit index is ascending DFF node id, so the transposed
extraction yields pairs sorted by ``(source, sink)`` without a sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from repro.circuit.csr import CsrArrays, csr_arrays, gather_rows
from repro.circuit.gates import COMBINATIONAL_TYPES
from repro.circuit.netlist import Circuit

#: cache key for the levelized sweep schedule.
_SWEEP_KEY = "reach-sweep-plan"
#: cache key for the sink-major packed source sets (D-driver rows only).
_SINK_KEY = "sink-reach"
#: cache key for the source-major packed sink sets (the transpose).
_LAUNCH_KEY = "launch-reach"
#: cache key for the DFF node id -> sink-reach row map.
_ROWS_KEY = "dff-rows"

#: ``num_nodes × words`` scratch matrices above this many uint64 words
#: (16 MiB of packed rows) are never materialized; the sink-reach sweep
#: then runs in source blocks.
FULL_REACH_BUDGET_WORDS = 1 << 21

#: source words per blocked sink-reach sweep (256 launching FFs at a time).
SINK_BLOCK_WORDS = 4

#: source bits unpacked per blocked bit-transpose step.
_TRANSPOSE_BLOCK_WORDS = 16

_COMB_CODES = np.array(sorted(int(t) for t in COMBINATIONAL_TYPES),
                       dtype=np.uint8)


class FFPair(NamedTuple):
    """An ordered pair of flip-flops (source, sink), stored by node id.

    A named tuple rather than a dataclass: circuits produce thousands of
    pairs and the C-level tuple construction keeps the enumeration cost
    proportional to the reachability pass instead of dominating it.
    Ordering, equality and hashing follow the (source, sink) tuple.
    """

    source: int
    sink: int


class LaunchGroup(NamedTuple):
    """One launching FF and its connected sink FFs.

    ``sinks`` holds ascending DFF node ids; chaining the groups yielded
    by :func:`iter_launch_groups` therefore reproduces the canonical
    :func:`connected_ff_pairs` order pair for pair.
    """

    source: int
    sinks: np.ndarray


# ----------------------------------------------------------------------
# Levelized OR-sweep core.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepPlan:
    """Precomputed schedule for a levelized packed-row OR sweep.

    ``node_ids`` in sweep order: node ``node_ids[i]`` reads the rows of
    its ``counts[i]`` neighbours ``flat[excl[i]: excl[i] + counts[i]]``,
    and ``bounds`` cut the order into groups of one level each, whose
    nodes never read each other.  Everything the sweep needs that does
    not depend on the row payload, so the sweep re-runs per block
    cheaply.
    """

    node_ids: np.ndarray
    counts: np.ndarray
    excl: np.ndarray
    flat: np.ndarray
    bounds: np.ndarray


def _schedule(
    node_ids: np.ndarray, levels: np.ndarray, offsets: np.ndarray,
    flat: np.ndarray,
) -> SweepPlan:
    """Schedule the ``node_ids`` whose CSR row is not empty by ascending
    ``levels``; each reads the rows of its row's nodes."""
    keep = offsets[node_ids + 1] > offsets[node_ids]
    order = np.argsort(levels[keep], kind="stable")
    node_ids, levels = node_ids[keep][order], levels[keep][order]
    bounds = np.concatenate(
        ([0], np.flatnonzero(np.diff(levels)) + 1, [len(node_ids)])
    )
    # Flat neighbour ids of every scheduled node, gathered once; each
    # group then slices its span out of them.
    counts, neighbours = gather_rows(offsets, flat, node_ids)
    return SweepPlan(node_ids, counts, np.cumsum(counts) - counts,
                     neighbours, bounds)


def _build_sweep_plan(circuit: Circuit) -> SweepPlan:
    csr = csr_arrays(circuit)
    node_ids = np.flatnonzero(np.isin(csr.types_np, _COMB_CODES))
    return _schedule(node_ids, csr.levels_np[node_ids],
                     csr.fanin_offsets_np, csr.fanin_flat_np)


def _sweep_plan(circuit: Circuit) -> SweepPlan:
    """Bottom-up: combinational nodes by ascending level read their
    fanins, so a row collects the sources that reach the node."""
    return circuit.derived(_SWEEP_KEY, _build_sweep_plan)


def fanout_sweep_plan(csr: CsrArrays) -> SweepPlan:
    """Top-down: every node with a consumer reads its consumers' rows,
    by descending level, so a row collects the bits seeded on the nodes
    it reaches.

    Every edge is followed, which matches
    :meth:`Circuit.transitive_fanin` on a circuit without DFFs, such as
    a time-frame expansion: a seeded root's bit ends up exactly on the
    nodes of its fanin cone.
    """
    return _schedule(np.arange(csr.num_nodes, dtype=np.intp),
                     -csr.levels_np, csr.fanout_offsets_np,
                     csr.fanout_flat_np)


def or_sweep(rows: np.ndarray, plan: SweepPlan) -> None:
    """OR each scheduled node's neighbour rows into its row, in place.

    Nodes of one group never read each other, so each group is one
    flat neighbour gather plus a segmented OR (``reduceat`` handles the
    ragged neighbour counts without padding).
    """
    bounds = plan.bounds.tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        if hi == lo:
            continue
        base = int(plan.excl[lo])
        stop = int(plan.excl[hi - 1] + plan.counts[hi - 1])
        rows[plan.node_ids[lo:hi]] |= np.bitwise_or.reduceat(
            rows[plan.flat[base:stop]], plan.excl[lo:hi] - base, axis=0
        )


# ----------------------------------------------------------------------
# Sink-reach: the D-driver rows, swept in source blocks over budget.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SinkReach:
    """Packed source sets of every sink DFF's next-state cone.

    Bit ``k`` of ``rows[j]`` is set iff flip-flop ``dffs[k]`` reaches
    the D input of ``dffs[j]``.  A DFF row carries only its own bit
    during the sweep (reachability stops at state elements, exactly
    like :meth:`Circuit.transitive_fanin`), so a direct DFF->DFF edge
    reports the driving flip-flop without special casing.  ``blocked``
    records that the full scratch was over
    :data:`FULL_REACH_BUDGET_WORDS`, so the sweep ran in source blocks.
    """

    dffs: tuple[int, ...]
    words: int
    rows: np.ndarray
    blocked: bool


def build_sink_reach(
    circuit: Circuit, block_words: int = SINK_BLOCK_WORDS
) -> SinkReach:
    """Uncached :class:`SinkReach` construction.

    Each block of source flip-flops is seeded into a ``num_nodes ×
    block`` scratch matrix, swept, and harvested at the D-driver rows.
    One block holds every source when the full ``num_nodes × words``
    scratch fits :data:`FULL_REACH_BUDGET_WORDS`; above it blocks are
    ``block_words * 64`` flip-flops wide and the scratch is reused, so
    peak memory stays bounded by the scratch plus the ``num_dffs ×
    words`` result however large the circuit grows.
    """
    dffs = tuple(circuit.dffs)
    words = max(1, -(-len(dffs) // 64))
    blocked = circuit.num_nodes * words > FULL_REACH_BUDGET_WORDS
    rows = np.zeros((len(dffs), words), dtype=np.uint64)
    if dffs:
        step = max(1, block_words) if blocked else words
        plan = _sweep_plan(circuit)
        drivers = np.fromiter(
            (circuit.next_state_node(d) for d in dffs), dtype=np.intp,
            count=len(dffs),
        )
        dff_ids = np.asarray(dffs, dtype=np.intp)
        scratch = np.empty(
            (circuit.num_nodes, min(step, words)), dtype=np.uint64
        )
        for w0 in range(0, words, step):
            w1 = min(w0 + step, words)
            view = scratch[:, : w1 - w0]
            view[:] = 0
            k0, k1 = w0 * 64, min(w1 * 64, len(dffs))
            local = np.arange(k1 - k0)
            view[dff_ids[k0:k1], local // 64] |= (
                np.uint64(1) << (local % 64).astype(np.uint64)
            )
            or_sweep(view, plan)
            rows[:, w0:w1] = view[drivers]
    rows.flags.writeable = False
    return SinkReach(dffs=dffs, words=words, rows=rows, blocked=blocked)


def sink_reach(circuit: Circuit) -> SinkReach:
    """The circuit's sink-major source sets (built once per version).

    Persisted to the on-disk artifact store when one is active (the
    launch-group fold's topology pass).
    """
    return circuit.derived(_SINK_KEY, build_sink_reach, persist="sink-reach")


def _build_launch_matrix(circuit: Circuit) -> np.ndarray:
    """Source-major packed sink sets: the bit-transpose of sink-reach.

    Row ``k`` holds bit ``j`` iff (``dffs[k]``, ``dffs[j]``) is a
    connected pair.  The transpose runs in blocks of
    :data:`_TRANSPOSE_BLOCK_WORDS` source words so the unpacked byte
    matrix never exceeds ``num_dffs × 1024`` bytes.
    """
    reach = sink_reach(circuit)
    n = len(reach.dffs)
    sink_words = max(1, -(-n // 64))
    out = np.zeros((n, sink_words), dtype=np.uint64)
    for w0 in range(0, reach.words, _TRANSPOSE_BLOCK_WORDS):
        if w0 * 64 >= n:
            break
        w1 = min(w0 + _TRANSPOSE_BLOCK_WORDS, reach.words)
        bits = np.unpackbits(
            np.ascontiguousarray(reach.rows[:, w0:w1]).view(np.uint8),
            axis=1, bitorder="little",
        )
        nbits = min(n - w0 * 64, (w1 - w0) * 64)
        packed = np.packbits(
            np.ascontiguousarray(bits[:, :nbits].T),
            axis=1, bitorder="little",
        )
        padded = np.zeros((nbits, sink_words * 8), dtype=np.uint8)
        padded[:, : packed.shape[1]] = packed
        out[w0 * 64: w0 * 64 + nbits] = padded.view(np.uint64)
    out.flags.writeable = False
    return out


def launch_matrix(circuit: Circuit) -> np.ndarray:
    """Source-major packed connectivity matrix (built once per version)."""
    return circuit.derived(_LAUNCH_KEY, _build_launch_matrix)


def iter_launch_groups(
    circuit: Circuit, include_self_loops: bool = True
) -> Iterator[LaunchGroup]:
    """Stream the connected relation one launching FF at a time.

    Yields a :class:`LaunchGroup` for every source FF with at least one
    connected sink, in ascending source id, sinks ascending within each
    group — chained, the groups enumerate exactly the
    :func:`connected_ff_pairs` order without materializing the full pair
    list.  Peak memory follows :func:`sink_reach` (blocked above the
    size threshold) plus one unpacked sink row at a time.
    """
    reach = sink_reach(circuit)
    dffs = reach.dffs
    if not dffs:
        return
    matrix = launch_matrix(circuit)
    dff_ids = np.asarray(dffs, dtype=np.intp)
    for k, source in enumerate(dffs):
        bits = np.unpackbits(
            matrix[k].view(np.uint8), bitorder="little"
        )[: len(dffs)]
        if not include_self_loops:
            bits[k] = 0
        idx = np.nonzero(bits)[0]
        if len(idx):
            yield LaunchGroup(int(source), dff_ids[idx])


def launch_group_stats(
    circuit: Circuit, include_self_loops: bool = True
) -> tuple[int, int]:
    """``(non-empty launch groups, total connected pairs)`` by popcount.

    Reads the cached launch matrix — no pair or group enumeration — so
    the launch-group fold can report ``groups_total`` and the
    connected-pair count before folding the first group.
    """
    n = len(sink_reach(circuit).dffs)
    if not n:
        return 0, 0
    matrix = launch_matrix(circuit)
    counts = np.bitwise_count(matrix).sum(axis=1).astype(np.int64)
    if not include_self_loops:
        k = np.arange(n)
        self_bits = (
            matrix[k, k // 64] >> (k % 64).astype(np.uint64)
        ) & np.uint64(1)
        counts -= self_bits.astype(np.int64)
    return int((counts > 0).sum()), int(counts.sum())


# ----------------------------------------------------------------------
# Pair queries (read back from the sink-reach matrix).
# ----------------------------------------------------------------------
def dff_rows(circuit: Circuit) -> dict[int, int]:
    """DFF node id -> ``k``: row ``k`` of every packed pair matrix, and
    bit ``k`` of every row, belongs to ``circuit.dffs[k]``."""
    return circuit.derived(
        _ROWS_KEY, lambda c: {dff: k for k, dff in enumerate(c.dffs)}
    )


def source_ffs_of_sink(circuit: Circuit, sink_dff: int) -> set[int]:
    """Flip-flops with a combinational path into ``sink_dff``'s D input.

    Reads the sink's row of :func:`sink_reach`.
    """
    reach = sink_reach(circuit)
    row = reach.rows[dff_rows(circuit)[sink_dff]]
    bits = np.unpackbits(row.view(np.uint8), bitorder="little")
    return {reach.dffs[k] for k in np.flatnonzero(bits[: len(reach.dffs)])}


def connected_pair_arrays(
    circuit: Circuit, include_self_loops: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """The connected relation as ``(sources, sinks)`` node-id arrays.

    Rows are in the canonical ascending (source, sink) order.  This is
    the array-level core of :func:`connected_ff_pairs` for consumers
    that operate on the relation wholesale and do not need pair objects.
    """
    reach = sink_reach(circuit)
    dffs = reach.dffs
    if not dffs:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    bits = np.unpackbits(
        reach.rows.view(np.uint8), axis=1, bitorder="little"
    )[:, : len(dffs)]
    # A flat nonzero over the transpose enumerates (source, sink) in
    # row-major order; ascending bit/DFF-list index is ascending node id,
    # so the result is already in the canonical (source, sink) sort.
    source_index, sink_index = np.divmod(np.flatnonzero(bits.T), len(dffs))
    dff_ids = np.asarray(dffs, dtype=np.intp)
    sources = dff_ids[source_index]
    sinks = dff_ids[sink_index]
    if not include_self_loops:
        keep = sources != sinks
        sources, sinks = sources[keep], sinks[keep]
    return sources, sinks


def connected_ff_pairs(
    circuit: Circuit, include_self_loops: bool = True
) -> list[FFPair]:
    """All ordered FF pairs joined by at least one combinational path.

    Pairs are returned sorted by (source, sink) id for determinism.  The
    paper analyses self-loop pairs too (its SAT-based comparison excluded
    them), so they are included by default.
    """
    sources, sinks = connected_pair_arrays(circuit, include_self_loops)
    # ``_make`` binds straight to ``tuple.__new__`` — materialising
    # thousands of pairs this way is measurably cheaper than calling the
    # generated ``FFPair.__new__``.
    return list(map(FFPair._make, zip(sources.tolist(), sinks.tolist())))
