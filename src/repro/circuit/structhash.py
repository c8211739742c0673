"""Canonical structural hashing of netlists and per-FF analysis cones.

Three related fingerprints, all independent of node creation order and of
internal gate names:

* :func:`structural_hash` — an order-invariant digest of the whole
  netlist: gate types, fanin structure and DFF placement, with the
  PI/DFF/PO *names* as the identity anchors of the free leaves.  Two
  circuits built in different node orders (or with different internal
  gate names) hash identically iff they describe the same structure over
  the same interface.  Commutative gates sort their fanin hashes — the
  same canonicalisation the sweep pass uses for duplicate detection
  (:data:`COMMUTATIVE` lives here so both share one definition).
* :func:`content_key` — an id-order-*sensitive* digest of the raw
  ``types``/``fanins`` arrays.  This is the address used by the on-disk
  :class:`~repro.store.ArtifactStore`: derived artifacts such as the
  compiled :class:`~repro.logic.simplan.SimPlan` or the packed reach
  matrices reference nodes *by id*, so two circuits may only share them
  when their id layouts match exactly.  ``include_names=True`` folds the
  full name table in, for artifacts that embed names (lint/sweep
  reports).
* :func:`launch_cone_hashes` / :func:`capture_cone_hashes` — per-FF
  digests of the time-frame-expanded cones the decision stage actually
  reads for a pair: the launch FF's next-state cone and the capture FF's
  ``frames``-deep D cone.  The expanded cone is hashed with its *node
  layout* (relative id order) included, so a pair's decide record is a
  pure function of its ``(launch, capture)`` hash pair — the invariant
  the incremental ECO re-analysis (:mod:`repro.core.incremental`) relies
  on and the hypothesis differentials enforce.  Every cone of a netlist
  comes from one bit-parallel pass over the expansion
  (:func:`cone_digests`); the per-FF ``transitive_fanin`` walk it
  replaced is the test oracle ``tests/circuit/cone_oracle.py``.
"""

from __future__ import annotations

import hashlib
import struct
from itertools import chain
from typing import Iterable

import numpy as np

from repro.circuit import topology
from repro.circuit.csr import CsrArrays, csr_arrays, gather_rows
from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit

#: Gate types whose fanin order does not matter; their fanin hashes are
#: sorted before hashing (shared with the sweep pass's duplicate
#: detection in :mod:`repro.analysis.sweep`).
COMMUTATIVE = frozenset({
    GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
    GateType.XOR, GateType.XNOR,
})

#: :meth:`Circuit.derived` cache key for the per-node hash table.
_NODE_HASH_KEY = "struct-node-hashes"
#: cache keys for the whole-netlist digests.
_STRUCT_KEY = "structural-hash"
_CONTENT_KEY = "content-key"
_CONTENT_NAMES_KEY = "content-key-names"
#: cache key prefix for the per-FF cone hash tables.
_CONE_KEY = "cone-hashes"

_SEP = b"\x1f"


def _digest(parts: Iterable[bytes]) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part)
        h.update(_SEP)
    return h.digest()


def _build_node_hashes(circuit: Circuit) -> list[bytes]:
    """Per-node structural hash with name-anchored interface leaves.

    A node's hash covers its gate type and (recursively) its whole
    combinational fanin cone.  Free leaves — primary inputs and DFF
    outputs — are anchored by *name*: without the anchor, structurally
    symmetric but distinct leaves would collide and reconvergence would
    be lost.  Internal gate names never enter the hash.
    """
    hashes: list[bytes] = [b""] * circuit.num_nodes
    types = circuit.types
    names = circuit.names
    for node_id in circuit.topo_order():
        gate_type = types[node_id]
        if gate_type == GateType.INPUT:
            hashes[node_id] = _digest((b"input", names[node_id].encode()))
        elif gate_type == GateType.DFF:
            hashes[node_id] = _digest((b"dff", names[node_id].encode()))
        elif gate_type in (GateType.CONST0, GateType.CONST1):
            hashes[node_id] = _digest((gate_type.name.encode(),))
        else:
            fanin_hashes = [hashes[f] for f in circuit.fanins[node_id]]
            if gate_type in COMMUTATIVE:
                fanin_hashes.sort()
            parts = [gate_type.name.encode()]
            if gate_type == GateType.OUTPUT:
                parts.append(names[node_id].encode())
            parts.extend(fanin_hashes)
            hashes[node_id] = _digest(parts)
    return hashes


def node_hashes(circuit: Circuit) -> list[bytes]:
    """The per-node structural hash table (cached; name-scoped)."""
    return circuit.derived(_NODE_HASH_KEY, _build_node_hashes, scope="names")


def _build_structural_hash(circuit: Circuit) -> str:
    hashes = node_hashes(circuit)
    items: list[bytes] = list(hashes)
    # DFF D-input bindings: the combinational hash of a DFF node is only
    # its name anchor, so the sequential edge must be added explicitly.
    for dff in circuit.dffs:
        fanins = circuit.fanins[dff]
        driver = hashes[fanins[0]] if fanins else b"undriven"
        items.append(_digest((b"state", circuit.names[dff].encode(), driver)))
    items.sort()
    outer = hashlib.sha256()
    for item in items:
        outer.update(item)
    return outer.hexdigest()


def structural_hash(circuit: Circuit) -> str:
    """Order-invariant digest of the whole netlist (cached; name-scoped).

    Covers every node's type and fanin structure (sorted multiset of the
    name-anchored cone hashes, so dead logic counts too) plus each DFF's
    D binding.  Invariant under node reordering and internal-gate
    renames; sensitive to interface renames, gate-type flips, fanin
    rewires and DFF insertion/removal.
    """
    return circuit.derived(_STRUCT_KEY, _build_structural_hash, scope="names")


def content_key(circuit: Circuit, include_names: bool = False) -> str:
    """Id-order-sensitive digest of the raw node arrays (cached).

    The on-disk store address for derived artifacts: everything the
    expensive artifacts read (``types[]``, ``fanins[]`` in id order) and
    nothing they do not (names, unless ``include_names``).
    """

    def build(c: Circuit) -> str:
        h = hashlib.sha256()
        for node_id in range(c.num_nodes):
            h.update(str(int(c.types[node_id])).encode())
            h.update(_SEP)
            h.update(",".join(map(str, c.fanins[node_id])).encode())
            h.update(_SEP)
        if include_names:
            for name in c.names:
                h.update(name.encode())
                h.update(_SEP)
        return h.hexdigest()

    if include_names:
        return circuit.derived(_CONTENT_NAMES_KEY, build, scope="names")
    return circuit.derived(_CONTENT_KEY, build)


# ----------------------------------------------------------------------
# Per-FF launch/capture cone hashes over the time-frame expansion.
# ----------------------------------------------------------------------
def _input_anchors(comb: Circuit, csr: CsrArrays) -> tuple[np.ndarray, np.ndarray]:
    """``(rank, anchors)``: ``anchors[rank[v]]`` is INPUT node ``v``'s
    fixed-width name anchor, a 16-byte digest of its name."""
    rank = np.zeros(csr.num_nodes, dtype=np.intp)
    rank[list(csr.inputs)] = np.arange(len(csr.inputs))
    blob = b"".join(
        hashlib.blake2b(comb.names[v].encode(), digest_size=16).digest()
        for v in csr.inputs
    )
    return rank, np.frombuffer(blob, dtype=np.uint8).reshape(-1, 16)


def _field_offsets(sizes: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Offsets of each cone's span in a field of ``sizes[e]`` items per
    entry ``e``, the cones' entries starting at ``starts``."""
    return np.concatenate(([0], np.cumsum(sizes)))[starts]


def _word_digests(
    column: np.ndarray, csr: CsrArrays, anchors: tuple[np.ndarray, np.ndarray],
    root_nodes: np.ndarray, root_offsets: np.ndarray,
) -> list[str]:
    """Digests of the up to 64 cones whose membership bits fill ``column``.

    Cone ``c`` is the set of nodes with bit ``c`` set; its roots are
    ``root_nodes[root_offsets[c]: root_offsets[c + 1]]``.  Each field
    below is built for all cones of the word at once, cone after cone,
    and each digest hashes its cone's slice of every field.
    """
    members = np.flatnonzero(column)
    bits = np.ascontiguousarray(np.unpackbits(
        column[members].view(np.uint8).reshape(-1, 8), axis=1,
        bitorder="little",
    ).T)
    # Entries by cone, then by ascending node id: the cone-local id of
    # the m-th member in cone c is local_id[c, m].
    cone, pos = np.nonzero(bits.view(bool))
    span = len(root_offsets) - 1
    starts = np.searchsorted(cone, np.arange(span + 1))
    local_id = np.empty(bits.shape, dtype="<i4")
    local_id[cone, pos] = np.arange(len(cone)) - starts[cone]
    member = np.empty(csr.num_nodes, dtype=np.intp)
    member[members] = np.arange(len(members))
    nodes = members[pos]

    counts, fanins = gather_rows(csr.fanin_offsets_np, csr.fanin_flat_np, nodes)
    types = csr.types_np[nodes]
    is_input = types == GateType.INPUT
    rank, table = anchors
    root_cones = np.repeat(np.arange(span), np.diff(root_offsets))
    fields = [
        (types.tobytes(), starts),
        (counts.astype("<i4").tobytes(), 4 * starts),
        (local_id[np.repeat(cone, counts), member[fanins]].tobytes(),
         4 * _field_offsets(counts, starts)),
        (table[rank[nodes[is_input]]].tobytes(), 16 * _field_offsets(is_input, starts)),
        (local_id[root_cones, member[root_nodes]].tobytes(), 4 * root_offsets),
    ]
    cuts = [(blob, bounds.tolist()) for blob, bounds in fields]
    sizes = np.diff(starts).tolist()
    root_sizes = np.diff(root_offsets).tolist()
    return [
        hashlib.sha256(b"".join([
            struct.pack("<qq", sizes[c], root_sizes[c]),
            *(blob[bounds[c]: bounds[c + 1]] for blob, bounds in cuts),
        ])).hexdigest()
        for c in range(span)
    ]


def cone_digests(comb: Circuit, cone_roots: list[list[int]]) -> list[str]:
    """Digest of the fanin cone of each root list, layout included.

    One packed pass: cone ``c`` owns bit ``c`` of a ``uint64`` row per
    node, its roots are seeded, and one top-down levelized OR sweep
    (:func:`~repro.circuit.topology.fanout_sweep_plan`) marks every node
    of every cone.  The ``nodes × words`` scratch is swept in root blocks
    that fit :data:`~repro.circuit.topology.FULL_REACH_BUDGET_WORDS`.

    A cone's digest covers, over its nodes renumbered by ascending id,
    the gate type codes, the fanin counts, the cone-local fanin ids, the
    name anchors of its INPUT nodes, and the local ids of its roots in
    order — the gate structure, the name-anchored free leaves and the
    relative node order the decision engines traverse.
    """
    csr = csr_arrays(comb)
    words = -(-len(cone_roots) // 64)
    step = max(1, min(
        words, topology.FULL_REACH_BUDGET_WORDS // max(1, csr.num_nodes)
    ))
    plan = topology.fanout_sweep_plan(csr)
    anchors = _input_anchors(comb, csr)
    sizes = [len(roots) for roots in cone_roots]
    root_nodes = np.fromiter(chain.from_iterable(cone_roots), np.intp, sum(sizes))
    root_cones = np.repeat(np.arange(len(cone_roots)), sizes)
    root_offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.intp)
    scratch = np.empty((csr.num_nodes, step), dtype=np.uint64)
    digests: list[str] = []
    for w0 in range(0, words, step):
        w1 = min(w0 + step, words)
        view = scratch[:, : w1 - w0]
        view[:] = 0
        lo, hi = root_offsets[w0 * 64], root_offsets[min(w1 * 64, len(cone_roots))]
        bit = root_cones[lo:hi] - w0 * 64
        # ``at``: one node may root several cones of one word.
        np.bitwise_or.at(
            view, (root_nodes[lo:hi], bit // 64),
            np.uint64(1) << (bit % 64).astype(np.uint64),
        )
        topology.or_sweep(view, plan)
        for w in range(w0, w1):
            bounds = root_offsets[w * 64: min(w * 64 + 64, len(cone_roots)) + 1]
            digests.extend(_word_digests(
                np.ascontiguousarray(view[:, w - w0]), csr, anchors,
                root_nodes[bounds[0]: bounds[-1]], bounds - bounds[0],
            ))
    return digests


def _build_cone_hashes(
    circuit: Circuit, frames: int
) -> tuple[dict[int, str], dict[int, str]]:
    from repro.circuit.timeframe import expand_cached

    expansion = expand_cached(circuit, frames)
    ff_at = expansion.ff_at
    count = len(ff_at[0])
    digests = cone_digests(
        expansion.comb,
        [[ff_at[1][k]] for k in range(count)]
        + [[ff_at[f][k] for f in range(1, frames + 1)] for k in range(count)],
    )
    dffs = circuit.dffs
    return dict(zip(dffs, digests[:count])), dict(zip(dffs, digests[count:]))


def _cone_tables(
    circuit: Circuit, frames: int
) -> tuple[dict[int, str], dict[int, str]]:
    return circuit.derived(
        f"{_CONE_KEY}-{frames}",
        lambda c: _build_cone_hashes(c, frames),
        scope="names",
    )


def launch_cone_hashes(circuit: Circuit, frames: int = 2) -> dict[int, str]:
    """Per-FF digest of the launch (next-state) cone, by DFF node id.

    The frame-0 cone feeding ``FF@1`` in the ``frames``-frame expansion.
    Cached per netlist version alongside the capture table.
    """
    return _cone_tables(circuit, frames)[0]


def capture_cone_hashes(circuit: Circuit, frames: int = 2) -> dict[int, str]:
    """Per-FF digest of the full ``frames``-deep capture cone, by DFF id.

    Covers the cones of ``FF@1 .. FF@frames`` — every expanded node the
    decision stage can read when the FF is a pair's capture sink.  A
    pair's decide record is a function of ``(launch[source],
    capture[sink])`` plus the options fingerprint.
    """
    return _cone_tables(circuit, frames)[1]
