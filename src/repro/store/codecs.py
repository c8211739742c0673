"""Flat-buffer codecs, one per artifact kind of the store.

Each codec lowers one artifact into ``(meta, arrays)`` for
:mod:`repro.store.flatbuf` and rebuilds it from the decoded views.  The
design rule is *zero-copy where it matters*: big payloads (bitmap rows,
gather matrices, CSR flats) stay views into the source buffer — a store
mmap or a shared-memory block — while the small Python-object shells
around them (frozen batch dataclasses, per-node tuples, name tables) are
rebuilt, since those are cheap relative to an O(nodes + edges) rebuild.

Registered kinds:

``simplan``
    :class:`~repro.logic.simplan.SimPlan` — level/batch descriptors in
    the meta, one segment per batch index array.
``csr-arrays``
    :class:`~repro.circuit.csr.CsrArrays` — the ``*_np`` views alias
    the buffer directly; row tuples and ``array('i')`` mirrors rebuild.
``sink-reach``
    :class:`~repro.circuit.topology.SinkReach` — the packed ``uint64``
    row matrix is the whole payload.
``packed-implication``
    :class:`~repro.atpg.packed_implication.PackedPlan` — gate records
    and consumer lists CSR-flattened.
``implication-db``
    :class:`~repro.analysis.implication_db.ImplicationDB` — the two CSR
    arrays, mirroring its ``__reduce__``.
``expansion``
    :class:`~repro.circuit.timeframe.TimeFrameExpansion` — the expanded
    combinational circuit (types, fanin CSR, name table) plus the
    ``ff_at``/``pi_at``/``po_at``/``node_at`` maps.  Decoding yields a
    :class:`DetachedExpansion`; callers re-attach the sequential circuit
    with :meth:`DetachedExpansion.attach`.
``pair-records``
    :class:`PairRecordBundle`, the columns
    :func:`repro.core.incremental.result_bundle` builds, written as they
    are: scalar fields and value tables in the meta, int32 codes, int32
    case fields and CSR case and witness offsets as segments.  Decoding
    checks every code and offset before it hands the columns back.

The envelope helpers (:func:`encode_payload` / :func:`decode_payload`)
wrap a codec in the kind + schema-version header shared by the on-disk
store and the shared-memory backplane, so both transports validate and
decode identically.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Any, Callable

import numpy as np

from repro.store.flatbuf import FlatBufferError, FlatView, pack, unpack

_Encoded = tuple[dict[str, Any], dict[str, Any]]
_Encoder = Callable[[Any], _Encoded]
_Decoder = Callable[[dict[str, Any], dict[str, Any]], object]


def _int_array(values: Any, dtype: str = "<i8") -> Any:
    return np.asarray(values, dtype=np.dtype(dtype))


def _csr_rows(rows: Any) -> tuple[Any, Any]:
    """Flatten an iterable of int rows into (offsets, flat) int64 arrays."""
    offsets = [0]
    flat: list[int] = []
    for row in rows:
        flat.extend(row)
        offsets.append(len(flat))
    return _int_array(offsets), _int_array(flat)


def _rows_back(offsets: Any, flat: Any) -> list[tuple[int, ...]]:
    off = offsets.tolist()
    values = flat.tolist()
    return [
        tuple(values[off[i]: off[i + 1]]) for i in range(len(off) - 1)
    ]


def _typed_i(view: Any) -> array:
    """Rebuild an ``array('i')`` mirror of an int32 segment view."""
    mirror = array("i")
    mirror.frombytes(view.tobytes())
    return mirror


# ----------------------------------------------------------------------
# simplan
# ----------------------------------------------------------------------
def _encode_simplan(plan: Any) -> _Encoded:
    from repro.logic.simplan import _MuxBatch, _ReduceBatch, _UnaryBatch

    levels: list[list[dict[str, int]]] = []
    arrays: dict[str, Any] = {}
    index = 0
    for batches in plan.levels:
        level: list[dict[str, int]] = []
        for batch in batches:
            prefix = f"b{index}."
            if isinstance(batch, _ReduceBatch):
                level.append({"k": 0, "t": int(batch.gate_type)})
                arrays[prefix + "outputs"] = batch.outputs
                arrays[prefix + "fanins"] = batch.fanins
            elif isinstance(batch, _UnaryBatch):
                level.append({"k": 1, "t": int(batch.invert)})
                arrays[prefix + "outputs"] = batch.outputs
                arrays[prefix + "sources"] = batch.sources
            elif isinstance(batch, _MuxBatch):
                level.append({"k": 2, "t": 0})
                arrays[prefix + "outputs"] = batch.outputs
                arrays[prefix + "selects"] = batch.selects
                arrays[prefix + "d0"] = batch.d0
                arrays[prefix + "d1"] = batch.d1
            else:  # pragma: no cover - future batch kinds must be added here
                raise FlatBufferError(
                    f"unknown SimPlan batch type {type(batch).__name__}"
                )
            index += 1
        levels.append(level)
    meta = {
        "version": plan.circuit_version,
        "num_nodes": plan.num_nodes,
        "levels": levels,
    }
    return meta, arrays


def _decode_simplan(meta: dict[str, Any], arrays: dict[str, Any]) -> object:
    from repro.circuit.gates import GateType
    from repro.logic.simplan import SimPlan, _MuxBatch, _ReduceBatch, _UnaryBatch

    plan = SimPlan.__new__(SimPlan)
    plan.circuit_version = int(meta["version"])
    plan.num_nodes = int(meta["num_nodes"])
    plan.buffer_rows = plan.num_nodes + 2
    plan.pad_zeros = plan.num_nodes
    plan.pad_ones = plan.num_nodes + 1
    plan.levels = []
    plan.num_batches = 0
    index = 0
    for level in meta["levels"]:
        batches: list[object] = []
        for descriptor in level:
            prefix = f"b{index}."
            kind = int(descriptor["k"])
            if kind == 0:
                batches.append(_ReduceBatch(
                    gate_type=GateType(int(descriptor["t"])),
                    outputs=arrays[prefix + "outputs"],
                    fanins=arrays[prefix + "fanins"],
                ))
            elif kind == 1:
                batches.append(_UnaryBatch(
                    invert=bool(descriptor["t"]),
                    outputs=arrays[prefix + "outputs"],
                    sources=arrays[prefix + "sources"],
                ))
            else:
                batches.append(_MuxBatch(
                    outputs=arrays[prefix + "outputs"],
                    selects=arrays[prefix + "selects"],
                    d0=arrays[prefix + "d0"],
                    d1=arrays[prefix + "d1"],
                ))
            index += 1
        plan.levels.append(batches)
        plan.num_batches += len(batches)
    return plan


# ----------------------------------------------------------------------
# csr-arrays
# ----------------------------------------------------------------------
def _encode_csr(csr: Any) -> _Encoded:
    meta = {"num_nodes": csr.num_nodes}
    arrays = {
        "types": np.frombuffer(csr.types, dtype=np.uint8),
        "fanin_offsets": csr.fanin_offsets_np,
        "fanin_flat": csr.fanin_flat_np,
        "fanout_offsets": csr.fanout_offsets_np,
        "fanout_flat": csr.fanout_flat_np,
        "levels": csr.levels_np,
        "const0": _int_array(csr.const0),
        "const1": _int_array(csr.const1),
        "inputs": _int_array(csr.inputs),
    }
    return meta, arrays


def _decode_csr(meta: dict[str, Any], arrays: dict[str, Any]) -> object:
    from repro.circuit.csr import CsrArrays

    types = arrays["types"].tobytes()
    fanins = tuple(_rows_back(arrays["fanin_offsets"], arrays["fanin_flat"]))
    fanouts = tuple(
        _rows_back(arrays["fanout_offsets"], arrays["fanout_flat"])
    )
    return CsrArrays(
        num_nodes=int(meta["num_nodes"]),
        types=types,
        fanin_offsets=_typed_i(arrays["fanin_offsets"]),
        fanin_flat=_typed_i(arrays["fanin_flat"]),
        fanout_offsets=_typed_i(arrays["fanout_offsets"]),
        fanout_flat=_typed_i(arrays["fanout_flat"]),
        fanins=fanins,
        fanouts=fanouts,
        levels=tuple(arrays["levels"].tolist()),
        const0=tuple(arrays["const0"].tolist()),
        const1=tuple(arrays["const1"].tolist()),
        inputs=tuple(arrays["inputs"].tolist()),
        types_np=arrays["types"],
        levels_np=arrays["levels"],
        fanin_offsets_np=arrays["fanin_offsets"],
        fanin_flat_np=arrays["fanin_flat"],
        fanout_offsets_np=arrays["fanout_offsets"],
        fanout_flat_np=arrays["fanout_flat"],
    )


# ----------------------------------------------------------------------
# sink-reach
# ----------------------------------------------------------------------
def _encode_sink_reach(reach: Any) -> _Encoded:
    meta = {"words": reach.words, "blocked": bool(reach.blocked)}
    return meta, {"dffs": _int_array(reach.dffs), "rows": reach.rows}


def _decode_sink_reach(meta: dict[str, Any], arrays: dict[str, Any]) -> object:
    from repro.circuit.topology import SinkReach

    return SinkReach(
        dffs=tuple(arrays["dffs"].tolist()),
        words=int(meta["words"]),
        rows=arrays["rows"],
        blocked=bool(meta["blocked"]),
    )


# ----------------------------------------------------------------------
# packed-implication
# ----------------------------------------------------------------------
def _encode_packed(plan: Any) -> _Encoded:
    meta = {
        "version": plan.circuit_version,
        "num_nodes": plan.num_nodes,
        "buffer_rows": plan.buffer_rows,
    }
    kinds = [g[0] for g in plan.gates]
    ctrls = [g[1] for g in plan.gates]
    invs = [g[2] for g in plan.gates]
    tainted = [g[3] for g in plan.gates]
    outs = [g[5] for g in plan.gates]
    fanin_offsets, fanin_flat = _csr_rows(g[4] for g in plan.gates)
    consumer_offsets, consumer_flat = _csr_rows(plan.consumers)
    arrays = {
        "kinds": _int_array(kinds, "|u1"),
        "ctrls": _int_array(ctrls, "|u1"),
        "invs": _int_array(invs, "|u1"),
        "tainted": _int_array(tainted, "|u1"),
        "outs": _int_array(outs),
        "fanin_offsets": fanin_offsets,
        "fanin_flat": fanin_flat,
        "consumer_offsets": consumer_offsets,
        "consumer_flat": consumer_flat,
        "driver": _int_array(plan.driver),
        "preset1": _int_array(plan.preset1),
        "preset0": _int_array(plan.preset0),
    }
    return meta, arrays


def _decode_packed(meta: dict[str, Any], arrays: dict[str, Any]) -> object:
    from repro.atpg.packed_implication import PackedPlan

    plan = PackedPlan.__new__(PackedPlan)
    plan.circuit_version = int(meta["version"])
    plan.num_nodes = int(meta["num_nodes"])
    plan.buffer_rows = int(meta["buffer_rows"])
    kinds = arrays["kinds"].tolist()
    ctrls = arrays["ctrls"].tolist()
    invs = arrays["invs"].tolist()
    tainted = arrays["tainted"].tolist()
    outs = arrays["outs"].tolist()
    off = arrays["fanin_offsets"].tolist()
    flat = arrays["fanin_flat"].tolist()
    plan.gates = tuple(
        (
            kinds[i], ctrls[i], invs[i], tainted[i],
            tuple(flat[off[i]: off[i + 1]]), outs[i],
        )
        for i in range(len(kinds))
    )
    plan.consumers = tuple(
        _rows_back(arrays["consumer_offsets"], arrays["consumer_flat"])
    )
    plan.driver = tuple(arrays["driver"].tolist())
    plan.preset1 = tuple(arrays["preset1"].tolist())
    plan.preset0 = tuple(arrays["preset0"].tolist())
    return plan


# ----------------------------------------------------------------------
# implication-db
# ----------------------------------------------------------------------
def _encode_implication_db(db: Any) -> _Encoded:
    meta = {"num_nodes": db.num_nodes, "build_seconds": db.build_seconds}
    arrays = {
        "offsets": np.frombuffer(db.offsets, dtype=np.int32),
        "flat": (
            np.frombuffer(db.flat, dtype=np.int32)
            if len(db.flat)
            else np.empty(0, dtype=np.int32)
        ),
        "impossible": _int_array(db.impossible),
    }
    return meta, arrays


def _decode_implication_db(
    meta: dict[str, Any], arrays: dict[str, Any]
) -> object:
    from repro.analysis.implication_db import ImplicationDB

    return ImplicationDB(
        int(meta["num_nodes"]),
        _typed_i(arrays["offsets"]),
        _typed_i(arrays["flat"]),
        tuple(arrays["impossible"].tolist()),
        build_seconds=float(meta["build_seconds"]),
    )


# ----------------------------------------------------------------------
# expansion
# ----------------------------------------------------------------------
class DetachedExpansion:
    """A decoded time-frame expansion awaiting its sequential circuit.

    The flat payload carries the expanded combinational circuit and the
    frame maps, but *not* the sequential source netlist (every consumer
    already holds it — it is the store address / the pickled worker
    argument).  :meth:`attach` welds the two back into a full
    :class:`~repro.circuit.timeframe.TimeFrameExpansion`.
    """

    def __init__(
        self,
        frames: int,
        num_sequential_nodes: int,
        comb: Any,
        ff_at: list[list[int]],
        pi_at: list[list[int]],
        po_at: list[list[int]],
        node_at: list[list[int]],
    ) -> None:
        self.frames = frames
        self.num_sequential_nodes = num_sequential_nodes
        self.comb = comb
        self.ff_at = ff_at
        self.pi_at = pi_at
        self.po_at = po_at
        self.node_at = node_at

    def attach(self, sequential: Any) -> Any:
        """Bind ``sequential`` and return the full expansion."""
        from repro.circuit.timeframe import TimeFrameExpansion

        if sequential.num_nodes != self.num_sequential_nodes:
            raise FlatBufferError(
                "detached expansion does not match the sequential circuit "
                f"({self.num_sequential_nodes} vs {sequential.num_nodes} nodes)"
            )
        return TimeFrameExpansion(
            sequential, self.comb, self.frames,
            self.ff_at, self.pi_at, self.po_at, self.node_at,
        )


def _encode_names(names: list[str]) -> tuple[Any, Any]:
    encoded = [name.encode("utf-8") for name in names]
    offsets = [0]
    for blob in encoded:
        offsets.append(offsets[-1] + len(blob))
    joined = b"".join(encoded)
    return (
        np.frombuffer(joined, dtype=np.uint8)
        if joined
        else np.empty(0, dtype=np.uint8),
        _int_array(offsets),
    )


def _decode_names(blob: Any, offsets: Any) -> list[str]:
    raw = blob.tobytes()
    bounds = offsets.tolist()
    return [
        raw[bounds[i]: bounds[i + 1]].decode("utf-8")
        for i in range(len(bounds) - 1)
    ]


def _encode_expansion(expansion: Any) -> _Encoded:
    comb = expansion.comb
    name_blob, name_offsets = _encode_names(comb.names)
    fanin_offsets, fanin_flat = _csr_rows(comb.fanins)
    meta = {
        "frames": expansion.frames,
        "comb_name": comb.name,
        "comb_version": comb.version,
        "num_sequential_nodes": expansion.sequential.num_nodes,
    }
    arrays = {
        "types": _int_array([int(t) for t in comb.types], "|u1"),
        "fanin_offsets": fanin_offsets,
        "fanin_flat": fanin_flat,
        "name_blob": name_blob,
        "name_offsets": name_offsets,
        "ff_at": _int_array(expansion.ff_at),
        "pi_at": _int_array(expansion.pi_at),
        "po_at": _int_array(expansion.po_at),
        "node_at": _int_array(expansion.node_at),
    }
    return meta, arrays


def _decode_expansion(meta: dict[str, Any], arrays: dict[str, Any]) -> object:
    from repro.circuit.gates import GateType
    from repro.circuit.netlist import Circuit

    comb = Circuit(str(meta["comb_name"]))
    comb.types = [GateType(t) for t in arrays["types"].tolist()]
    comb.fanins = _rows_back(arrays["fanin_offsets"], arrays["fanin_flat"])
    comb.names = _decode_names(arrays["name_blob"], arrays["name_offsets"])
    comb._name_to_id = {name: i for i, name in enumerate(comb.names)}
    comb._version = int(meta["comb_version"])
    return DetachedExpansion(
        frames=int(meta["frames"]),
        num_sequential_nodes=int(meta["num_sequential_nodes"]),
        comb=comb,
        ff_at=arrays["ff_at"].tolist(),
        pi_at=arrays["pi_at"].tolist(),
        po_at=arrays["po_at"].tolist(),
        node_at=arrays["node_at"].tolist(),
    )


# ----------------------------------------------------------------------
# pair-records
# ----------------------------------------------------------------------
#: the four hazard columns; a row without a verdict holds ``None`` in
#: each (a stored verdict is never ``None``).
HAZARD_FIELDS = (
    "verdict", "delay_safe", "sensitize_flagged", "cosensitize_flagged",
)

#: the coded columns, one value table each, in layout order.
CODED = ("names", "hashes", "classification", "stage", "outcome",
         *HAZARD_FIELDS)

#: int32 case columns.
CASE_INTS = ("a", "b", "decisions", "backtracks")


def _column(values: list[Any]) -> tuple[list[Any], Any]:
    """A column of JSON values as (table of distinct values, int32 codes);
    decoding hands out one object per table entry, however often used."""
    table = list(dict.fromkeys(values))
    index = {value: code for code, value in enumerate(table)}
    return table, _int_array(list(map(index.__getitem__, values)), "<i4")


@dataclass(eq=False)
class PairRecordBundle:
    """One run's pair records as columns, in memory and on disk alike.

    ``fields`` holds the run's scalar fields.  Each name of :data:`CODED`
    is an int32 code column of ``arrays`` into the value table of the
    same name in ``tables`` (distinct values in first-appearance
    order): ``names`` (every row's source, then every row's sink),
    ``hashes`` (launch cone hashes, then capture), ``classification``,
    ``stage`` and the :data:`HAZARD_FIELDS` per row, ``outcome`` per
    case.  The other arrays: the int32 case columns :data:`CASE_INTS`;
    ``case_offsets``, row ``i``'s cases being ``case_offsets[i]`` up to
    ``case_offsets[i + 1]``; ``witnessed``, the cases that carry a
    witness, whose ``node, value`` pairs are the CSR rows
    ``witness_offsets``/``witness_flat``.
    """

    fields: dict[str, Any]
    tables: dict[str, list[Any]]
    arrays: dict[str, Any]

    @classmethod
    def from_columns(
        cls,
        fields: dict[str, Any],
        columns: dict[str, list[Any]],
        case_counts: list[int],
        witnesses: dict[int, dict[int, int]],
    ) -> PairRecordBundle:
        """Code ``columns`` (the values of every coded column, then of
        every case int column) into a bundle; ``case_counts`` holds each
        row's case count, ``witnesses`` each witnessed case's pattern by
        case index, in case order."""
        tables: dict[str, list[Any]] = {}
        arrays: dict[str, Any] = {}
        for name in CODED:
            tables[name], arrays[name] = _column(columns[name])
        for name in CASE_INTS:
            arrays[name] = _int_array(columns[name], "<i4")
        arrays["case_offsets"] = _int_array([0, *accumulate(case_counts)])
        arrays["witnessed"] = _int_array(list(witnesses))
        arrays["witness_offsets"], arrays["witness_flat"] = _csr_rows(
            chain.from_iterable(pattern.items())
            for pattern in witnesses.values()
        )
        return cls(fields, tables, arrays)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PairRecordBundle):
            return NotImplemented
        return (
            self.fields == other.fields
            and self.tables == other.tables
            and self.arrays.keys() == other.arrays.keys()
            and all(
                array.dtype == other.arrays[name].dtype
                and np.array_equal(array, other.arrays[name])
                for name, array in self.arrays.items()
            )
        )


def _encode_pair_records(bundle: PairRecordBundle) -> _Encoded:
    return {"fields": bundle.fields, "tables": bundle.tables}, bundle.arrays


def _decode_pair_records(
    meta: dict[str, Any], arrays: dict[str, Any]
) -> object:
    bundle = PairRecordBundle(meta["fields"], meta["tables"], arrays)
    _check_pair_records(bundle)
    return bundle


def _check_pair_records(bundle: PairRecordBundle) -> None:
    """Raise :class:`FlatBufferError` unless the bundle has the layout's
    columns and tables, every table holds values of its column's kind,
    every code lies in its table and every offset array spans the column
    it indexes: a damaged entry is a store miss, not a failure mid-run."""
    from repro.core.result import (
        CaseOutcome,
        Classification,
        HazardVerdictKind,
        Stage,
    )

    arrays, tables = bundle.arrays, bundle.tables
    if not (
        isinstance(bundle.fields, dict)
        and isinstance(tables, dict)
        and list(tables) == list(CODED)
        and list(arrays) == [*CODED, *CASE_INTS, "case_offsets",
                             "witnessed", "witness_offsets", "witness_flat"]
        and all(a.ndim == 1 and a.dtype.kind == "i" for a in arrays.values())
    ):
        raise FlatBufferError("pair-records bundle has a foreign layout")
    rows, cases = len(arrays["classification"]), len(arrays["outcome"])
    witnessed = arrays["witnessed"]
    lengths = {
        **dict.fromkeys(("names", "hashes"), 2 * rows),
        **dict.fromkeys(("stage", *HAZARD_FIELDS), rows),
        **dict.fromkeys(CASE_INTS, cases),
        "case_offsets": rows + 1,
        "witness_offsets": len(witnessed) + 1,
    }
    if any(len(arrays[name]) != length for name, length in lengths.items()):
        raise FlatBufferError("pair-records columns differ in length")
    known: dict[str, list[Any]] = {
        "classification": [c.value for c in Classification],
        "stage": [s.value for s in Stage],
        "outcome": [o.value for o in CaseOutcome],
        "verdict": [None, *(v.value for v in HazardVerdictKind)],
        **dict.fromkeys(HAZARD_FIELDS[1:], [None, False, True]),
    }
    for name in CODED:
        table, codes = tables[name], arrays[name]
        if not isinstance(table, list) or not all(
            type(value) is str if name in ("names", "hashes")
            else (value is None or type(value) in (str, bool))
            and value in known[name]
            for value in table
        ):
            raise FlatBufferError(f"pair-records {name} table is corrupt")
        if len(codes) and not 0 <= codes.min() <= codes.max() < len(table):
            raise FlatBufferError(f"pair-records {name} code out of range")
    offsets = arrays["witness_offsets"]
    if (
        np.any(np.diff(witnessed, prepend=-1, append=cases) <= 0)
        or np.any(np.diff(offsets) % 2)
        or any(
            bounds[0] != 0 or bounds[-1] != total or np.any(np.diff(bounds) < 0)
            for bounds, total in (
                (arrays["case_offsets"], cases),
                (offsets, len(arrays["witness_flat"])),
            )
        )
    ):
        raise FlatBufferError("pair-records offsets out of range")


# ----------------------------------------------------------------------
# Registry and envelope.
# ----------------------------------------------------------------------
_CODECS: dict[str, tuple[_Encoder, _Decoder]] = {
    "simplan": (_encode_simplan, _decode_simplan),
    "csr-arrays": (_encode_csr, _decode_csr),
    "sink-reach": (_encode_sink_reach, _decode_sink_reach),
    "packed-implication": (_encode_packed, _decode_packed),
    "implication-db": (_encode_implication_db, _decode_implication_db),
    "expansion": (_encode_expansion, _decode_expansion),
    "pair-records": (_encode_pair_records, _decode_pair_records),
}


def encode_payload(kind: str, payload: Any) -> bytes:
    """Serialize one artifact with the kind + schema envelope."""
    from repro.store.artifact_store import schema_version

    encoder, _ = _CODECS[kind]
    meta, arrays = encoder(payload)
    return pack(
        {"kind": kind, "schema": schema_version(kind), "artifact": meta},
        arrays,
    )


def decode_payload(kind: str, buffer: Any) -> object:
    """Validate the envelope of one flat blob and decode the artifact.

    Raises :class:`~repro.store.flatbuf.FlatBufferError` on any mismatch
    (wrong kind, schema skew, truncation) — the store maps that to its
    corrupt-entry self-heal, the backplane to a rebuild fallback.
    """
    meta, arrays = unpack(buffer)
    return decode_view(kind, FlatView(meta, arrays, buffer))


def decode_view(kind: str, view: FlatView) -> object:
    """Decode a pre-parsed :class:`~repro.store.flatbuf.FlatView`."""
    from repro.store.artifact_store import schema_version

    meta = view.meta
    if (
        not isinstance(meta, dict)
        or meta.get("kind") != kind
        or meta.get("schema") != schema_version(kind)
    ):
        raise FlatBufferError(f"flat envelope mismatch for kind {kind!r}")
    _, decoder = _CODECS[kind]
    return decoder(meta["artifact"], view.arrays)
