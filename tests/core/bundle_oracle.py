"""The record-dict form of pair-record bundles, kept as the test oracle.

Before bundles were columns from end to end, a bundle was a dict whose
``"records"`` list held one dict per pair: the
:meth:`~repro.core.result.DetectionResult.pair_records` fields plus the
``launch``/``capture`` cone hashes and a ``hazard`` entry.  The store
codec re-columned those dicts on save and rebuilt them on load, and the
incremental stage inherited by parsing each record.  That code lives
here unchanged, so the differentials of ``tests/core/test_bundle_oracle.py``
can pin the columnar bundle against it:

* :func:`record_bundle` builds the record-dict bundle of a result;
* :func:`encode_records` / :func:`decode_records` are the record-dict
  codec (meta plus arrays, byte for byte the layout of the store);
* :func:`record_view` reads a :class:`PairRecordBundle` back as records,
  and :func:`from_records` codes records into one;
* :func:`oracle_incremental_detect` inherits through
  :func:`inherited_result`, one record dict at a time.
"""

from __future__ import annotations

from itertools import accumulate, chain
from typing import Any

from repro.circuit.netlist import Circuit
from repro.circuit.structhash import capture_cone_hashes, launch_cone_hashes
from repro.circuit.topology import FFPair
from repro.core.incremental import (
    IncrementalStage,
    _DECIDE_STAGES,
    hazard_fingerprint,
    options_fingerprint,
    witness_layout,
)
from repro.core.pipeline import AnalysisContext, DetectorOptions
from repro.core.result import (
    CaseOutcome,
    CaseResult,
    Classification,
    DetectionResult,
    HazardVerdictKind,
    PairResult,
    Stage,
)
from repro.core.streaming import Fold
from repro.store.codecs import (
    CASE_INTS,
    HAZARD_FIELDS,
    PairRecordBundle,
    _column,
    _csr_rows,
    _int_array,
    _rows_back,
)


def record_bundle(
    result: DetectionResult, options: DetectorOptions, frames: int = 2
) -> dict[str, Any]:
    """The record-dict bundle of one detection run."""
    circuit = result.circuit
    launch = launch_cone_hashes(circuit, frames)
    capture = capture_cone_hashes(circuit, frames)
    verdicts = {
        (v.pair.source, v.pair.sink): v for v in result.hazard_verdicts
    }
    records = result.pair_records()
    for record, pair_result in zip(records, result.pair_results):
        pair = pair_result.pair
        verdict = verdicts.get((pair.source, pair.sink))
        record["launch"] = launch[pair.source]
        record["capture"] = capture[pair.sink]
        record["hazard"] = None if verdict is None else {
            "verdict": verdict.verdict.value,
            "delay_safe": verdict.delay_safe,
            "sensitize_flagged": verdict.sensitize_flagged,
            "cosensitize_flagged": verdict.cosensitize_flagged,
        }
    return {
        "circuit": circuit.name,
        "engine": result.engine,
        "frames": frames,
        "fingerprint": options_fingerprint(options, circuit, frames),
        "hazard_mode": result.hazard_mode,
        "hazard_fingerprint": hazard_fingerprint(options),
        "witness_layout": witness_layout(circuit, frames),
        "records": records,
    }


def encode_records(bundle: dict[str, Any]) -> tuple[dict, dict]:
    """A record-dict bundle as the codec's ``(meta, arrays)``."""
    records = bundle["records"]
    cases = [case for record in records for case in record["cases"]]
    hazards = [record["hazard"] or {} for record in records]
    columns = {
        # Sources and sinks share one table, launch and capture hashes
        # another.
        "names": [r[f] for f in ("source", "sink") for r in records],
        "hashes": [r[f] for f in ("launch", "capture") for r in records],
        "classification": [r["classification"] for r in records],
        "stage": [r["stage"] for r in records],
        "outcome": [case["outcome"] for case in cases],
        **{f: [hazard.get(f) for hazard in hazards] for f in HAZARD_FIELDS},
    }
    tables: dict[str, list[Any]] = {}
    arrays: dict[str, Any] = {}
    for name, values in columns.items():
        tables[name], arrays[name] = _column(values)
    for field in CASE_INTS:
        arrays[field] = _int_array([case[field] for case in cases], "<i4")
    arrays["case_offsets"] = _int_array(
        [0, *accumulate(len(record["cases"]) for record in records)]
    )
    witnessed = [i for i, c in enumerate(cases) if c["witness"] is not None]
    arrays["witnessed"] = _int_array(witnessed)
    arrays["witness_offsets"], arrays["witness_flat"] = _csr_rows(
        chain.from_iterable(cases[i]["witness"].items()) for i in witnessed
    )
    fields = {key: value for key, value in bundle.items() if key != "records"}
    return {"fields": fields, "tables": tables}, arrays


def decode_records(meta: dict, arrays: dict) -> dict[str, Any]:
    """The codec's ``(meta, arrays)`` as a record-dict bundle."""
    columns = {
        name: list(map(table.__getitem__, arrays[name].tolist()))
        for name, table in meta["tables"].items()
    }
    witnesses: list[dict[int, int] | None] = [None] * len(columns["outcome"])
    for i, row in zip(
        arrays["witnessed"].tolist(),
        _rows_back(arrays["witness_offsets"], arrays["witness_flat"]),
    ):
        witnesses[i] = dict(zip(row[::2], row[1::2]))
    cases = [
        {"a": a, "b": b, "outcome": outcome, "decisions": decisions,
         "backtracks": backtracks, "witness": witness}
        for a, b, decisions, backtracks, outcome, witness in zip(
            *(arrays[field].tolist() for field in CASE_INTS),
            columns["outcome"], witnesses,
        )
    ]
    hazards = [
        None if values[0] is None else dict(zip(HAZARD_FIELDS, values))
        for values in zip(*(columns[f] for f in HAZARD_FIELDS))
    ]
    names, hashes = columns["names"], columns["hashes"]
    count = len(hazards)
    offsets = arrays["case_offsets"].tolist()
    records = [
        {"source": names[i], "sink": names[count + i],
         "classification": columns["classification"][i],
         "stage": columns["stage"][i],
         "cases": cases[offsets[i]: offsets[i + 1]],
         "launch": hashes[i], "capture": hashes[count + i],
         "hazard": hazards[i]}
        for i in range(count)
    ]
    return {**meta["fields"], "records": records}


def record_view(bundle: PairRecordBundle) -> dict[str, Any]:
    """A columnar bundle read back as a record-dict bundle."""
    return decode_records(
        {"fields": bundle.fields, "tables": bundle.tables}, bundle.arrays
    )


def from_records(bundle: dict[str, Any]) -> PairRecordBundle:
    """A record-dict bundle coded into columns by the oracle encoder."""
    meta, arrays = encode_records(bundle)
    return PairRecordBundle(meta["fields"], meta["tables"], arrays)


def inherited_result(pair: FFPair, record: dict[str, Any]) -> PairResult:
    """A prior bundle record as this run's result for ``pair``."""
    return PairResult(
        pair,
        Classification(record["classification"]),
        Stage(record["stage"]),
        cases=[
            CaseResult(
                a=case["a"],
                b=case["b"],
                outcome=CaseOutcome(case["outcome"]),
                decisions=case["decisions"],
                backtracks=case["backtracks"],
                witness=case["witness"],
            )
            for case in record["cases"]
        ],
    )


class RecordIncrementalStage(IncrementalStage):
    """The incremental fold inheriting through record dicts, by name."""

    def run(self, ctx: AnalysisContext) -> DetectionResult:
        fold = Fold(ctx)
        self._counts = fold.metrics["incremental"] = {
            "survivors": 0, "inherited": 0, "re_decided": 0,
        }
        bundle = {} if self.bundle is None else record_view(self.bundle)
        fingerprint = options_fingerprint(
            ctx.options, ctx.circuit, self.frames
        )
        self._records: dict[tuple[str, str], dict[str, Any]] = {}
        if bundle.get("fingerprint") == fingerprint and (
            bundle.get("frames") == self.frames
        ):
            for record in bundle.get("records", []):
                self._records[(record["source"], record["sink"])] = record
        self._hazard_inherits = bundle.get(
            "hazard_fingerprint"
        ) == hazard_fingerprint(ctx.options)
        self._stale_witnesses = bundle.get("witness_layout") != (
            witness_layout(ctx.circuit, self.frames)
        )
        self._launch = launch_cone_hashes(ctx.circuit, self.frames)
        self._capture = capture_cone_hashes(ctx.circuit, self.frames)
        return self._drive(fold)

    def select(self, fold: Fold, pairs: list[FFPair]) -> list[FFPair]:
        names = fold.ctx.circuit.names
        fresh: list[FFPair] = []
        recheck: list[PairResult] = []
        for pair in pairs:
            record = self._records.get((names[pair.source], names[pair.sink]))
            if (
                record is None
                or record["stage"] not in _DECIDE_STAGES
                or record["launch"] != self._launch[pair.source]
                or record["capture"] != self._capture[pair.sink]
                or self._stale_witnesses and any(
                    case["witness"] is not None for case in record["cases"]
                )
            ):
                fresh.append(pair)
                continue
            result = inherited_result(pair, record)
            fold.result(result, 0.0, fold.engine)
            hazard = record["hazard"]
            if result.classification is Classification.MULTI_CYCLE and not (
                self._hazard_inherits and fold.hazard.adopt(
                    pair,
                    None if hazard is None else (
                        HazardVerdictKind(hazard["verdict"]),
                        hazard["delay_safe"],
                        hazard["sensitize_flagged"],
                        hazard["cosensitize_flagged"],
                    ),
                )
            ):
                recheck.append(result)
        fold.hazard.check(recheck)
        self._counts["survivors"] += len(pairs)
        self._counts["inherited"] += len(pairs) - len(fresh)
        self._counts["re_decided"] += len(fresh)
        return fresh


def oracle_incremental_detect(
    circuit: Circuit,
    options: DetectorOptions,
    bundle: PairRecordBundle | None,
) -> DetectionResult:
    """:func:`~repro.core.incremental.incremental_detect` without a store,
    inheriting through :class:`RecordIncrementalStage`."""
    return RecordIncrementalStage(bundle).run(AnalysisContext(circuit, options))
