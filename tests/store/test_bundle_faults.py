"""Fault injection into stored pair-record bundles.

A damaged ``pair-records`` entry must end as a clean miss: the store's
load returns ``None``, counts the entry corrupt and deletes it, and an
``--incremental-from`` run then re-decides every pair, with the
``pair_records`` of a store-less run and one warning line naming the
cause.  Each fault damages one file: a truncation, a name, hash or
case-outcome code past the end of its table, case offsets that do not
end at the case count, and witness offsets past the witness data.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit.bench import dump, load
from repro.circuit.library import fig1_circuit
from repro.cli import _run_incremental, main
from repro.core.detector import DetectorOptions, MultiCycleDetector
from repro.core.incremental import (
    BUNDLE_KIND,
    bundle_address,
    load_result_bundle,
    result_bundle,
    save_result_bundle,
)
from repro.store import ArtifactStore
from repro.store.flatbuf import pack, unpack


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _rewrite(edit):
    """A fault that re-packs the entry with ``edit`` applied to copies
    of its arrays (the envelope and tables stay as written)."""
    def fault(path):
        meta, views = unpack(path.read_bytes())
        arrays = {name: np.array(view) for name, view in views.items()}
        edit(meta["artifact"]["tables"], arrays)
        path.write_bytes(pack(meta, arrays))
    return fault


def _past_table(column):
    def edit(tables, arrays):
        arrays[column][-1] = len(tables[column])
    return edit


def _case_offsets(tables, arrays):
    arrays["case_offsets"][-1] += 1


def _witness_offsets(tables, arrays):
    arrays["witness_offsets"][-1] = len(arrays["witness_flat"]) + 2


_FAULTS = {
    "truncated": _truncate,
    "name-code": _rewrite(_past_table("names")),
    "hash-code": _rewrite(_past_table("hashes")),
    "outcome-code": _rewrite(_past_table("outcome")),
    "case-offsets": _rewrite(_case_offsets),
    "witness-offsets": _rewrite(_witness_offsets),
}

#: The options fingerprint leaves simulation options out, so a bundle
#: primed without the random filter (whose ATPG cases carry witnesses)
#: sits at the address a default run looks up.
_PRIMED = DetectorOptions(use_random_sim=False)


def _damaged_store(root, fault, circuit):
    """A store holding ``circuit``'s bundle, damaged by ``fault``; the
    bundle's path."""
    store = ArtifactStore(root)
    result = MultiCycleDetector(circuit, _PRIMED).run()
    assert len(result_bundle(result, _PRIMED).arrays["witnessed"])
    save_result_bundle(store, result, _PRIMED)
    path = store._path(BUNDLE_KIND, bundle_address(store, circuit, _PRIMED))
    _FAULTS[fault](path)
    return path


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_damaged_bundle_is_a_counted_miss(tmp_path, fault):
    path = _damaged_store(tmp_path / "store", fault, fig1_circuit())
    store = ArtifactStore(tmp_path / "store")
    assert load_result_bundle(store, fig1_circuit(), DetectorOptions()) is None
    assert store.stats()["corrupt"] == 1
    assert store.stats()["misses"] == 1
    assert not path.exists()


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_incremental_run_over_damaged_bundle_re_decides(
    tmp_path, capsys, fault
):
    prior = tmp_path / "fig1.bench"
    dump(fig1_circuit(), prior)
    root = tmp_path / "store"
    _damaged_store(root, fault, load(prior))
    options = DetectorOptions(cache_dir=str(root))
    merged = _run_incremental(load(prior), options, str(prior), None)
    fresh = MultiCycleDetector(load(prior), DetectorOptions()).run()
    assert merged.pair_records() == fresh.pair_records()
    counts = merged.metrics["incremental"]
    assert counts["inherited"] == 0
    assert counts["re_decided"] == counts["survivors"] > 0
    (warning,) = capsys.readouterr().err.splitlines()
    assert warning == (
        f"warning: the cached pair records for {prior} were unreadable "
        f"and were removed; re-deciding every pair"
    )


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_cli_over_damaged_bundle_prints_one_warning(tmp_path, capsys, fault):
    prior = tmp_path / "fig1.bench"
    dump(fig1_circuit(), prior)
    root = tmp_path / "store"
    _damaged_store(root, fault, load(prior))
    assert main([
        "analyze", str(prior), "--cache-dir", str(root),
        "--incremental-from", str(prior),
    ]) == 0
    captured = capsys.readouterr()
    (warning,) = captured.err.splitlines()
    assert "were unreadable and were removed" in warning
    assert " 0 inherited" in captured.out
