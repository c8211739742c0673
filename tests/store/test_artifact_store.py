"""Artifact store: roundtrip, self-heal, eviction, concurrency."""

import multiprocessing
import os
import time

import pytest

from repro.circuit.builder import CircuitBuilder
from repro.circuit.library import fig1_circuit
from repro.circuit.netlist import clear_derived_caches
from repro.core.detector import DetectorOptions, MultiCycleDetector
from repro.core.incremental import result_bundle
from repro.logic.simplan import compiled_plan
from repro.store import (
    ArtifactStore,
    activate_store,
    deactivate_store,
    resolve_cache_dir,
    schema_version,
    store_enabled,
)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def _fig1_bundle():
    options = DetectorOptions()
    return result_bundle(MultiCycleDetector(fig1_circuit(), options).run(),
                         options)


@pytest.fixture(scope="module")
def bundle():
    """A real pair-record bundle: fig1's under the default options."""
    return _fig1_bundle()


def _entry_paths(store):
    return sorted(store.root.rglob("*.rfb"))


class TestRoundtrip:
    def test_save_load(self, store, bundle):
        store.save("pair-records", "a" * 64, bundle)
        assert store.load("pair-records", "a" * 64) == bundle
        assert store.stats() == {
            "hits": 1, "misses": 0, "stores": 1, "evictions": 0, "corrupt": 0,
        }
        (path,) = _entry_paths(store)
        assert path.name == f"{'a' * 64}-v{schema_version('pair-records')}.rfb"

    def test_missing_is_miss(self, store):
        assert store.load("pair-records", "b" * 64) is None
        assert store.misses == 1

    def test_kinds_are_disjoint(self, store, bundle):
        store.save("pair-records", "c" * 64, bundle)
        assert store.load("simplan", "c" * 64) is None

    def test_address_salts(self, store):
        plain = store.address("pair-records", "k" * 64)
        salted = store.address("pair-records", "k" * 64, extra="fp1")
        salted2 = store.address("pair-records", "k" * 64, extra="fp2")
        assert plain == "k" * 64
        assert len({plain, salted, salted2}) == 3


class TestSelfHeal:
    def test_truncated_entry_heals(self, store, bundle):
        store.save("pair-records", "d" * 64, bundle)
        (path,) = _entry_paths(store)
        path.write_bytes(path.read_bytes()[:10])
        assert store.load("pair-records", "d" * 64) is None
        assert store.corrupt == 1
        assert not path.exists()
        # The caller rebuilds and republishes; the store recovers.
        store.save("pair-records", "d" * 64, bundle)
        assert store.load("pair-records", "d" * 64) == bundle

    def test_wrong_envelope_heals(self, store, bundle):
        from repro.store.flatbuf import pack

        store.save("pair-records", "e" * 64, bundle)
        (path,) = _entry_paths(store)
        path.write_bytes(pack({"kind": "pair-records", "schema": 999,
                               "artifact": {}}, {}))
        assert store.load("pair-records", "e" * 64) is None
        assert store.corrupt == 1
        assert not path.exists()

    def test_schema_bump_invalidates(self, store, bundle, monkeypatch):
        store.save("pair-records", "f" * 64, bundle)
        from repro.store import artifact_store

        monkeypatch.setitem(
            artifact_store.SCHEMA_VERSIONS, "pair-records",
            schema_version("pair-records") + 1,
        )
        # The new schema looks for a different file name: clean miss, no
        # corruption — old entries are simply invisible.
        assert store.load("pair-records", "f" * 64) is None
        assert store.corrupt == 0


class TestEviction:
    def test_lru_evicts_oldest_first(self, tmp_path, bundle):
        store = ArtifactStore(tmp_path / "s")
        for index in range(3):
            store.save("pair-records", f"{index:064d}", bundle)
            os.utime(
                _entry_paths(store)[-1],
                (time.time() + index, time.time() + index),
            )
        # Room for three and a half entries: the fourth evicts one.
        store.max_bytes = store.total_bytes() * 7 // 6
        store.save("pair-records", "9" * 64, bundle)
        survivors = {p.name for p in _entry_paths(store)}
        assert store.evictions == 1
        assert f"{0:064d}-v{schema_version('pair-records')}.rfb" not in survivors
        assert len(survivors) == 3

    def test_total_bytes(self, store, bundle):
        assert store.total_bytes() == 0
        store.save("pair-records", "a" * 64, bundle)
        assert store.total_bytes() > 0


class TestPinning:
    """Flat entries stay on disk while a live run has them mapped."""

    def _flat_paths(self, store):
        return sorted(store.root.rglob("*.rfb"))

    def test_mapped_entry_survives_eviction(self, tmp_path, bundle):
        import gc

        store = ArtifactStore(tmp_path / "s")
        plan = compiled_plan(fig1_circuit())
        store.save("simplan", "a" * 64, plan)
        (flat_path,) = self._flat_paths(store)

        loaded = store.load("simplan", "a" * 64)
        assert loaded is not None
        assert store._pinned  # mapped: pinned against eviction

        # Evict everything: the mapped entry must be skipped, even
        # though it is the only candidate over the (zero) bound.
        store.max_bytes = 0
        store.save("pair-records", "b" * 64, bundle)
        assert flat_path.exists(), "evicted a file a live run has mapped"

        # Once the last decoded view dies, the pin is released and the
        # next eviction pass may reclaim the file.
        del loaded
        gc.collect()
        assert not store._pinned
        store.save("pair-records", "c" * 64, bundle)
        assert not flat_path.exists()

    def test_clear_ignores_pins(self, tmp_path):
        """clear() is an explicit action: mapped readers keep their views
        (the mapping survives the unlink), the directory empties."""
        store = ArtifactStore(tmp_path / "s")
        store.save("simplan", "a" * 64, compiled_plan(fig1_circuit()))
        loaded = store.load("simplan", "a" * 64)
        removed, freed = store.clear()
        assert removed == 1 and freed > 0
        assert not self._flat_paths(store)
        assert loaded.num_nodes > 0  # views still readable after unlink


class TestUsageAndClear:
    def test_usage_groups_by_kind(self, store, bundle):
        assert store.usage() == {}
        store.save("pair-records", "a" * 64, bundle)
        store.save("pair-records", "b" * 64, bundle)
        store.save("simplan", "c" * 64, compiled_plan(fig1_circuit()))
        usage = store.usage()
        assert usage["pair-records"]["entries"] == 2
        assert usage["simplan"]["entries"] == 1
        assert all(row["bytes"] > 0 for row in usage.values())

    def test_clear_removes_everything(self, store, bundle):
        store.save("pair-records", "a" * 64, bundle)
        store.save("simplan", "b" * 64, compiled_plan(fig1_circuit()))
        # A kind no codec reads any more is still scanned, so it ages out.
        retired = store.root / "ff-reach" / f"{'d' * 64}-v2.rfb"
        retired.parent.mkdir()
        retired.write_bytes(b"x" * 10)
        assert store.usage()["ff-reach"] == {"entries": 1, "bytes": 10}
        total = store.total_bytes()
        assert store.clear() == (3, total)
        assert store.total_bytes() == 0
        assert store.usage() == {}
        assert store.clear() == (0, 0)

    def test_legacy_pickled_bundles_age_out_unread(self, store, bundle):
        """A ``.pkl`` bundle of an older release is listed, evicted and
        cleared, but no load opens it; in-flight temporaries are not
        entries."""
        legacy = store.root / "pair-records" / f"{'a' * 64}-v3.pkl"
        legacy.parent.mkdir()
        legacy.write_bytes(b"\x80\x05" + b"x" * 100)
        (legacy.parent / f".{'b' * 64}-v4.rfb.1.2.tmp").write_bytes(b"y")
        assert store.usage() == {"pair-records": {"entries": 1, "bytes": 102}}
        assert store.load("pair-records", "a" * 64) is None
        assert (store.misses, store.corrupt) == (1, 0)
        assert legacy.exists()
        assert store.clear() == (1, 102)
        assert not legacy.exists()

        # The oldest entry goes first under the size bound, legacy or not.
        legacy.write_bytes(b"x" * 100)
        os.utime(legacy, (time.time() - 60, time.time() - 60))
        store.save("pair-records", "c" * 64, bundle)
        store.max_bytes = store.total_bytes() - 1
        store.save("pair-records", "c" * 64, bundle)
        assert not legacy.exists()
        assert store.evictions == 1
        assert store.load("pair-records", "c" * 64) == bundle


class TestRuntime:
    def test_activate_reuses_same_root(self, tmp_path):
        first = activate_store(tmp_path / "s")
        first.hits = 7
        second = activate_store(tmp_path / "s")
        assert second is first
        deactivate_store()

    def test_resolve_cache_dir_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert resolve_cache_dir(None) is None
        assert resolve_cache_dir("/x") == "/x"
        monkeypatch.setenv("REPRO_CACHE_DIR", "/env")
        assert resolve_cache_dir(None) == "/env"
        assert resolve_cache_dir("/x") == "/x"

    def test_store_enabled_restores_previous(self, tmp_path):
        from repro.store.runtime import active_store

        deactivate_store()
        with store_enabled(tmp_path / "a") as outer:
            assert active_store() is outer
            with store_enabled(tmp_path / "b") as inner:
                assert active_store() is inner
            assert active_store() is outer
        assert active_store() is None

    def test_store_enabled_none_is_noop(self):
        deactivate_store()
        with store_enabled(None) as store:
            assert store is None


class TestDerivedIntegration:
    def _circuit(self):
        b = CircuitBuilder("derived")
        a = b.input("a")
        ff = b.dff("ff")
        g = b.and_(a, ff, name="g")
        b.drive(ff, g)
        b.output("o", g)
        return b.build()

    def test_simplan_roundtrips_through_store(self, tmp_path):
        with store_enabled(tmp_path / "s") as store:
            compiled_plan(self._circuit())
            assert store.stores == 1
            clear_derived_caches()
            plan = compiled_plan(self._circuit())
            assert store.hits == 1
            # The loaded plan simulates identically (structure intact).
            assert plan.num_nodes == self._circuit().num_nodes

    def test_no_store_no_files(self, tmp_path):
        deactivate_store()
        compiled_plan(self._circuit())
        assert not (tmp_path / "s").exists()


def _writer(root, address, rounds):
    store = ArtifactStore(root)
    value = _fig1_bundle()
    for _ in range(rounds):
        store.save("pair-records", address, value)


def _reader(root, address, rounds, failures):
    store = ArtifactStore(root)
    expected = _fig1_bundle()
    seen = 0
    for _ in range(rounds):
        payload = store.load("pair-records", address)
        if payload is not None:
            seen += 1
            if payload != expected:
                failures.put(("bad payload", payload))
    if store.corrupt:
        failures.put(("corrupt entries observed", store.corrupt))
    failures.put(("ok", seen))


class TestConcurrency:
    def test_two_processes_share_one_store(self, tmp_path):
        """Simultaneous write/read of one key: no torn reads, no crashes.

        Exercises the atomic-rename publish path under real process
        concurrency — a reader must only ever see a complete entry (or a
        clean miss), never a partial file counted as corruption.
        """
        root = str(tmp_path / "shared")
        address = "a" * 64
        ctx = multiprocessing.get_context("spawn")
        failures = ctx.Queue()
        writers = [
            ctx.Process(target=_writer, args=(root, address, 50))
            for _ in range(2)
        ]
        readers = [
            ctx.Process(target=_reader, args=(root, address, 50, failures))
            for _ in range(2)
        ]
        for proc in writers + readers:
            proc.start()
        for proc in writers + readers:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        reports = [failures.get(timeout=5) for _ in range(2)]
        for kind, detail in reports:
            assert kind == "ok", (kind, detail)
