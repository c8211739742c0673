"""Artifact store: roundtrip, self-heal, eviction, concurrency."""

import multiprocessing
import os
import pickle
import time

import pytest

from repro.circuit.builder import CircuitBuilder
from repro.circuit.netlist import clear_derived_caches
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


def _entry_paths(store):
    return sorted(store.root.rglob("*.pkl"))


class TestRoundtrip:
    def test_save_load(self, store):
        store.save("sweep-report", "a" * 64, {"x": [1, 2, 3]})
        assert store.load("sweep-report", "a" * 64) == {"x": [1, 2, 3]}
        assert store.stats() == {
            "hits": 1, "misses": 0, "stores": 1, "evictions": 0, "corrupt": 0,
        }

    def test_missing_is_miss(self, store):
        assert store.load("sweep-report", "b" * 64) is None
        assert store.misses == 1

    def test_kinds_are_disjoint(self, store):
        store.save("sweep-report", "c" * 64, 1)
        assert store.load("lint-report", "c" * 64) is None

    def test_address_salts(self, store):
        plain = store.address("pair-records", "k" * 64)
        salted = store.address("pair-records", "k" * 64, extra="fp1")
        salted2 = store.address("pair-records", "k" * 64, extra="fp2")
        assert plain == "k" * 64
        assert len({plain, salted, salted2}) == 3


class TestSelfHeal:
    def test_truncated_entry_heals(self, store):
        store.save("sweep-report", "d" * 64, [1, 2, 3])
        (path,) = _entry_paths(store)
        path.write_bytes(path.read_bytes()[:10])
        assert store.load("sweep-report", "d" * 64) is None
        assert store.corrupt == 1
        assert not path.exists()
        # The caller rebuilds and republishes; the store recovers.
        store.save("sweep-report", "d" * 64, [1, 2, 3])
        assert store.load("sweep-report", "d" * 64) == [1, 2, 3]

    def test_wrong_envelope_heals(self, store):
        store.save("sweep-report", "e" * 64, 42)
        (path,) = _entry_paths(store)
        path.write_bytes(pickle.dumps({"kind": "sweep-report", "schema": 999,
                                       "payload": 42}))
        assert store.load("sweep-report", "e" * 64) is None
        assert store.corrupt == 1

    def test_schema_bump_invalidates(self, store, monkeypatch):
        store.save("sweep-report", "f" * 64, 42)
        from repro.store import artifact_store

        monkeypatch.setitem(
            artifact_store.SCHEMA_VERSIONS, "sweep-report",
            schema_version("sweep-report") + 1,
        )
        # The new schema looks for a different file name: clean miss, no
        # corruption — old entries are simply invisible.
        assert store.load("sweep-report", "f" * 64) is None
        assert store.corrupt == 0


class TestEviction:
    def test_lru_evicts_oldest_first(self, tmp_path):
        payload = b"x" * 4096
        store = ArtifactStore(tmp_path / "s", max_bytes=3 * 5000)
        for index in range(3):
            store.save("sweep-report", f"{index:064d}", payload)
            os.utime(
                _entry_paths(store)[-1],
                (time.time() + index, time.time() + index),
            )
        store.save("sweep-report", "9" * 64, payload)  # pushes over the bound
        survivors = {p.name for p in _entry_paths(store)}
        assert store.evictions >= 1
        assert f"{0:064d}-v{schema_version('sweep-report')}.pkl" not in survivors

    def test_total_bytes(self, store):
        assert store.total_bytes() == 0
        store.save("sweep-report", "a" * 64, list(range(100)))
        assert store.total_bytes() > 0


class TestPinning:
    """Flat entries stay on disk while a live run has them mapped."""

    def _flat_paths(self, store):
        return sorted(store.root.rglob("*.rfb"))

    def test_mapped_entry_survives_eviction(self, tmp_path):
        import gc

        from repro.circuit.library import fig1_circuit

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
        store.save("sweep-report", "b" * 64, [1, 2, 3])
        assert flat_path.exists(), "evicted a file a live run has mapped"

        # Once the last decoded view dies, the pin is released and the
        # next eviction pass may reclaim the file.
        del loaded
        gc.collect()
        assert not store._pinned
        store.save("sweep-report", "c" * 64, [4, 5, 6])
        assert not flat_path.exists()

    def test_clear_ignores_pins(self, tmp_path):
        """clear() is an explicit action: mapped readers keep their views
        (the mapping survives the unlink), the directory empties."""
        from repro.circuit.library import fig1_circuit

        store = ArtifactStore(tmp_path / "s")
        store.save("simplan", "a" * 64, compiled_plan(fig1_circuit()))
        loaded = store.load("simplan", "a" * 64)
        removed, freed = store.clear()
        assert removed == 1 and freed > 0
        assert not self._flat_paths(store)
        assert loaded.num_nodes > 0  # views still readable after unlink


class TestUsageAndClear:
    def test_usage_groups_by_kind(self, store):
        assert store.usage() == {}
        store.save("sweep-report", "a" * 64, [1])
        store.save("sweep-report", "b" * 64, [2])
        store.save("lint-report", "c" * 64, [3])
        usage = store.usage()
        assert usage["sweep-report"]["entries"] == 2
        assert usage["lint-report"]["entries"] == 1
        assert all(row["bytes"] > 0 for row in usage.values())

    def test_clear_removes_everything(self, store):
        store.save("sweep-report", "a" * 64, [1])
        store.save("lint-report", "b" * 64, [2])
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


def _writer(root, address, value, rounds):
    store = ArtifactStore(root)
    for _ in range(rounds):
        store.save("sweep-report", address, value)


def _reader(root, address, rounds, failures):
    store = ArtifactStore(root)
    seen = 0
    for _ in range(rounds):
        payload = store.load("sweep-report", address)
        if payload is not None:
            seen += 1
            if payload != list(range(200)):
                failures.put(("bad payload", payload))
    if store.corrupt:
        failures.put(("corrupt entries observed", store.corrupt))
    failures.put(("ok", seen))


class TestConcurrency:
    def test_two_processes_share_one_store(self, tmp_path):
        """Simultaneous write/read of one key: no torn reads, no crashes.

        Exercises the atomic-rename publish path under real process
        concurrency — a reader must only ever see a complete entry (or a
        clean miss), never a partial pickle counted as corruption.
        """
        root = str(tmp_path / "shared")
        address = "a" * 64
        value = list(range(200))
        ctx = multiprocessing.get_context("spawn")
        failures = ctx.Queue()
        writers = [
            ctx.Process(target=_writer, args=(root, address, value, 50))
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
