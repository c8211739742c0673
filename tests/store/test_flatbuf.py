"""Flat-buffer layout: roundtrips, alignment, corruption, mmap files."""

from __future__ import annotations

import numpy as np
import pytest

from repro.store.flatbuf import (
    ALIGN,
    MAGIC,
    FlatBufferError,
    FlatView,
    pack,
    read_file,
    unpack,
)


def _sample_arrays() -> dict[str, np.ndarray]:
    return {
        "u64": np.arange(17, dtype=np.uint64),
        "i32_2d": np.arange(12, dtype=np.int32).reshape(3, 4),
        "u8": np.array([0, 1, 2, 255], dtype=np.uint8),
        "empty": np.empty(0, dtype=np.int64),
        "f64": np.linspace(0.0, 1.0, 5),
    }


class TestRoundtrip:
    def test_meta_and_arrays_survive(self):
        meta = {"kind": "x", "nested": [1, "two", None]}
        arrays = _sample_arrays()
        decoded_meta, views = unpack(pack(meta, arrays))
        assert decoded_meta == meta
        assert set(views) == set(arrays)
        for name, original in arrays.items():
            np.testing.assert_array_equal(views[name], original)
            assert views[name].dtype == original.dtype
            assert views[name].shape == original.shape

    def test_views_are_zero_copy_and_read_only(self):
        blob = pack(None, {"a": np.arange(8, dtype=np.uint64)})
        _, views = unpack(blob)
        view = views["a"]
        assert not view.flags.writeable
        assert not view.flags.owndata  # aliases the source buffer
        with pytest.raises((ValueError, RuntimeError)):
            view[0] = 99

    def test_segments_are_aligned(self):
        blob = pack({}, _sample_arrays())
        _, views = unpack(blob)
        base = np.frombuffer(blob, dtype=np.uint8).ctypes.data
        for view in views.values():
            if view.nbytes:
                assert (view.ctypes.data - base) % ALIGN == 0

    def test_non_contiguous_input_is_packed(self):
        strided = np.arange(20, dtype=np.int64)[::2]
        _, views = unpack(pack(None, {"s": strided}))
        np.testing.assert_array_equal(views["s"], strided)

    def test_empty_payload(self):
        meta, views = unpack(pack({"only": "meta"}, {}))
        assert meta == {"only": "meta"}
        assert views == {}


class TestCorruption:
    def test_bad_magic(self):
        blob = bytearray(pack(None, {"a": np.arange(4)}))
        blob[:4] = b"XXXX"
        with pytest.raises(FlatBufferError, match="magic"):
            unpack(bytes(blob))

    def test_too_short_for_header(self):
        with pytest.raises(FlatBufferError):
            unpack(MAGIC[:2])

    def test_truncated_header(self):
        blob = pack(None, {"a": np.arange(4)})
        with pytest.raises(FlatBufferError, match="header"):
            unpack(blob[:10])

    def test_truncated_segment(self):
        blob = pack(None, {"a": np.arange(64, dtype=np.uint64)})
        with pytest.raises(FlatBufferError, match="truncated segment"):
            unpack(blob[:-16])

    def test_header_not_json(self):
        blob = bytearray(pack(None, {}))
        blob[8] = 0xFF  # first header byte: no longer valid UTF-8 JSON
        with pytest.raises(FlatBufferError, match="corrupt"):
            unpack(bytes(blob))


class TestFiles:
    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "artifact.rfb"
        arrays = _sample_arrays()
        path.write_bytes(pack({"v": 1}, arrays))
        view = read_file(path)
        assert isinstance(view, FlatView)
        assert view.meta == {"v": 1}
        for name, original in arrays.items():
            np.testing.assert_array_equal(view.arrays[name], original)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_file(tmp_path / "absent.rfb")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.rfb"
        path.write_bytes(b"")
        with pytest.raises(FlatBufferError):
            read_file(path)

    def test_corrupt_file_closes_mapping(self, tmp_path):
        path = tmp_path / "corrupt.rfb"
        path.write_bytes(b"XXXX" + b"\0" * 60)
        with pytest.raises(FlatBufferError):
            read_file(path)

    def test_mapping_survives_unlink(self, tmp_path):
        """Linux semantics: views stay readable after the file is removed."""
        path = tmp_path / "gone.rfb"
        original = np.arange(1024, dtype=np.uint64)
        path.write_bytes(pack(None, {"a": original}))
        view = read_file(path)
        path.unlink()
        np.testing.assert_array_equal(view.arrays["a"], original)
