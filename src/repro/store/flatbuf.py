"""Flat-buffer serialization: one JSON header + contiguous array segments.

Every artifact of the store and of the worker backplane travels in this
layout.  Most artifacts — compiled simulation plans, CSR adjacency,
packed reach bitmaps, the implication DB — are dominated by large
contiguous arrays, which a reader should map rather than copy into
fresh heap memory per process.  The layout is trivially mmap-able::

    offset 0   magic ``b"RFB1"``
    offset 4   uint32 little-endian header length ``H``
    offset 8   ``H`` bytes of UTF-8 JSON: ``{"meta": ..., "segments":
               [[name, dtype, shape, rel_offset, nbytes], ...]}``
    data       each segment's raw bytes, 64-byte aligned relative to
               ``data_start = align64(8 + H)``

Segment offsets in the header are relative to ``data_start``, so the
header can be serialized without a fixed-point iteration on its own
length.  Decoding (:func:`unpack` / :func:`read_file`) returns zero-copy
read-only ``np.frombuffer`` views over the source buffer — an ``mmap``
of the store file or a ``multiprocessing.shared_memory`` block — so a
warm load or a worker attach costs page faults, not deserialization.
The views keep the underlying buffer alive through their ``base`` chain;
the store's eviction pinning hooks a ``weakref.finalize`` onto the mmap
object to learn when the last view dies.
"""

from __future__ import annotations

import json
import mmap
import struct
from pathlib import Path
from typing import Any

import numpy as np

#: file magic of the flat-buffer layout (version baked into the tag).
MAGIC = b"RFB1"

#: segment alignment in bytes (one cache line; keeps uint64 rows aligned).
ALIGN = 64

_HEADER_FMT = "<I"
_HEADER_PREFIX = len(MAGIC) + struct.calcsize(_HEADER_FMT)


class FlatBufferError(ValueError):
    """Raised for truncated, misaligned or non-flat-buffer payloads."""


def _align(offset: int) -> int:
    return (offset + ALIGN - 1) // ALIGN * ALIGN


def pack(meta: Any, arrays: dict[str, Any]) -> bytes:
    """Serialize ``meta`` (JSON-able) plus named arrays into one blob.

    Arrays are stored C-contiguous in dict order; zero-length arrays are
    legal (their segment is empty).  ``meta`` must round-trip through
    JSON — keep it to plain dicts/lists/strings/numbers.
    """
    contiguous = {
        name: np.ascontiguousarray(arr) for name, arr in arrays.items()
    }
    segments: list[list[Any]] = []
    rel = 0
    for name, arr in contiguous.items():
        rel = _align(rel)
        segments.append(
            [name, arr.dtype.str, list(arr.shape), rel, arr.nbytes]
        )
        rel += arr.nbytes
    header = json.dumps(
        {"meta": meta, "segments": segments}, separators=(",", ":")
    ).encode("utf-8")
    data_start = _align(_HEADER_PREFIX + len(header))
    blob = bytearray(data_start + rel)
    blob[: len(MAGIC)] = MAGIC
    struct.pack_into(_HEADER_FMT, blob, len(MAGIC), len(header))
    blob[_HEADER_PREFIX: _HEADER_PREFIX + len(header)] = header
    for (name, _dtype, _shape, offset, nbytes), arr in zip(
        segments, contiguous.values()
    ):
        if nbytes:
            start = data_start + offset
            blob[start: start + nbytes] = arr.tobytes()
    return bytes(blob)


def unpack(buffer: Any) -> tuple[Any, dict[str, Any]]:
    """Decode one flat buffer into ``(meta, {name: array_view})``.

    ``buffer`` is any object exposing the buffer protocol (bytes, an
    ``mmap``, a ``memoryview`` of shared memory).  The returned arrays
    are zero-copy read-only views into it — the caller must keep the
    buffer alive for as long as any view is (numpy's ``base`` chain does
    this automatically for the views themselves).
    """
    view = memoryview(buffer)
    total = view.nbytes
    if total < _HEADER_PREFIX or bytes(view[: len(MAGIC)]) != MAGIC:
        raise FlatBufferError("not a flat-buffer payload (bad magic)")
    (header_len,) = struct.unpack_from(_HEADER_FMT, view, len(MAGIC))
    if _HEADER_PREFIX + header_len > total:
        raise FlatBufferError("truncated flat-buffer header")
    try:
        header = json.loads(
            bytes(view[_HEADER_PREFIX: _HEADER_PREFIX + header_len])
        )
        segments = header["segments"]
        meta = header["meta"]
    except (ValueError, KeyError, TypeError) as exc:
        raise FlatBufferError(f"corrupt flat-buffer header: {exc}") from exc
    data_start = _align(_HEADER_PREFIX + header_len)
    arrays: dict[str, Any] = {}
    for entry in segments:
        try:
            name, dtype_str, shape, rel, nbytes = entry
            dtype = np.dtype(dtype_str)
            count = int(nbytes) // dtype.itemsize if dtype.itemsize else 0
        except (ValueError, TypeError) as exc:
            raise FlatBufferError(
                f"corrupt flat-buffer segment table: {exc}"
            ) from exc
        start = data_start + int(rel)
        if start + int(nbytes) > total:
            raise FlatBufferError(f"truncated segment {name!r}")
        arr = np.frombuffer(buffer, dtype=dtype, count=count, offset=start)
        arr = arr.reshape(tuple(shape))
        if arr.flags.writeable:
            arr.flags.writeable = False
        arrays[str(name)] = arr
    return meta, arrays


class FlatView:
    """One decoded flat-buffer file: meta, array views, and their mmap.

    The array views alias :attr:`buffer`; dropping the view object is
    fine, the views themselves keep the mmap alive.  :attr:`buffer` is
    exposed so the store can pin the backing file against eviction for
    the mmap's lifetime (``weakref.finalize`` on it).
    """

    def __init__(self, meta: Any, arrays: dict[str, Any], buffer: Any) -> None:
        self.meta = meta
        self.arrays = arrays
        self.buffer = buffer


def read_file(path: str | Path) -> FlatView:
    """Memory-map one flat-buffer file and decode it zero-copy.

    Raises ``FileNotFoundError`` on a missing file and
    :class:`FlatBufferError` on a malformed one.  The mapping is
    ``ACCESS_READ`` — every view is read-only, and the mapping survives
    the file being unlinked by a peer process (Linux semantics), so a
    concurrent eviction can never tear data out from under a live run.
    """
    with open(path, "rb") as fh:
        try:
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as exc:  # zero-length file
            raise FlatBufferError("empty flat-buffer file") from exc
    try:
        meta, arrays = unpack(mapped)
    except FlatBufferError:
        # The in-flight exception's traceback still references unpack's
        # frame — and with it a memoryview export of the mapping — so an
        # eager close() can raise BufferError.  Garbage collection unmaps
        # once the exception is handled; eviction safety does not depend
        # on it (the mapping survives unlink anyway).
        try:
            mapped.close()
        except BufferError:
            pass
        raise
    return FlatView(meta, arrays, mapped)
