"""Chunked, compressed, append-only trace container for out-of-core traces.

Real application traces are multi-GB, so an ingestion pipeline must
never materialize the whole stream.  This module defines the one
on-disk trace format, the container the streaming pipeline reads and
writes:

* a fixed-width JSON **header** (``HEADER_BYTES`` bytes, space padded)
  carrying schema version, record count, address width, chunk size and
  compression codec -- rewritten in place on clean close so a reader
  can trust ``records`` without scanning;
* a sequence of **frames**, each a 17-byte little-endian header
  (``magic "RTC1" | kind u8 | records u32 | payload_bytes u32 |
  crc32 u32``) followed by the (optionally compressed) columnar
  payload ``addresses int64 | work int64 | is_write uint8``;
* **torn-tail tolerance** on read, mirroring ``obs/ledger.py``: a
  writer killed mid-frame leaves a readable prefix, and the reader
  reports (rather than raises on) the truncated tail.  Corruption
  *before* the tail still raises a precise :class:`ValueError`.

The container is append-only by design -- a collector streams frames
as they are produced -- so the streaming writer is torn-tail tolerant
rather than atomic; the whole-trace convenience :func:`write_trace`
goes through a temp file + ``os.replace`` like :mod:`repro.ioutil`.

>>> import numpy as np, tempfile, os
>>> path = os.path.join(tempfile.mkdtemp(), "t.rtc")
>>> with TraceStoreWriter(path, chunk_records=4) as w:
...     w.append([1, 2, 1, 3, 2, 1])
...     w.barrier()
...     w.append([7, 7], is_write=True, work=5)
>>> r = TraceStoreReader(path)
>>> r.records, r.compression
(8, 'zlib')
>>> [c.addresses.tolist() for c in r.chunks()]
[[1, 2, 1, 3], [2, 1, 7, 7]]
>>> (r.barriers.tolist(), r.torn_tail)
([6], False)
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.trace.events import Trace

__all__ = [
    "STORE_FORMAT",
    "STORE_VERSION",
    "STORE_SUFFIX",
    "HEADER_BYTES",
    "FRAME_MAGIC",
    "TraceChunk",
    "TraceStoreWriter",
    "TraceStoreReader",
    "write_trace",
    "read_trace",
    "import_address_text",
    "import_address_binary",
    "available_compressions",
]

#: Container schema identifier carried in every header.
STORE_FORMAT = "repro-trace-store/1"
#: Bump on any incompatible byte-layout change; readers reject mismatches.
STORE_VERSION = 1
#: Conventional file suffix for trace containers.
STORE_SUFFIX = ".rtc"
#: Fixed width of the JSON header line (space padded, newline terminated).
HEADER_BYTES = 256
#: Magic prefix of every frame header.
FRAME_MAGIC = b"RTC1"

_FRAME_HEADER = struct.Struct("<4sBIII")  # magic, kind, records, payload, crc32
_KIND_RECORDS = 0
_KIND_BARRIERS = 1
_MAX_PAYLOAD = 1 << 30  # anything larger is corruption, not data

try:  # lz4 is optional; the container degrades to zlib/none without it.
    import lz4.frame as _lz4  # type: ignore[import-not-found]
except ImportError:  # pragma: no cover - depends on environment
    _lz4 = None


def available_compressions() -> tuple[str, ...]:
    """Codecs usable in this environment (``lz4`` only if importable)."""
    codecs = ["none", "zlib"]
    if _lz4 is not None:  # pragma: no cover - depends on environment
        codecs.append("lz4")
    return tuple(codecs)


def _compress(payload: bytes, codec: str) -> bytes:
    if codec == "none":
        return payload
    if codec == "zlib":
        return zlib.compress(payload, 6)
    if codec == "lz4":  # pragma: no cover - depends on environment
        return _lz4.compress(payload)
    raise ValueError(f"unknown compression codec {codec!r}")


def _decompress(payload: bytes, codec: str) -> bytes:
    if codec == "none":
        return payload
    if codec == "zlib":
        return zlib.decompress(payload)
    if codec == "lz4":  # pragma: no cover - depends on environment
        return _lz4.decompress(payload)
    raise ValueError(f"unknown compression codec {codec!r}")


def _check_codec(codec: str) -> str:
    if codec not in ("none", "zlib", "lz4"):
        raise ValueError(
            f"unknown compression codec {codec!r}; choose from none/zlib/lz4"
        )
    if codec == "lz4" and _lz4 is None:
        raise ValueError(
            "lz4 compression requested but the lz4 package is not installed; "
            "use 'zlib' or 'none'"
        )
    return codec


@dataclass(frozen=True)
class TraceChunk:
    """One decoded frame of records: a contiguous slice of the stream."""

    addresses: np.ndarray  #: int64 item addresses
    is_write: np.ndarray  #: bool flags, parallel to addresses
    work: np.ndarray  #: int64 non-memory instructions before each reference
    start: int  #: absolute index of the first record in the stream

    def __len__(self) -> int:
        return int(self.addresses.size)


def _header_bytes(fields: dict) -> bytes:
    line = json.dumps(fields, separators=(",", ":"), sort_keys=True)
    raw = line.encode("utf-8")
    if len(raw) >= HEADER_BYTES:  # pragma: no cover - fields are bounded
        raise ValueError("header does not fit the fixed header block")
    return raw + b" " * (HEADER_BYTES - 1 - len(raw)) + b"\n"


class TraceStoreWriter:
    """Append-only streaming writer; buffers to fixed-size record chunks.

    Records are buffered until ``chunk_records`` accumulate, then framed
    and flushed; a final short frame is written on :meth:`close`, which
    also rewrites the header in place with the true record count,
    maximum address and barrier count (``records == -1`` in the header
    marks an unclean close, and readers then count frames instead).
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        chunk_records: int = 65536,
        compression: str = "zlib",
    ) -> None:
        if chunk_records <= 0:
            raise ValueError("chunk_records must be positive")
        self.path = Path(path)
        self.chunk_records = int(chunk_records)
        self.compression = _check_codec(compression)
        self.records = 0
        self.max_address = -1
        self.tail_work = 0
        self._barriers: list[int] = []
        self._pending: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._pending_n = 0
        self._closed = False
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "wb")
        self._file.write(self._header(records=-1, barriers=-1))

    def _header(self, records: int, barriers: int) -> bytes:
        return _header_bytes(
            {
                "format": STORE_FORMAT,
                "version": STORE_VERSION,
                "address_width": 64,
                "chunk_records": self.chunk_records,
                "compression": self.compression,
                "records": records,
                "max_address": self.max_address,
                "barriers": barriers,
                "tail_work": self.tail_work,
            }
        )

    # ------------------------------------------------------------------
    def append(
        self,
        addresses: Sequence[int] | np.ndarray,
        is_write: bool | Sequence[bool] | np.ndarray = False,
        work: int | Sequence[int] | np.ndarray = 0,
    ) -> None:
        """Append references; scalar ``is_write``/``work`` broadcast."""
        if self._closed:
            raise ValueError("writer is closed")
        addr = np.ascontiguousarray(addresses, dtype=np.int64).reshape(-1)
        if addr.size == 0:
            return
        if addr.min() < 0:
            raise ValueError("addresses must be non-negative")
        wr = np.broadcast_to(
            np.asarray(is_write, dtype=bool), addr.shape
        ).copy()
        wk = np.broadcast_to(np.asarray(work, dtype=np.int64), addr.shape).copy()
        if wk.min() < 0:
            raise ValueError("work counts must be non-negative")
        self.max_address = max(self.max_address, int(addr.max()))
        self._pending.append((addr, wr, wk))
        self._pending_n += addr.size
        while self._pending_n >= self.chunk_records:
            self._flush_chunk(self.chunk_records)

    def append_trace(self, trace: Trace) -> None:
        """Append a whole in-memory :class:`Trace`, barriers included."""
        base = self.records + self._pending_n
        for b in trace.barriers.tolist():
            self._barriers.append(base + int(b))
        self.append(trace.addresses, trace.is_write, trace.work)
        self.tail_work += int(trace.tail_work)

    def barrier(self) -> None:
        """Record a barrier at the current position in the stream."""
        if self._closed:
            raise ValueError("writer is closed")
        self._barriers.append(self.records + self._pending_n)

    # ------------------------------------------------------------------
    def _take(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        addr = np.concatenate([p[0] for p in self._pending])
        wr = np.concatenate([p[1] for p in self._pending])
        wk = np.concatenate([p[2] for p in self._pending])
        self._pending = []
        self._pending_n = addr.size - n
        if self._pending_n:
            self._pending.append((addr[n:], wr[n:], wk[n:]))
        return addr[:n], wr[:n], wk[:n]

    def _write_frame(self, kind: int, records: int, payload: bytes) -> None:
        comp = _compress(payload, self.compression)
        header = _FRAME_HEADER.pack(
            FRAME_MAGIC, kind, records, len(comp), zlib.crc32(comp) & 0xFFFFFFFF
        )
        self._file.write(header + comp)

    def _flush_chunk(self, n: int) -> None:
        addr, wr, wk = self._take(n)
        payload = addr.tobytes() + wk.tobytes() + wr.astype(np.uint8).tobytes()
        self._write_frame(_KIND_RECORDS, addr.size, payload)
        self.records += addr.size

    def close(self) -> None:
        """Flush buffers, append barriers, rewrite the header in place."""
        if self._closed:
            return
        if self._pending_n:
            self._flush_chunk(self._pending_n)
        if self._barriers:
            b = np.asarray(sorted(self._barriers), dtype=np.int64)
            self._write_frame(_KIND_BARRIERS, b.size, b.tobytes())
        self._file.flush()
        self._file.seek(0)
        self._file.write(self._header(records=self.records, barriers=len(self._barriers)))
        self._file.close()
        self._closed = True

    def __enter__(self) -> "TraceStoreWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TraceStoreReader:
    """Chunk-at-a-time reader with torn-tail tolerance.

    Parsing failures in the header or in any frame that is *followed by
    more data* raise :class:`ValueError` naming the path; a malformed
    final frame (the classic killed-writer signature) merely sets
    :attr:`torn_tail` and ends iteration, mirroring how
    ``repro.obs.ledger.read_ledger`` treats a torn last line.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        try:
            raw = self.path.read_bytes()[:HEADER_BYTES]
        except OSError as exc:
            raise ValueError(f"cannot read trace container {self.path}: {exc}") from exc
        if len(raw) < HEADER_BYTES:
            raise ValueError(
                f"corrupt trace container {self.path}: truncated header "
                f"({len(raw)} bytes, need {HEADER_BYTES})"
            )
        try:
            fields = json.loads(raw.decode("utf-8").strip())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(
                f"corrupt trace container {self.path}: unreadable header ({exc})"
            ) from exc
        if fields.get("format") != STORE_FORMAT:
            raise ValueError(
                f"{self.path} is not a trace container "
                f"(format={fields.get('format')!r}, expected {STORE_FORMAT!r})"
            )
        if fields.get("version") != STORE_VERSION:
            raise ValueError(
                f"unsupported trace container version {fields.get('version')!r} "
                f"in {self.path} (this reader supports {STORE_VERSION})"
            )
        self.header = fields
        self.compression = _check_codec(fields["compression"])
        self.chunk_records = int(fields["chunk_records"])
        #: Record count from the header; -1 means the writer did not
        #: close cleanly and the true count is only known after a scan.
        self.records = int(fields["records"])
        self.max_address = int(fields["max_address"])
        self.tail_work = int(fields.get("tail_work", 0))
        self.clean_close = self.records >= 0
        self.torn_tail = False
        self.records_read = 0
        self.frames_read = 0
        self._barrier_parts: list[np.ndarray] = []

    # ------------------------------------------------------------------
    @property
    def barriers(self) -> np.ndarray:
        """Barrier indices seen so far (complete after a full iteration)."""
        if not self._barrier_parts:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(self._barrier_parts)

    def chunks(self) -> Iterator[TraceChunk]:
        """Yield each record frame as a :class:`TraceChunk`, in order."""
        self.torn_tail = False
        self.records_read = 0
        self.frames_read = 0
        self._barrier_parts = []
        with open(self.path, "rb") as f:
            f.seek(HEADER_BYTES)
            while True:
                header = f.read(_FRAME_HEADER.size)
                if not header:
                    return  # clean end of stream
                if len(header) < _FRAME_HEADER.size:
                    self.torn_tail = True
                    return
                magic, kind, records, payload_len, crc = _FRAME_HEADER.unpack(header)
                if magic != FRAME_MAGIC:
                    raise ValueError(
                        f"corrupt trace container {self.path}: bad frame magic "
                        f"{magic!r} at byte {f.tell() - _FRAME_HEADER.size}"
                    )
                if kind not in (_KIND_RECORDS, _KIND_BARRIERS) or payload_len > _MAX_PAYLOAD:
                    raise ValueError(
                        f"corrupt trace container {self.path}: invalid frame "
                        f"(kind={kind}, payload={payload_len} bytes)"
                    )
                payload = f.read(payload_len)
                if len(payload) < payload_len:
                    self.torn_tail = True  # writer died mid-payload
                    return
                if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
                    if not f.read(1):  # checksum failure on the final frame
                        self.torn_tail = True
                        return
                    raise ValueError(
                        f"corrupt trace container {self.path}: frame checksum "
                        f"mismatch before end of file"
                    )
                try:
                    decoded = _decompress(payload, self.compression)
                except zlib.error as exc:
                    raise ValueError(
                        f"corrupt trace container {self.path}: undecodable "
                        f"frame payload ({exc})"
                    ) from exc
                self.frames_read += 1
                if kind == _KIND_BARRIERS:
                    self._barrier_parts.append(
                        np.frombuffer(decoded, dtype=np.int64, count=records).copy()
                    )
                    continue
                expect = records * (8 + 8 + 1)
                if len(decoded) != expect:
                    raise ValueError(
                        f"corrupt trace container {self.path}: frame declares "
                        f"{records} records but payload decodes to "
                        f"{len(decoded)} bytes (expected {expect})"
                    )
                addr = np.frombuffer(decoded, dtype=np.int64, count=records).copy()
                wk = np.frombuffer(
                    decoded, dtype=np.int64, count=records, offset=8 * records
                ).copy()
                wr = (
                    np.frombuffer(
                        decoded, dtype=np.uint8, count=records, offset=16 * records
                    )
                    .astype(bool)
                )
                start = self.records_read
                self.records_read += records
                yield TraceChunk(addresses=addr, is_write=wr, work=wk, start=start)

    def scan(self) -> dict:
        """Walk every frame without keeping data; returns summary stats."""
        max_addr = -1
        chunk_count = 0
        for chunk in self.chunks():
            chunk_count += 1
            if len(chunk):
                max_addr = max(max_addr, int(chunk.addresses.max()))
        return {
            "records": self.records_read,
            "chunks": chunk_count,
            "barriers": int(self.barriers.size),
            "max_address": max_addr if max_addr >= 0 else self.max_address,
            "bytes": self.path.stat().st_size,
            "torn_tail": self.torn_tail,
            "clean_close": self.clean_close,
        }

    def read_all(self) -> Trace:
        """Materialize the whole container as one :class:`Trace`.

        Only for traces known to fit in RAM -- the streaming pipeline
        never calls this.
        """
        parts = list(self.chunks())
        if not parts:
            empty = np.zeros(0, dtype=np.int64)
            return Trace(
                addresses=empty,
                is_write=np.zeros(0, dtype=bool),
                work=empty.copy(),
                barriers=empty.copy(),
                tail_work=self.tail_work,
            )
        return Trace(
            addresses=np.concatenate([c.addresses for c in parts]),
            is_write=np.concatenate([c.is_write for c in parts]),
            work=np.concatenate([c.work for c in parts]),
            barriers=np.sort(self.barriers),
            tail_work=self.tail_work,
        )


# ----------------------------------------------------------------------
# Convenience round-trip and importers
# ----------------------------------------------------------------------

def write_trace(
    path: str | os.PathLike,
    trace: Trace,
    *,
    chunk_records: int = 65536,
    compression: str = "zlib",
) -> Path:
    """Write one in-memory trace as a container, atomically.

    Builds the container in a same-directory temp file and
    ``os.replace``s it into place (the :mod:`repro.ioutil` recipe), so
    a crashed writer leaves either the old file or the complete new one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        with TraceStoreWriter(
            tmp, chunk_records=chunk_records, compression=compression
        ) as w:
            w.append_trace(trace)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def read_trace(path: str | os.PathLike) -> Trace:
    """Materialize a container written by :func:`write_trace`."""
    return TraceStoreReader(path).read_all()


def import_address_text(
    src: str | os.PathLike,
    dst: str | os.PathLike,
    *,
    chunk_records: int = 65536,
    compression: str = "zlib",
) -> int:
    """Convert a plain-text address stream into a container; returns records.

    One reference per line: ``address [r|w] [work]`` with ``address``
    decimal or ``0x`` hex.  Blank lines and ``#`` comments are skipped.
    The file is streamed line by line -- it is never held in memory.
    """
    dst_writer = TraceStoreWriter(
        dst, chunk_records=chunk_records, compression=compression
    )
    addrs: list[int] = []
    writes: list[bool] = []
    works: list[int] = []

    def flush() -> None:
        if addrs:
            dst_writer.append(
                np.asarray(addrs, dtype=np.int64),
                np.asarray(writes, dtype=bool),
                np.asarray(works, dtype=np.int64),
            )
            addrs.clear()
            writes.clear()
            works.clear()

    with open(src, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split()
            try:
                addr = int(parts[0], 0)
                wr = len(parts) > 1 and parts[1].lower() in ("w", "write", "1")
                wk = int(parts[2], 0) if len(parts) > 2 else 0
            except ValueError as exc:
                dst_writer.close()
                raise ValueError(
                    f"bad trace line {lineno} in {src}: {text!r} ({exc})"
                ) from exc
            addrs.append(addr)
            writes.append(wr)
            works.append(wk)
            if len(addrs) >= chunk_records:
                flush()
    flush()
    dst_writer.close()
    return dst_writer.records


def import_address_binary(
    src: str | os.PathLike,
    dst: str | os.PathLike,
    *,
    dtype: str = "<i8",
    chunk_records: int = 65536,
    compression: str = "zlib",
) -> int:
    """Convert a raw binary address array into a container; returns records.

    ``dtype`` is any fixed-width numpy integer dtype string (default
    little-endian int64).  Addresses are read ``chunk_records`` at a
    time with ``np.fromfile`` -- the source is never materialized.
    """
    dt = np.dtype(dtype)
    if dt.kind not in ("i", "u"):
        raise ValueError(f"binary trace dtype must be an integer type, got {dtype!r}")
    writer = TraceStoreWriter(dst, chunk_records=chunk_records, compression=compression)
    with open(src, "rb") as f:
        while True:
            block = np.fromfile(f, dtype=dt, count=chunk_records)
            if block.size == 0:
                break
            writer.append(block.astype(np.int64, copy=False))
    writer.close()
    return writer.records
