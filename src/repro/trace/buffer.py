"""Columnar LLC trace container and its binary on-disk format.

A :class:`TraceBuffer` holds one captured LLC request stream as five
parallel ``array`` columns -- cycle, address, type+flags, line size and
requested bytes -- so replay walks packed machine words instead of
churning per-record objects, and the whole trace serializes as a
handful of contiguous blobs.

On-disk layout (all integers little-endian)::

    magic "RTRC" | version u16 | header_len u32 | header JSON (utf-8)
    | column payloads (cycle, addr, flags, size, requested)
    | sha256 of everything above (32 bytes)

The header carries the column typecodes/lengths plus a ``meta`` dict:
the aggregate tracer statistics of the capture (CPU accesses, kind
counts, requested bytes, secondary misses, ...) and the structural
cache key the store filed the trace under.  The trailing digest makes
corruption, truncation and partial writes detectable before a single
row is replayed; writes go through a temp file + ``os.replace`` so a
crashed writer never leaves a half-written trace behind.

Two read paths share the format.  :meth:`TraceBuffer.from_bytes` is
the eager one: it copies every column into ``array`` objects and
verifies the trailing sha256 up front.  :meth:`TraceBuffer.load` with
``mmap=True`` instead maps the file read-only and exposes the columns
as zero-copy NumPy views over the mapping, so N processes replaying
the same trace share page-cache pages instead of N private decodes.
Structural checks (magic, version, header, column extents) still run
eagerly; the sha256 over the payload is deferred to the first row
read (:meth:`columns` / :meth:`records`), where a mismatch raises
:class:`TraceIntegrityError` -- never a segfault or partial columns,
because the extent checks already proved every byte is in range.
"""

from __future__ import annotations

import hashlib
import json
import mmap as _mmap
import os
import struct
import sys
from array import array
from pathlib import Path
from typing import Iterator

from repro.cache.tracer import TraceRecord, TracerStats
from repro.core.request import MemoryRequest, RequestType
from repro.errors import ReproError

#: File magic of the binary trace format.
TRACE_MAGIC = b"RTRC"

#: Format version, bumped on incompatible layout changes.
TRACE_VERSION = 1

#: File suffix of one stored trace.
TRACE_SUFFIX = ".rtrace"

#: ``flags`` column encoding: request type in the low two bits,
#: event flags above them.
_TYPE_MASK = 0b11
_FLAG_WRITEBACK = 0x04
_FLAG_SECONDARY = 0x08
_FLAG_PREFETCH = 0x10

#: Column name -> array typecode, in serialization order.
_COLUMNS = (
    ("cycle", "q"),
    ("addr", "Q"),
    ("flags", "B"),
    ("size", "I"),
    ("requested", "I"),
)

_HEADER_PREFIX = struct.Struct("<HI")  # version, header_len

#: Array typecode -> explicit little-endian NumPy dtype string, for the
#: zero-copy ``frombuffer`` views of the mmap read path.
_NP_DTYPES = {"q": "<i8", "Q": "<u8", "B": "u1", "I": "<u4"}


class TraceError(ReproError, ValueError):
    """Base error for unreadable trace files (corrupt or truncated)."""


class TraceVersionError(TraceError):
    """The file's format version is not the one this code writes."""


class TraceIntegrityError(TraceError):
    """The file's trailing sha256 digest does not match its content."""


class TraceBuffer:
    """One captured LLC request stream in columnar form.

    Rows are appended during capture (:meth:`append_record`) and read
    back either as packed columns (:meth:`columns`, the replay path)
    or as reconstructed :class:`~repro.cache.tracer.TraceRecord`
    objects (:meth:`records`, for interop and tests).  Aggregate
    tracer statistics are accumulated as rows arrive so a finished
    buffer can reproduce the live run's :class:`TracerStats` and
    registry counters without a second pass.
    """

    __slots__ = (
        "cycles",
        "addrs",
        "flags",
        "sizes",
        "requested",
        "meta",
        "_llc_requests",
        "_writebacks",
        "_prefetches",
        "_fences",
        "_requested_bytes",
        "_kinds",
        "_source",
        "_verified",
        "replay_cache",
    )

    def __init__(self, meta: dict | None = None):
        self.cycles = array("q")
        self.addrs = array("Q")
        self.flags = array("B")
        self.sizes = array("I")
        self.requested = array("I")
        self.meta: dict = dict(meta) if meta else {}
        self._llc_requests = 0
        self._writebacks = 0
        self._prefetches = 0
        self._fences = 0
        self._requested_bytes = 0
        self._kinds = {"miss": 0, "secondary_miss": 0, "writeback": 0, "prefetch": 0}
        # mmap read path: the mapping backing zero-copy column views
        # (keeps the pages alive), and whether the trailing sha256 has
        # been checked yet.  Eager buffers are born verified.
        self._source: _mmap.mmap | None = None
        self._verified = True
        # Per-buffer scratch for replay engines: decoded columns and
        # sort keys (pure functions of the trace content), reusable
        # across back-to-back replays of the same buffer.  Never
        # serialized.
        self.replay_cache: dict | None = None

    # -- capture -------------------------------------------------------------

    def append_record(self, record: TraceRecord) -> None:
        """Append one tracer record as a packed row."""
        req = record.request
        flags = int(req.rtype)
        if record.is_writeback:
            flags |= _FLAG_WRITEBACK
        if record.is_secondary:
            flags |= _FLAG_SECONDARY
        if record.is_prefetch:
            flags |= _FLAG_PREFETCH
        self.cycles.append(record.cycle)
        self.addrs.append(req.addr)
        self.flags.append(flags)
        self.sizes.append(req.size)
        self.requested.append(req.requested_bytes)
        if req.rtype is RequestType.FENCE:
            self._fences += 1
            return
        # Mirror MemoryTracer's accounting exactly: per-flag totals
        # plus the precedence-resolved kind label of the registry.
        self._llc_requests += 1
        self._requested_bytes += req.requested_bytes
        if record.is_writeback:
            self._writebacks += 1
            kind = "writeback"
        elif record.is_prefetch:
            kind = "prefetch"
        else:
            kind = "secondary_miss" if record.is_secondary else "miss"
        if record.is_prefetch:
            self._prefetches += 1
        self._kinds[kind] += 1

    def extend_rows(self, cycles, addrs, flags, sizes, requested) -> None:
        """Append many packed rows at once (the batched-capture path).

        The five parallel columns may be NumPy arrays or any sequence
        coercible to the column dtypes.  Aggregate accounting matches a
        row-by-row :meth:`append_record` walk exactly -- the counters
        are plain integer sums, so order does not matter.
        """
        import numpy as np

        cyc = np.ascontiguousarray(cycles, dtype=np.int64)
        adr = np.ascontiguousarray(addrs, dtype=np.uint64)
        flg = np.ascontiguousarray(flags, dtype=np.uint8)
        siz = np.ascontiguousarray(sizes, dtype=np.uint32)
        req = np.ascontiguousarray(requested, dtype=np.uint32)
        n = len(cyc)
        if not (len(adr) == len(flg) == len(siz) == len(req) == n):
            raise ValueError("trace columns have inconsistent lengths")
        if not n:
            return
        self.cycles.frombytes(cyc.tobytes())
        self.addrs.frombytes(adr.tobytes())
        self.flags.frombytes(flg.tobytes())
        self.sizes.frombytes(siz.tobytes())
        self.requested.frombytes(req.tobytes())

        fence = (flg & _TYPE_MASK) == int(RequestType.FENCE)
        self._fences += int(fence.sum())
        live = ~fence
        self._llc_requests += int(live.sum())
        self._requested_bytes += int(req[live].astype(np.int64).sum())
        wb = live & ((flg & _FLAG_WRITEBACK) != 0)
        pf = live & ((flg & _FLAG_PREFETCH) != 0)
        sec = live & ((flg & _FLAG_SECONDARY) != 0)
        n_wb = int(wb.sum())
        self._writebacks += n_wb
        self._prefetches += int(pf.sum())
        kinds = self._kinds
        kinds["writeback"] += n_wb
        kinds["prefetch"] += int((pf & ~wb).sum())
        kinds["secondary_miss"] += int((sec & ~wb & ~pf).sum())
        kinds["miss"] += int((live & ~wb & ~pf & ~sec).sum())

    def finalize(
        self,
        *,
        benchmark: str,
        cpu_accesses: int,
        compute_cycles_per_access: float,
        secondary_misses: int,
        key_digest: str = "",
        key_payload: dict | None = None,
    ) -> "TraceBuffer":
        """Seal the capture with everything replay needs to rebuild a
        live run's tracer-side observables."""
        self.meta.update(
            {
                "benchmark": benchmark,
                "cpu_accesses": cpu_accesses,
                "compute_cycles_per_access": compute_cycles_per_access,
                "secondary_misses": secondary_misses,
                "llc_requests": self._llc_requests,
                "writebacks": self._writebacks,
                "prefetches": self._prefetches,
                "fences": self._fences,
                "requested_bytes": self._requested_bytes,
                "kinds": dict(self._kinds),
                "key_digest": key_digest,
            }
        )
        if key_payload is not None:
            self.meta["key"] = key_payload
        return self

    # -- reads ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.cycles)

    @property
    def last_cycle(self) -> int:
        """Cycle of the final record (0 for an empty trace)."""
        return int(self.cycles[-1]) if len(self.cycles) else 0

    @property
    def is_mmapped(self) -> bool:
        """Whether the columns are zero-copy views over a file mapping."""
        return self._source is not None

    def _ensure_verified(self) -> None:
        """Deferred integrity check of the mmap read path.

        Hashes the mapped payload once, on the first row read, and
        raises :class:`TraceIntegrityError` on mismatch -- the same
        error the eager :meth:`from_bytes` path raises up front.
        """
        if self._verified:
            return
        source = self._source
        if source is None:
            raise TraceError("trace buffer was closed (evicted from the store)")
        view = memoryview(source)
        try:
            if hashlib.sha256(view[:-32]).digest() != bytes(view[-32:]):
                raise TraceIntegrityError("trace digest mismatch (corrupt file)")
        finally:
            view.release()
        self._verified = True

    def columns(self) -> tuple[array, array, array, array, array]:
        """The packed (cycle, addr, flags, size, requested) columns."""
        self._ensure_verified()
        return self.cycles, self.addrs, self.flags, self.sizes, self.requested

    def tracer_stats(self) -> TracerStats:
        """The :class:`TracerStats` a live capture of this trace saw."""
        m = self.meta
        return TracerStats(
            cpu_accesses=m["cpu_accesses"],
            llc_requests=m["llc_requests"],
            writebacks=m["writebacks"],
            prefetches=m["prefetches"],
            requested_bytes=m["requested_bytes"],
        )

    def records(self) -> Iterator[TraceRecord]:
        """Reconstruct full :class:`TraceRecord` objects row by row."""
        self._ensure_verified()
        # int() at the boundary: mmap-backed columns index to NumPy
        # scalars, which must not leak into request objects or JSON.
        for i in range(len(self.cycles)):
            flags = int(self.flags[i])
            rtype = RequestType(flags & _TYPE_MASK)
            if rtype is RequestType.FENCE:
                request = MemoryRequest(addr=0, rtype=RequestType.FENCE)
            else:
                request = MemoryRequest(
                    addr=int(self.addrs[i]),
                    rtype=rtype,
                    size=int(self.sizes[i]),
                    requested_bytes=int(self.requested[i]),
                )
            yield TraceRecord(
                request=request,
                cycle=int(self.cycles[i]),
                is_writeback=bool(flags & _FLAG_WRITEBACK),
                is_secondary=bool(flags & _FLAG_SECONDARY),
                is_prefetch=bool(flags & _FLAG_PREFETCH),
            )

    # -- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to the versioned, digest-trailed binary format."""
        header = {
            "columns": [
                [name, code, len(getattr(self, _attr_of(name)))]
                for name, code in _COLUMNS
            ],
            "meta": self.meta,
        }
        header_blob = json.dumps(header, sort_keys=True).encode("utf-8")
        parts = [
            TRACE_MAGIC,
            _HEADER_PREFIX.pack(TRACE_VERSION, len(header_blob)),
            header_blob,
        ]
        for name, _code in _COLUMNS:
            col = getattr(self, _attr_of(name))
            if sys.byteorder == "big":  # pragma: no cover - LE hosts
                col = array(col.typecode, col)
                col.byteswap()
            parts.append(col.tobytes())
        payload = b"".join(parts)
        return payload + hashlib.sha256(payload).digest()

    def digest(self) -> str:
        """Stable content digest of the serialized trace."""
        if self._source is not None:
            # The mapped file's trailing 32 bytes *are* the digest of
            # its payload; verification proves they match the content,
            # so re-serializing would only reproduce the same bytes.
            self._ensure_verified()
            return bytes(self._source[-32:]).hex()
        blob = self.to_bytes()
        return blob[-32:].hex()

    @classmethod
    def from_bytes(cls, data: bytes) -> "TraceBuffer":
        """Parse the binary format, verifying version and integrity."""
        if len(data) < len(TRACE_MAGIC) + _HEADER_PREFIX.size + 32:
            raise TraceError("trace file is truncated (no header)")
        if data[: len(TRACE_MAGIC)] != TRACE_MAGIC:
            raise TraceError("not a repro binary trace (bad magic)")
        version, header_len = _HEADER_PREFIX.unpack_from(data, len(TRACE_MAGIC))
        if version != TRACE_VERSION:
            raise TraceVersionError(
                f"trace format version {version}, expected {TRACE_VERSION}"
            )
        payload, checksum = data[:-32], data[-32:]
        if hashlib.sha256(payload).digest() != checksum:
            raise TraceIntegrityError("trace digest mismatch (corrupt file)")
        offset = len(TRACE_MAGIC) + _HEADER_PREFIX.size
        try:
            header = json.loads(data[offset : offset + header_len])
        except ValueError as exc:
            raise TraceError(f"unreadable trace header: {exc}") from exc
        offset += header_len

        buf = cls(meta=header.get("meta") or {})
        for name, code, count in header.get("columns", []):
            col = array(code)
            nbytes = count * col.itemsize
            if offset + nbytes > len(payload):
                raise TraceError(f"trace column {name!r} is truncated")
            col.frombytes(data[offset : offset + nbytes])
            if sys.byteorder == "big":  # pragma: no cover - LE hosts
                col.byteswap()
            setattr(buf, _attr_of(name), col)
            offset += nbytes
        lengths = {len(getattr(buf, _attr_of(name))) for name, _ in _COLUMNS}
        if len(lengths) != 1:
            raise TraceError("trace columns have inconsistent lengths")
        return buf

    def save(self, path: str | Path) -> Path:
        """Atomically write the trace to ``path`` (temp + rename)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
        tmp.write_bytes(self.to_bytes())
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path: str | Path, *, mmap: bool = False) -> "TraceBuffer":
        """Read and validate a stored trace.

        With ``mmap=True`` the columns become read-only zero-copy
        NumPy views over a private file mapping: structural validation
        (magic, version, header, column extents) runs now, the sha256
        integrity check is deferred to the first row read.  The
        mapping outlives an unlink of the path, so store GC stays
        safe.
        """
        if mmap:
            return cls._load_mmap(Path(path))
        return cls.from_bytes(Path(path).read_bytes())

    @classmethod
    def _load_mmap(cls, path: Path) -> "TraceBuffer":
        """Map ``path`` read-only and build a zero-copy buffer over it."""
        import numpy as np

        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            if size < len(TRACE_MAGIC) + _HEADER_PREFIX.size + 32:
                raise TraceError("trace file is truncated (no header)")
            try:
                source = _mmap.mmap(
                    handle.fileno(), 0, access=_mmap.ACCESS_READ
                )
            except (ValueError, OSError) as exc:
                raise TraceError(f"unmappable trace file: {exc}") from exc
        try:
            if source[: len(TRACE_MAGIC)] != TRACE_MAGIC:
                raise TraceError("not a repro binary trace (bad magic)")
            version, header_len = _HEADER_PREFIX.unpack_from(
                source, len(TRACE_MAGIC)
            )
            if version != TRACE_VERSION:
                raise TraceVersionError(
                    f"trace format version {version}, expected {TRACE_VERSION}"
                )
            offset = len(TRACE_MAGIC) + _HEADER_PREFIX.size
            if offset + header_len > size - 32:
                raise TraceError("trace file is truncated (header overruns)")
            try:
                header = json.loads(source[offset : offset + header_len])
            except ValueError as exc:
                raise TraceError(f"unreadable trace header: {exc}") from exc
            offset += header_len

            buf = cls(meta=header.get("meta") or {})
            for name, code, count in header.get("columns", []):
                dtype = _NP_DTYPES.get(code)
                if dtype is None:
                    raise TraceError(f"trace column {name!r} has unknown typecode")
                nbytes = count * np.dtype(dtype).itemsize
                if offset + nbytes > size - 32:
                    raise TraceError(f"trace column {name!r} is truncated")
                setattr(
                    buf,
                    _attr_of(name),
                    np.frombuffer(source, dtype=dtype, count=count, offset=offset),
                )
                offset += nbytes
            lengths = {len(getattr(buf, _attr_of(name))) for name, _ in _COLUMNS}
            if len(lengths) != 1:
                raise TraceError("trace columns have inconsistent lengths")
        except Exception:
            try:
                source.close()
            except BufferError:  # column views already exported
                pass
            raise
        buf._source = source
        buf._verified = False
        return buf

    def close(self) -> None:
        """Release the file mapping behind an mmap-loaded buffer.

        Eager buffers no-op.  For the mmap read path this drops the
        zero-copy column views (and any replay scratch derived from
        them) so the mapping's buffer exports disappear, then closes
        the mapping -- returning its file descriptor to the OS.  The
        store calls this on every eviction; without it a long sweep
        leaks one fd per trace the LRU ever dropped.  If a caller
        still holds column views, the close is deferred to the last
        view's death (the mapping object keeps the fd until then) and
        the buffer is still marked closed.  A closed buffer must not
        be replayed again: the next :meth:`columns`/:meth:`records`
        call raises :class:`TraceError` instead of reading empty
        columns silently.
        """
        source = self._source
        if source is None:
            return
        for name, code in _COLUMNS:
            setattr(self, _attr_of(name), array(code))
        self.replay_cache = None
        self._source = None
        self._verified = False
        try:
            source.close()
        except BufferError:  # pragma: no cover - caller-held views
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = self.meta.get("benchmark", "?")
        return f"TraceBuffer({name}, {len(self)} records)"


def _attr_of(column: str) -> str:
    return {
        "cycle": "cycles",
        "addr": "addrs",
        "flags": "flags",
        "size": "sizes",
        "requested": "requested",
    }[column]
