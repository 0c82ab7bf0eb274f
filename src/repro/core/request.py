"""Request objects exchanged between the cache hierarchy, the memory
coalescer and the HMC device model.

Three levels of request exist in the simulated stack:

``Access``
    A CPU-level load/store as issued by a core (arbitrary byte address
    and size).  These hit the cache hierarchy.

``MemoryRequest``
    A cache-line-granularity LLC miss or write-back: what the paper's
    memory tracer routes from the LLC into the coalescer.  Carries the
    *actual requested bytes* so bandwidth-efficiency accounting can use
    true payload sizes (Figure 10 coalesces "based on the actual
    requested data size rather than the cache line size").

``CoalescedRequest``
    The output of the DMC unit: 1, 2 or 4 contiguous cache lines merged
    into a single HMC packet candidate.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.core.address import CACHE_LINE_SIZE, extend_address, invalid_key

_access_ids = itertools.count()
_request_ids = itertools.count()
_new = object.__new__
_LINE_SHIFT = CACHE_LINE_SIZE.bit_length() - 1


class RequestType(enum.IntEnum):
    """Memory request type.

    Loads and stores must never coalesce with each other; the paper
    encodes the distinction in bit 52 of the extended sort key.
    ``FENCE`` models the out-of-order processor's memory-fence
    operation, which drains the coalescer pipeline (Section 3.4).
    """

    LOAD = 0
    STORE = 1
    FENCE = 2


@dataclass(slots=True)
class Access:
    """A single CPU-level memory access.

    Attributes
    ----------
    addr:
        Byte address of the access.
    size:
        Access size in bytes (1..line size; typically 1-16 for the
        irregular workloads the paper targets).
    rtype:
        :class:`RequestType` of the access.
    thread_id:
        Issuing hardware thread / core; the driver interleaves the
        per-core streams into the shared-LLC order the paper relies on.
    pc:
        Program counter of the issuing instruction (0 when synthetic).
    access_id:
        Monotonically increasing identifier, used as the MSHR target
        token that ultimately notifies the core.
    """

    addr: int
    size: int
    rtype: RequestType = RequestType.LOAD
    thread_id: int = 0
    pc: int = 0
    access_id: int = field(default_factory=lambda: next(_access_ids))

    @property
    def is_store(self) -> bool:
        return self.rtype is RequestType.STORE

    @property
    def is_fence(self) -> bool:
        return self.rtype is RequestType.FENCE

    def __post_init__(self) -> None:
        if self.rtype is not RequestType.FENCE and self.size <= 0:
            raise ValueError("access size must be positive")


@dataclass(slots=True)
class MemoryRequest:
    """A cache-line-granularity request leaving the LLC.

    ``addr`` is always line-aligned; ``size`` is the line size.
    ``requested_bytes`` records how many bytes the originating core
    accesses actually asked for, which is what the paper's bandwidth
    efficiency metric (Equation 1) counts as *requested data*.

    ``line`` is the cache-line number, set once at construction:
    ``addr`` is frozen by convention once the request exists, and the
    merge machinery reads ``line`` several times per request.
    """

    addr: int
    rtype: RequestType
    size: int = CACHE_LINE_SIZE
    requested_bytes: int = 0
    targets: list[int] = field(default_factory=list)
    issue_cycle: int = 0
    request_id: int = field(default_factory=lambda: next(_request_ids))
    #: Memoized extended sort key (-1 = not yet computed).  Keys are
    #: nonnegative, so -1 is a safe sentinel.
    _sort_key: int = field(default=-1, repr=False, compare=False)
    #: Cache-line number of ``addr``.
    line: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.rtype is not RequestType.FENCE:
            if self.addr % CACHE_LINE_SIZE:
                raise ValueError(
                    f"MemoryRequest address {self.addr:#x} is not line aligned"
                )
            if self.requested_bytes <= 0:
                self.requested_bytes = self.size
        self.line = self.addr // CACHE_LINE_SIZE

    @classmethod
    def from_trace_row(
        cls, addr: int, rtype: RequestType, size: int, requested_bytes: int
    ) -> MemoryRequest:
        """Build a request from one validated trace row, unchecked.

        Skips ``__init__`` and ``__post_init__``.  The caller guarantees
        what they would check or normalize: ``rtype`` is a load or a
        store, ``addr`` is nonnegative and line-aligned, and
        ``requested_bytes`` is already normalized (a row that recorded
        none carries its ``size``).  The vector replay engine checks
        whole trace columns once at decode, then builds every request
        through here.
        """
        self = _new(cls)
        self.addr = addr
        self.rtype = rtype
        self.size = size
        self.requested_bytes = requested_bytes
        self.targets = []
        self.issue_cycle = 0
        self.request_id = next(_request_ids)
        self._sort_key = -1
        self.line = addr >> _LINE_SHIFT
        return self

    @property
    def is_store(self) -> bool:
        return self.rtype is RequestType.STORE

    @property
    def is_fence(self) -> bool:
        return self.rtype is RequestType.FENCE

    def sort_key(self) -> int:
        """Extended 54-bit key used by the request sorting network.

        Computed once and memoized: the key depends only on the frozen
        ``addr``/``rtype`` pair, and the sorting pipeline consults it
        for every comparator the request crosses.
        """
        key = self._sort_key
        if key < 0:
            if self.is_fence:
                # Fences are never sorted; they monopolize a pipeline stage.
                raise ValueError("memory fences do not carry a sort key")
            key = extend_address(self.addr, is_store=self.is_store)
            self._sort_key = key
        return key

    @staticmethod
    def padding_key() -> int:
        """Sort key of an invalid padding slot (Section 3.4)."""
        return invalid_key()


@dataclass(slots=True)
class CoalescedRequest:
    """One, two or four contiguous cache lines merged into an HMC packet.

    Produced by the DMC unit (first-phase coalescing).  ``num_lines``
    covers the HMC 2.1 request granularities the paper uses (1 line =
    64 B, 2 = 128 B, 4 = 256 B) plus the 8-line / 512 B packets of the
    future-generation scaling the paper sketches in Section 3.2.3
    ("extending the size and line ID segment").
    """

    addr: int
    num_lines: int
    rtype: RequestType
    constituents: list[MemoryRequest] = field(default_factory=list)
    issue_cycle: int = 0
    #: Optional reduced payload (adaptive granularity): the bytes the
    #: packet actually carries when less than the full line span.
    payload_bytes: int | None = None
    #: MSHR allocation generation at which a merge-while-full check
    #: last found no overlap (coalescer bookkeeping; entries only gain
    #: lines through allocation, so the check need not repeat until
    #: the generation advances).
    merge_checked_gen: int = field(default=-1, repr=False, compare=False)
    #: Memoized constituent byte total (-1 = not yet computed).  The
    #: constituent list is fixed while the packet waits to issue (an
    #: MSHR entry that takes the list over may grow it later, when
    #: nothing reads the packet); the service-time and
    #: adaptive-granularity paths both read the total.
    _requested_bytes: int = field(default=-1, repr=False, compare=False)

    VALID_LINE_COUNTS = (1, 2, 4, 8)

    def __post_init__(self) -> None:
        if self.num_lines not in self.VALID_LINE_COUNTS:
            raise ValueError(
                f"coalesced request must cover 1, 2, 4 or 8 lines, got {self.num_lines}"
            )
        if self.addr % CACHE_LINE_SIZE:
            raise ValueError("coalesced request address must be line aligned")

    @classmethod
    def from_aligned_span(
        cls,
        addr: int,
        num_lines: int,
        rtype: RequestType,
        constituents: list[MemoryRequest],
        issue_cycle: int,
    ) -> CoalescedRequest:
        """Build a packet over an aligned line span, unchecked.

        Skips ``__init__`` and ``__post_init__``.  The caller guarantees
        what they would check: ``num_lines`` is one of
        :attr:`VALID_LINE_COUNTS` and ``addr`` is line-aligned.  The
        batched coalescing kernel builds its packets through here: its
        kernel envelope and ``split_aligned_runs`` already guarantee
        both.  A one-request packet presets its constituent byte total
        to that request's ``requested_bytes``.
        """
        self = _new(cls)
        self.addr = addr
        self.num_lines = num_lines
        self.rtype = rtype
        self.constituents = constituents
        self.issue_cycle = issue_cycle
        self.payload_bytes = None
        self.merge_checked_gen = -1
        self._requested_bytes = (
            constituents[0].requested_bytes if len(constituents) == 1 else -1
        )
        return self

    @property
    def size(self) -> int:
        """Line-span size in bytes (64, 128, 256 or 512)."""
        return self.num_lines * CACHE_LINE_SIZE

    @property
    def effective_payload(self) -> int:
        """Bytes the HMC packet actually carries (adaptive granularity
        may shrink single-line packets below the line size)."""
        if self.payload_bytes is not None:
            return self.payload_bytes
        return self.size

    @property
    def is_store(self) -> bool:
        return self.rtype is RequestType.STORE

    @property
    def base_line(self) -> int:
        return self.addr // CACHE_LINE_SIZE

    @property
    def lines(self) -> range:
        """Cache-line numbers covered by this request."""
        base = self.base_line
        return range(base, base + self.num_lines)

    @property
    def requested_bytes(self) -> int:
        """Total bytes actually requested by the constituent accesses
        (memoized; the constituent list is fixed until the packet
        issues)."""
        total = self._requested_bytes
        if total < 0:
            cons = self.constituents
            if len(cons) == 1:
                total = self._requested_bytes = cons[0].requested_bytes
            else:
                total = self._requested_bytes = sum(
                    req.requested_bytes for req in cons
                )
        return total

    @property
    def size_field(self) -> int:
        """The MSHR *size* encoding: 00=64B, 01=128B, 10=256B, and
        11=512B for the future-generation scaling."""
        return {1: 0b00, 2: 0b01, 4: 0b10, 8: 0b11}[self.num_lines]

    def covers(self, line: int) -> bool:
        """Whether cache line number ``line`` falls inside this request."""
        return self.base_line <= line < self.base_line + self.num_lines


def reset_id_counters() -> None:
    """Reset the global access/request id counters (test isolation)."""
    global _access_ids, _request_ids
    _access_ids = itertools.count()
    _request_ids = itertools.count()
