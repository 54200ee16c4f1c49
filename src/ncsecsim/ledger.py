"""Simulated distributed ledger shared by the per-cell security controllers.

Consensus is abstracted to its observable contract: candidate entries
collect into blocks that verify at most once per collection period
(1000 ms by default).  Verification happens at integer multiples of the
period, every pending candidate submitted at or before the boundary lands
in that block, and the block becomes visible to all registered
controllers atomically.  Boundaries with nothing pending produce no block
and no broadcast.  A verified block costs one broadcast signal however
many candidates it carries; that single shared signal is what makes the
scheme's steady-state signaling cheap.

Candidate submission is idempotent per (domain, entry kind): once a
cell's key set is pending or ledgered, resubmissions are no-ops and cost
no signal.

The ledger keeps two logs, ``upload_log`` (one row per accepted
candidate) and ``blocks``; it writes no trace.  ``handover`` turns them
into signal rows after a run: an upload per accepted candidate and a
broadcast per block.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ClockError, InvalidParameter, UnknownController

DEFAULT_COLLECTION_PERIOD_MS = 1000

#: Length of the windows [k * len, (k + 1) * len) of the per-second curves.
SIGNALING_WINDOW_MS = 1000


class SignalKind(Enum):
    CANDIDATE_UPLOAD = "candidate_upload"
    BLOCK_BROADCAST = "block_broadcast"
    KEY_TO_UE = "key_to_ue"
    KEY_TO_SBS = "key_to_sbs"  # baseline per-handover key transfer, target to serving
    HO_REQUEST = "ho_request"
    HO_ACK = "ho_ack"
    HO_COMMAND = "ho_command"
    HO_CONFIRM = "ho_confirm"
    HO_COMPLETE = "ho_complete"
    PATH_SWITCH = "path_switch"


#: Kinds that count toward key-exchange signaling totals.
KEY_EXCHANGE_KINDS = frozenset(
    {
        SignalKind.CANDIDATE_UPLOAD,
        SignalKind.BLOCK_BROADCAST,
        SignalKind.KEY_TO_UE,
        SignalKind.KEY_TO_SBS,
    }
)


@dataclass(frozen=True)
class SignalRecord:
    """One control-plane signal event."""

    kind: SignalKind
    src: str
    dst: str
    t: int  # simulation time, ms
    counts_as_key_exchange: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "counts_as_key_exchange", self.kind in KEY_EXCHANGE_KINDS
        )


_KINDS = tuple(SignalKind)
#: The code a ``SignalTrace`` stores for each kind.
KIND_CODE = {kind: code for code, kind in enumerate(_KINDS)}
_KEY_FLAG = tuple(int(kind in KEY_EXCHANGE_KINDS) for kind in _KINDS)
_KEY_MASK = np.array(_KEY_FLAG, dtype=bool)
# Rows a trace converts to Python ints at a time when it is read row by
# row, so that iterating or writing a large trace holds no full-length lists.
_CHUNK = 4096


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` renders it in a row of several fields."""
    buf = io.StringIO()
    csv.writer(buf).writerow(["", text])
    return buf.getvalue()[1:-2]


class SignalTrace(Sequence[SignalRecord]):
    """A signal log held as parallel int arrays, one row per signal.

    The columns are time (ms), kind code (``KIND_CODE``), source id and
    destination id; ids index the trace's own table of endpoint names.
    ``from_columns`` takes the columns as built (``handover`` builds a
    run's traces that way) and ``SignalTrace(records)`` takes records.
    Indexing and iteration yield ``SignalRecord``s, and a trace equals any
    sequence of the same records, so code written for a list of records
    reads a trace as is.
    """

    def __init__(self, records: Iterable[SignalRecord] = ()):
        ids: dict[str, int] = {}
        rows = [
            (r.t, KIND_CODE[r.kind], ids.setdefault(r.src, len(ids)), ids.setdefault(r.dst, len(ids)))
            for r in records
        ]
        self._t, self._kind, self._src, self._dst = np.array(rows, dtype=np.int64).reshape(-1, 4).T
        self._names = list(ids)

    @classmethod
    def from_columns(cls, t, kinds, srcs, dsts, names: Sequence[str]) -> SignalTrace:
        """A trace of the rows given column-wise as int arrays of times,
        kind codes and ids into ``names`` (equal lengths), kept as given."""
        trace = cls()
        trace._t, trace._kind, trace._src, trace._dst = t, kinds, srcs, dsts
        trace._names = list(names)
        return trace

    # -- Sequence view ---------------------------------------------------
    def __len__(self) -> int:
        return len(self._t)

    def _record(self, i: int) -> SignalRecord:
        names = self._names
        kind = _KINDS[self._kind[i]]
        return SignalRecord(kind, names[self._src[i]], names[self._dst[i]], int(self._t[i]))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._record(j) for j in range(*i.indices(len(self)))]
        return self._record(range(len(self))[i])

    def _rows(self) -> Iterator[tuple[int, int, int, int]]:
        """The rows as (t, kind, src, dst) ints, read ``_CHUNK`` at a time."""
        for start in range(0, len(self), _CHUNK):
            cols = (self._t, self._kind, self._src, self._dst)
            yield from zip(*(c[start : start + _CHUNK].tolist() for c in cols))

    def __iter__(self) -> Iterator[SignalRecord]:
        names = self._names
        for t, k, s, d in self._rows():
            yield SignalRecord(_KINDS[k], names[s], names[d], t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"SignalTrace({list(self)!r})"

    # -- column reads ----------------------------------------------------
    def key_exchange_times(self) -> np.ndarray:
        """Times of the key-exchange rows, in row order."""
        return self._t[_KEY_MASK[self._kind]]

    def write_csv(self, fh) -> None:
        """Write the ``signals.csv`` layout: a header, then one row per
        signal with its key-exchange flag, as ``csv.writer`` would."""
        kind_txt = [_csv_field(k.value) for k in _KINDS]
        names = [_csv_field(n) for n in self._names]
        fh.write("t_ms,kind,src,dst,key_exchange_flag\r\n")
        fh.writelines(
            f"{t},{kind_txt[k]},{names[s]},{names[d]},{_KEY_FLAG[k]}\r\n"
            for t, k, s, d in self._rows()
        )


def as_trace(records: Iterable[SignalRecord]) -> SignalTrace:
    """``records`` as a ``SignalTrace``; a trace is returned as is."""
    return records if isinstance(records, SignalTrace) else SignalTrace(records)


class EntryKind(Enum):
    CELL_KEY_SET = "cell_key_set"
    GENERATION_TAG_SET = "generation_tag_set"


@dataclass(frozen=True)
class CandidateEntry:
    """One pending ledger entry.

    ``domain`` is the deduplication scope: the security-domain id for key
    sets, the generation id for tag sets.
    """

    entry_kind: EntryKind
    origin: str
    payload: object
    submitted_at: int
    domain: str

    def __post_init__(self):
        if self.payload is None or (hasattr(self.payload, "__len__") and len(self.payload) == 0):
            raise InvalidParameter("candidate payload must be non-empty")
        if self.submitted_at < 0:
            raise InvalidParameter("submitted_at must be >= 0")


@dataclass(frozen=True)
class LedgerBlock:
    block_height: int
    entries: tuple[CandidateEntry, ...]
    verified_at: int


@dataclass(frozen=True)
class SubmitReceipt:
    accepted: bool
    duplicate: bool
    entry: CandidateEntry | None


class SimulatedLedger:
    """Single-writer ledger state machine advanced by the event loop."""

    def __init__(
        self,
        controllers: Iterable[str],
        collection_period_ms: int = DEFAULT_COLLECTION_PERIOD_MS,
    ):
        if collection_period_ms <= 0:
            raise InvalidParameter("collection period must be positive")
        self.controllers = set(controllers)
        self.period = int(collection_period_ms)
        self.blocks: list[LedgerBlock] = []
        # Pending entries by (domain, kind), in submission order.
        self._pending: dict[tuple[str, EntryKind], CandidateEntry] = {}
        self._ledgered: dict[tuple[str, EntryKind], CandidateEntry] = {}
        self._last_boundary = -1  # index of the last inspected boundary
        self._last_now: int | None = None
        self.upload_log: list[tuple[int, str, str]] = []  # (t, origin, domain)

    # ------------------------------------------------------------------
    def _require_registered(self, controller: str) -> None:
        if controller not in self.controllers:
            raise UnknownController(f"controller {controller!r} is not registered")

    def is_pending(self, domain: str, kind: EntryKind) -> bool:
        return (domain, kind) in self._pending

    def is_ledgered(self, domain: str, kind: EntryKind) -> bool:
        return (domain, kind) in self._ledgered

    # ------------------------------------------------------------------
    def submit_candidate(self, entry: CandidateEntry) -> SubmitReceipt:
        """Queue an entry for the next verification.

        Re-submitting a (domain, kind) that is already pending or ledgered
        is a no-op and is not logged.
        """
        self._require_registered(entry.origin)
        key = (entry.domain, entry.entry_kind)
        if key in self._ledgered or key in self._pending:
            return SubmitReceipt(accepted=False, duplicate=True, entry=None)
        self._pending[key] = entry
        self.upload_log.append((entry.submitted_at, entry.origin, entry.domain))
        return SubmitReceipt(accepted=True, duplicate=False, entry=entry)

    def tick(self, now: int) -> LedgerBlock | None:
        """Advance the clock; verify one block per elapsed non-empty boundary.

        Empty boundaries are skipped in one step: the next boundary
        inspected is the first at or after the earliest pending submission.
        Returns the newest block produced by this call, if any.
        """
        if self._last_now is not None and now < self._last_now:
            raise ClockError(f"time moved backwards: {now} < {self._last_now}")
        self._last_now = now
        newest = None
        boundary_index = now // self.period
        while self._last_boundary < boundary_index:
            # Boundaries before the earliest pending submission are empty.
            earliest = min((e.submitted_at for e in self._pending.values()), default=None)
            if earliest is None or -(-earliest // self.period) > boundary_index:
                self._last_boundary = boundary_index
                break
            self._last_boundary = max(self._last_boundary + 1, -(-earliest // self.period))
            b = self._last_boundary * self.period
            ready = [e for e in self._pending.values() if e.submitted_at <= b]
            for e in ready:
                del self._pending[(e.domain, e.entry_kind)]
            block = LedgerBlock(
                block_height=len(self.blocks) + 1,
                entries=tuple(ready),
                verified_at=b,
            )
            self.blocks.append(block)
            for e in ready:
                self._ledgered[(e.domain, e.entry_kind)] = e
            newest = block
        return newest

    # ------------------------------------------------------------------
    def query_keys(self, controller: str, domain: str):
        """The domain's ledgered key set, or None if not yet ledgered.

        Reads come from the controller's local replica, so they cost no
        signal.
        """
        self._require_registered(controller)
        entry = self._ledgered.get((domain, EntryKind.CELL_KEY_SET))
        return None if entry is None else entry.payload

    def query_tagset(self, controller: str, gen_id: str):
        self._require_registered(controller)
        entry = self._ledgered.get((gen_id, EntryKind.GENERATION_TAG_SET))
        return None if entry is None else entry.payload


# ----------------------------------------------------------------------
# trace accounting
# ----------------------------------------------------------------------

def per_window_signaling(records: Iterable[SignalRecord], horizon_ms: int) -> list[int]:
    """Key-exchange signals in each ``SIGNALING_WINDOW_MS`` window whose
    start lies in [0, horizon]."""
    windows = max(0, horizon_ms // SIGNALING_WINDOW_MS + 1)
    times = as_trace(records).key_exchange_times()
    times = times[times >= 0]
    return np.bincount(times // SIGNALING_WINDOW_MS, minlength=windows)[:windows].tolist()


def key_exchange_count(records: Iterable[SignalRecord], up_to_ms: int | None = None) -> int:
    times = as_trace(records).key_exchange_times()
    return len(times) if up_to_ms is None else int(np.count_nonzero(times <= up_to_ms))
