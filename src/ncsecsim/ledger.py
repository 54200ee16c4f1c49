"""Simulated distributed ledger shared by the per-cell security controllers.

Consensus is abstracted to its observable contract: candidate entries
collect into blocks that verify at most once per collection period
(1000 ms by default).  Verification happens at integer multiples of the
period, every pending candidate submitted at or before the boundary lands
in that block, and the block becomes visible to all registered
controllers atomically.  Boundaries with nothing pending produce no block
and no broadcast.  One broadcast signal is emitted per verified block
regardless of how many candidates it carries; that single shared signal
is what makes the scheme's steady-state signaling cheap.

Candidate submission is idempotent per (domain, entry kind): once a
cell's key set is pending or ledgered, resubmissions are no-ops and cost
no signal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import ClockError, InvalidParameter, UnknownController

DEFAULT_COLLECTION_PERIOD_MS = 1000


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
        trace: list[SignalRecord] | None = None,
    ):
        if collection_period_ms <= 0:
            raise InvalidParameter("collection period must be positive")
        self.controllers = set(controllers)
        self.period = int(collection_period_ms)
        self.trace = trace if trace is not None else []
        self.blocks: list[LedgerBlock] = []
        # Pending entries by (domain, kind), in submission order.
        self._pending: dict[tuple[str, EntryKind], CandidateEntry] = {}
        self._ledgered: dict[tuple[str, EntryKind], CandidateEntry] = {}
        self._broadcast_by_key: dict[tuple[str, EntryKind], SignalRecord] = {}
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
        is a no-op and emits no signal.
        """
        self._require_registered(entry.origin)
        key = (entry.domain, entry.entry_kind)
        if key in self._ledgered or key in self._pending:
            return SubmitReceipt(accepted=False, duplicate=True, entry=None)
        self._pending[key] = entry
        self.trace.append(
            SignalRecord(SignalKind.CANDIDATE_UPLOAD, entry.origin, "ledger", entry.submitted_at)
        )
        self.upload_log.append((entry.submitted_at, entry.origin, entry.domain))
        return SubmitReceipt(accepted=True, duplicate=False, entry=entry)

    def tick(self, now: int) -> LedgerBlock | None:
        """Advance the clock; verify one block per elapsed non-empty boundary.

        Returns the newest block produced by this call, if any.
        """
        if self._last_now is not None and now < self._last_now:
            raise ClockError(f"time moved backwards: {now} < {self._last_now}")
        self._last_now = now
        newest = None
        boundary_index = now // self.period
        while self._last_boundary < boundary_index:
            self._last_boundary += 1
            b = self._last_boundary * self.period
            ready = [e for e in self._pending.values() if e.submitted_at <= b]
            if not ready:
                continue
            for e in ready:
                del self._pending[(e.domain, e.entry_kind)]
            block = LedgerBlock(
                block_height=len(self.blocks) + 1,
                entries=tuple(ready),
                verified_at=b,
            )
            self.blocks.append(block)
            broadcast = SignalRecord(SignalKind.BLOCK_BROADCAST, "ledger", "all_bsh", b)
            self.trace.append(broadcast)
            for e in ready:
                self._ledgered[(e.domain, e.entry_kind)] = e
                self._broadcast_by_key[(e.domain, e.entry_kind)] = broadcast
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

    def broadcast_for(self, domain: str, kind: EntryKind) -> SignalRecord | None:
        """The broadcast signal that delivered this (domain, kind), if any."""
        return self._broadcast_by_key.get((domain, kind))


# ----------------------------------------------------------------------
# trace accounting
# ----------------------------------------------------------------------

def per_window_signaling(
    records: Sequence[SignalRecord], horizon_ms: int, window_len_ms: int = 1000
) -> list[int]:
    """Key-exchange signals in each window [k * len, (k + 1) * len) whose
    start lies in [0, horizon]."""
    windows = max(0, horizon_ms // window_len_ms + 1)
    times = np.fromiter(
        (r.t for r in records if r.counts_as_key_exchange and r.t >= 0), dtype=np.int64
    )
    return np.bincount(times // window_len_ms, minlength=windows)[:windows].tolist()


def key_exchange_count(records: Sequence[SignalRecord], up_to_ms: int | None = None) -> int:
    return sum(
        1
        for r in records
        if r.counts_as_key_exchange and (up_to_ms is None or r.t <= up_to_ms)
    )
