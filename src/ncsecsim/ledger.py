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
candidate) and ``blocks``; it writes no trace.  ``key_boundary``,
``key_seen`` and ``key_blocks`` state the collection-boundary rule once,
for ``tick`` and for a run.  A run drives no ledger: ``handover`` builds
its signal rows from its ``HoTable`` after the run, and its ``blocks``
are what a ledger makes of its uploads then.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import islice
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
# row, and rows a CSV column writer renders at a time, so that iterating
# or writing a large trace holds no full-length lists or texts.
_CHUNK = 8192
# 10, 100, ..., 10**19: a magnitude's decimal digits are 1 plus how many it reaches.
_POW10 = 10 ** np.arange(1, 20, dtype=np.uint64)
# What makes csv.writer quote a field (QUOTE_MINIMAL, its default).
_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` renders it in a row of several fields:
    as it is unless it holds the delimiter, the quote or a line break."""
    if not _NEEDS_QUOTES.search(text):
        return text
    buf = io.StringIO()
    csv.writer(buf).writerow(["", text])
    return buf.getvalue()[1:-2]


def _text_bytes(texts: Sequence[str], end: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Each of ``texts`` as a ``_csv_field`` in UTF-8 followed by ``end``:
    a uint8 table, one left-aligned row per text, and where each row's
    bytes lie."""
    data = [_csv_field(text).encode() + end for text in texts]
    lengths = np.array([len(b) for b in data], dtype=np.intp)
    mask = np.arange(lengths.max(initial=0)) < lengths[:, None]
    table = np.zeros(mask.shape, dtype=np.uint8)
    table[mask] = np.frombuffer(b"".join(data), dtype=np.uint8)
    return table, mask


def _coded_bytes(table: np.ndarray, mask: np.ndarray, codes: np.ndarray):
    """The ``_text_bytes`` rows of ``codes``, and where their bytes lie."""
    return table.take(codes, axis=0), mask.take(codes, axis=0)


def _int_bytes(values: np.ndarray, end: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Each of ``values`` (ints) in decimal followed by ``end``: a uint8
    block, one right-aligned row per value, and where each row's bytes lie."""
    neg = values < 0
    mag = values.astype(np.uint64)  # -2**63 becomes 2**63, which negates to itself
    np.negative(mag, out=mag, where=neg)
    digits = 1 + _POW10.searchsorted(mag, side="right")
    width = int(digits.max(initial=1)) + 1  # and a sign column
    # the block's transpose, so that each column is written contiguously
    cols = np.empty((width + len(end), len(values)), dtype=np.uint8)
    cols[width:] = np.frombuffer(end, dtype=np.uint8)[:, None]
    for col in range(width - 1, 0, -1):
        quot = mag // 10  # cheaper than a remainder
        cols[col] = mag - 10 * quot
        mag = quot
    cols[1:width] += ord("0")
    first = width - digits - neg  # the column of each row's first byte
    cols[first[neg], neg] = ord("-")
    return cols.T, np.arange(len(cols)) >= first[:, None]


def _write_columns(fh, header: Sequence[str], columns: Sequence) -> None:
    """Write a CSV to the text handle ``fh`` as ``csv.writer`` would: the
    ``header`` row, then one row per index of ``columns``.

    A column is an int array, written in decimal, or a pair (codes, texts):
    an int array indexing a sequence of strings, each quoted as
    ``_csv_field`` quotes it.  Rows are rendered ``_CHUNK`` at a time into
    one uint8 matrix, each field's block beside the last, and one mask of
    the fields' own lengths (a text may hold any byte, ``\\x00`` too) picks
    the bytes out in row order.
    """
    fh.write(",".join(map(_csv_field, header)) + "\r\n")
    ends = [b","] * (len(columns) - 1) + [b"\r\n"]
    # each column's values, and how a chunk of them renders
    fields = [
        (col[0], partial(_coded_bytes, *_text_bytes(col[1], end))) if isinstance(col, tuple)
        else (col, partial(_int_bytes, end=end))
        for col, end in zip(columns, ends)
    ]
    for start in range(0, len(fields[0][0]), _CHUNK):
        blocks, masks = zip(*(render(values[start : start + _CHUNK]) for values, render in fields))
        text = np.concatenate(blocks, axis=1)[np.concatenate(masks, axis=1)]
        fh.write(text.tobytes().decode())


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

    def __iter__(self) -> Iterator[SignalRecord]:
        """The records, their columns read as ints ``_CHUNK`` rows at a time."""
        names, cols = self._names, (self._t, self._kind, self._src, self._dst)
        for start in range(0, len(self), _CHUNK):
            for t, k, s, d in zip(*(c[start : start + _CHUNK].tolist() for c in cols)):
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
        """Write the ``signals.csv`` layout to the text handle ``fh``: a
        header, then one row per signal with its key-exchange flag, as
        ``csv.writer`` would (``_write_columns``)."""
        _write_columns(fh, ["t_ms", "kind", "src", "dst", "key_exchange_flag"], [
            self._t,
            (self._kind, [k.value for k in _KINDS]),
            (self._src, self._names),
            (self._dst, self._names),
            (self._kind, [str(flag) for flag in _KEY_FLAG]),
        ])


def as_trace(records: Iterable[SignalRecord]) -> SignalTrace:
    """``records`` as a ``SignalTrace``; a trace is returned as is."""
    return records if isinstance(records, SignalTrace) else SignalTrace(records)


def key_boundary(upload_ms, collection_period_ms: int):
    """The collection boundary whose block carries an upload at
    ``upload_ms`` (an int or an int array): the first at or after it."""
    return -(-upload_ms // collection_period_ms) * collection_period_ms


def key_seen(upload_ms, collection_period_ms: int, rs_period_ms: int):
    """The RS instant at which a run sees the block that carries an upload
    at ``upload_ms`` (an int or an int array): the first at or after its
    ``key_boundary``, which is the same ceiling taken on the RS grid."""
    return key_boundary(key_boundary(upload_ms, collection_period_ms), rs_period_ms)


def key_blocks(upload_ms, end_ms: int, collection_period_ms: int):
    """The boundaries of the blocks verified by ``end_ms`` that carry
    uploads at ``upload_ms``, and how many of the uploads each carries."""
    boundary = key_boundary(np.asarray(upload_ms, dtype=np.int64), collection_period_ms)
    return np.unique(boundary[boundary <= end_ms], return_counts=True)


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
    """Single-writer ledger state machine, advanced by ``tick``."""

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
        self._last_now: int | None = None
        self.upload_log: list[tuple[int, str, str]] = []  # (t, origin, domain)

    # ------------------------------------------------------------------
    def _require_registered(self, controller: str) -> None:
        if controller not in self.controllers:
            raise UnknownController(f"controller {controller!r} is not registered")

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
        """Advance the clock; verify one block per elapsed non-empty boundary
        (``key_blocks``), an entry counting as uploaded no earlier than the
        instant after the last tick.  Entries keep submission order within
        a block.  Returns the newest block produced by this call, if any.
        """
        if self._last_now is not None and now < self._last_now:
            raise ClockError(f"time moved backwards: {now} < {self._last_now}")
        floor = 0 if self._last_now is None else self._last_now + 1
        self._last_now = now
        pending = list(self._pending.values())
        uploads = np.array([max(e.submitted_at, floor) for e in pending], dtype=np.int64)
        boundaries, sizes = key_blocks(uploads, now, self.period)
        # stable, so each block's entries keep submission order
        order = np.argsort(key_boundary(uploads, self.period), kind="stable")
        ready = (pending[i] for i in order.tolist())
        for boundary, size in zip(boundaries.tolist(), sizes.tolist()):
            entries = tuple(islice(ready, size))
            for e in entries:
                key = (e.domain, e.entry_kind)
                self._ledgered[key] = self._pending.pop(key)
            self.blocks.append(LedgerBlock(len(self.blocks) + 1, entries, boundary))
        return self.blocks[-1] if len(boundaries) else None

    # ------------------------------------------------------------------
    def query_tagset(self, controller: str, gen_id: str):
        """The generation's ledgered tag set, or None; reads come from the
        controller's local replica, so they cost no signal."""
        self._require_registered(controller)
        entry = self._ledgered.get((gen_id, EntryKind.GENERATION_TAG_SET))
        return None if entry is None else entry.payload


# ----------------------------------------------------------------------
# trace accounting
# ----------------------------------------------------------------------

def _windows(times: np.ndarray, horizon_ms: int) -> tuple[np.ndarray, np.ndarray]:
    """Of key exchanges at ``times`` (int ms, in any order), per
    ``SIGNALING_WINDOW_MS`` window whose start lies in [0, horizon]: the
    count in the window, and the running count at its start (those at or
    before it).  A negative time is in no window, but counts from the
    first start on.  Windows past the last fall into one more bin, which
    is dropped."""
    windows = max(0, horizon_ms // SIGNALING_WINDOW_MS + 1)
    index = times // SIGNALING_WINDOW_MS
    counts = np.bincount(np.where(index < 0, windows, np.minimum(index, windows)),
                         minlength=windows + 1)[:windows]
    # the first start at or after each time: ceil(t / W), without t + W - 1 overflowing
    index += times % SIGNALING_WINDOW_MS > 0
    curve = np.bincount(np.clip(index, 0, windows), minlength=windows + 1)[:windows].cumsum()
    return counts, curve


def per_window_signaling(records: Iterable[SignalRecord], horizon_ms: int) -> list[int]:
    """Key-exchange signals in each ``SIGNALING_WINDOW_MS`` window whose
    start lies in [0, horizon]."""
    counts, _ = _windows(as_trace(records).key_exchange_times(), horizon_ms)
    return counts.tolist()


def key_exchange_count(records: Iterable[SignalRecord], up_to_ms: int | None = None) -> int:
    times = as_trace(records).key_exchange_times()
    return len(times) if up_to_ms is None else int(np.count_nonzero(times <= up_to_ms))
