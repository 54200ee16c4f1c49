import csv
import hashlib
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncsecsim.errors import ClockError, InvalidParameter, UnknownController
from ncsecsim.handover import HoTable, cumulative_key_exchanges
from ncsecsim.keydist import Scheme
from ncsecsim.ledger import (
    _CHUNK,
    CandidateEntry,
    EntryKind,
    SignalKind,
    SignalRecord,
    SignalTrace,
    SimulatedLedger,
    _write_columns,
    key_exchange_count,
    per_window_signaling,
)

from oracles import (
    cumulative_key_exchanges_oracle,
    key_exchange_count_oracle,
    per_second_signaling,
    signals_csv_oracle,
)


def entry(origin="bsh3", domain="3", t=100, kind=EntryKind.CELL_KEY_SET, payload=("k",)):
    return CandidateEntry(kind, origin, payload, t, domain)


@pytest.fixture
def led():
    return SimulatedLedger({f"bsh{i}" for i in range(6)})


def test_submit_queues_and_signals(led):
    receipt = led.submit_candidate(entry())
    assert receipt.accepted and not receipt.duplicate
    assert led.upload_log == [(100, "bsh3", "3")]
    assert led.blocks == []  # pending until its boundary
    assert [e.domain for e in led.tick(1000).entries] == ["3"]


def test_submit_unknown_controller_rejected(led):
    with pytest.raises(UnknownController):
        led.submit_candidate(entry(origin="bsh99"))
    with pytest.raises(UnknownController):
        led.query_tagset("bsh99", "3")


def test_candidate_validation():
    with pytest.raises(InvalidParameter):
        entry(payload=())
    with pytest.raises(InvalidParameter):
        entry(t=-5)


def test_duplicate_while_pending_and_after_verification(led):
    assert led.submit_candidate(entry(t=100)).accepted
    dup_pending = led.submit_candidate(entry(origin="bsh4", t=200))
    assert dup_pending.duplicate
    assert len(led.upload_log) == 1  # no upload for the no-op
    led.tick(1000)
    dup_ledgered = led.submit_candidate(entry(t=1500))
    assert dup_ledgered.duplicate
    assert led.upload_log == [(100, "bsh3", "3")]


def test_batch_verification_single_broadcast(led):
    for i in range(5):
        led.submit_candidate(entry(origin=f"bsh{i}", domain=str(i), t=100 + i))
    block = led.tick(1000)
    assert block is not None
    assert len(block.entries) == 5
    assert block.verified_at == 1000
    assert led.blocks == [block]  # one block, so one broadcast


def test_empty_period_produces_nothing(led):
    assert led.tick(1000) is None
    assert led.tick(5000) is None
    assert led.upload_log == [] and led.blocks == []


def test_latency_example_and_window_bounds(led):
    led.submit_candidate(entry(domain="a", t=500))
    first = led.tick(1000)
    assert first.verified_at == 1000
    led.submit_candidate(entry(domain="b", origin="bsh1", t=1999))
    block = led.tick(2000)
    assert block is not None and block.verified_at == 2000
    assert block.entries[0].submitted_at == 1999  # delay 1 ms, < 1000 ms


def test_worst_case_delay_below_one_second():
    # Candidates on the 160 ms grid never wait a full collection period.
    # Within one instant the loop submits before it ticks, so the clock is
    # pre-advanced only to the previous grid instant here.
    for t_submit in range(0, 4000, 160):
        led = SimulatedLedger({"bsh0"})
        if t_submit:
            led.tick(t_submit - 160)  # earlier boundaries, all empty
        led.submit_candidate(entry(origin="bsh0", domain="d", t=t_submit))
        verified = None
        t = t_submit
        while verified is None:
            block = led.tick(t)
            if block is not None:
                verified = block.verified_at
            t += 160
        assert 0 <= verified - t_submit < 1000


def test_same_instant_submission_joins_boundary_block(led):
    led.submit_candidate(entry(domain="x", t=2000))
    block = led.tick(2000)
    assert block is not None and block.verified_at == 2000


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3000),
    st.lists(st.tuples(st.booleans(), st.integers(0, 5), st.integers(0, 30_000)), max_size=30),
)
def test_tick_matches_stepwise_boundaries(period, ops):
    # Reference: inspect every boundary up to the clock one at a time and
    # verify what was submitted at or before it, deduplicated by domain.
    led = SimulatedLedger({"bsh0"}, period)
    pending, ledgered, blocks = {}, set(), []
    last, now = -1, 0
    for is_tick, domain, t in ops:
        if not is_tick:
            led.submit_candidate(entry(origin="bsh0", domain=str(domain), t=t))
            if domain not in pending and domain not in ledgered:
                pending[domain] = t
            continue
        now = max(now, t)
        made = len(blocks)
        while last < now // period:
            last += 1
            ready = [d for d, at in pending.items() if at <= last * period]
            if ready:
                blocks.append((len(blocks) + 1, [str(d) for d in ready], last * period))
                ledgered.update(ready)
                for d in ready:
                    del pending[d]
        newest = led.tick(now)
        assert newest == (led.blocks[-1] if len(blocks) > made else None)
        got = [(b.block_height, [e.domain for e in b.entries], b.verified_at) for b in led.blocks]
        assert got == blocks


def test_tick_jumps_over_empty_boundaries():
    # A far clock costs no walk over the empty boundaries before it.
    led = SimulatedLedger({"bsh0"}, 1)
    assert led.tick(10**15) is None
    led.submit_candidate(entry(origin="bsh0", t=10**15 + 1))
    assert led.tick(10**18).verified_at == 10**15 + 1
    assert led.tick(10**18 + 5) is None and len(led.blocks) == 1


def test_late_submission_joins_the_first_boundary_after_the_clock(led):
    # submitted behind the clock: its own boundary (2000) has passed
    assert led.tick(2000) is None
    led.submit_candidate(entry(t=1500))
    block = led.tick(3000)
    assert block is not None and block.verified_at == 3000
    assert [b.verified_at for b in led.blocks] == [3000]


def test_first_tick_at_a_negative_instant_is_a_no_op(led):
    # a run with no tick reads its blocks at clock -1; earlier must not raise
    assert led.tick(-1000) is None
    led.submit_candidate(entry(t=0))
    assert led.tick(0).verified_at == 0


def test_clock_regression_raises(led):
    led.tick(1000)
    with pytest.raises(ClockError):
        led.tick(999)


def test_append_only_replay(led):
    led.submit_candidate(entry(domain="a", t=10))
    led.tick(1000)
    led.submit_candidate(entry(origin="bsh1", domain="b", t=1500))
    led.tick(2000)
    fingerprint = [(b.block_height, tuple(e.domain for e in b.entries), b.verified_at)
                   for b in led.blocks]
    led.tick(9000)
    led.submit_candidate(entry(origin="bsh2", domain="c", t=9100))
    led.tick(10_000)
    assert [(b.block_height, tuple(e.domain for e in b.entries), b.verified_at)
            for b in led.blocks][: len(fingerprint)] == fingerprint
    heights = [b.block_height for b in led.blocks]
    assert heights == sorted(heights) and len(set(heights)) == len(heights)
    spans = [b2.verified_at - b1.verified_at for b1, b2 in zip(led.blocks, led.blocks[1:])]
    assert all(s >= led.period for s in spans)


def test_entries_cover_exactly_the_window(led):
    led.submit_candidate(entry(domain="a", t=100))
    led.submit_candidate(entry(origin="bsh1", domain="b", t=999))
    led.submit_candidate(entry(origin="bsh2", domain="c", t=1001))
    block1 = led.tick(1000)
    assert {e.domain for e in block1.entries} == {"a", "b"}
    block2 = led.tick(2000)
    assert {e.domain for e in block2.entries} == {"c"}


def test_block_entries_keep_submission_order(led):
    # submission order, not domain order, and a verified entry's slot does
    # not come back to the queue
    for origin, domain, t in (("bsh0", "z", 100), ("bsh1", "a", 1200), ("bsh2", "m", 300),
                              ("bsh3", "b", 1100)):
        led.submit_candidate(entry(origin=origin, domain=domain, t=t))
    assert [d for _, _, d in led.upload_log] == ["z", "a", "m", "b"] and led.blocks == []
    block1 = led.tick(1000)
    assert [e.domain for e in block1.entries] == ["z", "m"]
    assert led.submit_candidate(entry(origin="bsh4", domain="z", t=1300)).duplicate
    led.submit_candidate(entry(origin="bsh4", domain="c", t=1050))
    block2 = led.tick(2000)
    assert [e.domain for e in block2.entries] == ["a", "b", "c"]
    assert led.tick(10_000) is None  # nothing is left pending


def test_key_set_is_ledgered_at_its_boundary(led):
    led.submit_candidate(entry(domain="3", payload=("key1", "key2"), t=50))
    assert led.tick(999) is None and led.blocks == []  # pending is not ledgered
    block = led.tick(1000)
    assert [(e.domain, e.payload) for e in block.entries] == [("3", ("key1", "key2"))]
    assert led.upload_log == [(50, "bsh3", "3")]


def test_query_tagset(led):
    led.submit_candidate(
        entry(domain="gen7", kind=EntryKind.GENERATION_TAG_SET, payload=("ts",), t=10)
    )
    led.tick(1000)
    assert led.query_tagset("bsh1", "gen7") == ("ts",)
    assert led.query_tagset("bsh1", "missing") is None


def test_broadcast_count_equals_nonempty_periods(led):
    led.submit_candidate(entry(domain="a", t=100))
    led.submit_candidate(entry(origin="bsh1", domain="b", t=2500))
    led.submit_candidate(entry(origin="bsh2", domain="c", t=2600))
    led.tick(10_000)  # catches up on all boundaries at once
    # one block, and so one broadcast, per non-empty period only
    assert [b.verified_at for b in led.blocks] == [1000, 3000]


def test_per_second_signaling_eq4_instance():
    records = []
    for i in range(2):  # n_bsh = 2
        records.append(SignalRecord(SignalKind.CANDIDATE_UPLOAD, f"bsh{i}", "ledger", 100 + i))
    records.append(SignalRecord(SignalKind.BLOCK_BROADCAST, "ledger", "all_bsh", 1000))
    for i in range(3):  # n_ue = 3
        records.append(SignalRecord(SignalKind.KEY_TO_UE, "bsh0", f"ue{i}", 1000 + i))
    records.append(SignalRecord(SignalKind.HO_REQUEST, "bsh0", "bsh1", 1050))  # not a key exchange
    records.sort(key=lambda r: r.t)
    assert per_second_signaling(records, 0) == 2
    assert per_second_signaling(records, 1000) == 1 + 3  # broadcast + UE deliveries
    assert per_second_signaling(records, 2000) == 0
    ue_only = [r for r in records if r.kind is SignalKind.KEY_TO_UE]
    assert per_second_signaling(ue_only, 1000) == 3


def test_per_window_signaling_matches_window_scans():
    rng = np.random.default_rng(3)
    kinds = list(SignalKind)
    records = [
        SignalRecord(kinds[int(rng.integers(len(kinds)))], "a", "b", int(rng.integers(0, 7500)))
        for _ in range(400)
    ]
    for horizon in (0, 999, 1000, 5500, 7000):
        assert per_window_signaling(records, horizon) == [
            per_second_signaling(records, start) for start in range(0, horizon + 1, 1000)
        ]
    assert per_window_signaling([], 3000) == [0, 0, 0, 0]


# Endpoint names that csv.writer has to quote, and the empty name.
signal_records = st.lists(st.builds(
    SignalRecord,
    st.sampled_from(list(SignalKind)),
    st.text(alphabet='ab1_ ,"\r\n', max_size=4),
    st.text(alphabet='ab1_ ,"\r\n', max_size=4),
    st.integers(-2000, 9000),
), max_size=60)


@settings(max_examples=200, deadline=None)
@given(signal_records)
def test_signal_trace_round_trip(records):
    trace = SignalTrace(records)
    assert len(trace) == len(records)
    assert list(trace) == records
    assert [trace[i] for i in range(-len(records), len(records))] == records + records
    assert trace[1::2] == records[1::2]
    assert trace == records and records == trace
    assert SignalTrace(records) == trace
    if records:
        assert trace != records[:-1]
    buf = io.StringIO(newline="")
    trace.write_csv(buf)
    assert buf.getvalue().encode() == signals_csv_oracle(records).encode()


def test_signal_trace_reads_rows_in_chunks():
    # more rows than one read converts at a time
    kinds = list(SignalKind)
    records = [
        SignalRecord(kinds[i % len(kinds)], f"bsh{i % 17}", f"ue{i % 300}", 160 * (i // 3))
        for i in range(2 * _CHUNK + 5)
    ]
    trace = SignalTrace(records)
    assert list(trace) == records
    buf = io.StringIO(newline="")
    trace.write_csv(buf)
    assert buf.getvalue() == signals_csv_oracle(records)


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
# Every decimal digit count of an int64, either sign, 0 and both extremes.
int64s = st.one_of(
    st.sampled_from([0, INT64_MIN, INT64_MAX]),
    st.integers(1, 19).flatmap(
        lambda d: st.integers(10 ** (d - 1), min(10**d - 1, INT64_MAX))
    ).flatmap(lambda m: st.sampled_from([m, -m])),
)
# Names csv.writer quotes, a NUL, non-ASCII text (a non-BMP character
# too) and the empty name.
csv_names = st.text(alphabet='ab1_ ,"\r\n\x00\xe9\u20ac\U0001f600', max_size=4)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.builds(SignalRecord, st.sampled_from(list(SignalKind)), csv_names, csv_names,
                       int64s), min_size=1, max_size=12),
    st.sampled_from([0, 1, 5, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1]),
)
def test_signal_csv_is_csv_writer_byte_for_byte(pool, rows):
    # ``rows`` records cycled from the pool: empty, short, and one row
    # either side of a chunk boundary
    records = (pool * (rows // len(pool) + 1))[:rows]
    buf = io.StringIO(newline="")
    SignalTrace(records).write_csv(buf)
    assert buf.getvalue().encode() == signals_csv_oracle(records).encode()


class _HashSink:
    """A text handle that keeps only the SHA-256 of what it is given."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text: str) -> None:
        self.digest.update(text.encode())


def test_signal_csv_writer_holds_one_chunk_at_a_time():
    # The pool has negative and extreme times and a NUL in a name, so the
    # text checks too what the writer renders.
    pool = [
        SignalRecord(SignalKind.KEY_TO_UE, "bsh1", "ue\x0017", INT64_MIN),
        SignalRecord(SignalKind.CANDIDATE_UPLOAD, "bsh12", "ledger", -160),
        SignalRecord(SignalKind.BLOCK_BROADCAST, "ledger", "all,bsh", INT64_MAX),
        SignalRecord(SignalKind.HO_REQUEST, "", "bsh\u20ac", 299_840),
    ]

    def write(rows):
        records = (pool * (rows // len(pool) + 1))[:rows]
        trace = SignalTrace(records)
        sink = _HashSink()
        tracemalloc.start()
        try:
            trace.write_csv(sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        expected = hashlib.sha256(signals_csv_oracle(records).encode()).hexdigest()
        assert sink.digest.hexdigest() == expected
        return peak

    rows = 2 * _CHUNK + 5
    longest = max(len(line) for line in signals_csv_oracle(pool).encode().splitlines())
    assert write(4 * rows) - write(rows) <= _CHUNK * (longest + 2)


HO_SUMMARY_HEADER = ["ue_id", "s_cell", "t_cell", "t_trigger_ms", "t_complete_ms", "key_signals",
                     "prep_wait_ms"]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(int64s, int64s, int64s, int64s, st.one_of(st.just(-1), int64s),
                       st.integers(0, 3)), min_size=1, max_size=12),
    st.sampled_from([0, 1, 5, _CHUNK - 1, _CHUNK, _CHUNK + 1]),
)
def test_ho_summary_csv_is_csv_writer_byte_for_byte(pool, rows):
    # Any int64 in any column (a wait of t_complete - t_trigger wraps as
    # int64 does), rows still waiting left out, and one row either side of
    # a chunk boundary.
    hos = HoTable(Scheme.BLOCKCHAIN, 16, 1000, 160)
    columns = zip(*(pool * (rows // len(pool) + 1))[:rows])
    for name, column in zip(["ue_id", "s_cell", "t_cell", "t_trigger", "t_complete", "pattern"],
                            columns):
        setattr(hos, name, list(column))
    summary = hos.summary_columns()
    buf = io.StringIO(newline="")
    _write_columns(buf, HO_SUMMARY_HEADER, summary)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(HO_SUMMARY_HEADER)
    writer.writerows(zip(*(col.tolist() for col in summary)))
    assert buf.getvalue().encode() == expected.getvalue().encode()


@settings(max_examples=200, deadline=None)
@given(signal_records, st.integers(-1000, 10_000))
def test_trace_accounting_matches_scans(records, horizon):
    for given_as in (records, SignalTrace(records)):
        assert key_exchange_count(given_as) == key_exchange_count_oracle(records)
        assert key_exchange_count(given_as, horizon) == key_exchange_count_oracle(
            records, horizon
        )
        assert cumulative_key_exchanges(given_as, horizon) == (
            cumulative_key_exchanges_oracle(records, horizon)
        )
        assert per_window_signaling(given_as, horizon) == [
            per_second_signaling(records, start) for start in range(0, horizon + 1, 1000)
        ]
