import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncsecsim.errors import HoPreparationTimeout, InvalidParameter, NoOpHandover
from ncsecsim.handover import (
    HoEvent,
    KeyPath,
    PredictionConfig,
    begin_handover,
    cumulative_key_exchanges,
    predict_and_prestage,
    replay_key_signaling,
    try_complete,
)
from ncsecsim.keydist import Scheme
from ncsecsim.ledger import SignalKind, SignalTrace, SimulatedLedger, key_exchange_count

CELLS = list(range(16))
KEYS = {c: (f"key{c}",) for c in CELLS}


def fresh_ledger():
    return SimulatedLedger({f"bsh{c}" for c in CELLS})


def kinds(proc):
    return [s.kind for s in proc.signals]


def begin(led, ue, src, dst, now, **kw):
    return begin_handover(ue, src, dst, Scheme.BLOCKCHAIN, led, now, led.trace,
                          t_cell_keys=KEYS[dst], **kw)


def complete_at(proc, led, boundary):
    """Tick the ledger to ``boundary`` and finish ``proc`` there."""
    led.tick(boundary)
    assert try_complete(proc, led, boundary)
    return proc


def test_first_ho_emits_three_key_signals_in_order():
    led = fresh_ledger()
    proc = begin(led, 0, 1, 7, 480)
    assert not proc.complete and proc.t_complete is None
    complete_at(proc, led, 1000)
    assert proc.key_signal_count == 3
    assert proc.key_path is KeyPath.LEDGER_FIRST_HO
    assert proc.complete and proc.t_complete == 1000
    assert kinds(proc) == [
        SignalKind.HO_REQUEST,
        SignalKind.CANDIDATE_UPLOAD,
        SignalKind.BLOCK_BROADCAST,
        SignalKind.HO_ACK,
        SignalKind.HO_COMMAND,
        SignalKind.HO_CONFIRM,
        SignalKind.KEY_TO_UE,
        SignalKind.PATH_SWITCH,
        SignalKind.HO_COMPLETE,
    ]
    assert proc.t_complete >= proc.t_trigger
    assert proc.prep_wait_ms == proc.t_complete - proc.t_trigger


def test_subsequent_ho_costs_one_key_signal_regardless_of_source():
    led = fresh_ledger()
    complete_at(begin(led, 0, 1, 7, 480), led, 1000)
    for src in (2, 9, 14):
        proc = begin(led, 1, src, 7, 2080)
        assert proc.complete
        assert proc.key_signal_count == 1
        assert proc.key_path is KeyPath.LEDGER_STEADY_STATE
        assert proc.prep_wait_ms == 0


def test_baseline_ho_costs_two_key_signals():
    for scheme in (Scheme.DOUBLE_RANDOM, Scheme.C_COVER_FREE):
        proc = begin_handover(0, 3, 9, scheme, None, 160, SignalTrace())
        assert proc.complete
        assert proc.key_signal_count == 2
        assert proc.key_path is KeyPath.BASELINE_PER_HO
        assert kinds(proc)[:2] == [SignalKind.HO_REQUEST, SignalKind.KEY_TO_SBS]
        assert proc.prep_wait_ms == 0


def test_intra_domain_ho_has_no_key_signals():
    led = fresh_ledger()
    proc = begin(led, 0, 3, 9, 160, s_domain="domA", t_domain="domA")
    assert proc.complete
    assert proc.key_signal_count == 0
    assert proc.key_path is KeyPath.INTRA_DOMAIN
    assert SignalKind.KEY_TO_UE not in kinds(proc)


def assert_complete_or_waiting(proc):
    if proc.complete:
        assert proc.prep_wait_ms == proc.t_complete - proc.t_trigger
    else:
        assert proc.key_path is KeyPath.LEDGER_FIRST_HO
        assert proc.t_complete is None and proc.prep_wait_ms is None


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 5), st.integers(1, 5), st.sampled_from(list(Scheme)),
              st.booleans(), st.integers(0, 8)),
    min_size=1, max_size=30,
))
def test_begin_handover_returns_complete_or_waiting(calls):
    # random streams of handovers on every scheme, shared and separate
    # domains, with the ledger ticking between them
    led = fresh_ledger()
    now, waiting = 0, []
    for ue, (src, hop, scheme, same_domain, ticks) in enumerate(calls):
        dst = (src + hop) % 6
        domain = "shared" if same_domain else None
        proc = begin_handover(
            ue, src, dst, scheme, led, now, led.trace, t_cell_keys=KEYS[dst],
            s_domain=domain, t_domain=domain, timeout_ms=10**9,
        )
        assert_complete_or_waiting(proc)
        if not proc.complete:
            waiting.append(proc)
        now += 160 * ticks
        led.tick(now)
        waiting = [p for p in waiting if not try_complete(p, led, now)]
        for p in waiting:
            assert_complete_or_waiting(p)


def test_all_four_key_paths_return_complete_or_waiting():
    led = fresh_ledger()
    first = begin(led, 2, 1, 2, 160)
    assert_complete_or_waiting(first)
    assert not first.complete
    complete_at(first, led, 1000)
    procs = [
        first,
        begin(led, 3, 3, 2, 1160),
        begin_handover(1, 1, 2, Scheme.C_COVER_FREE, None, 1160, SignalTrace()),
        begin(led, 0, 1, 2, 1160, s_domain="d", t_domain="d"),
    ]
    assert [p.key_path for p in procs] == list(KeyPath)
    for proc in procs:
        assert_complete_or_waiting(proc)
        assert proc.complete


def test_noop_handover_rejected():
    with pytest.raises(NoOpHandover):
        begin_handover(0, 4, 4, Scheme.BLOCKCHAIN, fresh_ledger(), 0, [])


def test_handover_with_a_ledger_signals_on_its_trace():
    with pytest.raises(InvalidParameter):
        begin_handover(0, 1, 7, Scheme.BLOCKCHAIN, fresh_ledger(), 160, SignalTrace(),
                       t_cell_keys=KEYS[7])


def test_every_completed_procedure_delivers_keys_once():
    led = fresh_ledger()
    procs = []
    for i in range(12):
        now = 2000 * (i + 1)  # on a collection boundary
        procs.append(complete_at(begin(led, i, i % 4, 5 + (i % 3), now), led, now))
    for proc in procs:
        delivered = [s for s in proc.signals if s.kind is SignalKind.KEY_TO_UE]
        assert len(delivered) == 1


def test_pending_joiner_waits_but_costs_one():
    led = fresh_ledger()
    trace = led.trace
    first = begin_handover(0, 1, 7, Scheme.BLOCKCHAIN, led, 160, trace, t_cell_keys=KEYS[7])
    joiner = begin_handover(1, 3, 7, Scheme.BLOCKCHAIN, led, 320, trace, t_cell_keys=KEYS[7])
    assert first.did_upload and not joiner.did_upload
    led.tick(1000)
    assert try_complete(first, led, 1120) and try_complete(joiner, led, 1120)
    assert first.key_signal_count == 3
    assert joiner.key_signal_count == 1
    assert joiner.prep_wait_ms == 800
    uploads = [r for r in trace if r.kind is SignalKind.CANDIDATE_UPLOAD]
    assert len(uploads) == 1


def test_preparation_timeout_raises():
    led = fresh_ledger()
    proc = begin_handover(0, 1, 7, Scheme.BLOCKCHAIN, led, 160, led.trace,
                          t_cell_keys=KEYS[7], timeout_ms=500)
    # the ledger never ticks, so keys never arrive
    assert not try_complete(proc, led, 400)
    with pytest.raises(HoPreparationTimeout):
        try_complete(proc, led, 700)


def test_per_cell_upload_uniqueness_with_prestaging():
    led = fresh_ledger()
    rng = np.random.default_rng(50)
    pred = PredictionConfig(enabled=True, accuracy=1.0, lead_ms=1000)
    assert predict_and_prestage(0, 7, pred, led, rng, 0, KEYS[7]).uploaded
    # repeat prestage and a later first HO must not upload again
    again = predict_and_prestage(1, 7, pred, led, rng, 160, KEYS[7])
    assert again is not None and not again.uploaded
    proc = begin(led, 2, 1, 7, 320)
    assert not proc.did_upload
    complete_at(proc, led, 1000)
    uploads = [r for r in led.trace if r.kind is SignalKind.CANDIDATE_UPLOAD]
    assert len(uploads) == 1


def test_prestage_accuracy_gate():
    led = fresh_ledger()
    rng = np.random.default_rng(51)
    never = PredictionConfig(enabled=True, accuracy=0.0, lead_ms=1000)
    assert predict_and_prestage(0, 7, never, led, rng, 0, KEYS[7]) is None
    disabled = PredictionConfig(enabled=False)
    assert predict_and_prestage(0, 7, disabled, led, rng, 0, KEYS[7]) is None
    assert led.trace == []
    with pytest.raises(InvalidParameter):
        PredictionConfig(enabled=True, accuracy=1.5)


def test_prestaged_first_ho_completes_without_waiting():
    led = fresh_ledger()
    rng = np.random.default_rng(52)
    pred = PredictionConfig(enabled=True, accuracy=1.0, lead_ms=1000)
    predict_and_prestage(0, 7, pred, led, rng, 160, KEYS[7])
    led.tick(1000)  # block verifies ahead of the trigger
    proc = begin_handover(0, 1, 7, Scheme.BLOCKCHAIN, led, 1120, led.trace,
                          t_cell_keys=KEYS[7])
    assert proc.complete and proc.prep_wait_ms == 0
    assert proc.key_signal_count == 1
    # upload + broadcast + delivery: still three key signals end to end
    assert key_exchange_count(led.trace) == 3


def test_cumulative_series_and_steady_state_slopes():
    assert cumulative_key_exchanges([], 3000) == [(0, 0), (1000, 0), (2000, 0), (3000, 0)]
    led = fresh_ledger()
    # ledger all cells first: concurrent first-HOs batch into one block
    procs = [
        begin_handover(0, 0, c, Scheme.BLOCKCHAIN, led, 160, led.trace,
                       t_cell_keys=KEYS[c])
        for c in CELLS if c != 0
    ]
    led.tick(1000)
    assert all(try_complete(p, led, 1120) for p in procs)
    base = key_exchange_count(led.trace)
    events = [HoEvent(i, 0, (i % 15) + 1, 20_000 + 160 * i) for i in range(10)]
    for ev in events:
        assert begin(led, ev.ue_id, ev.s_cell, ev.t_cell, ev.t_trigger).complete
    assert key_exchange_count(led.trace) - base == len(events)  # 1 per HO
    baseline_trace = replay_key_signaling(events, Scheme.DOUBLE_RANDOM, KEYS, 30_000)
    assert key_exchange_count(baseline_trace) == 2 * len(events)  # 2 per HO


def test_replay_blockchain_matches_direct_engine_semantics():
    events = [
        HoEvent(0, 0, 5, 160),
        HoEvent(1, 2, 6, 320),
        HoEvent(2, 1, 5, 3200),
        HoEvent(3, 4, 6, 3200),
    ]
    trace = replay_key_signaling(events, Scheme.BLOCKCHAIN, KEYS, 10_000)
    uploads = [r for r in trace if r.kind is SignalKind.CANDIDATE_UPLOAD]
    broadcasts = [r for r in trace if r.kind is SignalKind.BLOCK_BROADCAST]
    deliveries = [r for r in trace if r.kind is SignalKind.KEY_TO_UE]
    assert len(uploads) == 2  # cells 5 and 6 once each
    assert len(broadcasts) == 1  # both uploads share the boundary at 1000
    assert len(deliveries) == 4
    hmac_trace = replay_key_signaling(events, Scheme.C_COVER_FREE, KEYS, 10_000)
    assert key_exchange_count(hmac_trace) == 8


def reference_replay(events, scheme, cell_keys, horizon_ms, rs_period_ms, collection_period_ms):
    """The protocol driven on the RS grid: every event starts a handover at
    its trigger instant, the ledger ticks at every instant, and blocked
    handovers complete at the first instant at or after their block verifies."""
    trace = SignalTrace()
    led = SimulatedLedger({f"bsh{c}" for c in cell_keys}, collection_period_ms, trace)
    by_tick: dict[int, list[HoEvent]] = {}
    for ev in events:
        by_tick.setdefault(ev.t_trigger, []).append(ev)
    pending = []
    for t in range(0, horizon_ms + 1, rs_period_ms):
        for ev in by_tick.get(t, ()):
            proc = begin_handover(
                ev.ue_id, ev.s_cell, ev.t_cell, scheme, led, t, trace,
                t_cell_keys=cell_keys[ev.t_cell], timeout_ms=10 * collection_period_ms,
            )
            if not proc.complete:
                pending.append(proc)
        led.tick(t)
        pending = [p for p in pending if not try_complete(p, led, t)]
    return trace


@st.composite
def event_streams(draw):
    """Time-ordered trigger streams on the RS grid up to an off-grid horizon,
    with the RS period both below and above the collection period."""
    rs = draw(st.integers(40, 3000))
    period = draw(st.integers(100, 2000))
    horizon = draw(st.integers(0, 30_000))
    last_tick = horizon // rs
    raw = draw(st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 5), st.integers(1, 5),
                  st.integers(0, last_tick)),
        max_size=40,
    ))
    events = sorted(
        (HoEvent(ue, s, (s + step) % 6, tick * rs) for ue, s, step, tick in raw),
        key=lambda ev: ev.t_trigger,
    )
    return events, horizon, rs, period


@settings(max_examples=300, deadline=None)
@given(event_streams(), st.sampled_from([Scheme.BLOCKCHAIN, Scheme.DOUBLE_RANDOM]))
def test_replay_matches_the_protocol_driven_on_the_rs_grid(stream, scheme):
    events, horizon, rs, period = stream
    keys = {c: (f"key{c}",) for c in range(6)}
    key_signals = lambda trace: sorted(
        (r.t, r.kind.value) for r in trace if r.counts_as_key_exchange
    )
    expected = reference_replay(events, scheme, keys, horizon, rs, period)
    got = replay_key_signaling(
        events, scheme, keys, horizon, rs_period_ms=rs, collection_period_ms=period
    )
    assert key_signals(got) == key_signals(expected)
