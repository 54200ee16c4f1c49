import dataclasses
import io
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncsecsim.config import RunConfig
from ncsecsim.errors import InvalidParameter, NoOpHandover
from ncsecsim.handover import (
    _TEMPLATE_KEYS,
    _TEMPLATE_LEN,
    _TEMPLATE_ROWS,
    _TEMPLATES,
    HoTable,
    KeyPath,
    PredictionConfig,
    cumulative_key_exchanges,
    replay_key_signaling,
)
from ncsecsim.keydist import Scheme
from ncsecsim.ledger import _KINDS, SignalKind, SignalRecord, key_exchange_count
from ncsecsim.simulation import run_simulation

from oracles import handover_rows_oracle

CELLS = list(range(16))


def kinds(view):
    return [s.kind for s in view.signals]


def table(scheme=Scheme.BLOCKCHAIN, period=1000, rs=160):
    return HoTable(scheme, len(CELLS), period, rs)


def begin(hos, ue, src, dst, now):
    """Start one handover, a batch of one; returns its view."""
    hos.start([ue], [src], [dst], now)
    return hos[-1]


def complete_at(hos, view, now):
    """Advance the table's clock to ``now`` and finish ``view`` by then."""
    hos.finish_waiting(now)
    assert view.complete
    return view


def triggers(rows):
    """A trigger stream of (ue_id, s_cell, t_cell, t_trigger) rows, as the
    four columns ``replay_key_signaling`` reads."""
    cols = list(zip(*rows)) or [()] * 4
    return SimpleNamespace(**dict(zip(("ue_id", "s_cell", "t_cell", "t_trigger"), cols)))


def test_each_template_counts_the_key_exchanges_of_its_rows():
    # A block expands into its template's first ``_TEMPLATE_LEN`` rows; the
    # padding after them has kind code 0, a candidate upload, which counts.
    for template, block, length, keys in zip(
        _TEMPLATES, _TEMPLATE_ROWS, _TEMPLATE_LEN, _TEMPLATE_KEYS
    ):
        records = [SignalRecord(_KINDS[code], "a", "b", 0) for code in block[:length, 0]]
        assert [r.kind for r in records] == [kind for kind, _, _ in template]
        assert keys == sum(r.counts_as_key_exchange for r in records)
    assert _TEMPLATE_KEYS.tolist() == [2, 1, 1, 0, 1, 1, 1]


def test_first_ho_emits_three_key_signals_in_order():
    hos = table()
    view = begin(hos, 0, 1, 7, 480)
    assert not view.complete and view.t_complete is None
    complete_at(hos, view, 1120)  # the RS instant that sees the block at 1000
    assert view.key_signal_count == 3
    assert view.key_path is KeyPath.LEDGER_FIRST_HO
    assert view.complete and view.t_complete == 1120
    assert kinds(view) == [
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
    assert view.t_complete >= view.t_trigger
    assert view.prep_wait_ms == view.t_complete - view.t_trigger


def test_subsequent_ho_costs_one_key_signal_regardless_of_source():
    hos = table()
    complete_at(hos, begin(hos, 0, 1, 7, 480), 1120)
    for ue, src in enumerate((2, 9, 14), start=1):
        view = begin(hos, ue, src, 7, 2080)
        assert view.complete
        assert view.key_signal_count == 1
        assert view.key_path is KeyPath.LEDGER_STEADY_STATE
        assert view.prep_wait_ms == 0


def test_baseline_ho_costs_two_key_signals():
    for scheme in (Scheme.DOUBLE_RANDOM, Scheme.C_COVER_FREE):
        view = begin(table(scheme), 0, 3, 9, 160)
        assert view.complete
        assert view.key_signal_count == 2
        assert view.key_path is KeyPath.BASELINE_PER_HO
        assert kinds(view)[:2] == [SignalKind.HO_REQUEST, SignalKind.KEY_TO_SBS]
        assert view.prep_wait_ms == 0


def assert_complete_or_waiting(view):
    if view.complete:
        assert view.prep_wait_ms == view.t_complete - view.t_trigger
        assert view.table.waiting.get(view.ue_id) != view.row
    else:
        assert view.key_path is KeyPath.LEDGER_FIRST_HO
        assert view.t_complete is None and view.prep_wait_ms is None
        assert view.table.waiting[view.ue_id] == view.row


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 5), st.integers(1, 5), st.sampled_from(list(Scheme)),
              st.integers(0, 8)),
    min_size=1, max_size=30,
))
def test_start_returns_complete_or_waiting(calls):
    # random streams of handovers on every scheme, one table per scheme,
    # with every table's clock advancing between them
    tables = {scheme: table(scheme) for scheme in Scheme}
    now = 0
    for ue, (src, hop, scheme, ticks) in enumerate(calls):
        hos = tables[scheme]
        done = hos.start([ue], [src], [(src + hop) % 6], now)
        assert done.tolist() == [hos[-1].complete]
        assert_complete_or_waiting(hos[-1])
        now += 160 * ticks
        for each in tables.values():
            finished = each.finish_waiting(now)
            assert finished == sorted(finished)
            for view in each:
                assert_complete_or_waiting(view)


def test_all_three_key_paths_return_complete_or_waiting():
    hos = table()
    first = begin(hos, 2, 1, 2, 160)
    assert_complete_or_waiting(first)
    assert not first.complete
    complete_at(hos, first, 1120)
    views = [first, begin(hos, 3, 3, 2, 1160), begin(table(Scheme.C_COVER_FREE), 1, 1, 2, 1160)]
    assert [v.key_path for v in views] == list(KeyPath)
    for view in views:
        assert_complete_or_waiting(view)
        assert view.complete


def test_noop_handover_rejected():
    with pytest.raises(NoOpHandover):
        table().start([0], [4], [4], 0)


def test_missing_key_set_rejected():
    hos = HoTable(Scheme.BLOCKCHAIN, 0, 1000, 160)  # no cell has a key set
    with pytest.raises(InvalidParameter):
        hos.start([0], [1], [7], 160)


def test_cell_outside_the_grid_rejected_and_uploaded_once():
    # A cell outside the grid has no upload; a cell's first visit uploads
    # it, a join does not upload again.
    hos = HoTable(Scheme.BLOCKCHAIN, 8, 1000, 160)
    for cell in (9, -1):
        with pytest.raises(InvalidParameter):
            hos.start([0], [1], [cell], 160)
        with pytest.raises(InvalidParameter):
            hos.upload(cell, 160)
    assert hos.uploads == [] and len(hos) == 0
    hos.start([0, 1], [1, 2], [7, 7], 160)
    assert hos.uploads == [7] and hos.uploaded_at[7] == 160
    assert [view.did_upload for view in hos] == [True, False]


@pytest.mark.parametrize(
    "targets, error",
    [([3, 2], NoOpHandover), ([3, 9], InvalidParameter)],
    ids=["noop", "off-grid"],
)
def test_start_checks_the_whole_batch_before_recording(targets, error):
    # ue1's bad handover leaves no trace of ue0's good one before it
    hos = HoTable(Scheme.BLOCKCHAIN, 8, 1000, 160)
    with pytest.raises(error):
        hos.start([0, 1], [1, 2], targets, 160)
    assert len(hos) == 0 and hos.uploads == [] and hos.waiting == {}


def test_handover_with_a_ledger_signals_on_its_trace():
    hos = table()
    view = complete_at(hos, begin(hos, 0, 1, 7, 160), 1120)
    assert list(hos.trace()) == view.signals
    assert [r.kind for r in view.signals].count(SignalKind.BLOCK_BROADCAST) == 1


def test_every_completed_procedure_delivers_keys_once():
    hos = table()
    views = []
    for i in range(12):
        now = 4000 * (i + 1)  # on a collection boundary and an RS instant
        views.append(complete_at(hos, begin(hos, i, i % 4, 5 + (i % 3), now), now))
    for view in views:
        delivered = [s for s in view.signals if s.kind is SignalKind.KEY_TO_UE]
        assert len(delivered) == 1


def test_pending_joiner_waits_but_costs_one():
    hos = table()
    first = begin(hos, 0, 1, 7, 160)
    joiner = begin(hos, 1, 3, 7, 320)
    assert first.did_upload and not joiner.did_upload
    assert hos.finish_waiting(1120) == [(0, 7), (1, 7)]
    assert first.key_signal_count == 3
    assert joiner.key_signal_count == 1
    assert joiner.prep_wait_ms == 800
    uploads = [r for r in hos.trace() if r.kind is SignalKind.CANDIDATE_UPLOAD]
    assert len(uploads) == 1


def mid_run_table():
    """A ledger table as a run leaves it between ticks: list columns, two
    handovers that waited and completed, one steady-state handover and
    one still waiting."""
    hos = table()
    hos.start([0, 1], [1, 3], [7, 7], 160)
    hos.finish_waiting(1120)
    hos.start([2, 3], [4, 5], [7, 9], 1280)
    assert isinstance(hos.ue_id, list) and hos.waiting == {3: 3}
    return hos


@pytest.mark.parametrize("events", [
    pytest.param(lambda: mid_run_table(), id="mid-run"),
    pytest.param(lambda: run_simulation(RunConfig(seed=1, horizon_ms=5000)).events, id="finished"),
])
def test_table_is_a_sequence_of_views(events):
    hos = events()
    n = len(hos)
    assert n >= 4
    views = [hos[i] for i in range(n)]
    # a view compares and hashes by its table and row
    assert views == [hos[i - n] for i in range(n)] and len(set(views)) == n
    assert hos[1] == hos[1] and hash(hos[1]) == hash(hos[1]) and hos[0] != hos[1]
    assert all(view.table is hos and view.row == row for row, view in enumerate(views))
    for cut in (slice(0, 2), slice(1, None, 2), slice(-3, -1), slice(None, None, -1),
                slice(-1, 0, -2), slice(2, 2), slice(n + 5, None)):
        got = hos[cut]
        assert isinstance(got, list) and got == views[cut]
        assert [v.ue_id for v in got] == [v.ue_id for v in views[cut]]
        assert [v.t_complete for v in got] == [v.t_complete for v in views[cut]]
    assert hos[0:2][1].ue_id == views[1].ue_id
    assert list(hos) == views and list(reversed(hos)) == views[::-1]
    for row, view in enumerate(views):
        assert view in hos and hos.index(view) == row and hos.count(view) == 1
    other = table()
    other.start([0], [1], [7], 160)
    assert other[0] not in hos and hos.count(other[0]) == 0
    with pytest.raises(ValueError):
        hos.index(other[0])
    with pytest.raises(IndexError):
        hos[n]


def test_per_cell_upload_uniqueness_with_prestaging():
    hos = table()
    assert hos.upload(7, 0)
    # a repeat prestage and a later first HO must not upload again
    assert not hos.upload(7, 160)
    view = begin(hos, 2, 1, 7, 320)
    assert not view.did_upload
    complete_at(hos, view, 1000)
    uploads = [r for r in hos.trace() if r.kind is SignalKind.CANDIDATE_UPLOAD]
    assert len(uploads) == 1


def prestaged_uploads(result):
    """Uploads of the run that no handover made, as (t, cell) pairs."""
    by_handovers = {(v.t_trigger, str(v.t_cell)) for v in result.events if v.did_upload}
    return [(t, d) for t, _, d in result.upload_log if (t, d) not in by_handovers]


def test_prestage_accuracy_gate():
    def run(**prediction):
        config = RunConfig(seed=7, horizon_ms=20_000)
        return run_simulation(
            dataclasses.replace(config, prediction=PredictionConfig(**prediction))
        )

    assert prestaged_uploads(run(enabled=True, accuracy=1.0, lead_ms=1000))
    assert not prestaged_uploads(run(enabled=True, accuracy=0.0, lead_ms=1000))
    assert not prestaged_uploads(run(enabled=False, accuracy=1.0, lead_ms=1000))
    with pytest.raises(InvalidParameter):
        PredictionConfig(enabled=True, accuracy=1.5)


def test_prestaged_first_ho_completes_without_waiting():
    hos = table()
    assert hos.upload(7, 160)
    hos.finish_waiting(1000)  # block verifies ahead of the trigger
    view = begin(hos, 0, 1, 7, 1280)  # after 1120, the RS instant that sees it
    assert view.complete and view.prep_wait_ms == 0
    assert view.key_signal_count == 1
    # upload + broadcast + delivery: still three key signals end to end
    assert key_exchange_count(hos.trace()) == 3


def test_cumulative_series_and_steady_state_slopes():
    assert cumulative_key_exchanges([], 3000) == [(0, 0), (1000, 0), (2000, 0), (3000, 0)]
    hos = table()
    # ledger all cells first: concurrent first-HOs batch into one block
    others = [c for c in CELLS if c != 0]
    hos.start(range(len(others)), [0] * len(others), others, 160)
    assert len(hos.finish_waiting(1120)) == len(others)
    base = key_exchange_count(hos.trace())
    rows = [(i, 0, (i % 15) + 1, 20_000 + 160 * i) for i in range(10)]
    for row in rows:
        assert begin(hos, *row).complete
    assert key_exchange_count(hos.trace()) - base == len(rows)  # 1 per HO
    baseline_trace = replay_key_signaling(triggers(rows), Scheme.DOUBLE_RANDOM, 30_000, 160, 1000)
    assert key_exchange_count(baseline_trace) == 2 * len(rows)  # 2 per HO


def test_replay_blockchain_matches_direct_engine_semantics():
    events = triggers([(0, 0, 5, 160), (1, 2, 6, 320), (2, 1, 5, 3200), (3, 4, 6, 3200)])
    trace = replay_key_signaling(events, Scheme.BLOCKCHAIN, 10_000, 160, 1000)
    uploads = [r for r in trace if r.kind is SignalKind.CANDIDATE_UPLOAD]
    broadcasts = [r for r in trace if r.kind is SignalKind.BLOCK_BROADCAST]
    deliveries = [r for r in trace if r.kind is SignalKind.KEY_TO_UE]
    assert len(uploads) == 2  # cells 5 and 6 once each
    assert len(broadcasts) == 1  # both uploads share the boundary at 1000
    assert len(deliveries) == 4
    hmac_trace = replay_key_signaling(events, Scheme.C_COVER_FREE, 10_000, 160, 1000)
    assert key_exchange_count(hmac_trace) == 8
    with pytest.raises(TypeError):  # the periods have no default
        replay_key_signaling(events, Scheme.BLOCKCHAIN, 10_000)


def reference_replay(rows, uses_ledger, horizon_ms, rs_period_ms, collection_period_ms):
    """``signals.csv`` text of the protocol driven one UE at a time on the
    RS grid (``handover_rows_oracle``): every trigger starts a handover at
    its instant, every boundary up to an instant verifies there, and
    blocked handovers complete at the first instant at or after their
    block verifies.  Each trigger is its own oracle UE, numbered in
    (stream UE, row) order, so a stream's UE may have several handovers
    in flight, as in the replay; the text names the stream's UE ids."""
    order = sorted(range(len(rows)), key=lambda i: (rows[i][0], i))
    by_tick: dict[int, list[tuple[int, int, int]]] = {}
    for own, i in enumerate(order):
        by_tick.setdefault(rows[i][3], []).append((own, rows[i][1], rows[i][2]))
    ticks = [(t, [], by_tick.get(t, [])) for t in range(0, horizon_ms + 1, rs_period_ms)]
    text, _ = handover_rows_oracle(ticks, uses_ledger, collection_period_ms)
    names = {f"ue{own}": f"ue{rows[i][0]}" for own, i in enumerate(order)}
    return "".join(
        ",".join(names.get(field, field) for field in line.split(",")) + "\r\n"
        for line in text.splitlines()
    )


@st.composite
def event_streams(draw):
    """Trigger streams on the RS grid up to an off-grid horizon, in start
    order as a run's table holds them (by instant, then UE id), with the
    RS period both below and above the collection period."""
    rs = draw(st.integers(40, 3000))
    period = draw(st.integers(100, 2000))
    horizon = draw(st.integers(0, 30_000))
    last_tick = horizon // rs
    raw = draw(st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 5), st.integers(1, 5),
                  st.integers(0, last_tick)),
        max_size=40,
    ))
    rows = sorted(
        ((ue, s, (s + step) % 6, tick * rs) for ue, s, step, tick in raw),
        key=lambda row: (row[3], row[0]),
    )
    return rows, horizon, rs, period


@settings(max_examples=300, deadline=None)
@given(event_streams(), st.sampled_from([Scheme.BLOCKCHAIN, Scheme.DOUBLE_RANDOM]))
def test_replay_matches_the_protocol_driven_on_the_rs_grid(stream, scheme):
    rows, horizon, rs, period = stream
    expected = reference_replay(rows, scheme is Scheme.BLOCKCHAIN, horizon, rs, period)
    buf = io.StringIO(newline="")
    replay_key_signaling(
        triggers(rows), scheme, horizon, rs_period_ms=rs, collection_period_ms=period
    ).write_csv(buf)
    assert buf.getvalue() == expected


@st.composite
def handover_ticks(draw):
    """Per-tick handover batches on the RS grid: prestaged cells, then
    several UEs in id order, many of them aimed at one cell, with the RS
    period both below and above the collection period and a tail of idle
    ticks that may or may not let the last handovers finish."""
    cells = draw(st.integers(2, 5))
    rs = draw(st.integers(40, 3000))
    period = draw(st.integers(100, 2000))
    n = draw(st.integers(1, 20))
    ticks = []
    for k in range(n):
        prestaged = draw(st.lists(st.integers(0, cells - 1), max_size=2))
        aim = draw(st.integers(0, cells - 1))
        batch = []
        for ue in sorted(draw(st.lists(st.integers(0, 7), unique=True, max_size=5))):
            t_cell = aim if draw(st.booleans()) else draw(st.integers(0, cells - 1))
            batch.append((ue, (t_cell + draw(st.integers(1, cells - 1))) % cells, t_cell))
        ticks.append((k * rs, prestaged, batch))
    idle = draw(st.integers(0, period // rs + 2))
    ticks += [((n + j) * rs, [], []) for j in range(idle)]
    return ticks, period, rs


@settings(max_examples=300, deadline=None)
@given(handover_ticks(), st.sampled_from(list(Scheme)))
def test_table_matches_the_scalar_oracle(case, scheme):
    ticks, period, rs = case
    hos = table(scheme, period, rs)
    for now, prestaged, batch in ticks:
        for cell in prestaged:
            hos.upload(cell, now)
        batch = [row for row in batch if row[0] not in hos.waiting]
        hos.start([r[0] for r in batch], [r[1] for r in batch], [r[2] for r in batch], now)
        hos.finish_waiting(now)
    buf = io.StringIO(newline="")
    hos.trace().write_csv(buf)
    summary = list(zip(*(col.tolist() for col in hos.summary_columns())))
    assert (buf.getvalue(), summary) == handover_rows_oracle(
        ticks, scheme is Scheme.BLOCKCHAIN, period
    )

