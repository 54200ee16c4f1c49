import dataclasses
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncsecsim.config import RunConfig, SecurityConfig, apply_settings
from ncsecsim.errors import InvalidParameter
from ncsecsim.gf import field
from ncsecsim.handover import KeyPath, PredictionConfig, cumulative_key_exchanges
from ncsecsim.integrity import generate_domain_keys
from ncsecsim.keydist import Scheme
from ncsecsim.ledger import SignalKind, SignalRecord, key_exchange_count
from ncsecsim.simulation import run_simulation, write_run_artifacts

from oracles import run_oracle


@pytest.fixture(scope="module")
def run10():
    return run_simulation(RunConfig(seed=0))


@pytest.fixture(scope="module")
def run60():
    return run_simulation(dataclasses.replace(RunConfig(seed=0), horizon_ms=60_000))


def first_ho_by_cell(result):
    first = {}
    for proc in sorted(result.completed, key=lambda p: p.t_trigger):
        first.setdefault(proc.t_cell, proc)
    return first


def test_cell_rings_are_drawn_at_first_upload():
    # One ring per uploading cell, prestaged or not, drawn from the key
    # substream in first-upload order; other cells draw none.
    config = dataclasses.replace(
        RunConfig(seed=3), horizon_ms=8_000,
        prediction=PredictionConfig(enabled=True, accuracy=0.5, lead_ms=1000),
    )
    with mock.patch("ncsecsim.simulation.generate_domain_keys", wraps=generate_domain_keys) as draw:
        result = run_simulation(config)
    uploaded = list(dict.fromkeys(int(domain) for _, _, domain in result.upload_log))
    cells = result.grid.num_cells
    assert 0 < len(uploaded) < cells
    assert [call.kwargs["domain_id"] for call in draw.call_args_list] == [str(c) for c in uploaded]
    sec = config.security
    rng_keys = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(4)[1])
    for cell in uploaded:
        ring = generate_domain_keys(sec.n, sec.l, field(sec.q.bit_length() - 1), rng_keys, str(cell))
        assert np.array_equal(result.cell_keys[cell].matrix, ring.matrix)
    assert draw.call_count == len(uploaded)
    assert list(result.cell_keys) == list(range(cells)) and cells not in result.cell_keys


def test_blockchain_key_signal_costs(run10):
    assert run10.completed, "default scenario must produce handovers"
    first = first_ho_by_cell(run10)
    for proc in run10.completed:
        if first[proc.t_cell] is proc:
            assert proc.key_signal_count == 3
        else:
            assert proc.key_signal_count == 1
        assert proc.key_signal_count in (1, 3)


def test_baseline_run_costs_two_per_ho():
    cfg = dataclasses.replace(RunConfig(seed=0), scheme=Scheme.DOUBLE_RANDOM)
    result = run_simulation(cfg)
    assert result.completed
    for proc in result.completed:
        assert proc.key_signal_count == 2
        assert proc.key_path is KeyPath.BASELINE_PER_HO


def test_identical_trigger_stream_across_scheme_runs():
    # scheme choice must not perturb mobility or triggering
    runs = {
        scheme: run_simulation(dataclasses.replace(RunConfig(seed=5), scheme=scheme))
        for scheme in Scheme
    }
    streams = {
        scheme: [(e.ue_id, e.s_cell, e.t_cell, e.t_trigger) for e in r.events]
        for scheme, r in runs.items()
    }
    # baseline runs never block, so their streams agree exactly; the ledger
    # run may suppress triggers only while a UE waits on a block
    assert streams[Scheme.DOUBLE_RANDOM] == streams[Scheme.C_COVER_FREE]


def test_scheme_traces_share_the_event_stream(run60):
    n_events = len(run60.events)
    macsig = run60.scheme_traces["macsig"]
    hmac = run60.scheme_traces["hmac"]
    assert key_exchange_count(macsig) == 2 * n_events
    assert key_exchange_count(hmac) == 2 * n_events
    # per-HO baseline signals sit exactly at the trigger instants
    trigger_times = sorted(e.t_trigger for e in run60.events)
    key_to_sbs = sorted(r.t for r in macsig if r.kind is SignalKind.KEY_TO_SBS)
    assert key_to_sbs == trigger_times


def test_prep_waits_bounded_by_collection_period(run60):
    for proc in run60.completed:
        assert 0 <= proc.prep_wait_ms < 1000


def test_ledger_uploads_unique_per_cell(run60):
    domains = [d for (_, _, d) in run60.upload_log]
    assert len(domains) == len(set(domains))


def test_blockchain_at_most_16_above_baseline_and_crosses_below(run60):
    bc = cumulative_key_exchanges(run60.scheme_traces["blockchain"], 60_000)
    ms = cumulative_key_exchanges(run60.scheme_traces["macsig"], 60_000)
    assert all(a <= b + 16 for (_, a), (_, b) in zip(bc, ms))
    assert bc[-1][1] < ms[-1][1]


def test_eq4_audit_every_window(run60):
    trace = run60.trace
    for start in range(0, 60_001, 1000):
        end = start + 1000
        counted = sum(
            1 for r in trace if r.counts_as_key_exchange and start <= r.t < end
        )
        n_bsh = sum(1 for (t, _, _) in run60.upload_log if start <= t < end)
        n_ue = sum(
            1
            for p in run60.completed
            if p.t_complete is not None
            and start <= p.t_complete < end
            and any(s.kind is SignalKind.KEY_TO_UE for s in p.signals)
        )
        verified = [b for b in run60.blocks if start <= b.verified_at < end]
        assert len(verified) <= 1
        assert counted == n_bsh + n_ue + len(verified), f"window {start}"


def test_block_spacing_at_least_collection_period(run60):
    gaps = [
        b2.verified_at - b1.verified_at
        for b1, b2 in zip(run60.blocks, run60.blocks[1:])
    ]
    assert all(g >= 1000 for g in gaps)


def test_prediction_leaves_upload_totals_unchanged():
    base = dataclasses.replace(RunConfig(seed=6), horizon_ms=40_000)
    plain = run_simulation(base)
    predicted = run_simulation(
        dataclasses.replace(
            base, prediction=PredictionConfig(enabled=True, accuracy=0.8, lead_ms=1000)
        )
    )
    # prestaging shifts upload times, never adds uploads for unvisited cells
    assert len(predicted.upload_log) <= 16
    plain_cells = {d for (_, _, d) in plain.upload_log}
    predicted_cells = {d for (_, _, d) in predicted.upload_log}
    visited = {str(e.t_cell) for e in predicted.events}
    assert predicted_cells <= visited
    assert len({d for d in predicted_cells}) == len(predicted.upload_log)


def test_prediction_accuracy_zero_equals_disabled():
    base = dataclasses.replace(RunConfig(seed=7), horizon_ms=20_000)
    plain = run_simulation(base)
    acc0 = run_simulation(
        dataclasses.replace(
            base, prediction=PredictionConfig(enabled=True, accuracy=0.0, lead_ms=1000)
        )
    )
    sig = lambda res: [(r.t, r.kind, r.src, r.dst) for r in res.trace]
    assert sig(plain) == sig(acc0)


def test_measurement_dump_rows(tmp_path):
    cfg = dataclasses.replace(
        RunConfig(seed=1, horizon_ms=480),
        scenario=dataclasses.replace(RunConfig().scenario, dump_measurements=True, num_ues=3),
    )
    result = run_simulation(cfg)
    # 4 ticks (0..480) x 3 UEs
    assert len(result.measurements) == 4 * 3
    from ncsecsim.simulation import write_run_artifacts

    paths = write_run_artifacts(result, tmp_path)
    lines = paths["measurements"].read_text().strip().splitlines()
    assert lines[0] == "t_ms,ue_id,cell,rsrp_dbm"
    assert len(lines) == 1 + 4 * 3 * 16  # one row per (tick, ue, cell)


def test_horizon_zero_produces_nothing():
    result = run_simulation(dataclasses.replace(RunConfig(seed=0), horizon_ms=0))
    assert result.trace == [] and len(result.events) == 0 and result.blocks == []


def test_run_rejects_a_field_order_that_is_not_a_power_of_two():
    # a library run is not validated like a CLI run; q=200 must not floor to GF(128)
    config = dataclasses.replace(RunConfig(seed=0), security=SecurityConfig(q=200))
    with pytest.raises(InvalidParameter):
        run_simulation(config)


def test_shadow_fading_keeps_determinism():
    cfg = dataclasses.replace(
        RunConfig(seed=2, horizon_ms=5_000),
        scenario=dataclasses.replace(RunConfig().scenario, shadow_sigma_db=4.0),
    )
    a, b = run_simulation(cfg), run_simulation(cfg)
    assert [(r.t, r.kind) for r in a.trace] == [(r.t, r.kind) for r in b.trace]


@pytest.mark.parametrize("scheme", list(Scheme))
def test_scheme_traces_keep_label_order_and_baselines_agree(scheme):
    result = run_simulation(dataclasses.replace(RunConfig(seed=3), scheme=scheme))
    assert list(result.scheme_traces) == ["blockchain", "macsig", "hmac"]
    assert result.scheme_traces[scheme.label] == result.trace
    # the two baselines signal identically whether run or replayed
    sig = lambda trace: [(r.t, r.kind, r.src, r.dst) for r in trace]
    assert result.events
    assert sig(result.scheme_traces["macsig"]) == sig(result.scheme_traces["hmac"])


PARTITION_CASES = {
    "reference_60s": {"horizon_ms": "60000", "seed": "0"},
    "slow_ledger_predict": {
        "ledger.collection_period_ms": "1500",
        "ledger.ho_timeout_ms": "3000",
        "prediction.enabled": "true",
        "prediction.lead_ms": "1600",
        "horizon_ms": "20000",
        "seed": "13",
    },
    "city_8x8_200ues_5s": {
        "scenario.rows": "8",
        "scenario.cols": "8",
        "scenario.num_ues": "200",
        "horizon_ms": "5000",
        "seed": "14",
    },
}


@pytest.mark.parametrize("settings", PARTITION_CASES.values(), ids=list(PARTITION_CASES))
def test_handover_rows_partition_the_trace(settings):
    # after the run's time sort, every handover's signals are still its own
    result = run_simulation(apply_settings(RunConfig(), settings))
    broadcast = SignalKind.BLOCK_BROADCAST
    verified_at = {e.domain: b.verified_at for b in result.blocks for e in b.entries}
    claimed = Counter()
    uploads = set()
    for view in result.events:
        signals = view.signals
        s, t = f"bsh{view.s_cell}", f"bsh{view.t_cell}"
        assert signals[0] == SignalRecord(SignalKind.HO_REQUEST, s, t, view.t_trigger)
        if view.complete:
            assert signals[-1] == SignalRecord(SignalKind.HO_COMPLETE, t, s, view.t_complete)
            assert view.key_signal_count == sum(r.counts_as_key_exchange for r in signals)
        own_broadcast = view.did_upload and view.complete
        assert [r for r in signals if r.kind is broadcast] == (
            [SignalRecord(broadcast, "ledger", "all_bsh", verified_at[str(view.t_cell)])]
            if own_broadcast else []
        )
        claimed.update(r for r in signals if r.kind is not broadcast)
        if view.did_upload:
            uploads.add((view.t_trigger, str(view.t_cell)))
    prestaged = Counter(
        SignalRecord(SignalKind.CANDIDATE_UPLOAD, origin, "ledger", t)
        for t, origin, domain in result.upload_log if (t, domain) not in uploads
    )
    assert claimed + prestaged == Counter(r for r in result.trace if r.kind is not broadcast)


@st.composite
def run_configs(draw):
    """Small runs across the configuration space: grids of 1-8 rows and
    columns (half of them at least 6x6, so the lattice-box radio path
    runs), wrap on and off, 0-30 UEs, offsets in [-3, 6] dB, TTT windows
    of 0-480 ms, reference-signal and collection periods that do and do
    not divide each other, shadowing, prediction, every scheme and
    horizons on and off the reference-signal grid."""
    dims = st.integers(6, 8) if draw(st.booleans()) else st.integers(1, 8)
    rows, cols, ues = draw(dims), draw(dims), draw(st.integers(0, 30))
    period = draw(st.one_of(st.sampled_from([500, 1000, 2000]), st.integers(100, 2000)))
    rs = draw(st.one_of(st.sampled_from([100, 160, 250, 500]), st.integers(40, 1500)))
    values = {
        "scenario.rows": rows,
        "scenario.cols": cols,
        "scenario.wrap": draw(st.booleans()),
        "scenario.isd_m": draw(st.sampled_from([40.0, 40.0, 100.0])),
        "scenario.num_ues": ues,
        "scenario.ue_speed_kmh": draw(st.sampled_from([0.0, 120.0, 250.0, 250.0])),
        "scenario.rs_period_ms": rs,
        "scenario.ul_offset_db": draw(st.integers(-6, 12)) / 2,
        "scenario.ul_ttt_ms": draw(st.integers(0, 480)),
        "scenario.shadow_sigma_db": draw(st.sampled_from([0.0, 0.0, 3.0])),
        "scenario.dump_measurements": rows * cols * ues <= 64 and draw(st.booleans()),
        "ledger.collection_period_ms": period,
        "ledger.ho_timeout_ms": period * draw(st.integers(1, 3)),
        "prediction.enabled": draw(st.sampled_from([False, True, True])),
        "prediction.accuracy": draw(st.sampled_from([0.0, 0.5, 0.8, 1.0])),
        "prediction.lead_ms": draw(st.integers(0, 1600)),
        "scheme": draw(st.sampled_from(["blockchain", "blockchain", "macsig", "hmac"])),
        "horizon_ms": draw(st.integers(0, 12_000)),
        "seed": draw(st.integers(0, 2**16)),
    }
    return apply_settings(RunConfig(), {k: str(v).lower() for k, v in values.items()})


@settings(max_examples=150, deadline=None)
@given(run_configs())
def test_run_matches_the_whole_run_oracle(config):
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_run_artifacts(run_simulation(config), tmp)
        got = {Path(p).name: Path(p).read_bytes() for p in paths.values()}
    assert got == run_oracle(config)


@st.composite
def chain_configs(draw):
    """Ledger runs whose serving chains break inside blocks: few UEs on
    grids of up to 64 cells, so blocks run long and cells stay without
    keys; offsets in [-3, 6] dB (ping-pong below 0), TTT windows up to
    three RS periods, speed 0 or fast, collection periods that make
    first-visit handovers wait several ticks, prediction with leads of
    up to 12 ticks, wrap on and off and horizons off the RS grid."""
    rs = draw(st.sampled_from([40, 100, 160]))
    period = draw(st.sampled_from([300, 1000, 2500]))
    values = {
        "scenario.rows": draw(st.integers(2, 8)),
        "scenario.cols": draw(st.integers(2, 8)),
        "scenario.wrap": draw(st.booleans()),
        "scenario.isd_m": 40.0,
        "scenario.num_ues": draw(st.integers(1, 12)),
        "scenario.ue_speed_kmh": draw(st.sampled_from([0.0, *[150.0, 250.0] * 4])),
        "scenario.rs_period_ms": rs,
        "scenario.ul_offset_db": draw(st.integers(-6, 12)) / 2,
        "scenario.ul_ttt_ms": draw(st.integers(0, 3 * rs)),
        "ledger.collection_period_ms": period,
        "ledger.ho_timeout_ms": 2 * period,
        "prediction.enabled": draw(st.sampled_from([False, *[True] * 7])),
        "prediction.accuracy": draw(st.sampled_from([0.3, 0.7, 1.0])),
        "prediction.lead_ms": draw(st.integers(0, 12 * rs)),
        "horizon_ms": draw(st.integers(1, 8_000)),
        "seed": draw(st.integers(0, 2**16)),
    }
    return apply_settings(RunConfig(), {k: str(v).lower() for k, v in values.items()})


def _artifacts(config) -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_run_artifacts(run_simulation(config), tmp)
        return {Path(p).name: Path(p).read_bytes() for p in paths.values()}


def _chain_example(rows, cols, wrap, ues, rs, offset, ttt, period, accuracy, lead, horizon, seed):
    values = {
        "scenario.rows": rows, "scenario.cols": cols, "scenario.wrap": wrap,
        "scenario.isd_m": 40.0, "scenario.num_ues": ues, "scenario.ue_speed_kmh": 250.0,
        "scenario.rs_period_ms": rs, "scenario.ul_offset_db": offset, "scenario.ul_ttt_ms": ttt,
        "ledger.collection_period_ms": period, "ledger.ho_timeout_ms": 2 * period,
        "prediction.enabled": True, "prediction.accuracy": accuracy, "prediction.lead_ms": lead,
        "horizon_ms": horizon, "seed": seed,
    }
    return apply_settings(RunConfig(), {k: str(v).lower() for k, v in values.items()})


# Runs whose bytes change if a wait does not end its UE's chain, if a UE
# is not evaluated afresh once its wait ends, or if its forecast rows are
# not (the first two); and if the first windows reach before tick 0 (the
# third, whose 100 ms window spans three ticks).
@example(_chain_example(2, 7, False, 2, 40, 2.5, 107, 1000, 0.7, 14, 3443, 91))
@example(_chain_example(5, 2, True, 7, 40, 0.0, 4, 300, 0.3, 256, 735, 2444))
@example(_chain_example(6, 6, False, 12, 40, -2.5, 100, 1000, 0.7, 370, 283, 136))
@settings(max_examples=120, deadline=None)
@given(st.one_of(run_configs(), chain_configs()))
def test_block_length_does_not_change_a_byte(config):
    # Blocks of 1, 2 and 3 ticks and the derived lengths resolve the same
    # serving chains: a handover that waits ends its UE's chain, one that
    # finishes waiting restarts it (forecast rows included), and the
    # windows at the run's start reach back to tick 0 only.
    derived = _artifacts(config)
    assert derived == run_oracle(config)
    for length in (1, 2, 3):
        with mock.patch("ncsecsim.simulation._block_length", lambda *args, n=length: n):
            assert _artifacts(config) == derived, f"block length {length}"
