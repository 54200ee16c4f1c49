import ast
import csv
import dataclasses
import io
import tempfile
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncsecsim import simulation
from ncsecsim.config import (
    LedgerConfig,
    RunConfig,
    ScenarioConfig,
    SecurityConfig,
    apply_settings,
)
from ncsecsim.errors import ConfigError
from ncsecsim.gf import field
from ncsecsim.handover import (
    KeyPath,
    PredictionConfig,
    cumulative_key_exchanges,
    replay_key_signaling,
)
from ncsecsim.integrity import generate_domain_keys
from ncsecsim.keydist import Scheme
from ncsecsim.ledger import (
    CandidateEntry,
    EntryKind,
    SignalKind,
    SignalRecord,
    SimulatedLedger,
    key_boundary,
    key_exchange_count,
    per_window_signaling,
)
from ncsecsim.mobility import CellGrid, place_ues
from ncsecsim.simulation import run_bytes, run_simulation, write_run_artifacts

from oracles import cumulative_key_exchanges_oracle, per_second_signaling, run_oracle


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
        result.blocks  # reading the blocks draws the rings
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
    assert list(result.cell_keys) == uploaded


def test_a_run_draws_no_ring_until_its_keys_are_read(tmp_path):
    # No artifact shows a key, so neither the run nor its artifacts draw
    # one; reading the blocks draws the uploaded cells' rings in upload
    # order, and a cell that never uploads has none.
    config = dataclasses.replace(
        RunConfig(seed=3), horizon_ms=8_000,
        prediction=PredictionConfig(enabled=True, accuracy=0.5, lead_ms=1000),
    )
    no_draw = AssertionError("drew a key ring")
    with mock.patch("ncsecsim.simulation.generate_domain_keys", side_effect=no_draw):
        result = run_simulation(config)
        write_run_artifacts(result, tmp_path)
    uploaded = [int(domain) for _, _, domain in result.upload_log]
    sec = config.security
    rng_keys = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(4)[1])
    rings = {
        cell: generate_domain_keys(sec.n, sec.l, field(sec.q.bit_length() - 1), rng_keys, str(cell))
        for cell in uploaded
    }
    entries = [e for b in result.blocks for e in b.entries]
    assert entries and [e.domain for e in entries] == [str(c) for c in uploaded[: len(entries)]]
    for e in entries:
        assert np.array_equal(e.payload.matrix, rings[int(e.domain)].matrix)
    assert list(result.cell_keys) == uploaded
    for cell in uploaded:
        assert np.array_equal(result.cell_keys[cell].matrix, rings[cell].matrix)
    with pytest.raises(KeyError):
        result.cell_keys[min(set(range(result.grid.num_cells)) - set(uploaded))]


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
    # 4 ticks (0..480) x 3 UEs x 16 cells
    assert result.measurements.shape == (4, 3, 16)
    from ncsecsim.simulation import write_run_artifacts

    paths = write_run_artifacts(result, tmp_path)
    lines = paths["measurements"].read_text().strip().splitlines()
    assert lines[0] == "t_ms,ue_id,cell,rsrp_dbm"
    assert len(lines) == 1 + 4 * 3 * 16  # one row per (tick, ue, cell)


@pytest.mark.parametrize("settings", [
    {},
    {"scenario.shadow_sigma_db": "4", "prediction.enabled": "true", "prediction.lead_ms": "1000"},
    {"scenario.rows": "8", "scenario.cols": "8", "scenario.num_ues": "60",
     "scenario.ul_offset_db": "-2", "scheme": "hmac"},
    {"scenario.pl_exponent": "0", "scenario.wrap": "false"},
], ids=["defaults", "shadow-predict", "neg-offset-8x8", "flat-no-wrap"])
def test_the_dump_changes_no_other_artifact(tmp_path, settings):
    # The dump records powers beside the trigger path: with the same seed,
    # every artifact but the dump and the config echo keeps its bytes.
    artifacts = []
    for dump in ("false", "true"):
        cfg = apply_settings(RunConfig(), {
            **settings, "scenario.dump_measurements": dump, "horizon_ms": "20000", "seed": "2",
        })
        paths = write_run_artifacts(run_simulation(cfg), tmp_path / dump)
        paths.pop("config")
        artifacts.append({name: path.read_bytes() for name, path in paths.items()})
    assert artifacts[1].pop("measurements")
    assert artifacts[0] == artifacts[1]


def test_csv_writer_is_called_only_by_the_table_writer_and_the_signal_quoting_rule():
    # Every CSV goes through the column writer (``ledger._write_columns``),
    # whose quoting is ``ledger._csv_field``.
    sites = []
    for path in sorted(Path(simulation.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        funcs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "csv.writer":
                owners = [f for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
                owner = max(owners, key=lambda f: f.lineno).name if owners else "<module>"
                sites.append(f"{path.stem}.{owner}")
    assert sites == ["ledger._csv_field"]


def test_horizon_zero_produces_nothing():
    result = run_simulation(dataclasses.replace(RunConfig(seed=0), horizon_ms=0))
    assert result.trace == [] and len(result.events) == 0 and result.blocks == []
    # no tick ran, so the blocks come from one ledger tick at -1
    assert result.events.clock == -1


def test_run_rejects_a_field_order_that_is_not_a_power_of_two():
    # q=200 must not floor to GF(128)
    config = dataclasses.replace(RunConfig(seed=0), security=SecurityConfig(q=200))
    with pytest.raises(ConfigError):
        run_simulation(config)


@pytest.mark.parametrize("config, key", [
    (RunConfig(ledger=LedgerConfig(collection_period_ms=1000, ho_timeout_ms=500)),
     "ledger.ho_timeout_ms"),
    (RunConfig(scenario=ScenarioConfig(num_ues=-1)), "scenario.num_ues"),
], ids=["timeout-below-period", "negative-ues"])
def test_a_library_run_checks_its_config_before_its_first_tick(config, key):
    # A config ``validate`` rejects fails as in the CLI, naming its key,
    # before the run places a UE (a field order that is not a power of
    # two: the test above).
    no_place = AssertionError("placed UEs")
    with mock.patch("ncsecsim.simulation.place_ues", side_effect=no_place):
        with pytest.raises(ConfigError, match=key):
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


def upload_rows(signals_csv: bytes) -> list[tuple[int, str, str]]:
    """The ``candidate_upload`` rows of ``signals.csv`` bytes as upload-log
    rows (time, origin, cell), in file order."""
    rows = csv.reader(io.StringIO(signals_csv.decode()))
    return [(int(t), src, src[3:]) for t, kind, src, *_ in rows if kind == "candidate_upload"]


def broadcast_times(signals_csv: bytes) -> list[int]:
    """The times of the ``block_broadcast`` rows of ``signals.csv`` bytes,
    in file order."""
    rows = csv.reader(io.StringIO(signals_csv.decode()))
    return [int(t) for t, kind, *_ in rows if kind == "block_broadcast"]


def ledger_blocks(result):
    """Height, entry domains and verification time of each block that a
    ``SimulatedLedger`` makes of the run's upload log, ticked once at the
    run's last RS instant."""
    config, rs = result.config, result.config.scenario.rs_period_ms
    led = SimulatedLedger(
        {f"bsh{c}" for c in range(result.grid.num_cells)}, config.ledger.collection_period_ms
    )
    for t, origin, domain in result.upload_log:
        entry = CandidateEntry(EntryKind.CELL_KEY_SET, origin, ("keys",), t, domain)
        assert led.submit_candidate(entry).accepted
    if config.horizon_ms > 0:
        led.tick(config.horizon_ms // rs * rs)
    return [(b.block_height, [e.domain for e in b.entries], b.verified_at) for b in led.blocks]


def _written(result) -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_run_artifacts(result, tmp)
        return {Path(p).name: Path(p).read_bytes() for p in paths.values()}


@settings(max_examples=150, deadline=None)
@given(run_configs())
def test_run_matches_the_whole_run_oracle(config):
    result = run_simulation(config)
    expected = run_oracle(config)
    assert _written(result) == expected
    # The upload log holds the oracle's uploads, and the blocks are what a
    # ledger makes of that log.
    assert result.upload_log == upload_rows(expected["signals.csv"])
    assert [
        (b.block_height, [e.domain for e in b.entries], b.verified_at) for b in result.blocks
    ] == ledger_blocks(result)
    # The blocks come from a ledger too, so check them against the
    # broadcasts of the oracle's own boundary walk as well.
    assert [b.verified_at for b in result.blocks] == broadcast_times(expected["signals.csv"])


@settings(max_examples=60, deadline=None)
@given(run_configs())
def test_every_wait_ends_within_a_period_and_an_rs_period(config):
    # A handover's target uploads its keys at or before the trigger, so
    # their block verifies less than a collection period after it, which
    # a validated ``ledger.ho_timeout_ms`` is at least, and the RS instant
    # that sees the block comes less than an RS period after that.  So
    # no wait, ended or not, reaches the timeout.
    events = run_simulation(config).events
    period, rs = config.ledger.collection_period_ms, config.scenario.rs_period_ms
    uploaded = np.asarray(events.uploaded_at)[events.t_cell]
    seen = np.asarray(events.seen_at)[events.t_cell]
    assert np.all(uploaded <= events.t_trigger)
    assert np.all(key_boundary(uploaded, period) - events.t_trigger < period)
    assert np.all(seen - events.t_trigger < period + rs)
    done = events.t_complete >= 0
    assert np.all((events.t_complete - events.t_trigger)[done] < period + rs)


@settings(max_examples=60, deadline=None)
@given(run_configs())
def test_a_completed_handovers_key_signals_are_its_key_exchange_rows(config):
    for view in run_simulation(config).completed:
        assert view.key_signal_count == sum(r.counts_as_key_exchange for r in view.signals)


@settings(max_examples=150, deadline=None)
@given(run_configs())
def test_a_ledger_run_is_the_replay_of_its_own_triggers(config):
    # One model decides a ledger handover's pattern and completion, in the
    # run and in the replay.  Without prediction every upload is a
    # trigger's, so the replay of a run's triggers is the run's own trace.
    config = dataclasses.replace(config, scheme=Scheme.BLOCKCHAIN, prediction=PredictionConfig())
    result = run_simulation(config)
    replayed = replay_key_signaling(
        result.events, Scheme.BLOCKCHAIN, config.horizon_ms,
        config.scenario.rs_period_ms, config.ledger.collection_period_ms,
    )
    assert list(replayed) == list(result.trace)


def _by_label(csv_bytes: bytes) -> dict[str, list[tuple[int, int]]]:
    """The (window start, value) rows of a per-window signaling CSV, per
    scheme label, in file order."""
    rows = list(csv.reader(io.StringIO(csv_bytes.decode())))[1:]
    by_label: dict[str, list[tuple[int, int]]] = {}
    for start, label, value in rows:
        by_label.setdefault(label, []).append((int(start), int(value)))
    return by_label


# A ledger run that prestages, with a handover still waiting at a horizon
# off the RS grid; a baseline run whose ledger replay waits there; and a
# run under one window with prediction off.
@example(apply_settings(RunConfig(), {"horizon_ms": "7930", "prediction.enabled": "true",
                                      "prediction.lead_ms": "1000"}))
@example(apply_settings(RunConfig(), {"scheme": "hmac", "horizon_ms": "7930"}))
@example(apply_settings(RunConfig(), {"scheme": "macsig", "horizon_ms": "750", "seed": "3"}))
@settings(max_examples=100, deadline=None)
@given(run_configs())
def test_written_signaling_windows_are_those_of_the_scheme_traces(config):
    # The two window tables count each scheme's key exchanges from its
    # blocks' times and templates; they must be the counts of its whole
    # trace, and those the scans of its rows.
    result = run_simulation(config)
    written = _written(result)
    assert "scheme_traces" not in vars(result)
    per_second = _by_label(written["per_second_signaling.csv"])
    cumulative = _by_label(written["cumulative_key_exchanges.csv"])
    horizon = config.horizon_ms
    starts = list(range(0, horizon + 1, 1000)) if horizon > 0 else []
    assert list(per_second) == list(cumulative) == ([s.label for s in Scheme] if starts else [])
    for label, trace in result.scheme_traces.items():
        counts = per_window_signaling(trace, horizon)
        curve = cumulative_key_exchanges(trace, horizon)
        assert counts == [per_second_signaling(trace, start) for start in starts or [0]]
        assert curve == cumulative_key_exchanges_oracle(trace, horizon)
        if starts:
            assert per_second[label] == list(zip(starts, counts))
            assert cumulative[label] == curve


@pytest.mark.parametrize("scheme", ["blockchain", "hmac"])
def test_artifacts_build_no_replayed_trace(tmp_path, scheme):
    config = apply_settings(RunConfig(), {"scheme": scheme, "horizon_ms": "20000"})
    result = run_simulation(config)
    replayed = AssertionError("replayed a trace")
    with (mock.patch("ncsecsim.handover.replay_key_signaling", side_effect=replayed),
          mock.patch("ncsecsim.simulation.replay_key_signaling", side_effect=replayed)):
        write_run_artifacts(result, tmp_path)
    assert "scheme_traces" not in vars(result)


def test_a_runs_columns_are_arrays_that_reads_see_change():
    # The run hands back its columns as int64 arrays, which readers take
    # without a copy; a read after the table changes sees the change.
    config = apply_settings(RunConfig(), {"horizon_ms": "750", "seed": "3"})
    events = run_simulation(config).events
    for name in ("ue_id", "s_cell", "t_cell", "t_trigger", "t_complete", "pattern"):
        column = getattr(events, name)
        assert column.dtype == np.int64 and np.asarray(column, dtype=np.int64) is column
    waiting = sorted(events.waiting.items())
    assert waiting
    done = len(events.summary_columns()[0])
    # completing the waits writes ``t_complete`` in place
    finished = events.finish_waiting(max(events.seen_at[events.t_cell[i]] for _, i in waiting))
    assert [ue for ue, _ in finished] == [ue for ue, _ in waiting]
    summary = events.summary_columns()
    assert len(summary[0]) == done + len(waiting)
    assert [r.kind for r in events.trace()].count(SignalKind.HO_COMPLETE) == done + len(waiting)
    # a column assigned as a list reads as assigned
    events.t_trigger = (events.t_trigger - 1).tolist()
    assert np.array_equal(events.summary_columns()[3], summary[3] - 1)


def test_run_builds_no_ledger():
    # key visibility comes from the table's upload times alone
    config = dataclasses.replace(
        RunConfig(seed=4), horizon_ms=10_000,
        prediction=PredictionConfig(enabled=True, accuracy=0.8, lead_ms=1000),
    )
    with mock.patch.object(SimulatedLedger, "__init__", side_effect=AssertionError("built")):
        result = run_simulation(config)
    assert result.blocks and result.upload_log
    assert not hasattr(result.events, "ledger")


@st.composite
def chain_configs(draw):
    """Ledger runs whose handovers wait inside blocks: few UEs on grids of
    up to 64 cells, so blocks run up to the ticks that see a block and
    cells stay without keys; offsets in [-3, 6] dB (ping-pong below 0),
    TTT windows up to three RS periods, speed 0 or fast, collection
    periods that make first-visit handovers wait several ticks,
    prediction with leads of up to 12 ticks, wrap on and off and horizons
    off the RS grid."""
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
    return _written(run_simulation(config))


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


# Runs found by a search to reach the block loop's rarer paths, kept as
# byte-equality inputs.  Their bytes change if a wait does not end its
# UE's chain (the first and third), if a block runs on past the tick that
# sees a block while keys are not yet visible (all three), and if the
# first windows reach before tick 0 (the third, whose 100 ms window spans
# three ticks).
@example(_chain_example(2, 7, False, 2, 40, 2.5, 107, 1000, 0.7, 14, 3443, 91))
@example(_chain_example(5, 2, True, 7, 40, 0.0, 4, 300, 0.3, 256, 735, 2444))
@example(_chain_example(6, 6, False, 12, 40, -2.5, 100, 1000, 0.7, 370, 283, 136))
@settings(max_examples=120, deadline=None)
@given(st.one_of(run_configs(), chain_configs()))
def test_block_length_does_not_change_a_byte(config):
    # Blocks of 1, 2 and 3 ticks and the derived lengths resolve the same
    # serving chains: a handover that waits ends its UE's chain, waits end
    # on a block's last tick so the next block starts the chain afresh,
    # and the windows at the run's start reach back to tick 0 only.
    derived = _artifacts(config)
    assert derived == run_oracle(config)
    for length in (1, 2, 3):
        with mock.patch("ncsecsim.simulation._block_length", lambda *args, n=length: n):
            assert _artifacts(config) == derived, f"block length {length}"


@contextmanager
def recorded_chains():
    """Record the ``_Chains`` of every block a run makes, in block order."""
    made = []

    class Recording(simulation._Chains):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    with mock.patch.object(simulation, "_Chains", Recording):
        yield made


@settings(max_examples=120, deadline=None)
@given(st.one_of(run_configs(), chain_configs()))
def test_waits_end_where_blocks_end(config):
    # With long blocks, every handover that waited for its keys completes
    # on the last tick of a block, and the bytes stay the oracle's.
    long_blocks = mock.patch.object(simulation, "_block_length", lambda *_: 16)
    with recorded_chains() as chains, long_blocks:
        result = run_simulation(config)
    sizes = [len(c.fires) for c in chains]
    rs = config.scenario.rs_period_ms
    last_ticks = set(((np.cumsum(sizes) - 1) * rs).tolist())
    waited = [view for view in result.completed if view.key_path is KeyPath.LEDGER_FIRST_HO]
    assert [view.t_complete for view in waited if view.t_complete not in last_ticks] == []
    assert _written(result) == run_oracle(config)


def test_sparse_ledger_run_evaluates_few_trigger_entries():
    # 16x16 cells and 20 UEs over 300 s: cells stay without keys for long
    # and blocks run long.  The chains evaluate at most 1.25 trigger
    # entries per UE-tick; counts, unlike timings, do not vary by host.
    config = RunConfig(
        scenario=ScenarioConfig(rows=16, cols=16, num_ues=20), horizon_ms=300_000, seed=1
    )
    with recorded_chains() as chains:
        run_simulation(config)
    ue_ticks = 20 * (300_000 // 160 + 1)
    assert sum(len(c.fires) for c in chains) == 300_000 // 160 + 1
    assert sum(c.entries for c in chains) <= 1.25 * ue_ticks


def test_dense_firing_with_the_prefilter_runs_long_blocks():
    # 8x8 cells, 200 UEs over 300 s fire about 6.5 handovers per tick.
    # The box prefilter makes re-evaluated entries cheap, so blocks grow
    # to the cap: one trigger call per tick would make 1,876.
    config = RunConfig(
        scenario=ScenarioConfig(rows=8, cols=8, num_ues=200), horizon_ms=300_000, seed=1
    )
    with recorded_chains() as chains:
        run_simulation(config)
    assert sum(c.calls for c in chains) <= 400


def test_dense_firing_with_the_prefilter_runs_long_blocks_from_a_short_cap():
    # 8x8 cells, 800 UEs over 60 s: blocks of at most 5 ticks, and about
    # 26 handovers per tick.  Where the prefilter applies every block is
    # the cap long, so the run makes fewer trigger calls than its 376
    # ticks: 177 at seed 1.
    config = RunConfig(
        scenario=ScenarioConfig(rows=8, cols=8, num_ues=800), horizon_ms=60_000, seed=1
    )
    with recorded_chains() as chains:
        run_simulation(config)
    assert sum(c.calls for c in chains) <= 200


@pytest.mark.parametrize("seed, one_tick_entries", [(1, 37_603), (2, 37_600), (3, 37_600)])
def test_ping_pong_without_the_prefilter_stays_near_one_tick_blocks(seed, one_tick_entries):
    # A negative offset on an unwrapped 7x9 grid: the prefilter drops
    # nothing, so the blocks stay short.  At one call per tick the run
    # makes 376 calls over the entries given.
    config = RunConfig(
        scenario=ScenarioConfig(
            rows=7, cols=9, wrap=False, num_ues=100, ul_offset_db=-2.0, ul_ttt_ms=480
        ),
        horizon_ms=60_000,
        seed=seed,
    )
    with recorded_chains() as chains:
        run_simulation(config)
    assert sum(c.calls for c in chains) <= 376
    assert sum(c.entries for c in chains) <= 1.05 * one_tick_entries


def _peak(call) -> int:
    """The most bytes ``call`` holds at once, by tracemalloc."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "settings", [{"scenario.pl_exponent": "0"}, {"scenario.ul_offset_db": "0"}, {}],
    ids=["full-rows", "box", "prefiltered-box"],
)
def test_the_forecast_term_bounds_a_forecast_within_twice_its_peak(settings):
    # One block's forecast on 8x8 cells: 20 UEs, 100 lead ticks and two
    # ticks.  Each serving cell is across the torus, so every entry the box
    # sees takes a full row: the case the term counts.
    cfg = apply_settings(RunConfig(), {
        **settings, "scenario.rows": "8", "scenario.cols": "8",
        "prediction.enabled": "true", "prediction.lead_ms": "16000",
    })
    sc = cfg.scenario
    _, leads, ticks, _ = simulation._block_shape(cfg)
    assert (leads, ticks) == (100, 2)
    grid = CellGrid(8, 8, pl_exponent=sc.pl_exponent)
    ues = place_ues(grid, sc.num_ues, sc.ue_speed_mps, np.random.default_rng(3))
    row, col = np.divmod(ues.serving, 8)
    serving = np.tile((row + 4) % 8 * 8 + (col + 4) % 8, (ticks, 1))
    pos, lead_ms = np.tile(ues.pos, (ticks, 1, 1)), np.arange(1, leads + 1) * sc.rs_period_ms

    def forecast():
        return simulation._forecast(grid, pos, ues, serving, lead_ms, sc.ul_offset_db)

    forecast()  # cached tables
    peak = _peak(forecast)
    assert peak <= dict(run_bytes(cfg))["prediction.lead_ms"] <= 2 * peak


def test_the_window_term_bounds_the_signaling_windows_within_twice_their_peak():
    result = run_simulation(RunConfig(horizon_ms=20_000))
    horizon, traces = 10**7, result.scheme_traces.values()  # 10,001 windows

    def windows():
        return ([per_window_signaling(trace, horizon) for trace in traces],
                [cumulative_key_exchanges(trace, horizon) for trace in traces])

    peak = _peak(windows)
    term = dict(run_bytes(dataclasses.replace(result.config, horizon_ms=horizon)))["horizon_ms"]
    assert peak <= term <= 2 * peak


def test_the_window_term_bounds_the_written_windows(tmp_path):
    # What ``write_run_artifacts`` holds for the two window tables: the
    # counts of every scheme from the table, and their rows as written.
    result = run_simulation(RunConfig(horizon_ms=20_000))
    horizon = 10**7  # 10,001 windows

    def windows():
        counts, curves = simulation._signaling_counts(result.events, result.config.scheme, horizon)
        simulation._write_windows(tmp_path / "per_second.csv", ["start", "scheme", "n"], counts)
        simulation._write_windows(tmp_path / "cumulative.csv", ["t", "scheme", "n"], curves)

    windows()
    assert (tmp_path / "cumulative.csv").read_text().count("\n") == 1 + 3 * 10_001
    term = dict(run_bytes(dataclasses.replace(result.config, horizon_ms=horizon)))["horizon_ms"]
    assert _peak(windows) <= term


@pytest.mark.parametrize("settings", [
    {"scenario.num_ues": "3", "horizon_ms": "2000"},
    {"scenario.rows": "8", "scenario.cols": "8", "scenario.num_ues": "50"},
    {"scenario.shadow_sigma_db": "4", "horizon_ms": "30000"},
], ids=["small", "8x8", "shadowing"])
def test_the_dump_term_bounds_what_the_dump_adds_to_a_run_within_twice(settings):
    # What the dump adds to a run's peak: its array and the powers of the
    # tick it records (under shadowing, the row the trigger reads).
    cfg = apply_settings(RunConfig(), settings)
    dumped = apply_settings(cfg, {"scenario.dump_measurements": "true"})
    run_simulation(dumped)  # cached tables
    added = _peak(lambda: run_simulation(dumped)) - _peak(lambda: run_simulation(cfg))
    term = dict(run_bytes(dumped))["scenario.dump_measurements"]
    assert added <= term <= 2 * added


@pytest.mark.parametrize("settings", [
    {},
    {"scenario.rows": "8", "scenario.cols": "8", "scenario.num_ues": "200", "horizon_ms": "30000"},
    {"scenario.rows": "16", "scenario.cols": "16", "scenario.pl_exponent": "0", "scheme": "hmac"},
    {"scenario.rows": "16", "scenario.cols": "16", "scenario.shadow_sigma_db": "4"},
    {"scenario.rows": "8", "scenario.cols": "8", "scenario.dump_measurements": "true"},
    {"scenario.shadow_sigma_db": "4", "scenario.dump_measurements": "true"},
    {"prediction.enabled": "true", "prediction.lead_ms": "16000", "horizon_ms": "20000"},
    {"scenario.ul_ttt_ms": "1000", "scenario.ul_offset_db": "0", "scenario.num_ues": "100"},
], ids=["defaults", "city", "flat", "shadowing", "dump", "shadowing-dump", "forecast",
        "long-ttt-unfiltered"])
def test_run_bytes_bound_what_a_run_and_its_artifacts_hold(tmp_path, settings):
    # The terms are each a peak, so their sum bounds a run's peak, but for
    # what grows with its handovers: these runs make few.
    cfg = apply_settings(RunConfig(), settings)
    peak = _peak(lambda: write_run_artifacts(run_simulation(cfg), tmp_path))
    assert peak <= sum(held for _, held in run_bytes(cfg))
