import functools
import importlib.util
import io
import json
from pathlib import Path

import numpy as np

from ncsecsim import keydist, simulation
from ncsecsim.handover import cumulative_key_exchanges, replay_key_signaling
from ncsecsim.keydist import Scheme
from ncsecsim.ledger import per_window_signaling

from oracles import signals_csv_oracle

_SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "layer_bench.py"


def _tool():
    spec = importlib.util.spec_from_file_location("layer_bench", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_bench_times_every_case_at_tiny_sizes(capsys, monkeypatch):
    tool = _tool()
    monkeypatch.setattr(tool, "cases", functools.partial(
        tool.cases, sweep_trials=200, grid_trials=1000, dump_ms=1000))
    argv = ["--m", "3", "--n", "8", "--l", "2", "--rows", "300", "--handovers", "40",
            "--repeat", "2", "--number", "2"]
    assert tool.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["settings"] == {
        "m": 3, "n": 8, "l": 2, "rows": 300, "handovers": 40, "repeat": 2, "number": 2,
        "seed": 1,
    }
    timed = report["us_per_call"]
    widths = [f"gf.{op}.k{k}" for k in tool.WIDTHS for op in ("vec_mul", "dot")]
    layers = ["rlnc.encode", "rlnc.recode", "rlnc.decode", "integrity.attach_tags",
              "integrity.verify_tags", "integrity.tagset_for_generation",
              "integrity.ledger_check", "relay.hop", "ledger.write_csv",
              "simulation.signaling_counts", "keydist.safe_key.table",
              "keydist.safe_key.partition", "attack.bypass_grid", "simulation.write_dump"]
    assert sorted(timed) == sorted(widths + layers)
    assert all(us > 0 for us in timed.values())


def test_layer_bench_hop_passes_both_checks():
    # the timed hop recodes honest packets, so both checks accept it
    cases = _tool().cases(3, 8, 2, seed=4)
    assert all(cases["relay.hop"]() for _ in range(5))
    assert cases["integrity.ledger_check"]()


def test_layer_bench_writes_the_synthetic_trace_as_csv_writer_does():
    trace = _tool().signal_trace(300, np.random.default_rng(2))
    assert len(trace) == 300
    buf = io.StringIO(newline="")
    trace.write_csv(buf)
    assert buf.getvalue() == signals_csv_oracle(trace)


def test_layer_bench_table_counts_what_its_scheme_traces_count():
    # the synthetic table is a ledger run's: its windows are those of its
    # own trace and of its baseline replay
    events = _tool().ho_table(300, np.random.default_rng(5))
    assert 250 <= len(events) <= 300 and len(events.uploads) > 10
    counts, curves = simulation._signaling_counts(events, Scheme.BLOCKCHAIN, 300_000)
    replayed = replay_key_signaling(events, Scheme.DOUBLE_RANDOM, 300_000, 160, 1000)
    for trace, column in ((events.trace(), 0), (replayed, 1), (replayed, 2)):
        assert counts[:, column].tolist() == per_window_signaling(trace, 300_000)
        assert list(zip(range(0, 300_001, 1000), curves[:, column].tolist())) == (
            cumulative_key_exchanges(trace, 300_000))


def test_layer_bench_cases_run_their_samplers_and_write_the_run_dump(tmp_path):
    # The two safe-key cases take the two double-random samplers, and the
    # dump case writes what ``write_run_artifacts`` writes for its run.
    tool = _tool()
    assert keydist._subset_table(16, 8) is not None and keydist._subset_table(24, 12) is None
    calls = tool.cases(3, 8, 2, seed=4, rows=10, handovers=10, sweep_trials=50,
                       grid_trials=1000, dump_ms=800)
    for sampler in ("table", "partition"):
        rows = calls[f"keydist.safe_key.{sampler}"]()
        assert [r.c for r in rows] == list(range(1, 8)) and rows[0].scheme == "macsig"
    assert {r.q for r in calls["attack.bypass_grid"]()} == {16}
    result = tool.dumped_run(800, seed=4)
    assert result.measurements.shape == (6, 20, 16)  # ticks 0..800 ms, 20 UEs, 16 cells
    buf = io.StringIO(newline="")
    simulation._write_dump(buf, result.measurements, result.config.scenario.rs_period_ms)
    paths = simulation.write_run_artifacts(result, tmp_path)
    assert paths["measurements"].read_bytes() == buf.getvalue().encode()
