import contextlib
import csv
import dataclasses
import filecmp
import inspect
import io
import re
import shlex
import warnings
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncsecsim.attack import bypass_rate_grid, grid_bytes
from ncsecsim.cli import main
from ncsecsim.config import (
    BYPASS_TRIALS,
    BYTE_BOUND,
    RunConfig,
    apply_settings,
    config_items,
    load_config,
    validate_command,
    write_config_echo,
)
from ncsecsim.errors import ConfigError
from ncsecsim.gf import GF256
from ncsecsim.integrity import key_ring_bytes
from ncsecsim.keydist import Scheme, SchemeConfig, colluder_sweep, safe_key_probability
from ncsecsim.ledger import SimulatedLedger
from ncsecsim.mobility import CellGrid
from ncsecsim.simulation import run_simulation


def _defaults(obj) -> dict:
    """The default of each parameter of a function or a dataclass that has one."""
    if dataclasses.is_dataclass(obj):
        return {f.name: f.default for f in dataclasses.fields(obj)
                if f.default is not dataclasses.MISSING}
    return {name: p.default for name, p in inspect.signature(obj).parameters.items()
            if p.default is not inspect.Parameter.empty}


def test_library_defaults_equal_the_config_defaults_they_mirror():
    # Each library default that stands for a config key equals that key's
    # default, so a change to one cannot leave its pair behind.
    cfg = RunConfig()
    mirrored = [
        (CellGrid, cfg.scenario,
         ("rows", "cols", "isd_m", "wrap", "ptx_dbm", "pl0_db", "pl_exponent")),
        (SchemeConfig, cfg.security, ("l", "q", "m", "n")),
        (SchemeConfig, cfg.analyze, ("L", "s", "epsilon", "d")),
        (bypass_rate_grid, cfg.attack, ("n", "m", "l")),
        (safe_key_probability, cfg.analyze, ("trials",)),
        (colluder_sweep, cfg.analyze, ("trials",)),
    ]
    for library, section, names in mirrored:
        defaults = _defaults(library)
        assert {name: defaults[name] for name in names} == {
            name: getattr(section, name) for name in names}, library
    assert _defaults(SimulatedLedger)["collection_period_ms"] == cfg.ledger.collection_period_ms


def test_defaults_match_reference_scenario():
    cfg = RunConfig()
    sc = cfg.scenario
    assert sc.num_cells == 16
    assert sc.isd_m == 100.0
    assert sc.wrap is True
    assert sc.num_ues == 20
    assert sc.ue_speed_kmh == 60.0
    assert sc.rs_period_ms == 160
    assert sc.ul_offset_db == 1.0
    assert sc.ul_ttt_ms == 32
    sec = cfg.security
    assert (sec.q, sec.n, sec.m, sec.l) == (256, 1024, 32, 8)
    assert cfg.ledger.collection_period_ms == 1000
    assert cfg.scheme is Scheme.BLOCKCHAIN
    assert cfg.horizon_ms == 10_000
    assert cfg.prediction.enabled is False
    assert cfg.prediction.accuracy == 0.8
    assert cfg.prediction.lead_ms == 160


def test_apply_settings_and_sections():
    cfg = apply_settings(
        RunConfig(),
        {
            "scenario.isd_m": "250",
            "scenario.wrap": "false",
            "security.q": "16",
            "prediction.enabled": "on",
            "scheme": "hmac",
            "horizon_ms": "5000",
            "seed": "9",
        },
    )
    assert cfg.scenario.isd_m == 250.0
    assert cfg.scenario.wrap is False
    assert cfg.security.q == 16
    assert cfg.prediction.enabled is True
    assert cfg.scheme is Scheme.C_COVER_FREE
    assert cfg.horizon_ms == 5000 and cfg.seed == 9


@pytest.mark.parametrize(
    "settings",
    [
        {"nonsense": "1"},
        {"scenario.bogus_field": "1"},
        {"bogus.section": "1"},
        {"scenario.isd_m": "not_a_number"},
        {"scheme": "rot13"},
        {"security.q": "100"},  # not a power of two
        {"horizon_ms": "-5"},
        {"scenario.rs_period_ms": "0"},
        {"analyze.epsilon": "2.0"},
    ],
)
def test_bad_settings_raise_config_error(settings):
    with pytest.raises(ConfigError):
        # analyze.* is checked only for the command that reads it
        validate_command("analyze", apply_settings(RunConfig(), settings))


def test_config_file_roundtrip(tmp_path):
    cfg = apply_settings(RunConfig(), {"scenario.num_ues": "7", "seed": "42"})
    echo = tmp_path / "config.txt"
    write_config_echo(cfg, echo)
    loaded = load_config(echo)
    assert config_items(loaded) == config_items(cfg)
    assert loaded.scenario.num_ues == 7 and loaded.seed == 42


# A valid value other than the default for every key the echo writes.
NON_DEFAULT = {
    "analyze.L": "24", "analyze.c_max": "5", "analyze.c_min": "2", "analyze.d": "0.25",
    "analyze.epsilon": "0.05", "analyze.s": "10", "analyze.trials": "5000",
    "attack.l": "4", "attack.m": "8", "attack.n": "64", "attack.q": "256",
    "attack.trials": "2000", "horizon_ms": "5000",
    "ledger.collection_period_ms": "500", "ledger.ho_timeout_ms": "3000",
    "prediction.accuracy": "0.5", "prediction.enabled": "true", "prediction.lead_ms": "320",
    "scenario.cols": "5", "scenario.dump_measurements": "true", "scenario.isd_m": "150.5",
    "scenario.num_ues": "7", "scenario.pl0_db": "40.25", "scenario.pl_exponent": "3.0",
    "scenario.ptx_dbm": "20.5", "scenario.rows": "3", "scenario.rs_period_ms": "100",
    "scenario.shadow_sigma_db": "2.5", "scenario.ue_speed_kmh": "30.0",
    "scenario.ul_offset_db": "2.5", "scenario.ul_ttt_ms": "64", "scenario.wrap": "false",
    "scheme": "hmac", "security.l": "4", "security.m": "16", "security.n": "512",
    "security.q": "16", "seed": "42",
}


@pytest.mark.parametrize("key", [key for key, _ in config_items(RunConfig())])
def test_config_echo_round_trips_every_key(tmp_path, key):
    # one key's value survives the echo and the reload, and changes that
    # key's line alone
    cfg = apply_settings(RunConfig(), {key: NON_DEFAULT[key]})
    changed = dict(config_items(cfg)).items() - dict(config_items(RunConfig())).items()
    assert changed == {(key, NON_DEFAULT[key])}
    echo = tmp_path / "config.txt"
    write_config_echo(cfg, echo)
    assert load_config(echo) == cfg


def test_config_echo_round_trips_every_key_at_once(tmp_path):
    assert sorted(NON_DEFAULT) == [key for key, _ in config_items(RunConfig())]
    cfg = apply_settings(RunConfig(), NON_DEFAULT)
    assert config_items(cfg) == sorted(NON_DEFAULT.items())
    echo = tmp_path / "config.txt"
    write_config_echo(cfg, echo)
    assert load_config(echo) == cfg


@pytest.mark.parametrize("key", ["nonsense", "scenario.bogus_field", "bogus.section",
                                 "scenario", "seed.x"])
def test_unknown_keys_and_sections_name_the_key(tmp_path, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key}=1\n")
    with pytest.raises(ConfigError, match=f"'{key}'"):
        load_config(cfg)


def test_config_file_parsing_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("scenario.isd_m 100\n")
    with pytest.raises(ConfigError):
        load_config(bad)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.cfg")


def test_config_comments_and_blanks(tmp_path):
    f = tmp_path / "ok.cfg"
    f.write_text("# comment\n\nscenario.num_ues=3\nseed=5\n")
    cfg = load_config(f)
    assert cfg.scenario.num_ues == 3 and cfg.seed == 5


def test_cli_run_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["run", "--seed", "2", "--horizon-ms", "3000", "--out", str(out)])
    assert code == 0
    for name in ("config.txt", "signals.csv", "ho_summary.csv",
                 "per_second_signaling.csv", "cumulative_key_exchanges.csv"):
        assert (out / name).exists()
    assert "HO triggers" in capsys.readouterr().out


def test_cli_run_counts_blocks_without_drawing_a_key_ring(tmp_path, capsys):
    # The block count follows from the upload times; no artifact or
    # summary line needs a cell's key ring.
    argv = ["run", "--seed", "1", "--horizon-ms", "8000", "--out", str(tmp_path)]
    no_draw = AssertionError("drew a key ring")
    with mock.patch("ncsecsim.simulation.generate_domain_keys", side_effect=no_draw):
        assert main(argv) == 0
    blocks = len(run_simulation(load_config(tmp_path / "config.txt")).blocks)
    assert blocks and f", {blocks} ledger blocks" in capsys.readouterr().out


def test_cli_exit_code_1_on_config_errors(tmp_path, capsys):
    assert main(["run", "--scheme", "bogus"]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("security.q=77\n")
    assert main(["run", "--config", str(bad)]) == 1
    assert main(["bogus-subcommand"]) == 1


@pytest.mark.parametrize(
    "command, setting, keys",
    [
        # the default 2000 ms timeout expires before a 3000 ms block verifies
        ("run", "ledger.collection_period_ms=3000",
         ("ledger.ho_timeout_ms", "ledger.collection_period_ms")),
        # the baselines cannot draw l=8 distinct tags from L=4 keys
        ("analyze", "analyze.L=4", ("analyze.L", "security.l")),
        # s > L: no node can draw 20 distinct keys from 16
        ("analyze", "analyze.s=20", ("analyze.s", "analyze.L")),
        # the macsig source cannot tag with l=8 keys from a hand of 4
        ("analyze", "analyze.s=4", ("analyze.s", "security.l")),
        ("analyze", "analyze.trials=0", ("analyze.trials",)),
        # 0 selects the empty grid; a rate needs at least 1000 trials
        ("attack", "attack.trials=10", ("attack.trials",)),
        ("attack", "attack.q=15", ("attack.q",)),
        ("attack", "attack.n=0", ("attack.n",)),
        # the grid measures up to l'=2 verified tags
        ("attack", "attack.l=1", ("attack.l",)),
        # non-finite floats would fail deep inside the run
        ("run", "scenario.isd_m=nan", ("scenario.isd_m",)),
        ("run", "scenario.ue_speed_kmh=inf", ("scenario.ue_speed_kmh",)),
        ("analyze", "analyze.epsilon=-inf", ("analyze.epsilon",)),
        # numpy seeds must be non-negative
        ("run", "seed=-1", ("seed",)),
        # a standard deviation is never negative
        ("run", "scenario.shadow_sigma_db=-3", ("scenario.shadow_sigma_db",)),
        # finite floats whose distances overflow: a tick's step, the grid
        ("run", "scenario.ue_speed_kmh=1e308", ("scenario.ue_speed_kmh",)),
        ("run", "scenario.isd_m=1e308", ("scenario.isd_m",)),
        # finite power settings whose powers round too coarsely to order cells
        ("run", "scenario.ptx_dbm=1e308", ("scenario.ptx_dbm",)),
        ("run", "scenario.pl0_db=-1e9", ("scenario.pl0_db",)),
        ("run", "scenario.pl_exponent=1e308", ("scenario.pl_exponent",)),
        ("run", "scenario.pl_exponent=-1e6", ("scenario.pl_exponent",)),
    ],
)
def test_cli_rejects_inconsistent_settings_as_config_errors(
    tmp_path, capsys, command, setting, keys
):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(setting + "\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    for key in keys:
        assert key in err
    with pytest.raises(ConfigError):
        validate_command(command, load_config(cfg))


@pytest.mark.parametrize(
    "command, setting, keys",
    [
        # a ring of 8 keys over 10^12 symbols, or of 10^5 keys over 1024
        ("run", {"security.n": str(10**12)}, ("security.n",)),
        ("run", {"security.l": str(10**5)}, ("security.l",)),
        ("attack", {"security.l": str(10**5)}, ("security.l",)),
        ("run", {"security.q": "65536", "security.n": str(2**25)}, ("security.n",)),
        # the grid's generation, rings and batches
        ("attack", {"attack.n": str(10**12)}, ("attack.n",)),
        ("attack", {"attack.l": str(10**12)}, ("attack.l",)),
        ("attack", {"attack.m": str(10**9)}, ("attack.m",)),
        ("attack", {"attack.trials": str(10**12)}, ("attack.trials",)),
        # a chain round over full rows: about 98 KB a cell at 20 UEs
        ("run", {"scenario.pl_exponent": "0", "scenario.rows": "2048", "scenario.cols": "2048",
                 "scheme": "hmac"}, ("scenario.rows", "scenario.cols")),
        ("run", {"scenario.num_ues": str(10**9)}, ("scenario.num_ues",)),
        # the signaling windows: 9.2 * 10**15 of them, each scheme's counts and curve
        ("run", {"horizon_ms": str(2**63 - 1), "scenario.rs_period_ms": str(2**62)},
         ("horizon_ms",)),
        # int settings past int64
        ("run", {"scenario.rs_period_ms": str(10**19)}, ("scenario.rs_period_ms",)),
        ("run", {"ledger.collection_period_ms": str(10**19), "ledger.ho_timeout_ms": str(10**19)},
         ("ledger.collection_period_ms",)),
    ],
)
def test_sizes_a_run_cannot_hold_are_config_errors(command, setting, keys):
    # checked through validate only: nothing of the size is allocated
    with pytest.raises(ConfigError) as raised:
        validate_command(command, apply_settings(RunConfig(), setting))
    for key in keys:
        assert key in str(raised.value)


def test_the_size_bounds_admit_the_defaults_and_their_edges():
    validate_command("attack", apply_settings(RunConfig(), {"attack.trials": str(BYPASS_TRIALS)}))
    default = RunConfig()
    assert key_ring_bytes(default.security.n, default.security.l, GF256) < BYTE_BOUND / 500
    at = default.attack
    assert grid_bytes(at.q, at.n, at.m, at.l) < BYTE_BOUND / 200


def test_cli_checks_only_the_settings_a_command_reads(tmp_path, capsys):
    # analyze.s=8 is below security.l=12, but run never reads analyze.*
    cfg = tmp_path / "l12.cfg"
    cfg.write_text("security.l=12\n")
    out = str(tmp_path / "out")
    assert main(["run", "--config", str(cfg), "--horizon-ms", "1000", "--out", out]) == 0
    assert main(["analyze", "--config", str(cfg), "--out", out]) == 1
    err = capsys.readouterr().err
    assert "analyze.s" in err and "security.l" in err


def test_ho_timeout_equal_to_collection_period_is_accepted():
    cfg = apply_settings(
        RunConfig(),
        {"ledger.collection_period_ms": "3000", "ledger.ho_timeout_ms": "3000"},
    )
    assert cfg.ledger.ho_timeout_ms == cfg.ledger.collection_period_ms


@pytest.mark.parametrize(
    "grid, longest",
    # 20 UEs: full rows of 16 powers on the flat 4x4 grid, a box where the
    # prefilter applies, and a box and a full row (for far entries) for
    # every entry where it does not, below its slack
    [
        ({"scenario.pl_exponent": "0"}, 77_899),
        ({}, 304_503),
        ({"scenario.rows": "8", "scenario.cols": "8"}, 304_482),
        ({"scenario.ul_offset_db": "0"}, 36_017),
        ({"scenario.rows": "8", "scenario.cols": "8", "scenario.ul_offset_db": "0"}, 17_722),
    ],
    ids=["full-row", "small-box", "box", "small-box-unfiltered", "box-unfiltered"],
)
def test_a_forecast_too_large_to_allocate_is_a_config_error(grid, longest):
    # Validation only: no run starts, so nothing of this size is allocated.
    def with_lead(ms, **extra):
        settings = {**grid, "prediction.enabled": "true", "prediction.lead_ms": str(ms), **extra}
        return apply_settings(RunConfig(), settings)

    assert with_lead(longest * 160).prediction.lead_ms == longest * 160
    for ms in (longest * 160 + 1, 10**9):
        with pytest.raises(ConfigError, match=r"^prediction\.lead_ms: "):
            with_lead(ms)
    # a run that does not forecast allocates nothing for it
    with_lead(10**9, **{"prediction.enabled": "false"})
    with_lead(10**9, scheme="hmac")


@pytest.mark.parametrize("rows, cols", [(10**5, 10**5), (10**6, 10**6), (2048, 2049)])
def test_a_grid_too_large_to_allocate_names_its_size(rows, cols):
    # Validation only: no grid of this size is built.  Such grids used to
    # fail on the power resolution and name scenario.pl_exponent.
    with pytest.raises(ConfigError, match=r"^scenario\.rows, scenario\.cols"):
        apply_settings(RunConfig(), {"scenario.rows": str(rows), "scenario.cols": str(cols)})
    # the largest square grid at 20 UEs: its tables and a chain round's
    # far rows; placing the UEs holds no row of the grid
    assert apply_settings(RunConfig(), {"scenario.rows": "1083", "scenario.cols": "1083"})
    with pytest.raises(ConfigError, match=r"^scenario\.rows, scenario\.cols"):
        apply_settings(RunConfig(), {"scenario.rows": "1084", "scenario.cols": "1084"})


def test_a_grid_rejected_only_for_placements_rows_is_accepted():
    # Validation only: no run starts.  Placing 200 UEs on 380x380 cells
    # took a row of 24 bytes a cell per UE, 693 MB, which put the sum past
    # the bound; the box of each UE's lattice square takes no row.
    grid = {"scenario.rows": "380", "scenario.cols": "380", "scenario.num_ues": "200"}
    assert apply_settings(RunConfig(), grid).scenario.num_cells == 380 * 380
    # the largest square grid at 200 UEs
    assert apply_settings(RunConfig(), {**grid, "scenario.rows": "400", "scenario.cols": "400"})
    with pytest.raises(ConfigError, match=r"^scenario\.rows, scenario\.cols"):
        apply_settings(RunConfig(), {**grid, "scenario.rows": "401", "scenario.cols": "401"})


@pytest.mark.parametrize(
    "settings",
    [
        {"analyze.trials": str(10**12)},
        # 1.2 GB at the defaults; 10**7 trials hold 0.24 GB, under the bound
        {"analyze.trials": str(5 * 10**7)},
        {"analyze.L": str(10**9), "analyze.trials": "1"},
        {"analyze.L": str(2**20)},
        {"analyze.c_max": str(10**5)},
    ],
)
def test_a_safe_key_estimate_too_large_to_allocate_is_a_config_error(settings):
    # Validation only: no estimate of this size is drawn.
    with pytest.raises(ConfigError, match=r"^analyze\.trials, analyze\.L, analyze\.c_max: "):
        validate_command("analyze", apply_settings(RunConfig(), settings))


def test_safe_key_estimates_below_the_bound_are_accepted():
    validate_command("analyze", RunConfig())
    validate_command("analyze", apply_settings(RunConfig(), {"analyze.trials": str(10**6)}))
    # one word per trial for the drawn hand and the fold, one byte per
    # cover-free pick: 0.24 GB
    validate_command("analyze", apply_settings(RunConfig(), {"analyze.trials": str(10**7)}))
    validate_command("analyze", apply_settings(RunConfig(), {"analyze.L": "1024", "analyze.s": "64"}))


@pytest.mark.parametrize("command", ["run", "analyze", "attack"])
def test_cli_exit_code_2_on_runtime_error(tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    # output dir path points through a regular file
    out = blocker / "sub"
    short = ["--horizon-ms", "1000"] if command == "run" else []
    assert main([command, *short, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot create output directory {out}: ")


def _readme_invocations() -> list[list[str]]:
    """The argument lists of the commands the README's "Command line"
    section shows."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line.split("#")[0])[1:] for line in block.splitlines() if line.strip()]


def test_readme_gives_every_key_with_its_default():
    # The "Command line" section's settings table: one row per key a
    # config file takes, its default as ``config.txt`` writes it.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([\w.]+)` \| `([^`]*)` \|", section, flags=re.MULTILINE)
    default = RunConfig()
    assert dict(rows) == {**dict(config_items(default)), "output_dir": default.output_dir}
    assert len(rows) == len(dict(rows))


# Each argument list with the flag it is refused for (None: it parses).
FLAG_CASES = [
    (["selftest", "--seed", "1"], "--seed"),
    (["attack", "--predict", "on"], "--predict"),
    (["attack", "--scheme", "hmac"], "--scheme"),
    (["analyze", "--horizon-ms", "5"], "--horizon-ms"),
    (["analyze", "--scheme", "macsig"], "--scheme"),
    *((argv, None) for argv in _readme_invocations()),
]


@pytest.mark.parametrize("argv, flag", FLAG_CASES, ids=[" ".join(a) for a, _ in FLAG_CASES])
def test_each_command_takes_only_the_flags_it_reads(tmp_path, monkeypatch, capsys, argv, flag):
    # A flag a command does not read is a config error naming it; every
    # invocation the README shows parses.  The commands' work is patched
    # out: only the flags are under test.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "myrun.cfg").write_text("")
    for name in ("_cmd_run", "_cmd_analyze", "_cmd_attack"):
        monkeypatch.setattr(f"ncsecsim.cli.{name}", lambda config: 0)
    monkeypatch.setattr("ncsecsim.selftest.run_selftest", lambda: 0)
    if flag is None:
        assert main(argv) == 0
    else:
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and flag in err


@pytest.mark.parametrize("exc", [
    MemoryError("Unable to allocate 7.28 TiB"),
    MemoryError(),
    OverflowError("Python int too large to convert to C long"),
    FloatingPointError("overflow encountered in multiply"),
])
def test_cli_reports_running_out_of_memory_as_a_runtime_error(tmp_path, capsys, exc):
    # A run too large for memory, or one whose numbers overflow, exits 2
    # with one line, not a traceback; the run is patched, so nothing is
    # allocated.
    with mock.patch("ncsecsim.cli.run_simulation", side_effect=exc):
        assert main(["run", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {str(exc) or 'MemoryError'}\n"


FUZZ_KEYS = [key for key, _ in config_items(RunConfig())]
FUZZ_VALUES = ["0", "-1", "1", "3", "7", "nan", "inf", "1e9", "x", "100000"]
# Counts, dimensions and spans at 100000 would run for minutes or
# allocate gigabytes (e.g. 100000 UEs, or 16 cells x l x n key symbols).
SIZE_KEYS = {
    "analyze.L", "analyze.c_max", "analyze.trials", "attack.l", "attack.m", "attack.n",
    "attack.trials", "horizon_ms", "scenario.cols", "scenario.num_ues", "scenario.rows",
    "security.l", "security.n",
}
# Small work for each command, overridden by any fuzzed key.
FUZZ_BASE = {
    "run": {"horizon_ms": "320"},
    "analyze": {"analyze.trials": "200"},
    "attack": {"attack.trials": "1000"},
}


@st.composite
def fuzz_settings(draw):
    keys = draw(st.lists(st.sampled_from(FUZZ_KEYS), min_size=1, max_size=2, unique=True))
    return {
        key: draw(st.sampled_from(
            [v for v in FUZZ_VALUES if not (key in SIZE_KEYS and v == "100000")]
        ))
        for key in keys
    }


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(sorted(FUZZ_BASE)), fuzz_settings())
def test_cli_exit_codes_under_fuzzed_settings(tmp_path_factory, command, fuzzed):
    # any value of any one or two keys ends in a documented exit code
    work = tmp_path_factory.mktemp("fuzz")
    cfg = work / "fuzz.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in {**FUZZ_BASE[command], **fuzzed}.items()))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(cfg), "--out", str(work / "out")])
    assert code in (0, 1, 2), (command, fuzzed, code)
    if code == 2:
        assert "error:" in err.getvalue()


FLOAT_KEYS = [
    f"{section.name}.{f.name}"
    for section in dataclasses.fields(RunConfig)
    if dataclasses.is_dataclass(section.default_factory)
    for f in dataclasses.fields(section.default_factory)
    if f.type == "float"
]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FLOAT_KEYS), st.floats(allow_nan=False, allow_infinity=False))
def test_any_finite_float_setting_runs_cleanly_or_names_its_key(tmp_path_factory, key, value):
    # each float key over the whole finite range: exit 1 naming the key,
    # or a clean exit 0 with no numpy overflow or invalid value
    command = "analyze" if key.startswith("analyze.") else "run"
    base = {"run": "horizon_ms=320", "analyze": "analyze.trials=200"}[command]
    work = tmp_path_factory.mktemp("floats")
    cfg = work / "floats.cfg"
    cfg.write_text(f"{base}\n{key}={value!r}\n")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main([command, "--config", str(cfg), "--out", str(work / "out")])
    assert code in (0, 1), (key, value, err.getvalue())
    if code == 1:
        assert err.getvalue().startswith("config error:") and key in err.getvalue()


def test_a_seed_past_int64_still_runs(tmp_path):
    # numpy seeds any non-negative int; only the other int settings meet
    # int64 arrays
    argv = ["run", "--seed", str(10**23), "--horizon-ms", "320", "--out", str(tmp_path)]
    assert main(argv) == 0


def test_cli_ttt_longer_than_the_run_reaches_back_to_its_start(tmp_path):
    # the window holds the samples since the run started, as with a TTT
    # equal to the horizon
    outs = {}
    for ttt in ("1000000000000", "2000"):
        cfg = tmp_path / f"ttt{ttt}.cfg"
        cfg.write_text(f"scenario.ul_ttt_ms={ttt}\n")
        outs[ttt] = tmp_path / f"out{ttt}"
        argv = ["run", "--config", str(cfg), "--horizon-ms", "2000", "--out", str(outs[ttt])]
        assert main(argv) == 0
    for name in ("signals.csv", "ho_summary.csv", "per_second_signaling.csv",
                 "cumulative_key_exchanges.csv"):
        assert filecmp.cmp(*(out / name for out in outs.values()), shallow=False), name


def test_cli_determinism_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["run", "--seed", "11", "--horizon-ms", "8000", "--out", str(out)]) == 0
    for name in ("signals.csv", "ho_summary.csv", "per_second_signaling.csv",
                 "cumulative_key_exchanges.csv", "config.txt"):
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name


def test_cli_horizon_zero_header_only(tmp_path, capsys):
    out = tmp_path / "empty"
    assert main(["run", "--horizon-ms", "0", "--out", str(out)]) == 0
    # no tick runs, so the clock stays at -1 and no block verifies
    assert "0 HO triggers, 0 completed, 0 ledger blocks" in capsys.readouterr().out
    for name in ("signals.csv", "ho_summary.csv", "per_second_signaling.csv",
                 "cumulative_key_exchanges.csv"):
        lines = (out / name).read_text().strip().splitlines()
        assert len(lines) == 1, name  # header only


def test_cli_horizon_off_the_ledger_grid_truncates(tmp_path, capsys):
    # The run visits RS instants <= horizon (multiples of 160 ms, so the
    # last is 1920 ms).  The 2000 ms collection boundary is never verified,
    # so the 4 uploads stay unledgered, and the 5 handovers still in flight
    # appear in signals.csv but not in ho_summary.csv.
    out = tmp_path / "h2000"
    assert main(["run", "--horizon-ms", "2000", "--out", str(out)]) == 0
    assert "5 HO triggers, 0 completed, 0 ledger blocks" in capsys.readouterr().out
    with open(out / "signals.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert Counter(r["kind"] for r in rows) == {"ho_request": 5, "candidate_upload": 4}
    assert max(int(r["t_ms"]) for r in rows) <= 1920
    assert (out / "ho_summary.csv").read_text().splitlines() == [
        "ue_id,s_cell,t_cell,t_trigger_ms,t_complete_ms,key_signals,prep_wait_ms"
    ]


def test_cli_analyze_outputs(tmp_path):
    out = tmp_path / "an"
    assert main(["analyze", "--seed", "1", "--out", str(out)]) == 0
    fig4 = (out / "fig4.csv").read_text().strip().splitlines()
    assert fig4[0] == "scheme,c,l,bandwidth"
    rows = [line.split(",") for line in fig4[1:]]
    bc = [float(r[3]) for r in rows if r[0] == "blockchain"]
    ms = [float(r[3]) for r in rows if r[0] == "macsig"]
    hm = [float(r[3]) for r in rows if r[0] == "hmac"]
    assert len(set(bc)) == 1 and bc[0] == pytest.approx(8 / 1056)
    assert all(b > a for a, b in zip(ms, ms[1:]))
    assert all(b > a for a, b in zip(hm, hm[1:]))
    fig5 = (out / "fig5.csv").read_text().strip().splitlines()
    assert fig5[0] == "scheme,c,l,safe_key_prob,ci_low,ci_high"
    probs = [float(line.split(",")[3]) for line in fig5[1:] if line.startswith("blockchain")]
    assert len(set(probs)) == 1
    assert (out / "analytics.csv").exists()


def test_cli_attack_deterministic(tmp_path):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("attack.trials=2000\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["attack", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 0
    assert filecmp.cmp(out_a / "bypass_rates.csv", out_b / "bypass_rates.csv", shallow=False)
    header = (out_a / "bypass_rates.csv").read_text().splitlines()[0]
    assert header == "scheme,strategy,q,l_prime,trials,rate,ci_low,ci_high"


def test_cli_attack_empty_grid(tmp_path):
    cfg = tmp_path / "none.cfg"
    cfg.write_text("attack.trials=0\n")
    out = tmp_path / "out"
    assert main(["attack", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "bypass_rates.csv").read_text().strip().splitlines() == [
        "scheme,strategy,q,l_prime,trials,rate,ci_low,ci_high"
    ]


def test_cli_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
