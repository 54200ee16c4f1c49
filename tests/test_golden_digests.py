"""Golden artifact digests for small runs off the reference settings.

Each case applies a few dotted config settings to the defaults, runs the
simulation, writes its artifacts and compares their SHA-256 digests with
those in ``golden_digests.json``.  The digests were recorded with the
per-UE event loop that preceded the array-state loop, so any change to
the bytes of a run (motion, trigger rule, forecast, ledger order, CSV
accounting) shows up here.  A deliberate change of the bytes must re-record them and say so in
CHANGES.md.  New cases are recorded with this module's command line,
which prints the digests of the named cases as JSON and writes nothing::

    PYTHONPATH=src python tests/test_golden_digests.py CASE [CASE ...]

Paste its output into ``golden_digests.json`` by hand; it refuses a case
that already has digests there, so re-recording one means deleting its
entry first.  A demo's name (``03_key_scheme_analytics``) prints the
digest of its stdout, the ``demos`` entry that ``test_demos.py`` checks.

``city_8x8_200ues`` pins the scaled geometry and many handovers per tick;
it was recorded with the interleaved torus offsets and list-of-records
trace that preceded the plane-split ``CellGrid.distances`` and
``ledger.SignalTrace``.

The command cases run ``analyze`` and ``attack`` through ``cli.main``.
The ``analyze`` digests were recorded with the per-scheme safe-key
samplers that preceded ``keydist.sample_holdings``; the ``attack``
digests with the batched bypass harness, whose draw order differs from
the per-trial loop before it.  ``analyze_L24_s12_c0`` lies above the
double-random subset tables' cap (``keydist._TABLE_BYTES``), so its
macsig rows still come from the partition sampler and kept their bytes
when hands at L <= 18 became one rank into a table; the demo
``03_key_scheme_analytics`` (L = 16) was re-recorded then.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from ncsecsim.cli import main
from ncsecsim.config import RunConfig, apply_settings
from ncsecsim.simulation import run_simulation, write_run_artifacts

CASES: dict[str, dict[str, str]] = {
    "ttt480": {"scenario.ul_ttt_ms": "480", "horizon_ms": "20000", "seed": "3"},
    "ttt320_shadow4_predict": {
        "scenario.ul_ttt_ms": "320",
        "scenario.shadow_sigma_db": "4",
        "prediction.enabled": "true",
        "prediction.lead_ms": "1000",
        "horizon_ms": "15000",
        "seed": "4",
    },
    "shadow4": {"scenario.shadow_sigma_db": "4", "horizon_ms": "10000", "seed": "5"},
    "double_random": {"scheme": "macsig", "horizon_ms": "30000", "seed": "6"},
    "hmac_40ues": {"scheme": "hmac", "scenario.num_ues": "40", "horizon_ms": "10000", "seed": "7"},
    "dump_measurements": {
        "scenario.dump_measurements": "true",
        "scenario.num_ues": "4",
        "horizon_ms": "3000",
        "seed": "8",
    },
    "dump_shadow4_predict": {
        "scenario.dump_measurements": "true",
        "scenario.shadow_sigma_db": "4",
        "prediction.enabled": "true",
        "prediction.lead_ms": "1000",
        "scenario.num_ues": "6",
        "horizon_ms": "4000",
        "seed": "19",
    },
    "no_ues": {"scenario.num_ues": "0", "horizon_ms": "5000", "seed": "9"},
    "no_wrap": {
        "scenario.wrap": "false",
        "scenario.num_ues": "10",
        "horizon_ms": "20000",
        "seed": "10",
    },
    "rect_grid_offset0": {
        "scenario.rows": "3",
        "scenario.cols": "5",
        "scenario.ul_offset_db": "0",
        "horizon_ms": "10000",
        "seed": "11",
    },
    "off_grid_horizon": {"scenario.rs_period_ms": "100", "horizon_ms": "7777", "seed": "12"},
    "slow_ledger_predict": {
        "ledger.collection_period_ms": "1500",
        "ledger.ho_timeout_ms": "3000",
        "prediction.enabled": "true",
        "prediction.lead_ms": "1600",
        "horizon_ms": "20000",
        "seed": "13",
    },
    "hmac_rs250_slow_ledger": {
        "scheme": "hmac",
        "scenario.rs_period_ms": "250",
        "ledger.collection_period_ms": "1500",
        "ledger.ho_timeout_ms": "3000",
        "horizon_ms": "12345",
    },
    "city_8x8_200ues": {
        "scenario.rows": "8",
        "scenario.cols": "8",
        "scenario.num_ues": "200",
        "scenario.ue_speed_kmh": "60",
        "horizon_ms": "30000",
        "seed": "14",
    },
    # The cases below pin the lattice-local radio path: a grid far larger
    # than a UE's 3x3 box, UEs walking off an unwrapped grid, TTT windows
    # of three samples, and a negative offset (the reach fallback and the
    # serving cell's own exclusion).
    "metro_16x16_1000ues": {
        "scenario.rows": "16",
        "scenario.cols": "16",
        "scenario.num_ues": "1000",
        "horizon_ms": "4000",
        "seed": "15",
    },
    "no_wrap_8x8": {
        "scenario.rows": "8",
        "scenario.cols": "8",
        "scenario.wrap": "false",
        "scenario.num_ues": "60",
        "scenario.ue_speed_kmh": "120",
        "horizon_ms": "30000",
        "seed": "16",
    },
    "ttt320_8x8": {
        "scenario.rows": "8",
        "scenario.cols": "8",
        "scenario.num_ues": "100",
        "scenario.ul_ttt_ms": "320",
        "horizon_ms": "20000",
        "seed": "17",
    },
    "neg_offset_8x8": {
        "scenario.rows": "8",
        "scenario.cols": "8",
        "scenario.num_ues": "60",
        "scenario.ul_offset_db": "-2",
        "horizon_ms": "10000",
        "seed": "18",
    },
}

# command -> dotted settings, run through the command line
COMMAND_CASES: dict[str, tuple[str, dict[str, str]]] = {
    "analyze_L24_s12_c0": (
        "analyze",
        {"analyze.trials": "5000", "analyze.L": "24", "analyze.s": "12", "analyze.c_min": "0"},
    ),
    "attack_2000": ("attack", {"attack.trials": "2000"}),
}

GOLDEN: dict[str, dict[str, str]] = json.loads(
    (Path(__file__).parent / "golden_digests.json").read_text()
)


def run_case(name: str, out: Path) -> dict[str, str]:
    """Run one case into ``out``; SHA-256 of every artifact, by file name."""
    config = apply_settings(RunConfig(), CASES[name])
    paths = write_run_artifacts(run_simulation(config), out)
    return {
        Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
        for p in paths.values()
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifacts_match_golden_digests(name, tmp_path):
    assert run_case(name, tmp_path) == GOLDEN[name]


def run_command_case(name: str, tmp: Path) -> dict[str, str]:
    """Run one command case via ``cli.main``; SHA-256 of every file it writes."""
    command, settings = COMMAND_CASES[name]
    cfg = tmp / "case.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in settings.items()))
    out = tmp / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(COMMAND_CASES))
def test_command_artifacts_match_golden_digests(name, tmp_path):
    assert run_command_case(name, tmp_path) == GOLDEN[name]


def run_demo_case(demo: Path, tmp: Path) -> str:
    """Run one demo as ``test_demos.py`` does; SHA-256 of its stdout."""
    from test_demos import run_demo

    proc = run_demo(demo, tmp)
    if proc.returncode:
        raise SystemExit(proc.stderr.decode())
    return hashlib.sha256(proc.stdout).hexdigest()


def _print_new_digests(names: list[str]) -> int:
    """Print ``{case: {file: sha256}}`` for cases that have no digests yet,
    and ``{"demos": {demo: sha256}}`` for demos that have none."""
    from test_demos import DEMOS

    demos = {d.stem: d for d in DEMOS}
    unknown = [n for n in names if n not in CASES and n not in COMMAND_CASES and n not in demos]
    recorded = [n for n in names if n in GOLDEN or n in GOLDEN.get("demos", {})]
    if not names or unknown or recorded:
        print(f"usage: {Path(__file__).name} CASE|DEMO [...]; unknown: {unknown}, "
              f"already recorded: {recorded}", file=sys.stderr)
        return 1
    digests = {}
    for name in names:
        with tempfile.TemporaryDirectory() as tmp:
            if name in demos:
                digests.setdefault("demos", {})[name] = run_demo_case(demos[name], Path(tmp))
            else:
                run = run_case if name in CASES else run_command_case
                digests[name] = run(name, Path(tmp))
    print(json.dumps(digests, indent=4, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(_print_new_digests(sys.argv[1:]))
