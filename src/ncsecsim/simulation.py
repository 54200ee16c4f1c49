"""Deterministic event loop: motion, measurements, triggers, handovers,
ledger ticks, and the CSV artifacts derived from one run.

Each reference-signal tick advances UE positions, measures uplink powers
at the base stations that can take each UE over (at every one with
shadowing or the measurement dump), optionally forecasts imminent
handovers for key prestaging, starts triggered handovers, and then lets
the ledger verify any collection-period boundary that has passed.
Handovers blocked on key sharing complete at the first tick after their
block verifies.  Every handover is a row of one ``handover.HoTable``; the
loop records only the table's columns and the ledger's uploads and
blocks, and the signal trace is built from them after the last tick.

All randomness flows from one master seed through named substreams
(placement, key material, prediction, fading), so identical seed and
configuration give byte-identical artifacts.

For scheme comparisons the run derives the other kind of scheme's
trace from the table's trigger columns; the resulting curves differ only
in key signaling, never in mobility.
"""

from __future__ import annotations

import csv
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .config import RunConfig, write_config_echo
from .errors import IoError
from .gf import FieldSpec, field
from .handover import (
    HoTable,
    HoView,
    cumulative_key_exchanges,
    replay_key_signaling,
    upload_key_set,
)
from .integrity import KeyRing, generate_domain_keys
from .keydist import Scheme
from .ledger import (
    EntryKind,
    LedgerBlock,
    SignalTrace,
    SimulatedLedger,
    per_window_signaling,
)
from .mobility import (
    CellGrid,
    Measurement,
    UeArrays,
    advance,
    place_ues,
    trigger_targets,
)

_ALL_SCHEMES = (Scheme.BLOCKCHAIN, Scheme.DOUBLE_RANDOM, Scheme.C_COVER_FREE)


@dataclass
class SimulationResult:
    config: RunConfig
    grid: CellGrid
    trace: SignalTrace
    events: HoTable
    blocks: list[LedgerBlock]
    upload_log: list[tuple[int, str, str]]
    cell_keys: CellKeys
    scheme_traces: dict[str, SignalTrace]
    measurements: list[Measurement]

    @cached_property
    def completed(self) -> list[HoView]:
        """Views of the completed handovers, in start order."""
        return [view for view in self.events if view.complete]


class CellKeys(Mapping[int, KeyRing]):
    """The MAC key ring of each cell 0..cells-1, drawn from ``rng`` when
    the cell's ring is first looked up, which is at its first key upload.
    Rings are drawn in lookup order, so a cell that never uploads draws
    none; membership is by cell id and draws nothing."""

    def __init__(self, cells: int, n: int, l: int, spec: FieldSpec, rng: np.random.Generator):
        self._cells = range(cells)
        self._draw = (n, l, spec, rng)
        self._rings: dict[int, KeyRing] = {}

    def __getitem__(self, cell: int) -> KeyRing:
        ring = self._rings.get(cell)
        if ring is None:
            if cell not in self._cells:
                raise KeyError(cell)
            ring = self._rings[cell] = generate_domain_keys(*self._draw, domain_id=str(cell))
        return ring

    def __contains__(self, cell) -> bool:
        return cell in self._cells

    def __iter__(self):
        return iter(self._cells)

    def __len__(self) -> int:
        return len(self._cells)


def run_simulation(config: RunConfig) -> SimulationResult:
    sc = config.scenario
    grid = CellGrid(
        rows=sc.rows,
        cols=sc.cols,
        isd_m=sc.isd_m,
        wrap=sc.wrap,
        ptx_dbm=sc.ptx_dbm,
        pl0_db=sc.pl0_db,
        pl_exponent=sc.pl_exponent,
    )
    seq = np.random.SeedSequence(config.seed)
    rng_place, rng_keys, rng_predict, rng_fading = (
        np.random.default_rng(s) for s in seq.spawn(4)
    )
    cell_keys = CellKeys(
        grid.num_cells, config.security.n, config.security.l,
        field(config.security.q.bit_length() - 1), rng_keys,
    )

    ledger = SimulatedLedger(
        {f"bsh{c}" for c in range(grid.num_cells)}, config.ledger.collection_period_ms
    )
    handovers = HoTable(ledger, config.scheme, cell_keys, config.ledger.ho_timeout_ms)
    waiting = handovers.waiting  # UE id -> row, for UEs waiting for their keys
    ues = place_ues(grid, sc.num_ues, sc.ue_speed_mps, rng_place)
    # Ring buffer of the samples a TTT window can reach, all UEs at once:
    # positions, from which ``CellGrid.trigger_targets`` computes only the
    # powers that can decide a trigger, or the full rows of powers where
    # shadowing (drawn per UE and cell) or the measurement dump needs them.
    full_rows = sc.shadow_sigma_db > 0 or sc.dump_measurements
    trigger = trigger_targets if full_rows else grid.trigger_targets
    # A window reaches back at most to the run's first tick.
    window_len = min(sc.ul_ttt_ms, config.horizon_ms) // sc.rs_period_ms + 1
    ring = np.empty((window_len, ues.count, grid.num_cells if full_rows else 2))
    measurements: list[Measurement] = []
    decided_forecasts: set[tuple[int, int, int]] = set()
    predict = config.prediction.enabled and config.scheme is Scheme.BLOCKCHAIN
    lead_ticks = max(1, -(-config.prediction.lead_ms // sc.rs_period_ms))

    if config.horizon_ms > 0:
        for tick, t in enumerate(range(0, config.horizon_ms + 1, sc.rs_period_ms)):
            if t > 0:
                ues.pos = advance(ues.pos, ues.dirs, ues.speed, sc.rs_period_ms, grid)

            if full_rows:
                rsrp = grid.rsrp(ues.pos)
                if sc.shadow_sigma_db > 0 and ues.count:
                    rsrp = rsrp + rng_fading.normal(0.0, sc.shadow_sigma_db, rsrp.shape)
                ring[tick % window_len] = rsrp
                if sc.dump_measurements:
                    measurements.extend(Measurement(t, i, rsrp[i]) for i in range(ues.count))
            else:
                ring[tick % window_len] = ues.pos

            if predict:
                _forecast_and_prestage(
                    config, grid, ledger, ues, waiting, decided_forecasts,
                    cell_keys, rng_predict, t, lead_ticks,
                )

            reach = min(tick + 1, window_len)
            window = ring[np.arange(tick + 1 - reach, tick + 1) % window_len]  # oldest first
            targets = trigger(window, ues.serving, sc.ul_offset_db)
            fired = [u for u in np.flatnonzero(targets >= 0).tolist() if u not in waiting]
            if fired:
                t_cells = targets[fired]
                done = handovers.start(fired, ues.serving[fired].tolist(), t_cells.tolist(), t)
                ues.serving[np.array(fired)[done]] = t_cells[done]

            ledger.tick(t)

            for ue_id, target in handovers.finish_waiting(t):
                ues.serving[ue_id] = target

    # The baselines differ only in key assignment, not in signaling, so a
    # baseline run's own trace serves both and one replay serves the rest.
    own_uses_ledger = config.scheme is Scheme.BLOCKCHAIN
    own_trace = handovers.trace()
    replayed = replay_key_signaling(
        handovers, Scheme.DOUBLE_RANDOM if own_uses_ledger else Scheme.BLOCKCHAIN,
        config.horizon_ms, sc.rs_period_ms, config.ledger.collection_period_ms,
    )
    scheme_traces = {
        scheme.label: own_trace if (scheme is Scheme.BLOCKCHAIN) == own_uses_ledger else replayed
        for scheme in _ALL_SCHEMES
    }

    return SimulationResult(
        config=config,
        grid=grid,
        trace=own_trace,
        events=handovers,
        blocks=list(ledger.blocks),
        upload_log=list(ledger.upload_log),
        cell_keys=cell_keys,
        scheme_traces=scheme_traces,
        measurements=measurements,
    )


def _forecast_and_prestage(
    config: RunConfig,
    grid: CellGrid,
    ledger: SimulatedLedger,
    ues: UeArrays,
    waiting: dict[int, int],
    decided: set[tuple[int, int, int]],
    cell_keys: CellKeys,
    rng: np.random.Generator,
    now: int,
    lead_ticks: int,
) -> None:
    """Prestage key uploads for each UE's earliest forecast trigger.

    Motion and the deterministic radio model make the forecast exact at
    the default settings; the accuracy knob then decides per upcoming
    trigger whether the prestage actually happens: an accepted draw
    uploads the target cell's key set, a failed one leaves the handover to
    the unpredicted path.  Each (ue, cell, trigger time) is decided at
    most once, and a cell already pending or ledgered is never uploaded
    again.  The forecast runs for all UEs and lead ticks at once; the
    ledger checks and prestage draws then go UE by UE in id order,
    skipping UEs whose handover is ``waiting``.
    """
    sc = config.scenario
    lead_ms = np.arange(1, lead_ticks + 1) * sc.rs_period_ms
    future = advance(
        ues.pos[:, None], ues.dirs[:, None], ues.speed[:, None], lead_ms, grid
    )
    targets = grid.trigger_targets(future[None], ues.serving[:, None], sc.ul_offset_db)
    fires = targets >= 0
    earliest = fires.argmax(axis=1)  # only the earliest trigger is a valid forecast
    for ue_id in np.flatnonzero(fires.any(axis=1)).tolist():
        if ue_id in waiting:
            continue
        j = int(earliest[ue_id])
        target = int(targets[ue_id, j])
        domain = str(target)
        if ledger.is_ledgered(domain, EntryKind.CELL_KEY_SET) or ledger.is_pending(
            domain, EntryKind.CELL_KEY_SET
        ):
            continue  # nothing left to hide for the nearest trigger
        key = (ue_id, target, now + int(lead_ms[j]))
        if key not in decided:
            decided.add(key)
            if float(rng.random()) < config.prediction.accuracy:
                upload_key_set(ledger, target, cell_keys[target], now)


# ----------------------------------------------------------------------
# artifacts
# ----------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_run_artifacts(result: SimulationResult, out_dir: str | Path) -> dict[str, Path]:
    """Write the signal trace, per-HO summary, per-second and cumulative
    signaling CSVs, plus the canonical config echo."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {out}: {exc}") from None

    paths: dict[str, Path] = {}
    horizon = result.config.horizon_ms

    paths["config"] = out / "config.txt"
    write_config_echo(result.config, paths["config"])

    paths["signals"] = out / "signals.csv"
    with open(paths["signals"], "w", newline="") as fh:
        result.trace.write_csv(fh)

    paths["ho_summary"] = out / "ho_summary.csv"
    with open(paths["ho_summary"], "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["ue_id", "s_cell", "t_cell", "t_trigger_ms", "t_complete_ms",
             "key_signals", "prep_wait_ms"]
        )
        w.writerows(result.events.summary_rows())

    labels = list(result.scheme_traces)
    paths["per_second"] = out / "per_second_signaling.csv"
    with open(paths["per_second"], "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["window_start_ms", "scheme", "key_exchanges"])
        if horizon > 0:
            counts = {
                label: per_window_signaling(tr, horizon)
                for label, tr in result.scheme_traces.items()
            }
            for i, start in enumerate(range(0, horizon + 1, 1000)):
                for label in labels:
                    w.writerow([start, label, counts[label][i]])

    paths["cumulative"] = out / "cumulative_key_exchanges.csv"
    with open(paths["cumulative"], "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t_ms", "scheme", "cumulative_key_exchanges"])
        if horizon > 0:
            series = {
                label: cumulative_key_exchanges(tr, horizon)
                for label, tr in result.scheme_traces.items()
            }
            for i, (t, _) in enumerate(series[labels[0]]):
                for label in labels:
                    w.writerow([t, label, series[label][i][1]])

    if result.config.scenario.dump_measurements:
        paths["measurements"] = out / "measurements.csv"
        with open(paths["measurements"], "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t_ms", "ue_id", "cell", "rsrp_dbm"])
            for meas in result.measurements:
                for cell, value in enumerate(meas.rsrp_dbm):
                    w.writerow([meas.t, meas.ue_id, cell, _fmt(float(value))])

    return paths
