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

The loop runs over blocks of ticks.  Motion does not depend on handover
state, so a block first makes the positions (and power rows) of all its
ticks, tick by tick as one tick at a time would.  A UE's serving cell
changes only through its own handover, so each UE's fires in the block
follow from batched trigger calls over (tick, UE) entries: its serving
cell holds until it fires, and its target serves from the next tick on
(``_Chains``).  The forecast then runs once over every tick, UE and lead
tick of the block on that serving timeline.  A walk over the block's
ticks does the ordered work: prestage draws in UE order, handover
starts, the ledger tick and the completions.  A handover that waits
ends its UE's chain; a UE whose wait ends is evaluated afresh from the
next tick, forecast included.  Blocks grow while re-evaluating chains
costs less than the calls they save and shrink toward one tick when
UEs fire densely (``_block_length``); a block holds at most
``BLOCK_SAMPLES`` samples, so large runs go one tick at a time.  The
block length changes no byte and no draw.

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
from .gf import FieldSpec, field_of_order
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
    SIGNALING_WINDOW_MS,
    EntryKind,
    LedgerBlock,
    SignalTrace,
    SimulatedLedger,
    per_window_signaling,
)
from .mobility import (
    CellGrid,
    Measurement,
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
        field_of_order(config.security.q), rng_keys,
    )

    ledger = SimulatedLedger(
        {f"bsh{c}" for c in range(grid.num_cells)}, config.ledger.collection_period_ms
    )
    handovers = HoTable(ledger, config.scheme, cell_keys, config.ledger.ho_timeout_ms)
    waiting = handovers.waiting  # UE id -> row, for UEs waiting for their keys
    ues = place_ues(grid, sc.num_ues, sc.ue_speed_mps, rng_place)
    full_rows = sc.shadow_sigma_db > 0 or sc.dump_measurements
    trigger = trigger_targets if full_rows else grid.trigger_targets
    # A window reaches back at most to the run's first tick.
    window = min(sc.ul_ttt_ms, config.horizon_ms) // sc.rs_period_ms + 1
    measurements: list[Measurement] = []
    decided_forecasts: set[tuple[int, int, int]] = set()
    predict = config.prediction.enabled and config.scheme is Scheme.BLOCKCHAIN
    lead_ticks = max(1, -(-config.prediction.lead_ms // sc.rs_period_ms))
    lead_ms = np.arange(1, lead_ticks + 1) * sc.rs_period_ms
    ticks = config.horizon_ms // sc.rs_period_ms + 1 if config.horizon_ms > 0 else 0
    # Per UE, a tick's trigger reads a window of samples and, with
    # prediction, its forecast one sample per lead tick.
    samples = ues.count * (window + lead_ticks if predict else window)
    cap = max(1, BLOCK_SAMPLES // max(1, samples))
    # Each block holds the window samples of the ``window - 1`` ticks
    # before it, then of its own ticks: positions, from which
    # ``CellGrid.trigger_targets`` computes only the powers that can decide
    # a trigger, or the full rows of powers where shadowing (drawn per UE
    # and cell) or the measurement dump needs them.
    tail = np.empty((window - 1, ues.count, grid.num_cells if full_rows else 2))
    chains, forecasting, tick = None, False, 0
    while tick < ticks:
        # A block makes once what one tick at a time makes per tick: the
        # trigger call, and the forecast's ``advance`` and trigger.
        size = min(_block_length(chains, cap, 3 if forecasting else 1), ticks - tick)
        block = np.empty((window - 1 + size, *tail.shape[1:]))
        block[: window - 1] = tail
        # A forecast can prestage only while some cell's key set is neither
        # pending nor ledgered, that is, while some cell has not uploaded.
        forecasting = predict and len(ledger.upload_log) < grid.num_cells
        block_pos = np.empty((size, ues.count, 2)) if forecasting else None
        for k in range(size):
            t = (tick + k) * sc.rs_period_ms
            if t > 0:
                ues.pos = advance(ues.pos, ues.dirs, ues.speed, sc.rs_period_ms, grid)
            if forecasting:
                block_pos[k] = ues.pos
            if full_rows:
                rsrp = grid.rsrp(ues.pos)
                if sc.shadow_sigma_db > 0 and ues.count:
                    rsrp = rsrp + rng_fading.normal(0.0, sc.shadow_sigma_db, rsrp.shape)
                block[window - 1 + k] = rsrp
                if sc.dump_measurements:
                    measurements.extend(Measurement(t, i, rsrp[i]) for i in range(ues.count))
            else:
                block[window - 1 + k] = ues.pos
        if tick == 0:
            block[: window - 1] = block[window - 1]  # windows start at tick 0

        chains = _Chains(trigger, block, window, ues.serving, list(waiting), sc.ul_offset_db)
        if forecasting:
            forecast = _forecast(
                grid, block_pos, ues.dirs, ues.speed,
                chains.serving(0, np.arange(ues.count), ues.serving), lead_ms, sc.ul_offset_db,
            )
        for k in range(size):
            t = (tick + k) * sc.rs_period_ms
            if forecasting:
                _prestage(
                    config, ledger, waiting, decided_forecasts, cell_keys, rng_predict,
                    t, forecast[0][k], forecast[1][k],
                )
            fired = np.flatnonzero(chains.fires[k] >= 0)
            if len(fired):
                t_cells = chains.fires[k, fired]
                done = handovers.start(
                    fired.tolist(), ues.serving[fired].tolist(), t_cells.tolist(), t
                )
                ues.serving[fired[done]] = t_cells[done]
                if k + 1 < size:
                    chains.fires[k + 1 :, fired[~done]] = -1  # a waiting UE fires no more

            ledger.tick(t)

            finished = handovers.finish_waiting(t)
            if finished:
                back, targets = (np.array(c) for c in zip(*finished))
                ues.serving[back] = targets
                if k + 1 < size:
                    chains.again(back, k + 1, targets)
                    if forecasting:
                        rows = _forecast(
                            grid, block_pos[k + 1 :, back], ues.dirs[back], ues.speed[back],
                            chains.serving(k + 1, back, targets), lead_ms, sc.ul_offset_db,
                        )
                        for held, row in zip(forecast, rows):
                            held[k + 1 :, back] = row

        tail = block[size:]
        tick += size

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


def _prestage(
    config: RunConfig,
    ledger: SimulatedLedger,
    waiting: dict[int, int],
    decided: set[tuple[int, int, int]],
    cell_keys: CellKeys,
    rng: np.random.Generator,
    now: int,
    targets: np.ndarray,
    leads: np.ndarray,
) -> None:
    """Prestage key uploads for each UE's earliest forecast trigger.

    ``targets`` and ``leads`` give, per UE, the target and lead (ms) of its
    earliest forecast trigger (``_forecast``), -1 where none.  Motion and
    the deterministic radio model make the forecast exact at the default
    settings; the accuracy knob then decides per upcoming trigger whether
    the prestage actually happens: an accepted draw uploads the target
    cell's key set, a failed one leaves the handover to the unpredicted
    path.  Each (ue, cell, trigger time) is decided at most once, and a
    cell already pending or ledgered is never uploaded again.  UEs go in
    id order, skipping those whose handover is ``waiting``.
    """
    for ue_id in np.flatnonzero(targets >= 0).tolist():
        if ue_id in waiting:
            continue
        target = int(targets[ue_id])
        domain = str(target)
        if ledger.is_ledgered(domain, EntryKind.CELL_KEY_SET) or ledger.is_pending(
            domain, EntryKind.CELL_KEY_SET
        ):
            continue  # nothing left to hide for the nearest trigger
        key = (ue_id, target, now + int(leads[ue_id]))
        if key not in decided:
            decided.add(key)
            if float(rng.random()) < config.prediction.accuracy:
                upload_key_set(ledger, target, cell_keys[target], now)


# ----------------------------------------------------------------------
# blocks of ticks
# ----------------------------------------------------------------------

# A block holds at most this many trigger and forecast samples, so a run
# whose ticks hold more than half as many goes one tick at a time.
BLOCK_SAMPLES = 4096
# The fixed cost of one trigger call in (tick, UE) entries: about 60 us,
# against about 0.5 us per entry of the 8x8 and 16x16 box path.
CALL_ENTRIES = 100


class _Chains:
    """Each UE's serving chain over a block of ticks: the ticks at which
    it fires and the targets it fires to (``fires``, -1 elsewhere).  A
    UE's serving cell changes only through its own handover, so it is held
    fixed until the UE fires, and the target serves from the next tick on.

    ``samples`` holds the window samples (positions, or rows of powers) of
    the ``window - 1`` ticks before the block and then of its ticks, so the
    window of block tick k is ``samples[k : k + window]``.  The first round
    evaluates every UE at every tick of the block in one call on slices,
    and ``skip`` (UEs waiting for their keys) fire nothing.  Each later
    round evaluates, in one call on gathers, the rest of the block for the
    UEs that fired in the round before.  ``calls`` and ``entries`` count
    the trigger calls and the (tick, UE) entries they evaluated.
    """

    def __init__(self, trigger, samples, window, serving, skip, offset):
        ticks, ues = len(samples) - window + 1, samples.shape[1]
        self._trigger, self._samples, self._window, self._offset = trigger, samples, window, offset
        windows = samples if ticks == 1 else np.stack(
            [samples[w : w + ticks] for w in range(window)]
        )
        targets = trigger(windows, serving, offset).reshape(ticks, ues)
        if skip:
            targets[:, skip] = -1
        self.calls, self.entries = 1, ticks * ues
        self.fires = targets
        if ticks > 1:
            hit = targets >= 0
            fired = np.flatnonzero(hit.any(axis=0))
            first = hit[:, fired].argmax(axis=0)
            chained = targets[first, fired]
            self.fires = np.full((ticks, ues), -1)
            self.fires[first, fired] = chained
            self._chain(fired, first + 1, chained)

    def again(self, ues: np.ndarray, start: int, serving: np.ndarray) -> None:
        """Evaluate ``ues`` afresh from block tick ``start`` on, with
        serving cells ``serving``."""
        self.fires[start:, ues] = -1
        self._chain(ues, np.full(len(ues), start), serving)

    def _chain(self, ues, starts, serving):
        """Fire each UE's chain from its tick in ``starts`` on, one round
        per call, until no UE fires before the block's end."""
        ticks = len(self.fires)
        while True:
            go_on = starts < ticks
            ues, starts, serving = ues[go_on], starts[go_on], serving[go_on]
            if not len(ues):
                return
            span = ticks - starts
            owner = np.repeat(np.arange(len(ues)), span)
            first = np.cumsum(span) - span
            at = np.arange(len(owner)) - first[owner] + starts[owner]
            windows = self._samples[at + np.arange(self._window)[:, None], ues[owner]]
            targets = self._trigger(windows, serving[owner], self._offset)
            self.calls += 1
            self.entries += len(owner)
            hit = np.where(targets >= 0, np.arange(len(owner)), len(owner))
            hit = np.minimum.reduceat(hit, first)
            fired = hit < first + span
            hit = hit[fired]
            ues, starts, serving = ues[fired], at[hit] + 1, targets[hit]
            self.fires[at[hit], ues] = serving

    def serving(self, start: int, ues: np.ndarray, serving: np.ndarray) -> np.ndarray:
        """The serving cells of ``ues`` at each block tick from ``start`` on,
        given ``serving`` at ``start``: the target of each UE's last fire
        at an earlier tick, or ``serving`` before its first."""
        fires = self.fires[start:, ues]
        last = np.where(fires >= 0, np.arange(1, len(fires) + 1)[:, None], 0)
        np.maximum.accumulate(last, axis=0, out=last)
        out = np.empty_like(fires)
        out[0] = serving
        prev = last[:-1]
        out[1:] = np.where(prev > 0, fires[prev - 1, np.arange(len(ues))], serving)
        return out


def _forecast(
    grid: CellGrid,
    pos: np.ndarray,
    dirs: np.ndarray,
    speed: np.ndarray,
    serving: np.ndarray,
    lead_ms: np.ndarray,
    offset: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The earliest forecast trigger of each (tick, UE) entry: its target
    and its lead in ms, -1 where no lead tick fires.

    ``pos`` (ticks, UEs, 2) are the entries' positions and ``serving``
    (ticks, UEs) their serving cells; each lead instant is a single sample
    of the position ``advance`` gives after ``lead_ms`` from there.
    """
    future = advance(pos[:, :, None], dirs[:, None], speed[:, None], lead_ms, grid)
    targets = grid.trigger_targets(future[None], serving[:, :, None], offset)
    earliest = (targets >= 0).argmax(axis=2)
    target = np.take_along_axis(targets, earliest[..., None], axis=2)[..., 0]
    return target, np.where(target >= 0, lead_ms[earliest], -1)


def _block_length(last: _Chains | None, cap: int, calls_per_tick: int) -> int:
    """The next block's length in ticks: 1 for the first block, then from
    what re-evaluating the chains cost in the ``last`` one.

    Against one call over the whole block, the rounds after the first
    waste their calls and entries; against one tick at a time, a block
    saves ``calls_per_tick`` calls on each tick after its first.  The
    length doubles (up to ``cap``) while the waste is under half the
    saving, and halves once it exceeds the saving.  A one-tick block
    wastes nothing, so it doubles only if a two-tick block would have:
    with no fire, or with its fires costing one more call and their
    entries, under half the saving.
    """
    if last is None:
        return 1
    size, ues = last.fires.shape
    if size == 1:
        fires = int(np.count_nonzero(last.fires >= 0))
        saving = calls_per_tick * CALL_ENTRIES
        waste = CALL_ENTRIES + fires if fires else 0
    else:
        saving = (size - 1) * calls_per_tick * CALL_ENTRIES
        waste = (last.calls - 1) * CALL_ENTRIES + last.entries - size * ues
    if 2 * waste < saving:
        return min(cap, 2 * size)
    return max(1, size // 2) if waste > saving else size


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
            for i, start in enumerate(range(0, horizon + 1, SIGNALING_WINDOW_MS)):
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
