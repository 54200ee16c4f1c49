"""Deterministic event loop: motion, measurements, triggers, handovers,
key-set uploads, and the CSV artifacts derived from one run.

Each reference-signal tick advances UE positions, measures uplink powers
at the base stations that can take each UE over (at every one with
shadowing, or for the measurement dump), optionally forecasts imminent
handovers for key prestaging, starts triggered handovers, and then
completes those blocked on key sharing whose block has verified.  Every
handover is a row of one ``handover.HoTable``, which also holds each
cell's key-set upload time; the loop drives no ledger.  The run's result
is that table: the signal traces, the ledger's uploads, the uploaded
cells' key rings and the blocks a ledger makes of them are built from
the table and the config when first read (``SimulationResult``).

The loop runs over blocks of ticks.  Motion does not depend on handover
state, so a block first makes the positions (and power rows) of all its
ticks, tick by tick as one tick at a time would.  A UE's serving cell
changes only through its own handover, so each UE's fires in the block
follow from batched trigger calls over (tick, UE) entries: its serving
cell holds until it fires, and its target serves from the next tick on
(``_Chains``), one call per round returning each UE's first fire
(``CellGrid.first_fires``).  The forecast then makes one such call over
every tick, UE and lead tick of the block on that serving timeline.  A
walk over the block's ticks does the ordered work: prestage draws in UE
order and handover starts.  A handover that waits ends its UE's chain.
A wait ends at the tick that sees its block, decided when the handover
starts; while some cell's keys are not yet visible, a block ends at the
first tick that sees a block (``HoTable.next_seen``) and completes its
waits there.  Where the trigger's prefilter drops most entries
(``CellGrid.may_fire``), re-evaluated entries are cheap and every block
takes the longest length; elsewhere blocks grow while re-evaluating
chains costs less than the calls they save and shrink toward one tick
when that costs more, so dense firing keeps them one tick long
(``_block_length``).  A block holds at most ``BLOCK_SAMPLES`` samples,
so large runs go one tick at a time.  The block length changes no byte
and no draw.

All randomness flows from one master seed through named substreams
(placement, key material, prediction, fading), so identical seed and
configuration give byte-identical artifacts.

For scheme comparisons the result derives the other kind of scheme's
trace from the table's trigger columns; the resulting curves differ only
in key signaling, never in mobility.  The per-window signaling artifacts
take each scheme's key-exchange times from the table's blocks and build
no trace (``_signaling_counts``).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .config import RunConfig, write_config_echo
from .errors import IoError
from .gf import field_of_order
from .handover import (
    HoTable,
    HoView,
    _key_times,
    _replay,
    replay_key_signaling,
)
from .integrity import KeyRing, generate_domain_keys, key_ring_bytes
from .keydist import Scheme
from .ledger import (
    SIGNALING_WINDOW_MS,
    CandidateEntry,
    EntryKind,
    LedgerBlock,
    SignalTrace,
    SimulatedLedger,
    _windows,
    _write_columns,
)
from .mobility import (
    CellGrid,
    UeArrays,
    advance,
    cell_grid_bytes,
    first_fires,
    first_fires_bytes,
    place_ues,
    prefilters,
)

_ALL_SCHEMES = (Scheme.BLOCKCHAIN, Scheme.DOUBLE_RANDOM, Scheme.C_COVER_FREE)


def _substreams(seed: int) -> dict[str, np.random.Generator]:
    """The run's generators, one per child of its master ``seed``, named
    in spawn order: placement, key material, prediction, fading."""
    children = np.random.SeedSequence(seed).spawn(4)
    return dict(zip(("place", "keys", "predict", "fading"), map(np.random.default_rng, children)))


@dataclass
class SimulationResult:
    """One run: its config, grid, handover table and measurement dump (the
    powers (ticks, UEs, cells), tick k at row k; no rows without the dump).

    Everything else is built from the table and the config when first
    read, and kept: the signal traces, the ledger's uploads and blocks,
    and the uploaded cells' key rings.
    """

    config: RunConfig
    grid: CellGrid
    events: HoTable
    measurements: np.ndarray

    @cached_property
    def completed(self) -> list[HoView]:
        """Views of the completed handovers, in start order."""
        return [view for view in self.events if view.complete]

    @cached_property
    def trace(self) -> SignalTrace:
        """The run's own signal trace."""
        return self.events.trace()

    @cached_property
    def scheme_traces(self) -> dict[str, SignalTrace]:
        """The signal trace of each scheme on the run's triggers, by label:
        the run's own trace for its kind of scheme and one replay for the
        other kind (``_by_scheme``)."""
        events, scheme = self.events, self.config.scheme
        replayed = replay_key_signaling(
            events, _replayed(scheme), self.config.horizon_ms, events.rs, events.period
        )
        return _by_scheme(scheme, self.trace, replayed)

    @cached_property
    def upload_log(self) -> list[tuple[int, str, str]]:
        """The ledger's uploads as (time, origin, domain), in upload
        order, which is time order."""
        at = self.events.uploaded_at
        return [(at[c], f"bsh{c}", str(c)) for c in self.events.uploads]

    @cached_property
    def cell_keys(self) -> dict[int, KeyRing]:
        """The MAC key ring of each uploaded cell, drawn from the run's key
        substream in upload order; a cell that never uploads has none."""
        sec = self.config.security
        spec, rng = field_of_order(sec.q), _substreams(self.config.seed)["keys"]
        return {
            c: generate_domain_keys(sec.n, sec.l, spec, rng, domain_id=str(c))
            for c in self.events.uploads
        }

    @cached_property
    def blocks(self) -> list[LedgerBlock]:
        """The blocks a ``SimulatedLedger`` fed the run's uploads, each
        with its cell's key ring, verifies when ticked at the run's last
        tick."""
        led = SimulatedLedger({origin for _, origin, _ in self.upload_log}, self.events.period)
        for (t, origin, domain), ring in zip(self.upload_log, self.cell_keys.values()):
            led.submit_candidate(CandidateEntry(EntryKind.CELL_KEY_SET, origin, ring, t, domain))
        led.tick(self.events.clock)
        return led.blocks


def run_simulation(config: RunConfig) -> SimulationResult:
    sc = config.scenario
    rs, period = sc.rs_period_ms, config.ledger.collection_period_ms
    grid = CellGrid(
        rows=sc.rows,
        cols=sc.cols,
        isd_m=sc.isd_m,
        wrap=sc.wrap,
        ptx_dbm=sc.ptx_dbm,
        pl0_db=sc.pl0_db,
        pl_exponent=sc.pl_exponent,
    )
    field_of_order(config.security.q)  # a bad field order fails before the run
    rng = _substreams(config.seed)

    handovers = HoTable(config.scheme, grid.num_cells, period, rs, config.ledger.ho_timeout_ms)
    waiting = handovers.waiting  # UE id -> row, for UEs waiting for their keys
    ues = place_ues(grid, sc.num_ues, sc.ue_speed_mps, rng["place"])
    window, lead_ticks, cap, full_rows = _block_shape(config)
    trigger = first_fires if full_rows else grid.first_fires
    # whether the trigger drops most entries a chain re-evaluates (``_block_length``)
    prefiltered = not full_rows and prefilters(sc.pl_exponent, sc.ul_offset_db)
    decided_forecasts: set[tuple[int, int, int]] = set()
    lead_ms = np.arange(1, lead_ticks + 1) * rs
    ticks = config.horizon_ms // rs + 1 if config.horizon_ms > 0 else 0
    measurements = np.empty((ticks if sc.dump_measurements else 0, ues.count, grid.num_cells))
    # Each block holds the window samples of the ``window - 1`` ticks
    # before it, then of its own ticks: positions, from which
    # ``CellGrid.first_fires`` computes only the powers that can decide
    # a trigger, or the full rows of powers where shadowing (drawn per UE
    # and cell) needs them.
    tail = np.empty((window - 1, ues.count, grid.num_cells if full_rows else 2))
    chains, forecasting, tick = None, False, 0
    while tick < ticks:
        # A block makes once what one tick at a time makes per tick: the
        # trigger call, and the forecast's ``advance`` and trigger.
        size = min(_block_length(chains, cap, 3 if forecasting else 1, prefiltered), ticks - tick)
        # Waits end only at ticks that see a block.  While some cell's keys
        # are not yet visible, the block ends at the first such tick.
        seen = handovers.next_seen(tick * rs)
        if seen is not None:
            size = min(size, seen // rs - tick + 1)
        block = np.empty((window - 1 + size, *tail.shape[1:]))
        block[: window - 1] = tail
        # A forecast can prestage only while some cell has not uploaded.
        forecasting = lead_ticks > 0 and len(handovers.uploads) < grid.num_cells
        block_pos = np.empty((size, ues.count, 2)) if forecasting else None
        for k in range(size):
            if tick + k:
                ues.pos = advance(ues.pos, ues.dirs, ues.speed, rs, grid)
            if forecasting:
                block_pos[k] = ues.pos
            if full_rows:  # shadowing, drawn per UE and cell
                rsrp = grid.rsrp(ues.pos)
                rsrp += rng["fading"].normal(0.0, sc.shadow_sigma_db, rsrp.shape)
            block[window - 1 + k] = rsrp if full_rows else ues.pos
            if sc.dump_measurements:
                measurements[tick + k] = rsrp if full_rows else grid.rsrp(ues.pos)
        if tick == 0:
            block[: window - 1] = block[window - 1]  # windows start at tick 0

        chains = _Chains(trigger, block, window, ues.serving, list(waiting), sc.ul_offset_db)
        if forecasting:
            forecast = _forecast(
                grid, block_pos, ues, chains.serving(ues.serving), lead_ms, sc.ul_offset_db
            )
        for k in range(size):
            t = (tick + k) * rs
            if forecasting:
                _prestage(
                    config, handovers, decided_forecasts, rng["predict"],
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
        for ue, cell in handovers.finish_waiting(t):
            ues.serving[ue] = cell

        tail = block[size:]
        tick += size

    handovers._columns_to_arrays()
    return SimulationResult(config, grid, handovers, measurements)


def _replayed(scheme: Scheme) -> Scheme:
    """The scheme whose replay stands for the other kind than ``scheme``'s."""
    return Scheme.DOUBLE_RANDOM if scheme is Scheme.BLOCKCHAIN else Scheme.BLOCKCHAIN


def _by_scheme(scheme: Scheme, own, replayed) -> dict:
    """``own``, of a run of ``scheme``, for each scheme of its kind (the
    ledger, or the baselines), and ``replayed`` for each of the other
    kind, by label in ``_ALL_SCHEMES`` order: the baselines differ only in
    key assignment, not in signaling."""
    uses_ledger = scheme is Scheme.BLOCKCHAIN
    return {s.label: own if (s is Scheme.BLOCKCHAIN) == uses_ledger else replayed
            for s in _ALL_SCHEMES}


def _prestage(
    config: RunConfig,
    handovers: HoTable,
    decided: set[tuple[int, int, int]],
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
    cell that has uploaded is never uploaded again.  UEs go in id order,
    skipping those whose handover waits for its keys.
    """
    uploaded_at, waiting = handovers.uploaded_at, handovers.waiting
    for ue_id in np.flatnonzero(targets >= 0).tolist():
        if ue_id in waiting:
            continue
        target = int(targets[ue_id])
        if uploaded_at[target] >= 0:
            continue  # nothing left to hide for the nearest trigger
        key = (ue_id, target, now + int(leads[ue_id]))
        if key not in decided:
            decided.add(key)
            if float(rng.random()) < config.prediction.accuracy:
                handovers.upload(target, now)


# ----------------------------------------------------------------------
# blocks of ticks
# ----------------------------------------------------------------------

# A block holds at most this many trigger and forecast samples, so a run
# whose ticks hold more than half as many goes one tick at a time.
BLOCK_SAMPLES = 4096
# The fixed cost of one chain round in (tick, UE) entries: about 100 us,
# against about 0.3 us per entry of the 8x8 box path.
CALL_ENTRIES = 300


def _block_shape(config: RunConfig) -> tuple[int, int, int, bool]:
    """A run's window, forecast lead (0: none) and longest block in ticks,
    and whether its samples are full rows of powers, not positions:
    shadowing is drawn per UE and cell."""
    sc = config.scenario
    # A window reaches back at most to the run's first tick.
    window = min(sc.ul_ttt_ms, config.horizon_ms) // sc.rs_period_ms + 1
    # Only a ledger run forecasts: ``lead_ms`` in RS periods, rounded up, at least one.
    predict = config.prediction.enabled and config.scheme is Scheme.BLOCKCHAIN
    leads = max(1, -(-config.prediction.lead_ms // sc.rs_period_ms)) if predict else 0
    # Per UE, a tick's trigger reads a window of samples and its forecast
    # one sample per lead tick.
    cap = max(1, BLOCK_SAMPLES // max(1, sc.num_ues * (window + leads)))
    return window, leads, cap, sc.shadow_sigma_db > 0


def run_bytes(config: RunConfig) -> list[tuple[str, int]]:
    """The peak bytes of each part of a run of ``config`` that grows with its settings, with
    the keys that size it: their sum bounds the run's peak, but for what grows with handovers."""
    sc, sec = config.scenario, config.security
    window, leads, cap, full_rows = _block_shape(config)
    cells, ues, entries = sc.num_cells, sc.num_ues, cap * sc.num_ues
    # The grid and UEs; a block and the one before it (``tail`` keeps it),
    # their entries' arrays, a tick's full rows with their noise; a chain
    # round, whose trigger over full rows costs no more than computing them.
    grid = cell_grid_bytes(cells, ues) + 16 * (window - 1 + cap) * ues * (cells if full_rows else 2)
    grid += (8 * window + 96) * entries + 32 * ues * cells * full_rows
    exponent = 0.0 if full_rows else sc.pl_exponent
    grid += first_fires_bytes(entries, ues, window, cells, exponent, sc.ul_offset_db)
    return [
        ("scenario.rows, scenario.cols, scenario.num_ues", grid),
        ("prediction.lead_ms",
         first_fires_bytes(entries * leads, entries, 1, cells, sc.pl_exponent, sc.ul_offset_db)),
        ("security.n, security.l", key_ring_bytes(sec.n, sec.l, field_of_order(sec.q))),
        # each scheme's per-window counts and curve (``write_run_artifacts``)
        ("horizon_ms", 200 * len(_ALL_SCHEMES) * (config.horizon_ms // SIGNALING_WINDOW_MS + 1)),
        # every tick's powers, and one tick's as ``CellGrid.rsrp`` computes
        # them: 32 bytes a cell with numpy's buffers
        ("scenario.dump_measurements", sc.dump_measurements * ues * cells
         * (8 * (config.horizon_ms // sc.rs_period_ms + 1) + 32)),
    ]


class _Chains:
    """Each UE's serving chain over a block of ticks: the ticks at which
    it fires and the targets it fires to (``fires``, -1 elsewhere).  A
    UE's serving cell changes only through its own handover, so it is held
    fixed until the UE fires, and the target serves from the next tick on.

    ``samples`` holds the window samples (positions, or rows of powers) of
    the ``window - 1`` ticks before the block and then of its ticks, so the
    window of block tick k is ``samples[k : k + window]``.  Each round is
    one ``first_fires`` call on gathers, a UE's rest of the block being
    one sequence.  Every UE but ``skip`` (UEs waiting for their keys)
    starts at tick 0; a UE that fires goes on from the next tick.
    ``calls``, ``entries`` and ``chains`` count the calls, the (tick, UE)
    entries they took and the UEs that start.  Waits end only at a
    block's last tick, so no chain resumes inside a block.
    """

    def __init__(self, trigger, samples, window, serving, skip, offset):
        ticks, count = len(samples) - window + 1, samples.shape[1]
        self.fires = np.full((ticks, count), -1)
        go = np.ones(count, dtype=bool)
        go[skip] = False
        ues = go.nonzero()[0]
        starts, serving = np.zeros(len(ues), dtype=np.intp), serving[ues]
        self.calls, self.entries, self.chains = 0, 0, len(ues)
        flat = samples.reshape(-1, samples.shape[2])  # row t * count + ue
        window_rows = np.arange(window)[:, None] * count
        while len(ues):
            span = ticks - starts
            first = span.cumsum() - span
            at = np.arange(first[-1] + span[-1]) + (starts - first).repeat(span)  # entry ticks
            hit, targets = trigger(
                np.take(flat, at * count + ues.repeat(span) + window_rows, axis=0),
                serving.repeat(span), first, offset,
            )
            self.calls += 1
            self.entries += len(at)
            fired = targets >= 0
            ues, serving, at = ues[fired], targets[fired], at[hit[fired]]
            self.fires[at, ues] = serving
            go_on = at + 1 < ticks
            ues, starts, serving = ues[go_on], at[go_on] + 1, serving[go_on]

    def serving(self, serving: np.ndarray) -> np.ndarray:
        """Each UE's serving cell at each block tick, given ``serving`` at
        the first: the target of its last fire at an earlier tick, or
        ``serving`` before its first."""
        held = np.vstack([serving, self.fires[:-1]])  # row k: the fires of tick k - 1
        last = np.where(held >= 0, np.arange(len(held))[:, None], 0)
        np.maximum.accumulate(last, axis=0, out=last)
        return np.take_along_axis(held, last, axis=0)


def _forecast(
    grid: CellGrid,
    pos: np.ndarray,
    ues: UeArrays,
    serving: np.ndarray,
    lead_ms: np.ndarray,
    offset: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The earliest forecast trigger of each (tick, UE) entry: its target
    and its lead in ms, -1 where no lead tick fires.

    ``pos`` (ticks, UEs, 2) are the entries' positions and ``serving``
    (ticks, UEs) their serving cells; each lead instant is a single sample
    of the position ``advance`` gives after ``lead_ms`` from there, and
    the lead ticks of an entry are one sequence of ``first_fires``.
    """
    future = advance(pos[:, :, None], ues.dirs[:, None], ues.speed[:, None], lead_ms, grid)
    leads = len(lead_ms)
    index, target = grid.first_fires(future.reshape(1, -1, 2), serving.repeat(leads),
                                     np.arange(0, future.size // 2, leads), offset)
    lead = np.where(target >= 0, lead_ms[index % leads], -1)
    return target.reshape(serving.shape), lead.reshape(serving.shape)


def _block_length(last: _Chains | None, cap: int, calls_per_tick: int, prefiltered: bool) -> int:
    """The next block's length in ticks: ``cap`` where the trigger call
    ``prefiltered`` its entries, which makes re-evaluating them cheap.

    Elsewhere it is 1 for the first block, then follows from what
    re-evaluating the chains cost in the ``last`` one.  Against one call
    over the whole block, the rounds after the first waste their calls
    and their entries; against one tick at a time, a block saves
    ``calls_per_tick`` calls on each tick after its first.  The length
    doubles (up to ``cap``) while the waste is under half the saving, and
    halves once it exceeds the saving.  A one-tick block wastes nothing,
    so it doubles only if a two-tick block would have: with no fire, or
    with its f fires costing one more call and f entries, under half the
    saving.
    """
    if prefiltered:
        return cap
    if last is None:
        return 1
    size = len(last.fires)
    if size == 1:
        fires = int(np.count_nonzero(last.fires >= 0))
        saving = calls_per_tick * CALL_ENTRIES
        waste = CALL_ENTRIES + fires if fires else 0
    else:
        saving = (size - 1) * calls_per_tick * CALL_ENTRIES
        waste = (last.calls - 1) * CALL_ENTRIES + last.entries - size * last.chains
    if 2 * waste < saving:
        return min(cap, 2 * size)
    return max(1, size // 2) if waste > saving else size


# ----------------------------------------------------------------------
# artifacts
# ----------------------------------------------------------------------

def _fmt(value) -> str:
    """A number as every CSV artifact writes it: 12 significant digits."""
    return f"{float(value):.12g}"


def output_dir(path: str | Path) -> Path:
    """``path`` as a directory, created with its parents if it is missing."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {out}: {exc}") from None
    return out


def write_table(path: Path, header: list[str], rows) -> None:
    """Write a table CSV: the ``header`` row, then ``rows``."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _signaling_counts(
    events: HoTable, scheme: Scheme, horizon_ms: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per signaling window starting in [0, horizon] (rows) and per scheme
    of ``_ALL_SCHEMES`` (columns), the key exchanges in the window and the
    running count at its start (``ledger._windows``), on the triggers of a
    run of ``scheme`` whose handovers ``events`` holds.

    They are the counts of ``SimulationResult.scheme_traces``, but taken
    from the key-exchange times of the trace's blocks (``_key_times``), so
    no trace is built.
    """
    own = _key_times(*events._trace_inputs())
    replayed = _key_times(*_replay(events, _replayed(scheme), horizon_ms, events.rs, events.period))
    by_scheme = _by_scheme(scheme, _windows(own, horizon_ms), _windows(replayed, horizon_ms))
    counts, curves = zip(*by_scheme.values())
    return np.column_stack(counts), np.column_stack(curves)


def _write_windows(path: Path, header: list[str], values: np.ndarray) -> None:
    """Write ``values`` (windows, schemes) one row per window start and
    scheme of ``_ALL_SCHEMES``: the start, the label and the value."""
    windows, schemes = values.shape
    labels = [scheme.label for scheme in _ALL_SCHEMES]
    with open(path, "w", newline="") as fh:
        _write_columns(fh, header, [
            np.arange(windows).repeat(schemes) * SIGNALING_WINDOW_MS,
            (np.tile(np.arange(schemes), windows), labels),
            values.ravel(),
        ])


def write_run_artifacts(result: SimulationResult, out_dir: str | Path) -> dict[str, Path]:
    """Write the signal trace, per-HO summary, per-second and cumulative
    signaling CSVs, plus the canonical config echo."""
    out = output_dir(out_dir)
    paths = {"config": out / "config.txt", "signals": out / "signals.csv"}
    write_config_echo(result.config, paths["config"])
    # all but the measurement dump go through the column writer
    with open(paths["signals"], "w", newline="") as fh:
        result.trace.write_csv(fh)
    paths["ho_summary"] = out / "ho_summary.csv"
    header = ["ue_id", "s_cell", "t_cell", "t_trigger_ms", "t_complete_ms", "key_signals",
              "prep_wait_ms"]
    with open(paths["ho_summary"], "w", newline="") as fh:
        _write_columns(fh, header, result.events.summary_columns())

    # per scheme, the key exchanges in and before each window starting in
    # [0, horizon]; a run with no tick writes the headers alone
    horizon = result.config.horizon_ms
    counts, curves = _signaling_counts(
        result.events, result.config.scheme, horizon if horizon > 0 else -1
    )
    paths["per_second"] = out / "per_second_signaling.csv"
    _write_windows(paths["per_second"], ["window_start_ms", "scheme", "key_exchanges"], counts)
    paths["cumulative"] = out / "cumulative_key_exchanges.csv"
    _write_windows(paths["cumulative"], ["t_ms", "scheme", "cumulative_key_exchanges"], curves)

    if result.config.scenario.dump_measurements:
        paths["measurements"] = out / "measurements.csv"
        rs = result.config.scenario.rs_period_ms
        write_table(
            paths["measurements"],
            ["t_ms", "ue_id", "cell", "rsrp_dbm"],
            ([k * rs, ue, cell, _fmt(v)] for k, powers in enumerate(result.measurements)
             for ue, row in enumerate(powers) for cell, v in enumerate(row.tolist())),
        )
    return paths
