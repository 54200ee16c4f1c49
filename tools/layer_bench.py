"""Time the field, coding and tag layers one call at a time and print JSON.

    PYTHONPATH=src python3 tools/layer_bench.py [--m 32] [--n 1024] [--l 8]
        [--rows 86311] [--handovers 12320] [--repeat 7] [--number 0] [--seed 1]

Each case is one library call on fixed inputs.  It runs ``--number`` times
per run (0 picks a count that takes at least 0.2 s, as ``timeit`` does),
and the best of ``--repeat`` runs is printed as microseconds per call:

- ``gf.vec_mul.k*`` and ``gf.dot.k*``: an elementwise product and a
  ``FieldVector.dot`` of two n-element vectors, at k = 4, 8 and 16;
- ``rlnc.encode``, ``rlnc.recode`` and ``rlnc.decode``: one source packet
  of a generation of m natives, one recode of a window of ``WINDOW``
  tagged packets, and the decode of m + 3 packets, at GF(256);
- ``integrity.attach_tags``, ``verify_tags``, ``tagset_for_generation`` and
  ``ledger_check``: under a ring of l keys, with the ledger check against
  the generation's tag set and no keys, as a relay calls it;
- ``relay.hop``: the recode, key check and ledger check of one relay hop;
- ``ledger.write_csv``: ``SignalTrace.write_csv`` of a synthetic trace of
  ``--rows`` signals into memory (the default is the row count of the
  scaled 8x8-cell, 200-UE, 300 s run at seed 1);
- ``simulation.signaling_counts``: the per-window key-exchange counts and
  running counts of all three schemes that ``write_run_artifacts``
  writes, from a synthetic ledger run's table of ``--handovers``
  handovers (the default is the scaled run's count at seed 1);
- ``keydist.safe_key.table`` and ``keydist.safe_key.partition``: a
  double-random ``colluder_sweep`` over c = 1..7 colluders at l = 8 and
  ``SWEEP_TRIALS`` trials, at the ``security`` workload's L = 16, s = 8,
  whose hands are ranks into the subset table, and at L = 24, s = 12,
  whose hands are drawn by partition;
- ``attack.bypass_grid``: the ``security`` workload's ``bypass_rate_grid``
  at q = 16, n = 32, m = 4, l = 8 and ``GRID_TRIALS`` trials;
- ``simulation.write_dump``: the measurement dump of a reference run
  (16 cells, 20 UEs) of ``DUMP_MS`` into memory.

The numbers time this host and are no gate; compare runs on one host only.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ncsecsim import attack, gf, handover, integrity, keydist, ledger, rlnc, simulation  # noqa: E402
from ncsecsim.config import RunConfig, ScenarioConfig  # noqa: E402
from ncsecsim.keydist import Scheme, SchemeConfig  # noqa: E402

WINDOW = 4  # packets a relay recodes, as in perfbench's relay workload
WIDTHS = (4, 8, 16)
ROWS = 86_311  # signals.csv rows of the scaled run at seed 1
HANDOVERS = 12_320  # handovers of the scaled run at seed 1
SWEEP_TRIALS, GRID_TRIALS = 50_000, 3_000  # the security workload's trials
DUMP_MS = 60_000


def signal_trace(rows: int, rng: np.random.Generator) -> ledger.SignalTrace:
    """A trace shaped like a run's: ``rows`` signals in time order over
    300 s, of any kind, between the ledger's, 64 cells' and 200 UEs' names."""
    names = ["ledger", "all_bsh", "core", *(f"bsh{c}" for c in range(64)),
             *(f"ue{u}" for u in range(200))]
    t = np.sort(rng.integers(0, 300_000, rows))
    kinds = rng.integers(0, len(ledger.SignalKind), rows)
    src, dst = rng.integers(0, len(names), (2, rows))
    return ledger.SignalTrace.from_columns(t, kinds, src, dst, names)


def ho_table(handovers: int, rng: np.random.Generator) -> handover.HoTable:
    """A ledger run's table shaped like the scaled run's: up to
    ``handovers`` triggers at RS instants over 300 s, of 200 UEs between
    64 cells, started and completed as the event loop does; a UE waiting
    for its keys fires no more until its wait ends."""
    ues, cells, rs, horizon = 200, 64, 160, 300_000
    hos = handover.HoTable(Scheme.BLOCKCHAIN, cells, 1000, rs)
    ticks = horizon // rs + 1
    for tick, fired in enumerate(np.bincount(rng.integers(0, ticks, handovers), minlength=ticks)):
        free = np.setdiff1d(np.arange(ues), list(hos.waiting))
        fire = np.sort(rng.choice(free, min(fired, len(free)), replace=False))
        s_cells = rng.integers(0, cells, len(fire))
        t_cells = (s_cells + rng.integers(1, cells, len(fire))) % cells
        hos.start(fire.tolist(), s_cells.tolist(), t_cells.tolist(), tick * rs)
        hos.finish_waiting(tick * rs)
    hos._columns_to_arrays()
    return hos


def dumped_run(horizon_ms: int, seed: int) -> simulation.SimulationResult:
    """A reference run of ``horizon_ms`` with the measurement dump."""
    config = RunConfig(seed=seed, horizon_ms=horizon_ms,
                       scenario=ScenarioConfig(dump_measurements=True))
    return simulation.run_simulation(config)


def cases(m: int, n: int, l: int, seed: int, rows: int = ROWS,
          handovers: int = HANDOVERS, sweep_trials: int = SWEEP_TRIALS,
          grid_trials: int = GRID_TRIALS, dump_ms: int = DUMP_MS) -> dict:
    """The name and the zero-argument call of every case."""
    rng = np.random.default_rng(seed)
    out = {}
    for k in WIDTHS:
        spec = gf.field(k)
        a, b = gf.FieldVector.random(n, spec, rng), gf.FieldVector.random(n, spec, rng)
        out[f"gf.vec_mul.k{k}"] = lambda spec=spec, a=a.elems, b=b.elems: spec.vec_mul(a, b)
        out[f"gf.dot.k{k}"] = lambda a=a, b=b: a.dot(b)
    spec = gf.GF256
    keys = integrity.generate_domain_keys(n, l, spec, rng, "bench")
    gen = rlnc.random_generation("g", m, n, spec, rng)
    tagset = integrity.tagset_for_generation(gen, keys, "source")
    packets = [integrity.attach_tags(rlnc.encode(gen, rng), keys) for _ in range(m + 3)]
    window, pkt = packets[:WINDOW], packets[0]

    def hop():
        coded = rlnc.recode(window, rng)
        return all(integrity.verify_tags(coded, keys)) and integrity.ledger_check(coded, tagset)

    out.update({
        "rlnc.encode": lambda: rlnc.encode(gen, rng),
        "rlnc.recode": lambda: rlnc.recode(window, rng),
        "rlnc.decode": lambda: rlnc.decode(packets),
        "integrity.attach_tags": lambda: integrity.attach_tags(pkt, keys),
        "integrity.verify_tags": lambda: integrity.verify_tags(pkt, keys),
        "integrity.tagset_for_generation": lambda: integrity.tagset_for_generation(
            gen, keys, "source"),
        "integrity.ledger_check": lambda: integrity.ledger_check(pkt, tagset),
        "relay.hop": hop,
        "ledger.write_csv": lambda trace=signal_trace(rows, rng): trace.write_csv(
            io.StringIO(newline="")),
        "simulation.signaling_counts": lambda events=ho_table(handovers, rng): (
            simulation._signaling_counts(events, Scheme.BLOCKCHAIN, 300_000)),
    })
    for sampler, L, s in (("table", 16, 8), ("partition", 24, 12)):
        base = SchemeConfig(Scheme.DOUBLE_RANDOM, l=8, L=L, s=s)
        out[f"keydist.safe_key.{sampler}"] = lambda base=base: keydist.colluder_sweep(
            base, range(1, 8), rng, sweep_trials)
    out["attack.bypass_grid"] = lambda: attack.bypass_rate_grid(
        16, grid_trials, rng, n=32, m=4, l=8)
    dump = dumped_run(dump_ms, seed)
    out["simulation.write_dump"] = lambda: simulation._write_dump(
        io.StringIO(newline=""), dump.measurements, dump.config.scenario.rs_period_ms)
    return out


def best_us(call, repeat: int, number: int) -> float:
    """Best of ``repeat`` runs of ``number`` calls, in microseconds per call."""
    call()  # builds a ring's product tables outside the timed runs
    timer = timeit.Timer(call)
    if number <= 0:
        number = timer.autorange()[0]
    return min(timer.repeat(repeat, number)) / number * 1e6


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--m", type=int, default=32)
    parser.add_argument("--n", type=int, default=1024)
    parser.add_argument("--l", type=int, default=8)
    parser.add_argument("--rows", type=int, default=ROWS)
    parser.add_argument("--handovers", type=int, default=HANDOVERS)
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--number", type=int, default=0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if min(args.m, args.n, args.l, args.rows, args.handovers, args.repeat) < 1:
        parser.error("--m, --n, --l, --rows, --handovers and --repeat must be at least 1")
    timed = {
        name: round(best_us(call, args.repeat, args.number), 2)
        for name, call in cases(
            args.m, args.n, args.l, args.seed, args.rows, args.handovers
        ).items()
    }
    keys = ("m", "n", "l", "rows", "handovers", "repeat", "number", "seed")
    settings = {key: getattr(args, key) for key in keys}
    print(json.dumps({"settings": settings, "us_per_call": timed}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
