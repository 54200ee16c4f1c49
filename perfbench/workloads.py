"""The benchmark's four workloads.  Each run of this file is one workload in
one single-threaded process; ``run.py`` starts it and reads the JSON object
it prints last.

    python3 perfbench/workloads.py --workload relay --seed 1 --seconds 15 --probes
    python3 perfbench/workloads.py --workload city --seed 1 --setup-only
    python3 perfbench/workloads.py --workload city --seed 1 --ops 1 --trace
    python3 perfbench/workloads.py --workload predict --record 0 30

``--record FIRST LAST`` runs seeds FIRST..LAST-1 of ``city`` or ``predict``
and stores the SHA-256 of every artifact in ``reference_digests.json``.
Every later run of a recorded seed must reproduce those bytes.

Timings are in reference seconds.  They start as CPU seconds of this
single-threaded process (user and system), which leave out the time the
hypervisor of a shared host gives to other tenants.  The speed of each CPU
for the same work still drifts by up to a half, in spells of seconds to a
minute.  So before every operation ``Host`` times a fixed calibration
kernel on every CPU the process may use and moves the process to the
fastest, and it times the kernel again every ``Host.PERIOD_S`` during the
operation and once after it.  An operation's CPU seconds, less the time
spent in those samples, are scaled by ``CAL_REF_S`` times the mean of
1/(kernel time) over its samples: the time the operation would take on a
host where the kernel takes 1 ms.  The raw CPU seconds are reported beside
them.

Every operation is checked; a check that fails, or an operation that
raises, counts as a failed operation.  Statistical laws are checked at
``LAW_SIGMAS`` binomial standard deviations: the benchmark runs on arbitrary
seeds, and at 3 sigma about one check in 370 would fail by chance.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from collections import Counter, deque
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR.parent / ".bench_out"
DIGEST_FILE = BENCH_DIR / "reference_digests.json"

LAW_SIGMAS = 5.0

CAL_REF_S = 0.001


def calibrate() -> float:
    """CPU seconds of a fixed bytecode loop, best of three.

    It uses nothing from ncsecsim, so no change to the program moves it.
    """
    best = math.inf
    for _ in range(3):
        start = time.process_time()
        acc = 0
        for k in range(15_000):
            acc += k * k
        best = min(best, time.process_time() - start)
    return best


class Host:
    """Samples the host's speed and keeps the process on its fastest CPU.

    ``sample`` times the kernel on the current CPU, or with ``move`` on each
    CPU, pinning the process to the fastest.  While sampling is on, a
    SIGALRM handler, which the interpreter runs in the main thread between
    bytecodes, samples every PERIOD_S without moving, so an operation keeps
    its caches.  ``clock`` is the process's CPU time less the time spent
    sampling, so sampling does not count in any measured time.
    """

    PERIOD_S = 0.25

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.samples: list[float] = []
        self.sampling_s = 0.0

    def clock(self) -> float:
        return time.process_time() - self.sampling_s

    def sample(self, move: bool = False) -> None:
        start = time.process_time()
        if move:
            times = {}
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                times[cpu] = calibrate()
            fastest = min(times, key=times.get)
            os.sched_setaffinity(0, {fastest})
            self.samples.append(times[fastest])
        else:
            self.samples.append(calibrate())
        self.sampling_s += time.process_time() - start

    def __enter__(self) -> "Host":
        signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale_since(self, first: int) -> float:
        """Reference seconds per host second over samples[first:]."""
        return CAL_REF_S * statistics.fmean(1.0 / t for t in self.samples[first:])


HOST = Host()


# Operations per traced run.  Fixed, so two traced runs of a seed must
# produce identical counts.
TRACE_OPS = {"city": 1, "predict": 2, "relay": 20, "security": 1}

# Data-plane and security metrics for workloads that do not produce them
# come from fixed-size relay and security runs after the main loop.
PROBE_GENERATIONS = 56
PROBE_ROUNDS = 4


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(what)


def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ----------------------------------------------------------------------
# city and predict: control plane, one `ncsecsim run` per operation
# ----------------------------------------------------------------------

class Simulate:
    """One operation is ``run_simulation`` plus ``write_run_artifacts`` for
    the next consecutive seed, which is what ``ncsecsim run`` does."""

    def __init__(self, name: str, seed: int, quick: bool):
        from ncsecsim import simulation
        from ncsecsim.config import RunConfig, ScenarioConfig
        from ncsecsim.handover import PredictionConfig

        if name == "city":
            # The scaled scenario: 8x8 cells, 200 UEs at 60 km/h, 300 s.
            base = RunConfig(
                scenario=ScenarioConfig(rows=8, cols=8, num_ues=200, ue_speed_kmh=60.0),
                horizon_ms=300_000,
            )
        else:
            # The reference scenario with prediction on, as the acceptance
            # suite's predicted fixture runs it.
            base = RunConfig(
                horizon_ms=60_000,
                prediction=PredictionConfig(enabled=True, accuracy=0.8, lead_ms=1000),
            )
        if quick:
            base = dataclasses.replace(
                base, scenario=ScenarioConfig(), horizon_ms=10_000
            )
        self.simulation = simulation
        self.base = base
        self.seed = seed
        self.out = OUT_DIR / name
        self.digests = {} if quick else json.loads(DIGEST_FILE.read_text()).get(name, {})
        self.scales: list[float] = []  # per operation, set by run_ops

    def op(self, i: int, tally: Tally) -> float:
        config = dataclasses.replace(self.base, seed=self.seed + i, output_dir=str(self.out))
        start = HOST.clock()
        result = self.simulation.run_simulation(config)
        paths = self.simulation.write_run_artifacts(result, self.out)
        elapsed = HOST.clock() - start
        problems = self.problems(config.seed, result, paths)
        tally.check(not problems, f"seed {config.seed}: " + "; ".join(problems))
        return elapsed

    def artifact_digests(self, paths) -> dict[str, str]:
        return {Path(p).name: _sha256(p) for p in paths.values()}

    def problems(self, seed: int, result, paths) -> list[str]:
        from ncsecsim.handover import KeyPath
        from ncsecsim.ledger import key_exchange_count

        problems = []
        expected = self.digests.get(str(seed))
        if expected is not None and self.artifact_digests(paths) != expected:
            problems.append("artifact bytes differ from the recorded reference")
        ledger_paths = (KeyPath.LEDGER_FIRST_HO, KeyPath.LEDGER_STEADY_STATE)
        for proc in result.completed:
            if proc.key_path in ledger_paths and proc.key_signal_count not in (1, 3):
                problems.append(f"ledger handover with {proc.key_signal_count} key signals")
                break
        for label in ("macsig", "hmac"):
            signals = key_exchange_count(result.scheme_traces[label])
            if signals != 2 * len(result.events):
                problems.append(f"{label}: {signals} key signals for {len(result.events)} handovers")
        per_second: Counter = Counter()
        with open(paths["per_second"], newline="") as fh:
            for row in csv.DictReader(fh):
                per_second[row["scheme"]] += int(row["key_exchanges"])
        final: dict[str, int] = {}
        with open(paths["cumulative"], newline="") as fh:
            for row in csv.DictReader(fh):
                final[row["scheme"]] = int(row["cumulative_key_exchanges"])
        if dict(per_second) != final:
            problems.append(f"per-second sums {dict(per_second)} != final cumulative {final}")
        return problems


# ----------------------------------------------------------------------
# relay: data plane, one generation from source encode to sink decode
# ----------------------------------------------------------------------

class Relay:
    """RLNC packets with homomorphic-MAC tags over a chain of relays, ledger
    scheme, at q=256, m=32, n=1024, l=8.

    Per generation the source ledgers its tag set, then encodes and tags
    m + EXTRA packets.  Each hop recodes a sliding window of what it
    received, and every recoded packet is verified with all l keys and
    against the ledgered tag set.  At one hop a fixed share of packets is
    replaced by valid-tag forgeries from an adversary holding every key;
    the ledger check must reject each one.  The sink decodes and compares
    with the natives.
    """

    HOPS = 4
    WINDOW = 4
    EXTRA = 8  # spare packets, so the forgeries dropped at one hop leave rank m
    FORGE_HOP = 1
    FORGE_EVERY = 8
    POOL = 4  # native payload sets, reused under fresh generation ids
    P99_BATCH = 7

    def __init__(self, seed: int, quick: bool):
        import numpy as np
        from ncsecsim import attack, gf, integrity, ledger, rlnc

        self.np, self.attack, self.integrity, self.ledger_mod, self.rlnc = (
            np, attack, integrity, ledger, rlnc,
        )
        m, n, l = (8, 64, 8) if quick else (32, 1024, 8)
        self.spec = gf.FieldSpec(8)
        self.rng = np.random.default_rng(seed)
        self.keys = integrity.generate_domain_keys(n, l, self.spec, self.rng, "relay")
        self.natives = [self.spec.random_elements(self.rng, (m, n)) for _ in range(self.POOL)]
        self.nodes = [f"relay{h}" for h in range(self.HOPS)]
        self.ledger = ledger.SimulatedLedger({"source", *self.nodes})
        self.forger = attack.AdversaryConfig(
            knowledge=attack.AdversaryKnowledge.ALL_KEYS,
            strategy=attack.AttackStrategy.VALID_TAG_FORGE,
        )
        self.generations: list[tuple[float, list[float]]] = []  # (seconds, hop latencies)
        self.scales: list[float] = []  # per generation, set by run_ops

    def op(self, i: int, tally: Tally) -> float:
        integrity, rlnc, led = self.integrity, self.rlnc, self.ledger
        gen = rlnc.Generation(f"g{i}", self.natives[i % self.POOL], self.spec)
        # One generation per collection period keeps the ledger clock
        # monotone and every submission ahead of the last verified boundary.
        now = i * led.period
        start = HOST.clock()
        tagset = integrity.tagset_for_generation(gen, self.keys, "source")
        led.submit_candidate(self.ledger_mod.CandidateEntry(
            self.ledger_mod.EntryKind.GENERATION_TAG_SET, "source", tagset, now, gen.gen_id,
        ))
        led.tick(now)
        stream = [
            integrity.attach_tags(rlnc.encode(gen, self.rng), self.keys)
            for _ in range(gen.m + self.EXTRA)
        ]
        hop_us: list[float] = []
        for hop, node in enumerate(self.nodes):
            stream = self._hop(hop, node, gen.gen_id, stream, hop_us, tally)
        decoded = rlnc.decode(stream)
        elapsed = HOST.clock() - start
        self.generations.append((elapsed, hop_us))
        tally.check(
            decoded.complete and bool(self.np.array_equal(decoded.natives, gen.natives)),
            f"generation {gen.gen_id}: sink decode (rank {decoded.rank}) did not return the natives",
        )
        return elapsed

    def _hop(self, hop: int, node: str, gen_id: str, stream: list,
             hop_us: list[float], tally: Tally) -> list:
        integrity, clock = self.integrity, HOST.clock
        window: deque = deque(maxlen=self.WINDOW)
        forwarded = []
        for j, pkt in enumerate(stream):
            window.append(pkt)
            t0 = clock()
            coded = self.rlnc.recode(list(window), self.rng)
            t1 = clock()
            forged = hop == self.FORGE_HOP and j % self.FORGE_EVERY == self.FORGE_EVERY - 1
            if forged:
                coded = self.attack.inject(coded, self.forger, self.keys, self.rng).packet
            t2 = clock()
            accepted = all(integrity.verify_tags(coded, self.keys)) and integrity.ledger_check(
                coded, self.ledger.query_tagset(node, gen_id)
            )
            t3 = clock()
            hop_us.append((t1 - t0 + t3 - t2) * 1e6)
            if forged:
                tally.check(not accepted, f"{gen_id} hop {hop}: forgery accepted")
            else:
                tally.check(accepted, f"{gen_id} hop {hop}: genuine packet rejected")
            if accepted:
                forwarded.append(coded)
        return forwarded

    def metrics(self) -> dict[str, float]:
        """``hop_p99_us`` is the median, over batches of P99_BATCH
        generations (about 1 085 hop samples, so 10 beyond the p99), of each
        batch's p99.  A burst of host noise then moves one batch's tail,
        not the figure."""
        pairs = list(zip(self.generations, self.scales))
        scaled = [[us * scale for us in samples] for (_, samples), scale in pairs]
        hop_us = [us for samples in scaled for us in samples]
        batches = [
            [us for samples in scaled[k:k + self.P99_BATCH] for us in samples]
            for k in range(0, len(scaled) - self.P99_BATCH + 1, self.P99_BATCH)
        ] or [hop_us]
        return {
            "relay_pkts_per_s": len(hop_us) / sum(s * scale for (s, _), scale in pairs),
            "hop_p50_us": statistics.median(hop_us),
            "hop_p99_us": statistics.median(
                statistics.quantiles(batch, n=100)[98] for batch in batches
            ),
        }


# ----------------------------------------------------------------------
# security: colluder sweep (analyze) and bypass-rate grid (attack)
# ----------------------------------------------------------------------

# Parameters of `ncsecsim analyze` and `ncsecsim attack` at their defaults.
ANALYZE = dict(l=8, L=16, s=8, epsilon=0.01, d=0.5, q=256, m=32, n=1024)
COLLUDERS = range(1, 8)
ATTACK = dict(q=16, n=32, m=4, l=8)


def safe_key_law(scheme: str, c: int) -> Fraction:
    """Exact probability that c colluders cannot forge past a benign hop,
    under the event model of ``ncsecsim.keydist``."""
    L, s, l, q = ANALYZE["L"], ANALYZE["s"], ANALYZE["l"], ANALYZE["q"]
    if scheme == "blockchain":
        return 1 - Fraction(1, q**l)
    if scheme == "hmac":
        # safe iff no colluder drew the benign hop's single key
        return Fraction(l - 1, l) ** c
    # macsig: the hop is unsafe when the union of c random s-subsets covers
    # X, the hop's s keys that are also source tag keys (X empty: unsafe).
    # P(X covered | |X| = x) by inclusion-exclusion over subsets of X.
    unsafe = Fraction(0)
    for x in range(min(l, s) + 1):
        p_x = Fraction(math.comb(l, x) * math.comb(L - l, s - x), math.comb(L, s))
        covered = sum(
            (-1) ** j * math.comb(x, j) * Fraction(math.comb(L - j, s), math.comb(L, s)) ** c
            for j in range(x + 1)
        )
        unsafe += p_x * covered
    return 1 - unsafe


class Security:
    """One operation is a round: ``colluder_sweep`` for all three schemes at
    c=1..7, then ``bypass_rate_grid``; trial counts are the benchmark's."""

    def __init__(self, seed: int, sweep_trials: int, grid_trials: int):
        import numpy as np
        from ncsecsim import _stats, attack, keydist

        self.np, self.attack, self.keydist, self.sigma = np, attack, keydist, _stats.binomial_sigma
        self.seed = seed
        self.sweep_trials = sweep_trials
        self.grid_trials = grid_trials
        self.bases = [
            keydist.SchemeConfig(scheme, **ANALYZE)
            for scheme in (keydist.Scheme.BLOCKCHAIN, keydist.Scheme.DOUBLE_RANDOM,
                           keydist.Scheme.C_COVER_FREE)
        ]
        self.laws = {
            (base.scheme.label, c): safe_key_law(base.scheme.label, c)
            for base in self.bases for c in COLLUDERS
        }
        self.rounds: list[tuple[float, int, float, int]] = []  # sweep s, trials, grid s, trials
        self.scales: list[float] = []  # per round, set by run_ops

    def op(self, i: int, tally: Tally) -> float:
        np = self.np
        streams = [np.random.default_rng(s) for s in np.random.SeedSequence([self.seed, i]).spawn(4)]
        start = HOST.clock()
        rows = [
            row
            for base, rng in zip(self.bases, streams)
            for row in self.keydist.colluder_sweep(base, COLLUDERS, rng=rng, trials=self.sweep_trials)
        ]
        swept = HOST.clock()
        grid = self.attack.bypass_rate_grid(
            ATTACK["q"], self.grid_trials, streams[3], n=ATTACK["n"], m=ATTACK["m"], l=ATTACK["l"]
        )
        end = HOST.clock()
        self.rounds.append((
            swept - start, sum(self.sweep_trials for r in rows if r.scheme != "blockchain"),
            end - swept, sum(r.trials for r in grid),
        ))

        for r in rows:
            law = self.laws[(r.scheme, r.c)]
            if r.scheme == "blockchain":
                ok = r.safe_key_prob == float(law)
            else:
                ok = abs(r.safe_key_prob - float(law)) <= LAW_SIGMAS * self.sigma(float(law), self.sweep_trials)
            tally.check(ok, f"{r.scheme} c={r.c}: safe-key {r.safe_key_prob} vs law {float(law):.6g}")
        for r in grid:
            law = float(Fraction(1, r.q**r.l_prime))
            ok = abs(r.rate - law) <= LAW_SIGMAS * self.sigma(law, r.trials)
            tally.check(ok, f"{r.scheme} {r.strategy} l'={r.l_prime}: bypass {r.rate} vs q^-l' {law:.6g}")
        return end - start

    def metrics(self) -> dict[str, float]:
        pairs = list(zip(self.rounds, self.scales))
        return {
            "safekey_trials_per_s": sum(r[1] for r, _ in pairs) / sum(r[0] * k for r, k in pairs),
            "bypass_trials_per_s": sum(r[3] for r, _ in pairs) / sum(r[2] * k for r, k in pairs),
        }


# (sweep trials, grid trials); the grid needs at least 1000.
SECURITY_TRIALS = {"full": (50_000, 3_000), "probe": (10_000, 2_000), "quick": (2_000, 1_000)}


def make_workload(name: str, seed: int, quick: bool):
    if name in ("city", "predict"):
        return Simulate(name, seed, quick)
    if name == "relay":
        return Relay(seed, quick)
    if name == "security":
        return Security(seed, *SECURITY_TRIALS["quick" if quick else "full"])
    raise SystemExit(f"unknown workload {name!r}")


def attempt(workload, i: int, tally: Tally) -> float | None:
    """Operation i of the workload; an exception counts as a failed operation."""
    try:
        return workload.op(i, tally)
    except Exception:
        tally.attempted += 1
        tally.fail(f"operation {i} raised: {traceback.format_exc(limit=3)}")
        return None


def run_ops(workload, tally: Tally, seconds: float | None, ops: int | None) -> list[tuple[float, float]]:
    """Closed loop: the next operation starts when the last one ends.

    Returns (CPU seconds, reference seconds per CPU second) per completed
    operation, and appends the latter to the workload's ``scales``.  With ``seconds``, stops before an operation that would
    likely end past the budget (by the median so far), after at least one
    operation; with ``ops``, after that many.
    """
    timings: list[tuple[float, float]] = []
    start = time.perf_counter()
    i = 0
    while True:
        gc.collect()  # every operation starts from a clean heap
        HOST.sample(move=True)
        first = len(HOST.samples) - 1
        elapsed = attempt(workload, i, tally)
        HOST.sample()
        if elapsed is not None:
            timings.append((elapsed, HOST.scale_since(first)))
            workload.scales.append(timings[-1][1])
        i += 1
        if ops is not None:
            if i >= ops:
                return timings
        else:
            typical = statistics.median(raw for raw, _ in timings) if timings else 0.0
            if time.perf_counter() - start + typical > seconds:
                return timings


def record_digests(name: str, first: int, last: int) -> None:
    data = json.loads(DIGEST_FILE.read_text()) if DIGEST_FILE.exists() else {}
    workload = Simulate(name, 0, quick=False)
    workload.digests = {}
    section = data.setdefault(name, {})
    for seed in range(first, last):
        config = dataclasses.replace(workload.base, seed=seed, output_dir=str(workload.out))
        result = workload.simulation.run_simulation(config)
        paths = workload.simulation.write_run_artifacts(result, workload.out)
        problems = workload.problems(seed, result, paths)
        if problems:
            raise SystemExit(f"seed {seed} fails its invariants, not recorded: {problems}")
        section[str(seed)] = workload.artifact_digests(paths)
        print(f"{name} seed {seed} recorded", file=sys.stderr)
    data[name] = dict(sorted(section.items(), key=lambda kv: int(kv[0])))
    DIGEST_FILE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("city", "predict", "relay", "security"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--ops", type=int, help="run exactly this many operations instead")
    ap.add_argument("--trace", action="store_true", help="record per-layer spans")
    ap.add_argument("--probes", action="store_true",
                    help="also measure the data-plane and security metrics this workload lacks")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--quick", action="store_true", help="small sizes, for the self-test")
    ap.add_argument("--record", type=int, nargs=2, metavar=("FIRST", "LAST"))
    args = ap.parse_args(argv)

    HOST.sample(move=True)
    start = HOST.clock()
    import ncsecsim  # noqa: F401  (import time is part of set-up)

    if args.record:
        record_digests(args.workload, *args.record)
        return 0
    workload = make_workload(args.workload, args.seed, args.quick)
    setup_s = HOST.clock() - start
    HOST.sample()
    scale = HOST.scale_since(0)
    report: dict = {"setup_s": setup_s * scale}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    tally = Tally()
    probes = []
    if args.probes:
        size = "quick" if args.quick else "probe"
        if args.workload != "relay":
            probes.append((Relay(args.seed, args.quick), PROBE_GENERATIONS))
        if args.workload != "security":
            probes.append((Security(args.seed, *SECURITY_TRIALS[size]), PROBE_ROUNDS))
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(HOST.clock)
        tracer.install()
    try:
        with HOST:
            timings = run_ops(workload, tally, args.seconds, args.ops)
            for probe, count in probes:
                run_ops(probe, tally, None, count)
    finally:
        if tracer is not None:
            tracer.uninstall()

    metrics: dict[str, float] = {}
    if timings:
        metrics["run_s"] = statistics.median(t * scale for t, scale in timings)
        report["raw_run_s"] = statistics.median(t for t, _ in timings)
        report["scale"] = statistics.median(scale for _, scale in timings)
    if args.workload in ("relay", "security") and timings:
        metrics.update(workload.metrics())
    for probe, _ in probes:
        metrics.update(probe.metrics())
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report.update(
        ops=len(timings),
        attempted=tally.attempted,
        failed=tally.failed,
        errors=tally.errors,
        metrics=metrics,
    )
    if tracer is not None:
        report["per_layer"] = tracer.metrics()
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "ops": len(timings),
             "missing_sites": tracer.missing, "spans": tracer.span_table()},
            indent=1,
        ) + "\n")
        report["trace_file"] = str(trace_file.relative_to(BENCH_DIR.parent))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
