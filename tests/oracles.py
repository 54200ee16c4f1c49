"""Independent reference implementations used as test oracles.

Everything here is deliberately written from first principles (bitwise
polynomial arithmetic, plain Python loops) and shares no code with the
package, so a table bug and an oracle bug cannot cancel out.  The one
exception is ``run_oracle``, which takes motion and received power from
``mobility`` (``place_ues``, ``advance``, ``CellGrid.rsrp``) and the
config echo from ``config``, and models everything after that itself.
"""

from __future__ import annotations

import bisect
import csv
import io
from collections import namedtuple

import numpy as np


def poly_mul_nored(a: int, b: int) -> int:
    """Carry-less product over GF(2)[x], no reduction."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def poly_divmod(a: int, b: int) -> tuple[int, int]:
    q = 0
    db = b.bit_length()
    while a.bit_length() >= db:
        shift = a.bit_length() - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def is_irreducible_oracle(poly: int) -> bool:
    """Trial division by every polynomial of degree 1 .. deg(poly) // 2."""
    half = (poly.bit_length() - 1) // 2
    return all(poly_divmod(poly, d)[1] for d in range(2, 1 << (half + 1)))


def mul_oracle(a: int, b: int, k: int, poly: int) -> int:
    """Shift-and-accumulate multiply, then one reduction pass."""
    acc = 0
    for i in range(k):
        if (b >> i) & 1:
            acc ^= a << i
    for bit in range(acc.bit_length() - 1, k - 1, -1):
        if (acc >> bit) & 1:
            acc ^= poly << (bit - k)
    return acc


def inv_oracle(a: int, k: int, poly: int) -> int:
    """Multiplicative inverse via the extended Euclidean algorithm."""
    if a == 0:
        raise ZeroDivisionError("no inverse of zero")
    r0, r1 = a, poly
    s0, s1 = 1, 0
    while r1:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 ^ poly_mul_nored(q, s1)
    assert r0 == 1, "modulus not coprime with a"
    return poly_divmod(s0, poly)[1]


def dot_oracle(u, v, k: int, poly: int) -> int:
    assert len(u) == len(v)
    acc = 0
    for x, y in zip(u, v):
        acc ^= mul_oracle(int(x), int(y), k, poly)
    return acc


def axpy_oracle(alpha, x, y, k: int, poly: int) -> list[int]:
    assert len(x) == len(y)
    return [mul_oracle(int(alpha), int(a), k, poly) ^ int(b) for a, b in zip(x, y)]


def matvec_oracle(coeffs, rows, k: int, poly: int) -> list[int]:
    """Naive sum_i coeffs[i] * rows[i], elementwise."""
    n = len(rows[0])
    out = [0] * n
    for c, row in zip(coeffs, rows):
        for j in range(n):
            out[j] ^= mul_oracle(int(c), int(row[j]), k, poly)
    return out


def matmul_oracle(a, b, k: int, poly: int) -> list[list[int]]:
    """Naive product of an r x m and an m x c matrix, one dot per entry.

    Takes 2-d numpy arrays so that an empty inner dimension keeps its shape.
    """
    r, m = a.shape
    c = b.shape[1]
    return [
        [dot_oracle([a[i, t] for t in range(m)], [b[t, j] for t in range(m)], k, poly)
         for j in range(c)]
        for i in range(r)
    ]


def mark_uniform_subsets_oracle(mask, size: int, rng) -> None:
    """Mark the keys of the ``size`` smallest of U uniform draws in every
    row of the (trials, U) mask, with fresh draw and partition arrays per
    call (the sampler's original form; ``sample_holdings`` must match it)."""
    draws = rng.random(mask.shape)
    np.less_equal(draws, np.partition(draws, size - 1, axis=1)[:, size - 1 : size], out=mask)


def ho_trigger_oracle(history, serving: int, ul_offset_db: float, ul_ttt_ms: int):
    """Per-UE handover trigger, one sample at a time.

    ``history`` is a time-ordered sequence of objects with ``t`` and
    ``rsrp_dbm`` (one power per cell), newest last.  A cell qualifies if
    its power exceeds the serving cell's by more than the offset at the
    newest sample and at every earlier sample no older than
    ``t_newest - ul_ttt_ms``.  Returns the strongest qualifying cell at
    the newest sample, the lowest id among equals, or None.
    """
    if not history:
        return None
    newest = history[-1]
    window_start = newest.t - ul_ttt_ms
    cells = range(len(newest.rsrp_dbm))
    qualifying = set(cells) - {serving}
    for meas in reversed(history):
        if meas.t < window_start:
            break
        threshold = meas.rsrp_dbm[serving] + ul_offset_db
        qualifying = {c for c in qualifying if meas.rsrp_dbm[c] > threshold}
    best = None
    for c in sorted(qualifying):
        if best is None or newest.rsrp_dbm[c] > newest.rsrp_dbm[best]:
            best = c
    return best


def per_second_signaling(records, window_start_ms: int) -> int:
    """Key-exchange signals inside [window_start, window_start + 1000)."""
    end = window_start_ms + 1000
    return sum(
        1 for r in records if r.counts_as_key_exchange and window_start_ms <= r.t < end
    )


def distances_oracle(grid, pos):
    """Torus distances from positions (..., 2) to every BS of ``grid``.

    Works on one interleaved (..., cells, 2) offset array and runs
    ``hypot`` on its strided x and y views.
    """
    pos = np.asarray(pos, dtype=float)
    d = np.abs(pos[..., None, :] - grid.bs_positions)
    if grid.wrap:
        d = np.minimum(d, np.array(grid.extent) - d)
    return np.hypot(d[..., 0], d[..., 1])


def key_exchange_count_oracle(records, up_to_ms=None) -> int:
    """Key-exchange signals at or before ``up_to_ms`` (all when None)."""
    return sum(
        1 for r in records
        if r.counts_as_key_exchange and (up_to_ms is None or r.t <= up_to_ms)
    )


def cumulative_key_exchanges_oracle(records, horizon_ms: int):
    """Running key-exchange count every 1000 ms up to the horizon, one scan
    over the sorted times."""
    times = sorted(r.t for r in records if r.counts_as_key_exchange)
    series = []
    idx = 0
    for t in range(0, horizon_ms + 1, 1000):
        while idx < len(times) and times[idx] <= t:
            idx += 1
        series.append((t, idx))
    return series


def signals_csv_oracle(records) -> str:
    """The text of ``signals.csv``: one ``csv.writer`` row per record."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(["t_ms", "kind", "src", "dst", "key_exchange_flag"])
    for rec in records:
        w.writerow([rec.t, rec.kind.value, rec.src, rec.dst, int(rec.counts_as_key_exchange)])
    return buf.getvalue()


_KEY_KINDS = frozenset({"candidate_upload", "block_broadcast", "key_to_ue", "key_to_sbs"})
_Kind = namedtuple("_Kind", "value")
_Signal = namedtuple("_Signal", "t kind src dst counts_as_key_exchange")


def handover_rows_oracle(ticks, uses_ledger: bool, collection_period_ms: int):
    """``signals.csv`` text and ``ho_summary`` rows of handovers driven one
    UE at a time against a dict ledger.

    ``ticks`` lists (t, prestaged cells, triggers) in time order, each
    trigger a (ue, s_cell, t_cell) and the triggers in UE id order.  At
    each t the prestaged cells' key sets are uploaded, the triggers of UEs
    not already waiting start a handover, every collection boundary up to
    t verifies the uploads submitted at or before it in one broadcast, and
    waiting handovers whose target cell is ledgered complete, in UE id
    order.  Summary rows are (ue, s_cell, t_cell, t_trigger, t_complete,
    key signals, prep wait) of the completed handovers in start order; an
    upload's broadcast counts for the handover that uploaded.
    """
    signals = []  # (t, kind, src, dst) in emission order
    pending = {}  # cell -> upload time
    ledgered = set()
    last_boundary = -1
    handovers = []  # [ue, s_cell, t_cell, t_trigger, t_complete, key signals, uploaded]
    waiting = {}  # ue -> its handover

    def emit(t, kind, src, dst):
        signals.append((t, kind, src, dst))
        return int(kind in _KEY_KINDS)

    def complete(ho, now):
        s, t, u = f"bsh{ho[1]}", f"bsh{ho[2]}", f"ue{ho[0]}"
        if ho[6]:
            ho[5] += 1  # the broadcast that carried its upload
        for kind, src, dst in (
            ("ho_ack", t, s), ("ho_command", s, u), ("ho_confirm", u, t),
            ("key_to_ue", s, u), ("path_switch", "core", t), ("ho_complete", t, s),
        ):
            ho[5] += emit(now, kind, src, dst)
        ho[4] = now

    for now, prestaged, triggers in ticks:
        for cell in prestaged:
            if cell not in pending and cell not in ledgered:
                pending[cell] = now
                emit(now, "candidate_upload", f"bsh{cell}", "ledger")
        for ue, s_cell, t_cell in triggers:
            if ue in waiting:
                continue
            ho = [ue, s_cell, t_cell, now, None, 0, False]
            handovers.append(ho)
            emit(now, "ho_request", f"bsh{s_cell}", f"bsh{t_cell}")
            if not uses_ledger:
                ho[5] += emit(now, "key_to_sbs", f"bsh{t_cell}", f"bsh{s_cell}")
                complete(ho, now)
            elif t_cell in ledgered:
                complete(ho, now)
            else:
                if t_cell not in pending:
                    pending[t_cell] = now
                    ho[5] += emit(now, "candidate_upload", f"bsh{t_cell}", "ledger")
                    ho[6] = True
                waiting[ue] = ho
        while last_boundary < now // collection_period_ms:
            last_boundary += 1
            boundary = last_boundary * collection_period_ms
            ready = [cell for cell, t in pending.items() if t <= boundary]
            if ready:
                emit(boundary, "block_broadcast", "ledger", "all_bsh")
            for cell in ready:
                del pending[cell]
                ledgered.add(cell)
        for ue in sorted(waiting):
            if waiting[ue][2] in ledgered:
                complete(waiting.pop(ue), now)

    records = [
        _Signal(t, _Kind(kind), src, dst, kind in _KEY_KINDS)
        for t, kind, src, dst in sorted(signals, key=lambda sig: sig[0])
    ]
    summary = [ho[:5] + [ho[5], ho[4] - ho[3]] for ho in handovers if ho[4] is not None]
    return signals_csv_oracle(records), [tuple(row) for row in summary]


_Sample = namedtuple("_Sample", "t rsrp_dbm")


def _csv_bytes(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue().encode()


def _ledger_replay_times(triggers, horizon_ms, rs_period_ms, collection_period_ms):
    """Key-exchange times of the ledger scheme on a trigger stream, the
    protocol driven on the reference-signal grid with no per-UE limits:
    each trigger uploads its cell's key set unless it is pending or
    ledgered, and gets its keys at the first instant at which the cell
    is ledgered."""
    times = []
    pending, ledgered, waiting = {}, set(), []
    last_boundary = -1
    for now in range(0, horizon_ms + 1, rs_period_ms):
        for _, _, cell, t in triggers:
            if t != now:
                continue
            if cell in ledgered:
                times.append(now)  # key_to_ue
                continue
            if cell not in pending:
                pending[cell] = now
                times.append(now)  # candidate_upload
            waiting.append(cell)
        while last_boundary < now // collection_period_ms:
            last_boundary += 1
            boundary = last_boundary * collection_period_ms
            ready = [cell for cell, t in pending.items() if t <= boundary]
            if ready:
                times.append(boundary)  # block_broadcast
            for cell in ready:
                del pending[cell]
                ledgered.add(cell)
        times.extend(now for cell in waiting if cell in ledgered)
        waiting = [cell for cell in waiting if cell not in ledgered]
    return times


def run_oracle(config) -> dict[str, bytes]:
    """The bytes of every artifact of a run, by file name, from a loop
    over ticks and, inside each tick, over UEs one at a time.

    Each tick on the reference-signal grid, up to and including the
    horizon (no tick at all for a zero horizon): move every UE, measure
    every cell's power (plus one shadowing draw per UE and cell), then
    with prediction on (ledger scheme only) forecast each UE that is not
    waiting: its earliest trigger within the lead, each lead instant a
    single sample against its current serving cell, and, unless the
    target cell is pending or ledgered or that (UE, cell, instant) was
    decided before, one accuracy draw that may upload the cell's key set.
    Then every UE not waiting whose time-to-trigger window fires starts a
    handover, in UE id order; the collection boundaries up to the tick
    verify what was submitted at or before them; and the waiting UEs
    whose target cell is ledgered complete, in UE id order.
    ``handover_rows_oracle`` renders the per-tick batches as
    ``signals.csv`` and the summary rows.  The other kind of scheme gets
    its key-exchange times from the trigger stream: two per trigger for
    the baselines, ``_ledger_replay_times`` for the ledger.
    """
    from ncsecsim.config import config_items
    from ncsecsim.errors import HoPreparationTimeout
    from ncsecsim.mobility import CellGrid, advance, place_ues

    sc, horizon = config.scenario, config.horizon_ms
    rs, period = sc.rs_period_ms, config.ledger.collection_period_ms
    grid = CellGrid(
        rows=sc.rows, cols=sc.cols, isd_m=sc.isd_m, wrap=sc.wrap,
        ptx_dbm=sc.ptx_dbm, pl0_db=sc.pl0_db, pl_exponent=sc.pl_exponent,
    )
    rng_place, _, rng_predict, rng_fading = (
        np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(4)
    )
    ues = place_ues(grid, sc.num_ues, sc.ue_speed_mps, rng_place)
    pos, serving, count = ues.pos, ues.serving.tolist(), sc.num_ues
    uses_ledger = config.scheme.label == "blockchain"
    predict = config.prediction.enabled and uses_ledger
    lead_ms = np.arange(1, max(1, -(-config.prediction.lead_ms // rs)) + 1) * rs

    history = [[] for _ in range(count)]  # per UE, the samples inside the window
    pending, ledgered, waiting, decided = {}, set(), {}, set()
    last_boundary = -1
    ticks, triggers, measurements = [], [], []
    for now in range(0, horizon + 1, rs) if horizon > 0 else ():
        if now > 0:
            pos = advance(pos, ues.dirs, ues.speed, rs, grid)
        rsrp = grid.rsrp(pos)
        if sc.shadow_sigma_db > 0 and count:
            rsrp = rsrp + rng_fading.normal(0.0, sc.shadow_sigma_db, rsrp.shape)
        for ue, row in enumerate(rsrp.tolist()):
            history[ue] = [s for s in history[ue] if s.t >= now - sc.ul_ttt_ms]
            history[ue].append(_Sample(now, row))
            if sc.dump_measurements:
                measurements.extend((now, ue, c, f"{v:.12g}") for c, v in enumerate(row))

        prestaged = []
        if predict:
            future = grid.rsrp(
                advance(pos[:, None], ues.dirs[:, None], ues.speed[:, None], lead_ms, grid)
            ).tolist()
            for ue in range(count):
                if ue in waiting:
                    continue
                for lead, row in zip(lead_ms.tolist(), future[ue]):
                    target = ho_trigger_oracle([_Sample(0, row)], serving[ue], sc.ul_offset_db, 0)
                    if target is not None:
                        break
                if target is None or target in pending or target in ledgered:
                    continue
                if (ue, target, now + lead) in decided:
                    continue
                decided.add((ue, target, now + lead))
                if float(rng_predict.random()) < config.prediction.accuracy:
                    pending[target] = now
                    prestaged.append(target)

        started = []
        for ue in range(count):
            if ue in waiting:
                continue
            target = ho_trigger_oracle(history[ue], serving[ue], sc.ul_offset_db, sc.ul_ttt_ms)
            if target is None:
                continue
            started.append((ue, serving[ue], target))
            triggers.append((ue, serving[ue], target, now))
            if not uses_ledger or target in ledgered:
                serving[ue] = target
            else:
                pending.setdefault(target, now)
                waiting[ue] = (target, now)

        while last_boundary < now // period:
            last_boundary += 1
            boundary = last_boundary * period
            for cell in [c for c, t in pending.items() if t <= boundary]:
                del pending[cell]
                ledgered.add(cell)

        for ue in sorted(waiting):
            target, t_trigger = waiting[ue]
            if target in ledgered:
                serving[ue] = target
                del waiting[ue]
            elif now - t_trigger > config.ledger.ho_timeout_ms:
                raise HoPreparationTimeout(f"ue{ue}: no keys for cell {target}")
        ticks.append((now, prestaged, started))

    signals, summary = handover_rows_oracle(ticks, uses_ledger, period)
    own = [
        int(t) for t, _, _, _, flag in csv.reader(io.StringIO(signals, newline=""))
        if flag == "1"
    ]
    if uses_ledger:
        replayed = [t for *_, t in triggers for _ in range(2)]
    else:
        replayed = _ledger_replay_times(triggers, horizon, rs, period)
    times = {
        label: sorted(own if (label == "blockchain") == uses_ledger else replayed)
        for label in ("blockchain", "macsig", "hmac")
    }
    grid_ms = range(0, horizon + 1, 1000) if horizon > 0 else ()
    per_second = [
        (start, label, bisect.bisect_left(ts, start + 1000) - bisect.bisect_left(ts, start))
        for start in grid_ms for label, ts in times.items()
    ]
    cumulative = [
        (t, label, bisect.bisect_right(ts, t)) for t in grid_ms for label, ts in times.items()
    ]

    artifacts = {
        "config.txt": "".join(f"{k}={v}\n" for k, v in config_items(config)).encode(),
        "signals.csv": signals.encode(),
        "ho_summary.csv": _csv_bytes(
            ["ue_id", "s_cell", "t_cell", "t_trigger_ms", "t_complete_ms",
             "key_signals", "prep_wait_ms"], summary,
        ),
        "per_second_signaling.csv": _csv_bytes(
            ["window_start_ms", "scheme", "key_exchanges"], per_second
        ),
        "cumulative_key_exchanges.csv": _csv_bytes(
            ["t_ms", "scheme", "cumulative_key_exchanges"], cumulative
        ),
    }
    if sc.dump_measurements:
        artifacts["measurements.csv"] = _csv_bytes(
            ["t_ms", "ue_id", "cell", "rsrp_dbm"], measurements
        )
    return artifacts
