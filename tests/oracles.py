"""Independent reference implementations used as test oracles.

Everything here is deliberately written from first principles (bitwise
polynomial arithmetic, plain Python loops) and shares no code with the
package, so a table bug and an oracle bug cannot cancel out.
"""

from __future__ import annotations

import csv
import io

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


def per_second_signaling(records, window_start_ms: int, window_len_ms: int = 1000) -> int:
    """Key-exchange signals inside [window_start, window_start + window_len)."""
    end = window_start_ms + window_len_ms
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


def cumulative_key_exchanges_oracle(records, horizon_ms: int, step_ms: int = 1000):
    """Running key-exchange count every ``step_ms`` up to the horizon, one
    scan over the sorted times."""
    times = sorted(r.t for r in records if r.counts_as_key_exchange)
    series = []
    idx = 0
    for t in range(0, horizon_ms + 1, step_ms):
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
