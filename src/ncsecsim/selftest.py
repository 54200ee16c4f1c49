"""Built-in invariant suite for the ``selftest`` subcommand.

A fast sanity pass over every subsystem, printing one line per check.
The pytest suite is the thorough verifier; this exists so a deployed
installation can vouch for itself without a test checkout.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np

from .config import RunConfig
from .gf import GF256
from .handover import HoTable
from .integrity import attach_tags, generate_domain_keys, verify_tags
from .keydist import (
    Scheme,
    bandwidth_blockchain,
    bandwidth_hmac,
    bandwidth_macsig,
    required_tags,
    security_level,
)
from .ledger import SIGNALING_WINDOW_MS, SignalKind
from .rlnc import decode, encode, random_generation, recode
from .simulation import run_simulation


def _check_field() -> None:
    assert GF256.mul(0x53, 0xCA) == 0x01
    assert GF256.inv(0x02) == 0x8D
    for a in range(1, 256):
        assert GF256.mul(a, GF256.inv(a)) == 1
    rng = np.random.default_rng(0)
    for _ in range(2000):
        a, b, c = (int(x) for x in rng.integers(0, 256, 3))
        assert GF256.mul(a, b ^ c) == GF256.mul(a, b) ^ GF256.mul(a, c)


def _check_coding_roundtrip() -> None:
    rng = np.random.default_rng(1)
    gen = random_generation("st", 8, 32, GF256, rng)
    packets = [encode(gen, rng) for _ in range(12)]
    result = decode(packets)
    assert result.complete and np.array_equal(result.natives, gen.natives)


def _check_mac_homomorphism() -> None:
    rng = np.random.default_rng(2)
    gen = random_generation("st", 4, 16, GF256, rng)
    keys = generate_domain_keys(16, 4, GF256, rng, "st")
    packets = [attach_tags(encode(gen, rng), keys) for _ in range(4)]
    mixed = recode(packets, rng)
    for _ in range(4):
        mixed = recode([mixed] + packets, rng)
    assert all(verify_tags(mixed, keys))


def _check_ledger_batching() -> None:
    # two first visits in one collection period share one block
    hos = HoTable(Scheme.BLOCKCHAIN, 4, 1000, 160)
    assert not hos.start([0, 1], [0, 0], [1, 2], 160).any()
    assert hos.finish_waiting(1120) == [(0, 1), (1, 2)]  # the RS instant that sees 1000
    assert hos.start([2], [3], [1], 2000)[0]
    baseline = HoTable(Scheme.DOUBLE_RANDOM, 4, 1000, 160)
    assert baseline.start([3], [1], [3], 2000)[0]
    assert [h.key_signal_count for h in (*hos, *baseline)] == [3, 3, 1, 2]
    assert hos.uploads == [1, 2] and baseline.uploads == []
    broadcasts = [r for r in hos.trace() if r.kind == SignalKind.BLOCK_BROADCAST]
    assert [r.t for r in broadcasts] == [1000]


def _check_analytics() -> None:
    assert required_tags(7, 0.01, 0.5) == 201
    assert bandwidth_hmac(8, 32, 1024) == Fraction(9, 1056)
    assert bandwidth_macsig(8, 32, 1024, 256) == Fraction(10, 1056)
    assert bandwidth_blockchain(8, 32, 1024) == Fraction(8, 1056)
    assert security_level(1, 256) == Fraction(1, 256)


def _check_run_audit() -> None:
    config = dataclasses.replace(RunConfig(seed=0), horizon_ms=10_000)
    result = run_simulation(config)
    for proc in result.completed:
        assert proc.key_signal_count in (1, 3)
        assert proc.prep_wait_ms < 1000
    for start in range(0, config.horizon_ms + 1, SIGNALING_WINDOW_MS):
        end = start + SIGNALING_WINDOW_MS
        counted = sum(1 for r in result.trace if r.counts_as_key_exchange and start <= r.t < end)
        n_bsh = sum(1 for (t, _, _) in result.upload_log if start <= t < end)
        n_ue = sum(
            1 for p in result.completed
            if p.t_complete is not None and start <= p.t_complete < end
        )
        verified = sum(1 for b in result.blocks if start <= b.verified_at < end)
        assert counted == n_bsh + n_ue + verified


def _check_determinism() -> None:
    config = dataclasses.replace(RunConfig(seed=0), horizon_ms=5_000)
    a = run_simulation(config)
    b = run_simulation(config)
    sig = lambda res: [(r.t, r.kind.value, r.src, r.dst) for r in res.trace]
    assert sig(a) == sig(b)


_CHECKS = [
    ("field arithmetic", _check_field),
    ("rlnc round trip", _check_coding_roundtrip),
    ("mac homomorphism under recoding", _check_mac_homomorphism),
    ("ledger batching and handover costs", _check_ledger_batching),
    ("closed-form analytics", _check_analytics),
    ("per-second signaling audit", _check_run_audit),
    ("run determinism", _check_determinism),
]


def run_selftest() -> int:
    failures = 0
    for name, check in _CHECKS:
        try:
            check()
        except Exception as exc:  # report and continue
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    if failures:
        print(f"selftest: {failures}/{len(_CHECKS)} checks failed")
        return 2
    print(f"selftest: all {len(_CHECKS)} checks passed")
    return 0
