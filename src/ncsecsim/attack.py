"""Adversary harness: pollution injection and empirical bypass rates.

Strategies model the attacks that matter for a tag-protected stream:

* ``RANDOM_FORGE``       - payload perturbed, tags guessed at random;
* ``VALID_TAG_FORGE``    - payload perturbed, tags recomputed correctly
  with every key the colluders jointly hold (random elsewhere);
* ``TAG_ONLY_POLLUTION`` - payload untouched, one tag flipped, aimed at
  making a benign receiver discard a genuine packet.

Payload perturbation flips one uniformly chosen symbol to a uniformly
chosen different value: the minimal modification, hence the hardest to
detect and the most conservative thing to measure.  A forgery is held as
that flip, the symbol and the nonzero value XORed into it (zero for tag
pollution), and the tags it carries.  Tags are linear in the payload, so
under a key ring whose heads are H (``tag_product.b``, n x keys) the
flipped payload's tags are the base payload's XOR the value times row s
of H: the valid-tag forge and a benign hop's key checks read one row of
H per forgery and never form its n-symbol payload.  ``inject`` forms the
one payload it returns.

Rate measurements default to q=16: the evasion law q**(-l') is
field-size-parametric, and 1/256**l' is unmeasurable at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._stats import wilson_interval
from .errors import InvalidParameter
from .gf import FieldSpec, field_of_order
from .integrity import (
    KeyRing,
    attach_tags,
    generate_domain_keys,
    key_ring_bytes,
    tag_matrix,
)
from .keydist import Scheme, SchemeConfig, _holdings, _unpack
from .rlnc import CodedPacket, encode, random_generation


class AttackStrategy(Enum):
    RANDOM_FORGE = "random_forge"
    VALID_TAG_FORGE = "valid_tag_forge"
    TAG_ONLY_POLLUTION = "tag_only_pollution"


class AdversaryKnowledge(Enum):
    RANDOM_ASSIGNMENT = "random_assignment"
    ALL_KEYS = "all_keys"


@dataclass(frozen=True)
class AdversaryConfig:
    count: int = 1
    knowledge: AdversaryKnowledge = AdversaryKnowledge.RANDOM_ASSIGNMENT
    strategy: AttackStrategy = AttackStrategy.RANDOM_FORGE

    def __post_init__(self):
        if self.count < 1:
            raise InvalidParameter("adversary count must be >= 1")


@dataclass(frozen=True)
class InjectionResult:
    packet: CodedPacket
    strategy_used: AttackStrategy


def inject(
    pkt: CodedPacket,
    adversary: AdversaryConfig,
    held_keys: KeyRing | None = None,
    rng: np.random.Generator | None = None,
) -> InjectionResult:
    """Produce the polluted packet this adversary would emit.

    ``held_keys`` is the colluders' joint key knowledge, a sub-ring of the
    source's keys whose slots index the packet's tags.  A valid-tag forge
    without any keys degenerates to a random forge, and the result says so.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if held_keys is not None:
        held_keys.check_field(pkt.spec)
    symbols, deltas, tags, strategy = _forge(pkt, adversary.strategy, held_keys, 1, rng)
    row = np.concatenate([pkt.row[: pkt.m + pkt.n], tags[0]])
    row[pkt.m + symbols[0]] ^= deltas[0]
    return InjectionResult(pkt.with_row(row), strategy)


def _forge(
    pkt: CodedPacket,
    strategy: AttackStrategy,
    held_keys: KeyRing | None,
    trials: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, AttackStrategy]:
    """Independent forgeries of ``pkt``: the payload symbol each flips
    (trials,), the value XORed into it (trials,; zero leaves the payload
    as it is) and the tags each carries (trials, l), plus the strategy
    actually used.  The coding coefficients are never touched."""
    spec = pkt.spec
    if strategy is AttackStrategy.TAG_ONLY_POLLUTION:
        if len(pkt.tags) == 0:
            raise InvalidParameter("tag pollution needs a tagged packet")
        tags = np.tile(pkt.tags.elems, (trials, 1))
        slots = rng.integers(0, len(pkt.tags), size=trials)
        tags[np.arange(trials), slots] ^= _nonzero_elements(spec, rng, trials)
        return np.zeros(trials, dtype=np.intp), np.zeros(trials, dtype=spec.dtype), tags, strategy

    if strategy is AttackStrategy.VALID_TAG_FORGE and not held_keys:
        strategy = AttackStrategy.RANDOM_FORGE
    symbols = rng.integers(0, len(pkt.payload), size=trials)
    deltas = _nonzero_elements(spec, rng, trials)
    tags = spec.random_elements(rng, (trials, len(pkt.tags)))
    if strategy is AttackStrategy.VALID_TAG_FORGE:
        held_keys.check_slots(len(pkt.tags))
        # one product for the base payload's tags: the tags a packet
        # carries need not be those its payload has under these keys
        base_tags = tag_matrix(pkt.payload.elems, held_keys)
        tags[:, held_keys.slots] = _flipped_tags(held_keys, base_tags, symbols, deltas)
    return symbols, deltas, tags, strategy


def _flipped_tags(
    keys: KeyRing, base_tags: np.ndarray, symbols: np.ndarray, deltas: np.ndarray
) -> np.ndarray:
    """Tags (trials, len(keys)) of the payloads that differ from a base
    payload, whose tags under ``keys`` are ``base_tags``, by ``deltas[t]``
    XORed into symbol ``symbols[t]``: tags are linear in the payload, so
    each is the base tags XOR the delta times the symbol's row of heads."""
    heads = np.take(keys.tag_product.b, symbols, axis=0)
    return base_tags ^ keys.spec.vec_mul(heads, deltas[:, None])


def _nonzero_elements(spec: FieldSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    return (1 + rng.integers(0, spec.q - 1, size=size)).astype(spec.dtype)


@dataclass(frozen=True)
class BypassRateResult:
    scheme: str
    strategy: str
    q: int
    l_prime: int
    trials: int
    passes: int
    rate: float
    ci_low: float
    ci_high: float


def _colluder_positions(
    config: SchemeConfig, adversary: AdversaryConfig, rng: np.random.Generator
) -> list[int]:
    """Tag positions whose keys the colluders jointly hold."""
    if adversary.knowledge is AdversaryKnowledge.ALL_KEYS:
        return list(range(config.l))
    words = _holdings(config, adversary.count, 1, rng)
    tags = next(words)[0].copy()
    union = np.zeros_like(tags)
    for held in words:
        union |= held[0]
    # slot i carries the tag of the i-th tag key
    return np.flatnonzero(_unpack(union)[_unpack(tags)]).tolist()


# Trials per batch are this many elements over (payload symbols x keys).
# It bounds no array now that a forgery is its one-symbol flip; it fixes
# the order of the forge's draws, so changing it changes every rate.
_BATCH_ELEMENTS = 1 << 19


def grid_bytes(q: int, n: int, m: int, l: int) -> int:
    """Bytes ``bypass_rate_grid`` holds at once, at most: a generation of
    m natives of n symbols (drawn, cast and checked, 6 bytes a symbol),
    three rings of at most l keys with their products
    (``key_ring_bytes``), and one batch of forgeries, 32 bytes per tag."""
    batch = max(1, _BATCH_ELEMENTS // (n * l))
    return 6 * m * n + 3 * key_ring_bytes(n, l, field_of_order(q)) + 32 * batch * (l + 1)


def measure_bypass_rate(
    config: SchemeConfig,
    adversary: AdversaryConfig,
    trials: int,
    rng: np.random.Generator,
    l_prime: int | None = None,
) -> BypassRateResult:
    """Fraction of injected packets a benign next hop accepts.

    The benign hop verifies ``l_prime`` tags for the baseline schemes
    (defaults: one for the cover-free scheme, one for double random) and
    all tags plus the ledger comparison for the blockchain scheme.  A hop
    with l_prime=0 cannot verify anything and accepts everything.
    """
    if trials < 1000:
        raise InvalidParameter("rate measurement needs at least 10^3 trials")
    if l_prime is None:
        l_prime = config.l if config.scheme is Scheme.BLOCKCHAIN else 1
    if not 0 <= l_prime <= config.l:
        raise InvalidParameter(f"l_prime={l_prime} outside 0..{config.l}, the tags a packet carries")

    spec = field_of_order(config.q)
    gen = random_generation("harness", config.m, config.n, spec, rng)
    source_keys = generate_domain_keys(config.n, config.l, spec, rng, "harness")
    base = attach_tags(encode(gen, rng), source_keys)

    benign_positions = sorted(
        int(p) for p in rng.choice(config.l, size=l_prime, replace=False)
    ) if l_prime else []
    benign_keys = source_keys[benign_positions]
    colluder_keys = source_keys[_colluder_positions(config, adversary, rng)]

    # the base was tagged with the source keys, so the tags it carries
    # are its payload's tags under the benign keys, and, tags being linear,
    # those the ledger's tag set gives its coefficients
    benign_tags = base.tags.elems[benign_keys.slots]
    expected = base.tags.elems if config.scheme is Scheme.BLOCKCHAIN else None

    batch = max(1, _BATCH_ELEMENTS // (config.n * config.l))
    passes = 0
    for start in range(0, trials, batch):
        symbols, deltas, tags, _ = _forge(
            base, adversary.strategy, colluder_keys, min(batch, trials - start), rng
        )
        passes += int(_accepts(symbols, deltas, tags, benign_keys, benign_tags, expected).sum())

    low, high = wilson_interval(passes, trials)
    return BypassRateResult(
        scheme=config.scheme.label,
        strategy=adversary.strategy.value,
        q=config.q,
        l_prime=l_prime,
        trials=trials,
        passes=passes,
        rate=passes / trials,
        ci_low=low,
        ci_high=high,
    )


def _accepts(
    symbols: np.ndarray,
    deltas: np.ndarray,
    tags: np.ndarray,
    keys: KeyRing,
    base_tags: np.ndarray,
    expected_tags: np.ndarray | None,
) -> np.ndarray:
    """Per-forgery verdicts of a benign hop on ``_forge``'s forgeries of
    a base packet whose payload has ``base_tags`` under ``keys``: every
    key the hop holds verifies the tag in its slot and, on a ledgered
    hop, the carried tags equal the ledger's."""
    ok = _all_rows(_flipped_tags(keys, base_tags, symbols, deltas) == tags[:, keys.slots])
    if expected_tags is not None:
        ok &= _all_rows(tags == expected_tags)
    return ok


def _all_rows(mask: np.ndarray) -> np.ndarray:
    """``mask.all(axis=1)`` of a (trials, columns) mask, reduced over a
    column-major copy: NumPy reduces a short last axis one row at a time,
    which at 8 columns took several times as long as the copy."""
    return np.ascontiguousarray(mask.T).all(axis=0)


def bypass_rate_grid(
    q: int,
    trials: int,
    rng: np.random.Generator,
    n: int = 32,
    m: int = 4,
    l: int = 8,
) -> list[BypassRateResult]:
    """The standard sweep emitted by the command-line ``attack`` runner.

    The hmac (cover-free) rows sweep l' = 0, 1, 2 verified tags to trace
    the q^-l' law of the random forge.  Under the cover-free model a
    benign node holds one tag key, so the l'=2 row goes beyond that model.
    """
    rows: list[BypassRateResult] = []
    ledger_cfg = SchemeConfig(Scheme.BLOCKCHAIN, l=l, q=q, m=m, n=n)
    baseline_cfg = SchemeConfig(Scheme.C_COVER_FREE, l=l, L=2 * l, q=q, m=m, n=n)
    for strategy in AttackStrategy:
        rows.append(
            measure_bypass_rate(
                ledger_cfg,
                AdversaryConfig(count=1, knowledge=AdversaryKnowledge.ALL_KEYS, strategy=strategy),
                trials,
                rng,
            )
        )
    for lp in (0, 1, 2):
        rows.append(
            measure_bypass_rate(
                baseline_cfg,
                AdversaryConfig(count=1, strategy=AttackStrategy.RANDOM_FORGE),
                trials,
                rng,
                l_prime=lp,
            )
        )
    return rows
