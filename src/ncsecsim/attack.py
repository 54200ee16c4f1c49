"""Adversary harness: pollution injection and empirical bypass rates.

Strategies model the attacks that matter for a tag-protected stream:

* ``RANDOM_FORGE``       - payload perturbed, tags guessed at random;
* ``VALID_TAG_FORGE``    - payload perturbed, tags recomputed correctly
  with every key the colluders jointly hold (random elsewhere);
* ``TAG_ONLY_POLLUTION`` - payload untouched, one tag flipped, aimed at
  making a benign receiver discard a genuine packet.

Payload perturbation flips one uniformly chosen symbol to a uniformly
chosen different value: the minimal modification, hence the hardest to
detect and the most conservative thing to measure.

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
    combine_tags,
    generate_domain_keys,
    key_verdicts,
    tag_matrix,
    tagset_for_generation,
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
    payloads, tags, strategy = _forge(pkt, adversary.strategy, held_keys, 1, rng)
    forged = pkt.with_row(np.concatenate([pkt.row[: pkt.m], payloads[0], tags[0]]))
    return InjectionResult(forged, strategy)


def _forge(
    pkt: CodedPacket,
    strategy: AttackStrategy,
    held_keys: KeyRing | None,
    trials: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, AttackStrategy]:
    """Payloads (trials, n) and tags (trials, l) of independent forgeries
    of ``pkt``, plus the strategy actually used.  The coding coefficients
    are never touched."""
    spec = pkt.spec
    rows = np.arange(trials)
    payloads = np.tile(pkt.payload.elems, (trials, 1))
    if strategy is AttackStrategy.TAG_ONLY_POLLUTION:
        if len(pkt.tags) == 0:
            raise InvalidParameter("tag pollution needs a tagged packet")
        tags = np.tile(pkt.tags.elems, (trials, 1))
        slots = rng.integers(0, len(pkt.tags), size=trials)
        tags[rows, slots] ^= _nonzero_elements(spec, rng, trials)
        return payloads, tags, strategy

    if strategy is AttackStrategy.VALID_TAG_FORGE and not held_keys:
        strategy = AttackStrategy.RANDOM_FORGE
    symbols = rng.integers(0, len(pkt.payload), size=trials)
    payloads[rows, symbols] ^= _nonzero_elements(spec, rng, trials)
    tags = spec.random_elements(rng, (trials, len(pkt.tags)))
    if strategy is AttackStrategy.VALID_TAG_FORGE:
        held_keys.check_slots(len(pkt.tags))
        tags[:, held_keys.slots] = tag_matrix(payloads, held_keys)
    return payloads, tags, strategy


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


# Elements per batch of (trials x payload symbols x keys): bounds the
# forge's temporaries.  The batch also fixes the order of the forge's
# draws, so changing it changes every rate; the checks' field products
# bound their own working set (``gf.PRODUCT_BLOCK``).
_BATCH_ELEMENTS = 1 << 19


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
    expected = (
        combine_tags(tagset_for_generation(gen, source_keys, "src").native_tags, base.coeffs).elems
        if config.scheme is Scheme.BLOCKCHAIN else None
    )

    benign_positions = sorted(
        int(p) for p in rng.choice(config.l, size=l_prime, replace=False)
    ) if l_prime else []
    benign_keys = source_keys[benign_positions]
    colluder_keys = source_keys[_colluder_positions(config, adversary, rng)]

    batch = max(1, _BATCH_ELEMENTS // (config.n * config.l))
    passes = 0
    for start in range(0, trials, batch):
        payloads, tags, _ = _forge(
            base, adversary.strategy, colluder_keys, min(batch, trials - start), rng
        )
        passes += int(_accepts(payloads, tags, benign_keys, expected).sum())

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
    payloads: np.ndarray,
    tags: np.ndarray,
    keys: KeyRing,
    expected_tags: np.ndarray | None,
) -> np.ndarray:
    """Per-packet verdicts of a benign hop: every key it holds verifies
    and, on a ledgered hop, the carried tags equal the ledger's."""
    ok = key_verdicts(payloads, tags, keys).all(axis=-1)
    if expected_tags is not None:
        ok &= (tags == expected_tags).all(axis=-1)
    return ok


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
