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
from typing import Sequence

import numpy as np

from ._stats import wilson_interval
from .errors import InvalidParameter
from .gf import FieldSpec, FieldVector
from .integrity import MacKey, attach_tags, generate_domain_keys, ledger_check, tag_matrix, tagset_for_generation, verify_tags
from .keydist import Scheme, SchemeConfig
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


def _perturb_payload(payload: FieldVector, rng: np.random.Generator) -> FieldVector:
    spec = payload.spec
    out = payload.copy()
    pos = int(rng.integers(0, len(payload)))
    delta = 1 + int(rng.integers(0, spec.q - 1))
    out.elems[pos] ^= delta
    return out


def inject(
    pkt: CodedPacket,
    adversary: AdversaryConfig,
    held_keys: Sequence[MacKey] = (),
    rng: np.random.Generator | None = None,
    held_positions: Sequence[int] | None = None,
) -> InjectionResult:
    """Produce the polluted packet this adversary would emit.

    ``held_keys``/``held_positions`` describe the colluders' joint key
    knowledge (positions index the packet's tag slots).  A valid-tag forge
    without any keys degenerates to a random forge, and the result says so.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    spec = pkt.spec
    strategy = adversary.strategy

    if strategy is AttackStrategy.TAG_ONLY_POLLUTION:
        if len(pkt.tags) == 0:
            raise InvalidParameter("tag pollution needs a tagged packet")
        tags = pkt.tags.copy()
        idx = int(rng.integers(0, len(tags)))
        tags.elems[idx] ^= 1 + int(rng.integers(0, spec.q - 1))
        forged = CodedPacket(pkt.gen_id, pkt.coeffs.copy(), pkt.payload.copy(), tags)
        return InjectionResult(forged, strategy)

    if strategy is AttackStrategy.VALID_TAG_FORGE and not held_keys:
        strategy = AttackStrategy.RANDOM_FORGE

    payload = _perturb_payload(pkt.payload, rng)
    tags = FieldVector(spec.random_elements(rng, len(pkt.tags)), spec, _checked=True)
    if strategy is AttackStrategy.VALID_TAG_FORGE:
        positions = range(len(held_keys)) if held_positions is None else held_positions
        tags.elems[list(positions)] = tag_matrix(payload.elems, held_keys, spec)
    forged = CodedPacket(pkt.gen_id, pkt.coeffs.copy(), payload, tags)
    return InjectionResult(forged, strategy)


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


def _field_for_order(q: int) -> FieldSpec:
    k = q.bit_length() - 1
    if 1 << k != q:
        raise InvalidParameter(f"field order {q} is not a power of two")
    return FieldSpec(k)


def _colluder_positions(
    config: SchemeConfig, adversary: AdversaryConfig, rng: np.random.Generator
) -> list[int]:
    """Tag positions whose keys the colluders jointly hold."""
    if (
        adversary.knowledge is AdversaryKnowledge.ALL_KEYS
        or config.scheme is Scheme.BLOCKCHAIN
    ):
        return list(range(config.l))
    held: set[int] = set()
    for _ in range(adversary.count):
        if config.scheme is Scheme.C_COVER_FREE:
            held.add(int(rng.integers(0, config.l)))
        else:
            overlap = int(rng.hypergeometric(config.l, config.L - config.l, config.s))
            if overlap:
                held.update(
                    int(p) for p in rng.choice(config.l, size=overlap, replace=False)
                )
    return sorted(held)


def measure_bypass_rate(
    config: SchemeConfig,
    adversary: AdversaryConfig,
    trials: int,
    rng: np.random.Generator,
    l_prime: int | None = None,
    use_ledger: bool | None = None,
) -> BypassRateResult:
    """Fraction of injected packets a benign next hop accepts.

    The benign hop verifies ``l_prime`` tags for the baseline schemes
    (defaults: one for the cover-free scheme, one for double random) and
    all tags plus the ledger comparison for the blockchain scheme.  A hop
    with l_prime=0 cannot verify anything and accepts everything.
    """
    if trials < 1000:
        raise InvalidParameter("rate measurement needs at least 10^3 trials")
    use_ledger = config.scheme is Scheme.BLOCKCHAIN if use_ledger is None else use_ledger
    if l_prime is None:
        l_prime = config.l if config.scheme is Scheme.BLOCKCHAIN else 1
    if l_prime > config.l:
        raise InvalidParameter("cannot verify more tags than the packet carries")

    spec = _field_for_order(config.q)
    gen = random_generation("harness", config.m, config.n, spec, rng)
    source_keys = generate_domain_keys(config.n, config.l, spec, rng, "harness")
    base = attach_tags(encode(gen, rng), source_keys)
    tagset = tagset_for_generation(gen, source_keys, "src") if use_ledger else None

    benign_positions = sorted(
        int(p) for p in rng.choice(config.l, size=l_prime, replace=False)
    ) if l_prime else []
    benign_keys = [source_keys[p] for p in benign_positions]
    colluder_positions = _colluder_positions(config, adversary, rng)
    colluder_keys = [source_keys[p] for p in colluder_positions]

    if (
        adversary.strategy is AttackStrategy.RANDOM_FORGE
        and not use_ledger
    ):
        passes = _random_forge_passes_vectorised(
            spec, base, benign_keys, benign_positions, trials, rng
        )
    else:
        passes = 0
        for _ in range(trials):
            forged = inject(
                base, adversary, colluder_keys, rng, held_positions=colluder_positions
            ).packet
            if use_ledger:
                ok = ledger_check(forged, tagset, benign_keys, benign_positions)
            else:
                ok = all(verify_tags(forged, benign_keys, benign_positions))
            passes += int(ok)

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


def _random_forge_passes_vectorised(
    spec: FieldSpec,
    base: CodedPacket,
    benign_keys: Sequence[MacKey],
    benign_positions: Sequence[int],
    trials: int,
    rng: np.random.Generator,
) -> int:
    """Random forge against key-only checks, batched.

    With payload p' = p + delta at one position and a fresh random tag per
    slot, the check value for key k reduces to
    mul(tag' + tag_base, k[n]) + mul(delta, k[pos]), which needs only
    table lookups per trial.
    """
    if not benign_keys:
        return trials
    n = len(base.payload)
    pos = rng.integers(0, n, size=trials)
    delta = (1 + rng.integers(0, spec.q - 1, size=trials)).astype(spec.dtype)
    all_pass = np.ones(trials, dtype=bool)
    for key, slot in zip(benign_keys, benign_positions):
        k_head = key.vec.elems[:-1]
        k_last = int(key.vec[len(key.vec) - 1])
        forged_tags = spec.random_elements(rng, trials)
        acc = spec.vec_mul(forged_tags ^ base.tags[slot], k_last)
        acc ^= spec.vec_mul(delta, k_head[pos])
        all_pass &= acc == 0
    return int(all_pass.sum())


def bypass_rate_grid(
    q: int,
    trials: int,
    rng: np.random.Generator,
    n: int = 32,
    m: int = 4,
    l: int = 8,
) -> list[BypassRateResult]:
    """The standard sweep emitted by the command-line ``attack`` runner."""
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
