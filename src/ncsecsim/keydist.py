"""Key-distribution schemes and their security/bandwidth analytics.

Three schemes compete:

* ``BLOCKCHAIN``  - every node in a security domain holds the full key
  set, tags are additionally pinned by the ledger.  Bandwidth overhead is
  l/(m+n) and does not depend on how many adversaries collude.
* ``DOUBLE_RANDOM`` (the MacSig construction) - every node is
  pre-provisioned with s random keys out of a universe of L; the source
  creates tags with l keys chosen from its own hand.
* ``C_COVER_FREE`` (the HMAC construction) - the source holds the key
  set; every other node holds exactly one of the l tag keys, so each hop
  verifies a single tag.

The closed forms:

    required tags      L = ceil( e * (c+1) * ln(1/eps) / (1-d) )
    MacSig overhead    (l+1)/(m+n) + 32*l/(q*(m+n))
    HMAC overhead      (l+1)/(m+n)
    ledger overhead    l/(m+n)
    check-evasion      q**(-l') for l' verified tags

Bandwidth and probability formulas are evaluated with exact rational
arithmetic (fractions.Fraction) so golden values compare exactly.

The "safe keys" probability for the two baseline schemes has no closed
form here; it is estimated by Monte Carlo under an explicit event model:
a draw is UNSAFE when the union of the colluders' key holdings covers
every source key held by a uniformly sampled benign next hop (the
colluders can then forge a packet that passes every check that node can
apply; a node holding no source key counts as covered, since it cannot
verify anything).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

import numpy as np

from ._stats import wilson_interval
from .errors import InvalidParameter


class Scheme(Enum):
    BLOCKCHAIN = "blockchain"
    DOUBLE_RANDOM = "double_random"
    C_COVER_FREE = "c_cover_free"

    @property
    def label(self) -> str:
        """Name used in CSV output and on the CLI."""
        return _SCHEME_LABELS[self]


_SCHEME_LABELS = {
    Scheme.BLOCKCHAIN: "blockchain",
    Scheme.DOUBLE_RANDOM: "macsig",
    Scheme.C_COVER_FREE: "hmac",
}

SCHEME_BY_LABEL = {v: k for k, v in _SCHEME_LABELS.items()}


@dataclass(frozen=True)
class SchemeConfig:
    """Parameters of one key-distribution scheme instance.

    l: tags per packet; L: keys at the source (baselines); s: keys per
    non-source node (double random); c: colluding adversaries; epsilon and
    d: failure probability and security margin of the tag-count rule;
    q/m/n: field order, generation size, payload symbols.
    """

    scheme: Scheme
    l: int = 8
    L: int = 16
    s: int = 8
    c: int = 1
    epsilon: float = 0.01
    d: float = 0.5
    q: int = 256
    m: int = 32
    n: int = 1024

    def __post_init__(self):
        if self.l < 1:
            raise InvalidParameter("l must be >= 1")
        if self.scheme is not Scheme.BLOCKCHAIN and self.l > self.L:
            raise InvalidParameter(f"l={self.l} exceeds key universe L={self.L}")
        if self.scheme is Scheme.DOUBLE_RANDOM and self.s > self.L:
            raise InvalidParameter(f"s={self.s} exceeds key universe L={self.L}")
        if not 0 < self.epsilon < 1:
            raise InvalidParameter(f"epsilon={self.epsilon} outside (0, 1)")
        if not 0 <= self.d < 1:
            raise InvalidParameter(f"d={self.d} outside [0, 1)")
        if self.c < 0:
            raise InvalidParameter("c must be >= 0")
        if self.q < 2 or self.m < 1 or self.n < 1:
            raise InvalidParameter("q, m, n must be positive (q >= 2)")


# ----------------------------------------------------------------------
# closed-form analytics
# ----------------------------------------------------------------------

def required_tags(c: int, epsilon: float, d: float) -> int:
    """Tags a baseline scheme needs against c colluders (ceiling)."""
    if c < 0:
        raise InvalidParameter("c must be >= 0")
    if not 0 < epsilon < 1:
        raise InvalidParameter(f"epsilon={epsilon} outside (0, 1)")
    if not 0 <= d < 1:
        raise InvalidParameter(f"d={d} outside [0, 1)")
    value = math.e * (c + 1) * math.log(1.0 / epsilon) / (1.0 - d)
    return math.ceil(value)


def bandwidth_macsig(l: int, m: int, n: int, q: int) -> Fraction:
    """Per-packet overhead of the MacSig construction (tags + signature)."""
    if m + n <= 0 or q <= 0:
        raise InvalidParameter("m+n and q must be positive")
    return Fraction(l + 1, m + n) + Fraction(32 * l, q * (m + n))


def bandwidth_hmac(l: int, m: int, n: int) -> Fraction:
    """Per-packet overhead of the HMAC construction."""
    if m + n <= 0:
        raise InvalidParameter("m+n must be positive")
    return Fraction(l + 1, m + n)


def bandwidth_blockchain(l: int, m: int, n: int) -> Fraction:
    """Per-packet overhead of the ledger scheme; independent of colluders
    because every node verifies all tags."""
    if m + n <= 0:
        raise InvalidParameter("m+n must be positive")
    return Fraction(l, m + n)


def bandwidth(config: SchemeConfig, l: int | None = None) -> Fraction:
    l = config.l if l is None else l
    if config.scheme is Scheme.BLOCKCHAIN:
        return bandwidth_blockchain(l, config.m, config.n)
    if config.scheme is Scheme.DOUBLE_RANDOM:
        return bandwidth_macsig(l, config.m, config.n, config.q)
    return bandwidth_hmac(l, config.m, config.n)


def security_level(l_verified: int, q: int) -> Fraction:
    """Probability that a forged packet evades l_verified tag checks."""
    if l_verified < 0:
        raise InvalidParameter("l_verified must be >= 0")
    return Fraction(1, q ** l_verified)


# ----------------------------------------------------------------------
# key assignment
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class KeyAssignment:
    """Which key ids each node holds, plus the source's tag keys."""

    holdings: dict[int, frozenset[int]]
    source_keys: tuple[int, ...]
    source_id: int = 0

    def verifiable_tags(self, node_id: int) -> int:
        """Number of tag slots this node can check (its l')."""
        return len(self.holdings[node_id] & set(self.source_keys))


def assign_keys(
    config: SchemeConfig, node_count: int, rng: np.random.Generator
) -> KeyAssignment:
    """Sample one assignment under the configured scheme's model.

    Node 0 is the source.  Blockchain: everyone holds the whole domain
    set.  Double random: every node draws s of the L universe keys without
    replacement and the source tags with l keys from its own hand.
    C-cover-free: the source holds all L, tags with l of them, and every
    other node holds exactly one of those l.
    """
    if node_count < 2:
        raise InvalidParameter("need at least a source and one receiver")
    if config.scheme is Scheme.BLOCKCHAIN:
        full = frozenset(range(config.l))
        holdings = {node: full for node in range(node_count)}
        return KeyAssignment(holdings, tuple(range(config.l)))

    if config.scheme is Scheme.DOUBLE_RANDOM:
        if config.l > config.s:
            raise InvalidParameter("source cannot tag with more keys than it holds")
        holdings = {
            node: frozenset(
                int(k) for k in rng.choice(config.L, size=config.s, replace=False)
            )
            for node in range(node_count)
        }
        source_hand = sorted(holdings[0])
        picks = rng.choice(len(source_hand), size=config.l, replace=False)
        source_keys = tuple(source_hand[int(i)] for i in sorted(picks))
        return KeyAssignment(holdings, source_keys)

    # C_COVER_FREE
    source_keys = tuple(
        int(k) for k in sorted(rng.choice(config.L, size=config.l, replace=False))
    )
    holdings = {0: frozenset(range(config.L))}
    for node in range(1, node_count):
        holdings[node] = frozenset({source_keys[int(rng.integers(0, config.l))]})
    return KeyAssignment(holdings, source_keys)


# ----------------------------------------------------------------------
# safe-key probability
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SafeKeyEstimate:
    value: float
    ci_low: float
    ci_high: float
    trials: int
    exact: bool
    exact_value: Fraction | None = None


def safe_key_probability(
    config: SchemeConfig,
    c: int | None = None,
    rng: np.random.Generator | None = None,
    trials: int = 100_000,
) -> SafeKeyEstimate:
    """Probability that c colluders cannot forge past a random benign hop.

    Blockchain: exact, 1 - q**(-l), untouched by collusion because forging
    means guessing all l ledger-pinned tags.  Baselines: Monte Carlo under
    the coverage event documented in the module docstring.
    """
    c = config.c if c is None else c
    if c < 0:
        raise InvalidParameter("c must be >= 0")
    if config.scheme is Scheme.BLOCKCHAIN:
        exact = 1 - security_level(config.l, config.q)
        return SafeKeyEstimate(
            value=float(exact),
            ci_low=float(exact),
            ci_high=float(exact),
            trials=0,
            exact=True,
            exact_value=exact,
        )
    if rng is None:
        rng = np.random.default_rng(0)
    if trials < 1:
        raise InvalidParameter("trials must be >= 1")
    if config.scheme is Scheme.DOUBLE_RANDOM:
        safe = _safe_trials_double_random(config, c, rng, trials)
    else:
        safe = _safe_trials_cover_free(config, c, rng, trials)
    low, high = wilson_interval(safe, trials)
    return SafeKeyEstimate(safe / trials, low, high, trials, exact=False)


def _random_subsets(
    rng: np.random.Generator, trials: int, universe: int, size: int
) -> np.ndarray:
    """Boolean (trials, universe) masks of uniform size-subsets."""
    order = rng.random((trials, universe)).argsort(axis=1)
    mask = np.zeros((trials, universe), dtype=bool)
    rows = np.arange(trials)[:, None]
    mask[rows, order[:, :size]] = True
    return mask


def _safe_trials_double_random(
    config: SchemeConfig, c: int, rng: np.random.Generator, trials: int
) -> int:
    L, s, l = config.L, config.s, config.l
    if l > s:
        raise InvalidParameter("source cannot tag with more keys than it holds")
    source_order = rng.random((trials, L)).argsort(axis=1)
    source_keys = np.zeros((trials, L), dtype=bool)
    rows = np.arange(trials)[:, None]
    # first s columns are the source's hand; first l of those are tag keys
    source_keys[rows, source_order[:, :l]] = True
    benign = _random_subsets(rng, trials, L, s)
    if c == 0:
        colluders = np.zeros((trials, L), dtype=bool)
    else:
        colluders = _random_subsets(rng, trials, L, s)
        for _ in range(c - 1):
            colluders |= _random_subsets(rng, trials, L, s)
    checkable = benign & source_keys
    uncovered = checkable & ~colluders
    return int(uncovered.any(axis=1).sum())


def _safe_trials_cover_free(
    config: SchemeConfig, c: int, rng: np.random.Generator, trials: int
) -> int:
    l = config.l
    # Key labels are symmetric, so fix the source's tag keys as 0..l-1.
    benign = rng.integers(0, l, size=trials)
    if c == 0:
        return trials if l > 0 else 0
    colluders = rng.integers(0, l, size=(trials, c))
    covered = (colluders == benign[:, None]).any(axis=1)
    return int((~covered).sum())


# ----------------------------------------------------------------------
# sweep rows for the colluder analysis CSVs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ColluderSweepRow:
    scheme: str
    c: int
    l: int
    bandwidth: Fraction
    safe_key_prob: float
    ci_low: float
    ci_high: float


def colluder_sweep(
    base: SchemeConfig,
    c_values: range | list[int],
    rng: np.random.Generator | None = None,
    trials: int = 100_000,
) -> list[ColluderSweepRow]:
    """Bandwidth and safe-key curves versus colluder count.

    Bandwidth uses the tag count each scheme needs at that colluder level:
    the ledger scheme keeps its fixed l, the baselines grow theirs via the
    required-tags rule.  Safe-key probabilities keep l fixed for every
    scheme (tag overhead held constant, the complementary comparison).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    rows = []
    for c in c_values:
        if base.scheme is Scheme.BLOCKCHAIN:
            l_c = base.l
        else:
            l_c = required_tags(c, base.epsilon, base.d)
        bw = bandwidth(base, l=l_c)
        est = safe_key_probability(replace(base, c=c), rng=rng, trials=trials)
        rows.append(
            ColluderSweepRow(
                scheme=base.scheme.label,
                c=c,
                l=l_c,
                bandwidth=bw,
                safe_key_prob=est.value,
                ci_low=est.ci_low,
                ci_high=est.ci_high,
            )
        )
    return rows
