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

A hand of keys is held as packed words: (trials, W) little-endian uint64
words, W = ceil(U / 64) for a universe of U keys, where key j is bit
j % 64 of word j // 64.  At U <= 64 a hand is one word per trial, so the
estimate folds 8 bytes per trial with in-place word operations.

A double-random hand (the source's l tag keys, a node's s keys) is a
uniform size-subset of the L keys, drawn in row blocks by one of two
samplers.  Where comb(L, size) * L <= ``_TABLE_BYTES`` = 1 MiB (every
size at L <= 18), a row is one uniform rank into a cached table of every
size-subset's words (``_subset_table``); otherwise it marks the ``size``
smallest of L uniforms, packed into words (53-bit floats: two in a row
coincide with probability about L**2 / 2**54).  Both give the same law,
not the same draws.  The rank costs one integer per hand where the
partition costs L floats, so the table serves every hand that fits it,
and the partition every hand past it.  The word table is smaller than
the bool table the rule was written for, so it would fit at larger L
too; the rule is kept so that every L keeps its sampler, and so its draws.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
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
# key holdings
# ----------------------------------------------------------------------

def sample_holdings(
    config: SchemeConfig, nodes: int, trials: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Sample which keys the source tags with and which keys each node holds.

    Returns boolean masks over the key universe: ``tags`` (trials, U)
    marks the source's tag keys and ``held`` (nodes, trials, U) each
    node's keys.  Blockchain: the universe is the l domain keys and every
    node holds all of them (nothing is drawn).  Double random: the
    universe is the L keys, the tag keys are a uniform l-subset (the
    source tags with l keys of its uniform s-key hand) and every node
    holds a uniform s-subset, each drawn by one of the module's two
    samplers.  C-cover-free: by symmetry the tag keys are
    0..l-1 of the L, and every node holds one of them.  Draws run in node
    order: the tag keys, node 0, then the others.

    This is the stacked form, for small counts, unpacked from the words
    that ``safe_key_probability`` folds as they are drawn without holding
    a (nodes, trials, W) array.
    """
    words = _holdings(config, nodes, trials, rng)
    keys = config.l if config.scheme is Scheme.BLOCKCHAIN else config.L
    tags = _unpack(next(words), keys)
    held = np.empty((nodes,) + tags.shape, dtype=bool)
    for out, hand in zip(held, words):
        out[...] = _unpack(hand, keys)
    return tags, held


# Elements per row block of a node's draws: bounds the double-random
# sampler's scratch to two (block, L) float arrays or one rank per row, and
# the cover-free picks' int64 draws to one block.  A node's blocks are
# consecutive in the stream, so the block size changes no draw.
_BLOCK_ELEMENTS = 1 << 16

# The largest comb(L, size) * L, the bytes of the subset table as bool
# rows, at which a double-random hand is a rank into it (comb(18, 9) * 18
# is 0.83 MiB).  The word table is at most as large (L >= 8) or tiny.
_TABLE_BYTES = 1 << 20

# A hand is (trials, W) of these: key j is bit j % 64 of word j // 64, and
# the little-endian byte order lets the words be packed and unpacked as
# bytes.
_WORD = np.dtype("<u8")


def _block_rows(L: int, trials: int) -> int:
    return min(trials, max(1, _BLOCK_ELEMENTS // L))


def _words(keys: int) -> int:
    return -(-keys // 64)


def _low_bits(keys: int, width: int) -> np.ndarray:
    """The ``width`` words of the hand that holds keys 0..keys-1."""
    bits = np.zeros(width * 64, dtype=bool)
    bits[:keys] = True
    return np.packbits(bits, bitorder="little").view(_WORD)


def _unpack(words: np.ndarray, keys: int | None = None) -> np.ndarray:
    """The (..., keys) bool masks of (..., W) words; every 64W keys by
    default."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=keys, bitorder="little").view(bool)


def _holdings(
    config: SchemeConfig, nodes: int, trials: int, rng: np.random.Generator,
    out: np.ndarray | None = None, picks: np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """Yield the (trials, W) words of ``sample_holdings``' masks one at a
    time, in draw order: the tag keys, node 0, then the other nodes.  Every
    yield is the same buffer, ``out`` if given, which the next one
    overwrites in full, so a consumer may change the words in place, and
    one that keeps them copies them.

    A double-random hand of ``size`` keys is drawn in row blocks, a row
    being one rank ``rng.integers(0, comb(L, size))`` gathered from
    ``_subset_table(L, size)`` or, where there is none, a partition of L
    uniforms; the tag keys and the hands may take different samplers.
    Cover-free picks are drawn as int64 in row blocks and kept in the
    narrowest unsigned dtype that holds l - 1, in the first ``nodes`` rows
    of ``picks`` if given; a node's words are the one bit of its pick."""
    if nodes < 1 or trials < 1:
        raise InvalidParameter("need at least one node and one trial")
    l = config.l
    if config.scheme is Scheme.BLOCKCHAIN:
        words = np.empty((trials, _words(l)), dtype=_WORD) if out is None else out
        for _ in range(nodes + 1):
            words[...] = _low_bits(l, words.shape[1])
            yield words
        return
    if config.scheme is Scheme.DOUBLE_RANDOM and l > config.s:
        raise InvalidParameter("source cannot tag with more keys than it holds")
    L = config.L
    words = np.empty((trials, _words(L)), dtype=_WORD) if out is None else out
    if config.scheme is Scheme.DOUBLE_RANDOM:
        rows = _block_rows(L, trials)
        tables = {size: _subset_table(L, size) for size in (l, config.s)}
        if any(table is None for table in tables.values()):
            # One set of draw buffers serves every partition-drawn hand:
            # fresh per-node temporaries page-fault or not depending on
            # what malloc last freed.
            draws = np.empty((rows, L))
            order = np.empty_like(draws)
            # a row of marks per bit of the row's words; the keys past L
            # stay unmarked
            marks = np.zeros((rows, 64 * words.shape[1]), dtype=bool)
        for size in [l] + [config.s] * nodes:
            table = tables[size]
            for start in range(0, trials, rows):
                block = words[start : start + rows]
                n = len(block)
                if table is None:
                    rng.random(out=draws[:n])
                    order[:n] = draws[:n]
                    order[:n].partition(size - 1, axis=1)
                    np.less_equal(draws[:n], order[:n, size - 1 : size], out=marks[:n, :L])
                    packed = np.packbits(marks[:n], bitorder="little")
                    block[...] = packed.view(_WORD).reshape(block.shape)
                else:
                    # the ranks are in range; mode="raise" would copy
                    # through a buffer
                    ranks = rng.integers(0, len(table), size=n)
                    np.take(table, ranks, axis=0, out=block, mode="clip")
            yield words
        return
    # C_COVER_FREE
    words[...] = _low_bits(l, words.shape[1])
    yield words
    # node 0's picks, then the colluders' (trials, nodes - 1) picks row by
    # row: the order of one call each, cut into row blocks
    if picks is None:
        picks = np.empty((nodes, trials), dtype=np.min_scalar_type(l - 1))
    picks = picks[:nodes]
    for group in (picks[:1], picks[1:]):
        step = _block_rows(max(len(group), 1), trials)
        for start in range(0, trials, step):
            block = group[:, start : start + step]
            block[...] = rng.integers(0, l, size=block.shape[::-1]).T
    one = np.ones(1, dtype=_WORD)
    # one word: a shift per trial; the row scatter below gives the same
    # words at about half the speed
    if words.shape[1] == 1:
        for pick in picks:
            np.left_shift(one, pick, out=words[:, 0])
            yield words
        return
    rows = np.arange(trials)
    for pick in picks:
        words.fill(0)
        words[rows, pick >> 6] = np.left_shift(one, pick & 63)
        yield words


def _subset_table(L: int, size: int) -> np.ndarray | None:
    """The read-only (comb(L, size), W) table of the words of every
    size-subset of range(L), in ``itertools.combinations`` order, or None
    where comb(L, size) * L > ``_TABLE_BYTES``.  Built on first use and
    cached."""
    # comb(L, i) grows with i up to L / 2: stop at the first that overflows,
    # so a large universe never computes a huge binomial
    count = 1
    for i in range(min(size, L - size)):
        count = count * (L - i) // (i + 1)
        if count * L > _TABLE_BYTES:
            return None
    return _cached_subset_table(L, size) if L <= _TABLE_BYTES else None


@functools.lru_cache(maxsize=4)
def _cached_subset_table(L: int, size: int) -> np.ndarray:
    # extend each prefix, in order, by every key after its last that
    # leaves room for the rest: lexicographic order, no dead prefix
    table = np.zeros((1, _words(L)), dtype=_WORD)
    last = np.full(1, -1)
    for position in range(size):
        counts = L - size + position - last
        ends = np.cumsum(counts)
        table = np.repeat(table, counts, axis=0)
        last = np.arange(ends[-1]) + np.repeat(last + 1 - ends + counts, counts)
        bits = np.left_shift(np.ones(1, dtype=_WORD), (last & 63).astype(_WORD))
        table[np.arange(len(table)), last >> 6] |= bits
    table.flags.writeable = False
    return table


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
    return _monte_carlo(config, c, rng, _fold_buffers(config, trials, c))


def _fold_buffers(config: SchemeConfig, trials: int, c_max: int) -> tuple:
    """The buffers of ``_monte_carlo`` for up to ``c_max`` colluders, as
    views of one block: the two (trials, W) word arrays, the drawn hands'
    and the fold's, and the cover-free picks' (c_max + 1, trials) array
    (None for double random).  One block, since each array alone is
    smaller than the draws' int64 blocks: glibc would trim and regrow its
    heap, and so page-fault, on every sweep, where freeing one block of
    all three raises its trim threshold above a sweep's peak."""
    words_bytes = 16 * trials * _words(config.L)
    pick = np.min_scalar_type(config.l - 1)
    nodes = max(c_max, 0) + 1 if config.scheme is Scheme.C_COVER_FREE else 0
    block = np.empty(words_bytes + nodes * trials * pick.itemsize, dtype=np.uint8)
    words, live = block[:words_bytes].view(_WORD).reshape(2, trials, _words(config.L))
    return words, live, block[words_bytes:].view(pick).reshape(nodes, trials) if nodes else None


def _monte_carlo(
    config: SchemeConfig, c: int, rng: np.random.Generator,
    buffers: tuple,
) -> SafeKeyEstimate:
    """A baseline's safe-key estimate over ``len(buffers[0])`` trials,
    folded in ``_fold_buffers``' words."""
    words, live, picks = buffers
    trials = len(words)
    # node 0 is the benign hop, the others the colluders; each hand is
    # folded as it is drawn, and the tag keys' words are copied because the
    # next draw overwrites them
    hands = _holdings(config, c + 1, trials, rng, out=words, picks=picks)
    live[...] = next(hands)
    live &= next(hands)
    for colluder in hands:
        live &= np.invert(colluder, out=colluder)  # live and not colluder
    # a trial is safe when any of its words is nonzero
    for word in live.T[1:]:
        live[:, 0] |= word
    safe = int(np.count_nonzero(live[:, 0]))
    low, high = wilson_interval(safe, trials)
    return SafeKeyEstimate(safe / trials, low, high, trials, exact=False)


def safe_key_bytes(L: int, trials: int, c: int) -> int:
    """Bytes a baseline ``safe_key_probability`` holds at once, at most:
    two (trials, W) word arrays (the drawn one, which each colluder is
    inverted in, and the fold), plus the larger of the two samplers' own.
    Double random: two float64 row blocks, a bool row block of a mark per
    bit of the words and its packed words, a row block of int64 ranks and
    two subset tables (the tag keys' and the hands'), each at most
    ``_TABLE_BYTES``.  Cover-free: c + 1 picks per trial in the narrowest
    dtype that holds L - 1 and one row block of int64 draws; above 64 keys
    also an int64 row index, a word per trial and two narrow temporaries
    of the picks."""
    rows = _block_rows(L, trials)
    double_random = 16 * rows * L + 72 * rows * _words(L) + 8 * rows + 2 * _TABLE_BYTES
    width = max(c, 1)
    cover_free = (c + 1) * trials * np.min_scalar_type(L - 1).itemsize
    cover_free += 8 * _block_rows(width, trials) * width
    if L > 64:
        cover_free += 32 * trials
    return 16 * _words(L) * trials + max(double_random, cover_free)


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
    # every estimate of the sweep folds in one pair of word arrays and
    # draws its picks into one array sized for the largest c: arrays made
    # afresh per estimate page-fault or not depending on what malloc last
    # freed
    monte_carlo = base.scheme is not Scheme.BLOCKCHAIN and trials >= 1
    buffers = _fold_buffers(base, trials, max(c_values, default=0)) if monte_carlo else None
    rows = []
    for c in c_values:
        if base.scheme is Scheme.BLOCKCHAIN:
            l_c = base.l
        else:
            l_c = required_tags(c, base.epsilon, base.d)
        bw = bandwidth(base, l=l_c)
        config = replace(base, c=c)
        if monte_carlo:
            est = _monte_carlo(config, c, rng, buffers)
        else:
            est = safe_key_probability(config, rng=rng, trials=trials)
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
