import itertools
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncsecsim import keydist
from ncsecsim.errors import InvalidParameter
from ncsecsim.keydist import (
    SCHEME_BY_LABEL,
    Scheme,
    SchemeConfig,
    bandwidth_blockchain,
    bandwidth_hmac,
    bandwidth_macsig,
    colluder_sweep,
    required_tags,
    safe_key_probability,
    sample_holdings,
    security_level,
)

from ncsecsim._stats import binomial_sigma
from oracles import (
    double_random_safe_oracle,
    mark_ranked_subsets_oracle,
    mark_uniform_subsets_oracle,
)


def test_required_tags_frozen_values():
    # direct evaluations of the tag-count rule
    assert required_tags(0, 1 / math.e, 0.0) == 3
    assert required_tags(7, 0.01, 0.5) == 201


def test_required_tags_monotone_in_colluders():
    values = [required_tags(c, 0.01, 0.5) for c in range(0, 12)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_required_tags_parameter_validation():
    with pytest.raises(InvalidParameter):
        required_tags(1, 0.0, 0.5)
    with pytest.raises(InvalidParameter):
        required_tags(1, 1.5, 0.5)
    with pytest.raises(InvalidParameter):
        required_tags(1, 0.01, 1.0)
    with pytest.raises(InvalidParameter):
        required_tags(-1, 0.01, 0.5)


def test_bandwidth_exact_rationals():
    assert bandwidth_hmac(8, 32, 1024) == Fraction(9, 1056)
    assert bandwidth_macsig(8, 32, 1024, 256) == Fraction(10, 1056)
    assert bandwidth_blockchain(8, 32, 1024) == Fraction(8, 1056)
    # degenerate tag counts
    assert bandwidth_macsig(0, 32, 1024, 256) == Fraction(1, 1056)
    assert bandwidth_hmac(0, 32, 1024) == Fraction(1, 1056)
    assert bandwidth_blockchain(0, 32, 1024) == 0


def test_macsig_exceeds_hmac_for_positive_tag_counts():
    for l in range(1, 40):
        assert bandwidth_macsig(l, 32, 1024, 256) > bandwidth_hmac(l, 32, 1024)


def test_hmac_doubling_ratio_algebra():
    for l in (1, 4, 8, 16):
        ratio = bandwidth_hmac(2 * l, 32, 1024) / bandwidth_hmac(l, 32, 1024)
        assert ratio == Fraction(2 * l + 1, l + 1)


def test_security_level_values():
    assert security_level(1, 256) == Fraction(1, 256)
    assert security_level(0, 256) == 1
    assert security_level(8, 256) == Fraction(1, 2 ** 64)
    with pytest.raises(InvalidParameter):
        security_level(-1, 256)


def test_safe_keys_blockchain_exact_and_constant_in_c():
    cfg = SchemeConfig(Scheme.BLOCKCHAIN, l=8, q=256)
    values = [safe_key_probability(cfg, c=c) for c in range(0, 8)]
    for est in values:
        assert est.exact
        assert est.exact_value == 1 - Fraction(1, 256 ** 8)
    single = safe_key_probability(SchemeConfig(Scheme.BLOCKCHAIN, l=1, q=256))
    assert single.exact_value == 1 - Fraction(1, 256)


def test_safe_keys_cover_free_matches_closed_form():
    # benign key uncovered by c independent uniform picks: ((l-1)/l)^c
    cfg = SchemeConfig(Scheme.C_COVER_FREE, l=8, L=16)
    rng = np.random.default_rng(30)
    for c in (1, 2, 4):
        est = safe_key_probability(cfg, c=c, rng=rng, trials=100_000)
        expect = (7 / 8) ** c
        assert est.ci_low <= expect <= est.ci_high


# (L, s, l, c): the fig5 defaults at c = 0..7, then universes from 6 to 32
# keys with hands and tag sets from sparse to nearly full.
SAFE_KEY_CASES = [(16, 8, 8, c) for c in range(8)] + [
    (6, 3, 2, 1), (8, 4, 4, 1), (8, 4, 4, 3), (10, 5, 3, 2),
    (12, 6, 1, 1), (12, 10, 6, 2), (12, 10, 6, 5), (16, 4, 2, 1),
    (16, 12, 4, 3), (20, 6, 4, 1), (20, 6, 4, 3), (24, 8, 8, 2),
    (32, 16, 8, 2), (32, 16, 8, 6), (32, 4, 4, 1), (32, 24, 16, 4),
]


def test_safe_keys_double_random_matches_the_exact_law():
    # Every estimate lies within 4 sigma of the exact value.  A 95 %
    # Wilson interval misses it about once in 20 cases, so the intervals
    # miss at most 4 of the 24: more happens with probability 0.6 %.
    rng = np.random.default_rng(30)
    missed = []
    for L, s, l, c in SAFE_KEY_CASES:
        cfg = SchemeConfig(Scheme.DOUBLE_RANDOM, l=l, L=L, s=s)
        est = safe_key_probability(cfg, c=c, rng=rng, trials=100_000)
        exact = double_random_safe_oracle(L, s, l, c)
        sigma = binomial_sigma(float(exact), est.trials)
        assert abs(est.value - exact) <= 4 * sigma, (L, s, l, c, est.value, float(exact))
        if not est.ci_low <= exact <= est.ci_high:
            missed.append((L, s, l, c))
    assert len(missed) <= 4, missed


def test_safe_keys_baselines_monotone_non_increasing():
    rng = np.random.default_rng(31)
    for scheme in (Scheme.DOUBLE_RANDOM, Scheme.C_COVER_FREE):
        cfg = SchemeConfig(scheme, l=8, L=16, s=8)
        prev = None
        for c in range(1, 8):
            est = safe_key_probability(cfg, c=c, rng=rng, trials=50_000)
            if prev is not None:
                # non-increasing up to overlapping confidence intervals
                assert est.ci_low <= prev.ci_high
                assert est.value <= prev.value + (prev.ci_high - prev.ci_low)
            prev = est


def test_safe_keys_rejects_negative_c():
    with pytest.raises(InvalidParameter):
        safe_key_probability(SchemeConfig(Scheme.C_COVER_FREE, l=4, L=8), c=-1)


def test_assign_blockchain_full_domain_set():
    rng = np.random.default_rng(32)
    tags, held = sample_holdings(SchemeConfig(Scheme.BLOCKCHAIN, l=8), 12, 3, rng)
    assert tags.shape == (3, 8) and held.shape == (12, 3, 8)
    assert tags.all() and held.all()


def test_assign_cover_free_single_source_key_each():
    rng = np.random.default_rng(33)
    cfg = SchemeConfig(Scheme.C_COVER_FREE, l=8, L=16)
    tags, held = sample_holdings(cfg, 60, 5, rng)
    assert tags.shape == (5, 16) and held.shape == (60, 5, 16)
    # the source tags with l of its L keys; every node holds one of them
    assert (tags.sum(axis=-1) == 8).all()
    assert (held.sum(axis=-1) == 1).all()
    assert not (held & ~tags).any()


def test_assign_double_random_coverage_expectation():
    # per-key coverage over 100 nodes with s=4 of L=16: Binomial(100, 1/4)
    rng = np.random.default_rng(34)
    cfg = SchemeConfig(Scheme.DOUBLE_RANDOM, l=4, L=16, s=4)
    tags, held = sample_holdings(cfg, 100, 1, rng)
    assert (held.sum(axis=-1) == 4).all()
    coverage = held[:, 0].sum(axis=0)
    mean, sigma = 25.0, math.sqrt(100 * 0.25 * 0.75)
    assert all(abs(c - mean) <= 3 * sigma for c in coverage)
    assert abs(np.mean(coverage) - mean) <= 3 * sigma / math.sqrt(16)
    assert tags.sum() == 4


def test_assign_parameter_validation():
    rng = np.random.default_rng(35)
    with pytest.raises(InvalidParameter):
        SchemeConfig(Scheme.DOUBLE_RANDOM, l=4, L=16, s=20)  # s > L
    with pytest.raises(InvalidParameter):
        SchemeConfig(Scheme.C_COVER_FREE, l=20, L=16)
    with pytest.raises(InvalidParameter):
        sample_holdings(SchemeConfig(Scheme.DOUBLE_RANDOM, l=6, L=16, s=4), 10, 1, rng)
    with pytest.raises(InvalidParameter):
        sample_holdings(SchemeConfig(Scheme.BLOCKCHAIN, l=8), 0, 1, rng)
    with pytest.raises(InvalidParameter):
        sample_holdings(SchemeConfig(Scheme.C_COVER_FREE, l=8, L=16), 1, 0, rng)


def test_verification_capability_equals_source_key_overlap():
    rng = np.random.default_rng(36)
    cfg = SchemeConfig(Scheme.DOUBLE_RANDOM, l=6, L=16, s=8)
    tags, held = sample_holdings(cfg, 25, 1, rng)
    overlap = (held & tags).sum(axis=-1)
    source_keys = set(np.flatnonzero(tags[0]))
    for node in range(25):
        assert overlap[node, 0] == len(set(np.flatnonzero(held[node, 0])) & source_keys)
    # the evasion probability a node faces uses exactly that count
    lp = int(overlap[5, 0])
    assert security_level(lp, cfg.q) == Fraction(1, cfg.q ** lp)


def test_double_random_overlap_is_hypergeometric():
    # |held ∩ tags| for a uniform s-subset against a uniform l-subset of L
    # follows Hypergeometric(l, L - l, s); each count within 5 sigma
    L, s, l = 16, 8, 6
    rng = np.random.default_rng(38)
    tags, held = sample_holdings(SchemeConfig(Scheme.DOUBLE_RANDOM, l=l, L=L, s=s), 4, 20_000, rng)
    overlap = (held & tags).sum(axis=-1).ravel()
    samples = overlap.size
    counts = np.bincount(overlap, minlength=l + 1)
    for x in range(l + 1):
        p = math.comb(l, x) * math.comb(L - l, s - x) / math.comb(L, s)
        sigma = math.sqrt(samples * p * (1 - p))
        assert abs(counts[x] - samples * p) <= 5 * sigma + 1e-9, (x, counts[x], samples * p)


@st.composite
def double_random_draws(draw):
    L = draw(st.integers(1, 24))
    s = draw(st.integers(1, L))
    l = draw(st.integers(1, s))
    nodes = draw(st.integers(1, 5))
    trials = draw(st.integers(1, 40))
    return SchemeConfig(Scheme.DOUBLE_RANDOM, l=l, L=L, s=s), nodes, trials, draw(
        st.integers(0, 2**32 - 1)
    )


@settings(max_examples=100, deadline=None)
@given(double_random_draws())
def test_double_random_holdings_match_fresh_buffer_oracle(case):
    # reused draw buffers give the same masks, and consume the same draws,
    # as fresh arrays per node; no subset table, so every hand is drawn by
    # partition
    cfg, nodes, trials, seed = case
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with mock.patch.object(keydist, "_TABLE_BYTES", 0):
        tags, held = sample_holdings(cfg, nodes, trials, rng)
    expect_tags = np.zeros((trials, cfg.L), dtype=bool)
    mark_uniform_subsets_oracle(expect_tags, cfg.l, oracle_rng)
    expect_held = np.zeros((nodes, trials, cfg.L), dtype=bool)
    for mask in expect_held:
        mark_uniform_subsets_oracle(mask, cfg.s, oracle_rng)
    assert np.array_equal(tags, expect_tags)
    assert np.array_equal(held, expect_held)
    assert rng.random() == oracle_rng.random()


@settings(max_examples=100, deadline=None)
@given(double_random_draws())
def test_double_random_holdings_match_ranked_oracle(case):
    # a hand whose subset table exists is one rank per trial, mapped to its
    # subset in combinations order; a larger one is drawn by partition; the
    # draws are the same, and leave the generator in the same state
    cfg, nodes, trials, seed = case
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    tags, held = sample_holdings(cfg, nodes, trials, rng)
    expect = np.zeros((nodes + 1, trials, cfg.L), dtype=bool)
    for mask, size in zip(expect, [cfg.l] + [cfg.s] * nodes):
        if math.comb(cfg.L, size) * cfg.L <= keydist._TABLE_BYTES:
            mark_ranked_subsets_oracle(mask, size, oracle_rng)
        else:
            mark_uniform_subsets_oracle(mask, size, oracle_rng)
    assert np.array_equal(tags, expect[0])
    assert np.array_equal(held, expect[1:])
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 300), st.integers(1, 6), st.integers(1, 40), st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
def test_cover_free_picks_match_one_call_per_group(l, nodes, trials, block, seed):
    # narrow picks drawn in row blocks of a few elements are what two whole
    # calls draw: node 0's picks, then the others' (trials, nodes - 1)
    cfg = SchemeConfig(Scheme.C_COVER_FREE, l=l, L=l + 3)
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with mock.patch.object(keydist, "_BLOCK_ELEMENTS", block):
        _, held = sample_holdings(cfg, nodes, trials, rng)
    first = oracle_rng.integers(0, l, size=trials)
    picks = np.column_stack([first, oracle_rng.integers(0, l, size=(trials, nodes - 1))])
    assert (held.sum(axis=-1) == 1).all()
    assert np.array_equal(held.argmax(axis=-1), picks.T)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_subset_tables_hold_every_subset_once_and_are_read_only():
    # every size at L <= 18 has a table of one word per subset: comb(L,
    # size) distinct words of size bits each, in combinations order, so it
    # holds every subset exactly once
    for L in range(1, 19):
        for size in range(L + 1):
            table = keydist._subset_table(L, size)
            assert table.shape == (math.comb(L, size), 1), (L, size)
            words = table[:, 0]
            assert (keydist._unpack(table, L).sum(axis=1) == size).all(), (L, size)
            assert len(np.unique(words)) == len(words), (L, size)
            expect = [
                sum(1 << key for key in subset)
                for subset in itertools.combinations(range(L), size)
            ]
            assert words.tolist() == expect, (L, size)
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = ~table[0, 0]
    assert keydist._subset_table(19, 9) is None
    assert keydist._subset_table(24, 12) is None


@st.composite
def safe_key_cases(draw):
    # L up to 130 takes one, two or three words per hand; hand sizes near 0
    # or near L keep a subset table above L = 18 (W = 2 at L <= 128), the
    # others are drawn by partition
    scheme = draw(st.sampled_from(Scheme))
    L = draw(st.integers(1, 130))
    l = draw(st.integers(1, L) | st.integers(1, min(2, L)))
    s = draw(st.integers(l, L) | st.integers(max(l, L - 2), L))
    c = draw(st.integers(0, 5))
    trials = draw(st.integers(1, 40))
    block_rows = draw(st.integers(1, 4))
    return SchemeConfig(scheme, l=l, L=L, s=s), c, trials, block_rows, draw(
        st.integers(0, 2**32 - 1)
    )


@settings(max_examples=150, deadline=None)
@given(safe_key_cases())
# keys on either side of a word boundary, by table and by partition
@example((SchemeConfig(Scheme.DOUBLE_RANDOM, l=1, L=64, s=63), 3, 17, 2, 1))
@example((SchemeConfig(Scheme.DOUBLE_RANDOM, l=2, L=65, s=64), 3, 17, 3, 2))
@example((SchemeConfig(Scheme.DOUBLE_RANDOM, l=2, L=128, s=127), 4, 23, 1, 3))
@example((SchemeConfig(Scheme.DOUBLE_RANDOM, l=40, L=128, s=64), 5, 31, 4, 4))
@example((SchemeConfig(Scheme.C_COVER_FREE, l=64, L=64), 5, 40, 2, 5))
@example((SchemeConfig(Scheme.C_COVER_FREE, l=65, L=65), 5, 40, 3, 6))
@example((SchemeConfig(Scheme.C_COVER_FREE, l=128, L=128), 5, 40, 1, 7))
@example((SchemeConfig(Scheme.BLOCKCHAIN, l=65, L=128), 2, 9, 1, 8))
def test_streamed_safe_keys_match_stacked_holdings(case):
    # the estimate folds each hand's packed words in row blocks of a few
    # rows; the stacked holdings draw each node's (trials, W) block in one
    # piece, as the fresh-buffer oracle does, and the count recomputed from
    # their unpacked bool masks must equal the estimate, with the generator
    # in the same state
    cfg, c, trials, block_rows, seed = case
    rng, stacked_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with mock.patch.object(keydist, "_BLOCK_ELEMENTS", block_rows * cfg.L):
        est = safe_key_probability(cfg, c=c, rng=rng, trials=trials)
        blocked = sample_holdings(cfg, c + 1, trials, np.random.default_rng(seed))
    tags, held = sample_holdings(cfg, c + 1, trials, stacked_rng)
    # a count is blind to rows drawn in another order; the masks are not
    assert np.array_equal(blocked[0], tags) and np.array_equal(blocked[1], held)
    if cfg.scheme is Scheme.BLOCKCHAIN:
        assert est.exact and est.trials == 0
        assert tags.shape == (trials, cfg.l) and tags.all() and held.all()
    else:
        assert tags.shape == (trials, cfg.L)
        safe = int((held[0] & tags & ~held[1:].any(axis=0)).any(axis=1).sum())
        assert est.value == safe / trials
    assert rng.bit_generator.state == stacked_rng.bit_generator.state


@pytest.mark.parametrize(
    "scheme, L, s, limit_mib",
    [
        (Scheme.DOUBLE_RANDOM, 16, 8, 6),
        # above the subset tables' cap: every hand is drawn by partition
        (Scheme.DOUBLE_RANDOM, 24, 12, 9),
        (Scheme.C_COVER_FREE, 16, 8, 8),
    ],
    ids=["Scheme.DOUBLE_RANDOM-6", "Scheme.DOUBLE_RANDOM-L24-9", "Scheme.C_COVER_FREE-8"],
)
def test_safe_key_estimate_holds_no_per_node_array(scheme, L, s, limit_mib):
    # one (c+1, trials, L) bool array alone is 6.1 MiB at L=16, 9.2 at L=24
    cfg = SchemeConfig(scheme, l=8, L=L, s=s)
    rng = np.random.default_rng(39)
    keydist._cached_subset_table.cache_clear()  # count the table built here
    tracemalloc.start()
    try:
        safe_key_probability(cfg, c=7, rng=rng, trials=50_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2**20, peak / 2**20
    # the size bound that analyze's settings are checked against holds too
    assert peak <= keydist.safe_key_bytes(cfg.L, 50_000, 7)


def test_colluder_sweep_curve_shapes():
    rng = np.random.default_rng(37)
    sweeps = {}
    for scheme in Scheme:
        base = SchemeConfig(scheme, l=8, L=16, s=8, epsilon=0.01, d=0.5)
        sweeps[scheme] = colluder_sweep(base, range(1, 8), rng=rng, trials=20_000)
    bc = [r.bandwidth for r in sweeps[Scheme.BLOCKCHAIN]]
    assert len(set(bc)) == 1 and bc[0] == Fraction(8, 1056)
    for scheme in (Scheme.DOUBLE_RANDOM, Scheme.C_COVER_FREE):
        bws = [r.bandwidth for r in sweeps[scheme]]
        assert all(b > a for a, b in zip(bws, bws[1:]))
    safe_bc = {r.safe_key_prob for r in sweeps[Scheme.BLOCKCHAIN]}
    assert len(safe_bc) == 1


@pytest.mark.parametrize("L", [16, 70])
@pytest.mark.parametrize("scheme", list(Scheme))
def test_colluder_sweep_folds_every_estimate_in_one_pair_of_word_arrays(scheme, L):
    # one pair of word arrays serves the whole sweep, and its rows are the
    # estimates made one at a time on the same generator, whatever c the
    # previous estimate folded (c = 0 folds no colluder; L = 70 takes two
    # words per hand)
    base = SchemeConfig(scheme, l=8, L=L, s=12)
    c_values = [3, 0, 5, 1]
    rng, single_rng = np.random.default_rng(41), np.random.default_rng(41)
    with mock.patch.object(keydist, "_fold_buffers", wraps=keydist._fold_buffers) as made:
        rows = colluder_sweep(base, c_values, rng=rng, trials=3_000)
    assert made.call_count == (scheme is not Scheme.BLOCKCHAIN)
    for row, c in zip(rows, c_values):
        est = safe_key_probability(replace(base, c=c), rng=single_rng, trials=3_000)
        assert (row.c, row.safe_key_prob, row.ci_low, row.ci_high) == (
            c, est.value, est.ci_low, est.ci_high
        )
    assert rng.bit_generator.state == single_rng.bit_generator.state


def test_scheme_labels_roundtrip():
    assert SCHEME_BY_LABEL["blockchain"] is Scheme.BLOCKCHAIN
    assert SCHEME_BY_LABEL["macsig"] is Scheme.DOUBLE_RANDOM
    assert SCHEME_BY_LABEL["hmac"] is Scheme.C_COVER_FREE
    for scheme in Scheme:
        assert SCHEME_BY_LABEL[scheme.label] is scheme
