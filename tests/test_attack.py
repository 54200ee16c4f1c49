import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncsecsim._stats import binomial_sigma
from ncsecsim import attack
from ncsecsim.attack import (
    AdversaryConfig,
    AdversaryKnowledge,
    AttackStrategy,
    _accepts,
    _colluder_positions,
    _forge,
    bypass_rate_grid,
    grid_bytes,
    inject,
    measure_bypass_rate,
)
from ncsecsim import gf
from ncsecsim.errors import DimensionMismatch, InvalidParameter
from ncsecsim.gf import GF16, GF256, FieldSpec, field_of_order
from ncsecsim.integrity import (
    attach_tags,
    combine_tags,
    generate_domain_keys,
    key_verdicts,
    tag_matrix,
    tagset_for_generation,
    verify_tags,
)
from ncsecsim.keydist import Scheme, SchemeConfig, sample_holdings
from ncsecsim.rlnc import encode, random_generation

from oracles import dot_oracle, matvec_oracle


@pytest.fixture
def tagged_packet():
    rng = np.random.default_rng(60)
    gen = random_generation("a", 3, 12, GF16, rng)
    keys = generate_domain_keys(12, 4, GF16, rng, "d")
    return rng, gen, keys, attach_tags(encode(gen, rng), keys)


def test_tag_only_pollution_touches_tags_only(tagged_packet):
    rng, _, _, pkt = tagged_packet
    adv = AdversaryConfig(strategy=AttackStrategy.TAG_ONLY_POLLUTION)
    out = inject(pkt, adv, rng=rng)
    assert out.strategy_used is AttackStrategy.TAG_ONLY_POLLUTION
    assert out.packet.payload == pkt.payload
    assert out.packet.coeffs == pkt.coeffs
    diffs = int((out.packet.tags.elems != pkt.tags.elems).sum())
    assert diffs == 1


def test_valid_tag_forge_with_all_keys_passes_key_checks(tagged_packet):
    rng, _, keys, pkt = tagged_packet
    adv = AdversaryConfig(knowledge=AdversaryKnowledge.ALL_KEYS,
                          strategy=AttackStrategy.VALID_TAG_FORGE)
    out = inject(pkt, adv, held_keys=keys, rng=rng)
    assert out.strategy_used is AttackStrategy.VALID_TAG_FORGE
    assert out.packet.payload != pkt.payload
    assert all(verify_tags(out.packet, keys))


@pytest.mark.parametrize("held", [[0, 1, 2, 3], [3, 1]])
def test_valid_tag_forge_ignores_wrong_carried_tags(tagged_packet, held):
    # the forged tags follow from the payload's own tags under the held
    # keys, not from the tags the packet happens to carry
    rng, _, keys, pkt = tagged_packet
    wrong = pkt.with_row(np.concatenate([pkt.row[: pkt.m + pkt.n], pkt.tags.elems ^ 5]))
    adv = AdversaryConfig(strategy=AttackStrategy.VALID_TAG_FORGE)
    for _ in range(20):
        forged = inject(wrong, adv, held_keys=keys[held], rng=rng).packet
        assert int((forged.payload.elems != pkt.payload.elems).sum()) == 1
        assert forged.coeffs == pkt.coeffs
        assert np.array_equal(forged.tags.elems[held], tag_matrix(forged.payload.elems, keys[held]))
        assert all(verify_tags(forged, keys[held]))


def test_valid_tag_forge_without_keys_degenerates(tagged_packet):
    rng, _, keys, pkt = tagged_packet
    adv = AdversaryConfig(strategy=AttackStrategy.VALID_TAG_FORGE)
    for held in (None, keys[[]]):
        out = inject(pkt, adv, held_keys=held, rng=rng)
        assert out.strategy_used is AttackStrategy.RANDOM_FORGE


def test_payload_perturbation_is_minimal(tagged_packet):
    rng, _, _, pkt = tagged_packet
    adv = AdversaryConfig(strategy=AttackStrategy.RANDOM_FORGE)
    for _ in range(50):
        forged = inject(pkt, adv, rng=rng).packet
        assert int((forged.payload.elems != pkt.payload.elems).sum()) == 1


def test_adversary_count_validated():
    with pytest.raises(InvalidParameter):
        AdversaryConfig(count=0)


BASELINE = SchemeConfig(Scheme.C_COVER_FREE, l=8, L=16, q=16, m=4, n=32)
LEDGERED = SchemeConfig(Scheme.BLOCKCHAIN, l=8, q=16, m=4, n=32)


def test_bypass_rate_tracks_security_level():
    rng = np.random.default_rng(61)
    adv = AdversaryConfig(strategy=AttackStrategy.RANDOM_FORGE)
    for l_prime, expected in ((1, 1 / 16), (2, 1 / 256)):
        res = measure_bypass_rate(BASELINE, adv, 300_000, rng, l_prime=l_prime)
        assert abs(res.rate - expected) <= 3 * binomial_sigma(expected, res.trials)
        assert res.ci_low <= expected <= res.ci_high


def test_bypass_rate_monotone_in_verified_tags():
    rng = np.random.default_rng(62)
    adv = AdversaryConfig(strategy=AttackStrategy.RANDOM_FORGE)
    rates = [
        measure_bypass_rate(BASELINE, adv, 50_000, rng, l_prime=lp).rate
        for lp in (0, 1, 2)
    ]
    assert rates[0] == 1.0  # zero matching keys: nothing can be verified
    assert rates[0] > rates[1] > rates[2]


def test_ledger_rejects_every_strategy_and_knowledge_level():
    rng = np.random.default_rng(63)
    for strategy in AttackStrategy:
        for knowledge in AdversaryKnowledge:
            adv = AdversaryConfig(count=3, knowledge=knowledge, strategy=strategy)
            res = measure_bypass_rate(LEDGERED, adv, 2_000 if strategy is not
                                      AttackStrategy.RANDOM_FORGE else 5_000, rng)
            assert res.rate == 0.0, (strategy, knowledge)


def test_trial_floor_enforced():
    rng = np.random.default_rng(64)
    with pytest.raises(InvalidParameter):
        measure_bypass_rate(BASELINE, AdversaryConfig(), 100, rng)


def test_grid_rows_cover_documented_cases():
    rng = np.random.default_rng(65)
    rows = bypass_rate_grid(16, trials=5_000, rng=rng)
    by_key = {(r.scheme, r.strategy, r.l_prime): r for r in rows}
    assert by_key[("blockchain", "valid_tag_forge", 8)].rate == 0.0
    assert by_key[("hmac", "random_forge", 0)].rate == 1.0
    lp1 = by_key[("hmac", "random_forge", 1)]
    assert abs(lp1.rate - 1 / 16) <= 4 * binomial_sigma(1 / 16, lp1.trials)


def bypass_cases(q):
    # Every strategy, knowledge level, scheme and l' = 0 (the empty ring),
    # 1 and 2.
    return [
        (config, AdversaryConfig(count=3, knowledge=knowledge, strategy=strategy), l_prime)
        for config in (SchemeConfig(Scheme.C_COVER_FREE, l=8, L=16, q=q, m=4, n=32),
                       SchemeConfig(Scheme.BLOCKCHAIN, l=8, q=q, m=4, n=32))
        for strategy in AttackStrategy
        for knowledge in AdversaryKnowledge
        for l_prime in (0, 1, 2)
    ]


@pytest.mark.parametrize("seed", [71, 72])
@pytest.mark.parametrize("q", [16, 256])
def test_bypass_counts_equal_through_tables_and_matmul(seed, q):
    # The same passes through the key rings' tables as with every product
    # forced through ``FieldSpec.matmul`` (with no table words, and no xor
    # words for its reductions either).
    cases = bypass_cases(q)

    def measure():
        rng = np.random.default_rng(seed)
        return [measure_bypass_rate(c, adv, 1_000, rng, l_prime=lp) for c, adv, lp in cases]

    through_tables = measure()
    with mock.patch.dict(gf._XOR_WORDS, clear=True):
        forced = gf.FixedProduct(gf.field(4), np.ones((2, 1)))
        forced(np.ones(2))
        assert forced.tables is None
        through_matmul = measure()
    assert [r.passes for r in through_tables] == [r.passes for r in through_matmul]
    assert through_tables == through_matmul
    assert 0 < sum(r.passes for r in through_tables) < sum(r.trials for r in through_tables)


def payload_path_passes(config, adversary, trials, rng, l_prime):
    """``measure_bypass_rate``'s passes with every forged payload formed:
    the same draws, each batch's (trials, n) payloads tagged by
    ``tag_matrix`` for the valid-tag forge and judged by ``key_verdicts``."""
    spec = field_of_order(config.q)
    gen = random_generation("harness", config.m, config.n, spec, rng)
    source_keys = generate_domain_keys(config.n, config.l, spec, rng, "harness")
    base = attach_tags(encode(gen, rng), source_keys)
    expected = (
        combine_tags(tagset_for_generation(gen, source_keys, "src").native_tags, base.coeffs).elems
        if config.scheme is Scheme.BLOCKCHAIN else None
    )
    benign = sorted(int(p) for p in rng.choice(config.l, size=l_prime, replace=False)) if l_prime else []
    held = source_keys[_colluder_positions(config, adversary, rng)]
    strategy = adversary.strategy
    if strategy is AttackStrategy.VALID_TAG_FORGE and not held:
        strategy = AttackStrategy.RANDOM_FORGE

    batch = max(1, attack._BATCH_ELEMENTS // (config.n * config.l))
    passes = 0
    for start in range(0, trials, batch):
        size = min(batch, trials - start)
        rows = np.arange(size)
        payloads = np.tile(base.payload.elems, (size, 1))
        if strategy is AttackStrategy.TAG_ONLY_POLLUTION:
            tags = np.tile(base.tags.elems, (size, 1))
            slots = rng.integers(0, config.l, size=size)
            tags[rows, slots] ^= (1 + rng.integers(0, config.q - 1, size=size)).astype(spec.dtype)
        else:
            symbols = rng.integers(0, config.n, size=size)
            payloads[rows, symbols] ^= (1 + rng.integers(0, config.q - 1, size=size)).astype(spec.dtype)
            tags = spec.random_elements(rng, (size, config.l))
            if strategy is AttackStrategy.VALID_TAG_FORGE:
                tags[:, held.slots] = tag_matrix(payloads, held)
        ok = key_verdicts(payloads, tags, source_keys[benign]).all(axis=-1)
        if expected is not None:
            ok &= (tags == expected).all(axis=-1)
        passes += int(ok.sum())
    return passes


@pytest.mark.parametrize("seed", [71, 72])
@pytest.mark.parametrize("q", [16, 256])
def test_bypass_counts_equal_through_the_payload_path(seed, q):
    # Judging each forgery by its one-symbol flip gives the passes of
    # forming its payload and running the key checks on it.  3000 trials
    # take two batches at n = 32, l = 8.
    cases = bypass_cases(q)
    flips, payloads = np.random.default_rng(seed), np.random.default_rng(seed)
    for config, adv, l_prime in cases:
        got = measure_bypass_rate(config, adv, 3_000, flips, l_prime=l_prime).passes
        assert got == payload_path_passes(config, adv, 3_000, payloads, l_prime), (config, adv, l_prime)
    assert flips.random() == payloads.random()


@pytest.mark.parametrize("q", [16, 256])
def test_the_ledgers_tags_for_the_base_are_the_tags_the_source_gave_it(q):
    # ``bypass_rate_grid``'s ledger config: the harness takes the ledger's
    # expectation from the base's own tags, which holds because tags are
    # linear in the payload and the source tagged the base.
    n, m, l = 32, 4, 8
    spec = field_of_order(q)
    for seed in range(50):
        rng = np.random.default_rng(seed)
        gen = random_generation("harness", m, n, spec, rng)
        keys = generate_domain_keys(n, l, spec, rng, "harness")
        base = attach_tags(encode(gen, rng), keys)
        ledger = combine_tags(tagset_for_generation(gen, keys, "src").native_tags, base.coeffs)
        assert np.array_equal(ledger.elems, base.tags.elems)


def test_bypass_grid_holds_no_payload_stack():
    # A batch is 2048 forgeries at n = 32, l = 8.  Forming their (trials, n)
    # payloads and the key checks' products over them peaks near 800 KiB;
    # a batch's (trials, l) tags and (trials, keys) flips stay under half.
    bypass_rate_grid(16, 3_000, np.random.default_rng(0))  # field and table caches
    tracemalloc.start()
    try:
        bypass_rate_grid(16, 3_000, np.random.default_rng(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 400 * 2**10, peak / 2**10


@pytest.mark.parametrize(
    "q, n, m, l", [(16, 32, 4, 8), (256, 1024, 32, 8), (65536, 3000, 3, 4), (256, 2, 2, 40)]
)
def test_grid_bytes_bounds_what_a_grid_holds(q, n, m, l):
    tracemalloc.start()
    try:
        bypass_rate_grid(q, 1_000, np.random.default_rng(2), n=n, m=m, l=l)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= grid_bytes(q, n, m, l)


MACSIG = SchemeConfig(Scheme.DOUBLE_RANDOM, l=8, L=16, s=8, q=16, m=4, n=32)


@pytest.mark.parametrize("config,l_prime", [(BASELINE, 1), (MACSIG, 3)])
def test_all_keys_valid_tag_forge_passes_key_checks_always(config, l_prime):
    rng = np.random.default_rng(66)
    adv = AdversaryConfig(knowledge=AdversaryKnowledge.ALL_KEYS,
                          strategy=AttackStrategy.VALID_TAG_FORGE)
    res = measure_bypass_rate(config, adv, 2_000, rng, l_prime=l_prime)
    assert res.passes == res.trials and res.rate == 1.0


@pytest.mark.parametrize("config,l_prime", [(BASELINE, 1), (MACSIG, 2)])
def test_tag_only_pollution_passes_unless_a_verified_slot_is_hit(config, l_prime):
    # one uniformly chosen slot of l is flipped; the hop checks l' of them
    rng = np.random.default_rng(67)
    adv = AdversaryConfig(strategy=AttackStrategy.TAG_ONLY_POLLUTION)
    res = measure_bypass_rate(config, adv, 20_000, rng, l_prime=l_prime)
    expected = 1 - l_prime / config.l
    assert abs(res.rate - expected) <= 5 * binomial_sigma(expected, res.trials)


def test_inject_rejects_held_keys_it_cannot_use(tagged_packet):
    rng, gen, keys, pkt = tagged_packet
    adv = AdversaryConfig(strategy=AttackStrategy.VALID_TAG_FORGE)
    two_tags = attach_tags(encode(gen, rng), keys[:2])
    assert inject(two_tags, adv, held_keys=keys[[1, 0]], rng=rng).packet.tags.elems.size == 2
    for held in ([2], [0, 3]):  # slots past the packet's two tags
        with pytest.raises(DimensionMismatch):
            inject(two_tags, adv, held_keys=keys[held], rng=rng)
    with pytest.raises(DimensionMismatch):  # keys over another field
        inject(pkt, adv, held_keys=generate_domain_keys(12, 4, GF256, rng, "d"), rng=rng)


def test_negative_l_prime_rejected():
    rng = np.random.default_rng(68)
    with pytest.raises(InvalidParameter):
        measure_bypass_rate(BASELINE, AdversaryConfig(), 1_000, rng, l_prime=-1)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    q=st.sampled_from([2, 4, 16, 256]),
    scheme=st.sampled_from(list(Scheme)),
    strategy=st.sampled_from(list(AttackStrategy)),
    knowledge=st.sampled_from(list(AdversaryKnowledge)),
    count=st.integers(1, 3),
    ledger=st.booleans(),
    m=st.integers(1, 3),
    n=st.integers(1, 6),
    l=st.integers(1, 5),
    data=st.data(),
)
def test_bypass_verdicts_match_first_principles_checks(
    seed, q, scheme, strategy, knowledge, count, ledger, m, n, l, data
):
    # Every forged packet is judged by the batched checks a benign hop runs
    # and, independently, by oracle inner products over (payload || tag)
    # and the oracle combination of the ledgered native tags.
    l_prime = data.draw(st.integers(0, l), label="l_prime")
    L = data.draw(st.integers(l, 2 * l), label="L")
    s = data.draw(st.integers(l, L), label="s")
    spec = FieldSpec(q.bit_length() - 1)
    config = SchemeConfig(scheme, l=l, L=L, s=s, q=q, m=m, n=n)
    rng = np.random.default_rng(seed)
    gen = random_generation("g", m, n, spec, rng)
    keys = generate_domain_keys(n, l, spec, rng, "d")
    base = attach_tags(encode(gen, rng), keys)
    tagset = tagset_for_generation(gen, keys, "src")
    benign = sorted(int(p) for p in rng.choice(l, size=l_prime, replace=False))
    held = _colluder_positions(config, AdversaryConfig(count, knowledge, strategy), rng)
    symbols, deltas, tags, _ = _forge(base, strategy, keys[held], 24, rng)
    payloads = np.tile(base.payload.elems, (len(tags), 1))
    payloads[np.arange(len(tags)), symbols] ^= deltas

    expected = combine_tags(tagset.native_tags, base.coeffs).elems if ledger else None
    verdicts = _accepts(symbols, deltas, tags, keys[benign], base.tags.elems[benign], expected)

    ledger_tags = matvec_oracle(base.coeffs.elems, tagset.native_tags, spec.k, spec.poly)
    for t in range(len(payloads)):
        changed = int((payloads[t] != base.payload.elems).sum())
        assert changed == (strategy is not AttackStrategy.TAG_ONLY_POLLUTION)
        ok = all(
            dot_oracle(list(payloads[t]) + [tags[t, p]], keys.matrix[p], spec.k, spec.poly) == 0
            for p in benign
        )
        if ledger:
            ok = ok and tags[t].tolist() == ledger_tags
        assert bool(verdicts[t]) == ok, (t, strategy, benign, held)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scheme=st.sampled_from(list(Scheme)),
    count=st.integers(1, 5),
    l=st.integers(1, 6),
    data=st.data(),
)
def test_colluder_positions_are_the_union_of_sampled_holdings(seed, scheme, count, l, data):
    # the union folded as the colluders' masks are drawn equals the one
    # taken over the stacked holdings, and consumes the same draws
    L = data.draw(st.integers(l, 2 * l), label="L")
    s = data.draw(st.integers(l, L), label="s")
    config = SchemeConfig(scheme, l=l, L=L, s=s)
    rng, stacked_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    held = _colluder_positions(config, AdversaryConfig(count), rng)
    tags, holdings = sample_holdings(config, count, 1, stacked_rng)
    assert held == np.flatnonzero(holdings.any(axis=0)[0, tags[0]]).tolist()
    assert rng.random() == stacked_rng.random()
