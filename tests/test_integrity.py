import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncsecsim._stats import binomial_sigma
from ncsecsim.errors import DimensionMismatch, InvalidParameter, TagSetUnavailable
from ncsecsim.gf import GF16, GF256, FieldSpec, FieldVector
from ncsecsim.integrity import (
    MacKey,
    TagSet,
    attach_tags,
    combine_tags,
    generate_domain_keys,
    generate_key,
    ledger_check,
    make_tag,
    tagset_for_generation,
    verify_tags,
)
from ncsecsim.rlnc import CodedPacket, encode, random_generation, recode

from oracles import dot_oracle

SPECS = {k: FieldSpec(k) for k in (1, 2, 4, 8, 16)}


@pytest.fixture
def setup():
    rng = np.random.default_rng(20)
    gen = random_generation("g", 4, 16, GF256, rng)
    keys = generate_domain_keys(16, 4, GF256, rng, "dom")
    return rng, gen, keys


def test_key_invariants():
    rng = np.random.default_rng(21)
    for i in range(50):
        key = generate_key(8, GF16, rng, f"k{i}", "d")
        assert len(key.vec) == 9
        assert key.vec[8] != 0
    with pytest.raises(InvalidParameter):
        MacKey("bad", FieldVector([1, 2, 0], GF256), "d")


def test_zero_payload_has_zero_tag(setup):
    _, _, keys = setup
    zero = FieldVector.zeros(16, GF256)
    for key in keys:
        assert make_tag(zero, key) == 0


def test_tag_verifies_by_construction(setup):
    rng, gen, keys = setup
    for _ in range(50):
        pkt = attach_tags(encode(gen, rng), keys)
        assert all(verify_tags(pkt, keys))
        # the tag really zeroes the (payload || tag) inner product
        for j, key in enumerate(keys):
            row = pkt.payload.tolist() + [pkt.tags[j]]
            assert dot_oracle(row, key.vec.tolist(), 8, 0x11B) == 0


def test_tag_of_sum_is_sum_of_tags(setup):
    rng, _, keys = setup
    key = keys[0]
    for _ in range(100):
        p1 = FieldVector.random(16, GF256, rng)
        p2 = FieldVector.random(16, GF256, rng)
        assert make_tag(p1 ^ p2, key) == make_tag(p1, key) ^ make_tag(p2, key)


def test_single_tag_flip_fails_exactly_that_key(setup):
    rng, gen, keys = setup
    pkt = attach_tags(encode(gen, rng), keys)
    for j in range(len(keys)):
        tampered = CodedPacket(pkt.gen_id, pkt.coeffs.copy(), pkt.payload.copy(), pkt.tags.copy())
        tampered.tags.elems[j] ^= 5
        verdicts = verify_tags(tampered, keys)
        assert verdicts == [i != j for i in range(len(keys))]


def test_verify_with_key_subset_and_positions(setup):
    rng, gen, keys = setup
    pkt = attach_tags(encode(gen, rng), keys)
    assert verify_tags(pkt, [keys[2], keys[0]], positions=[2, 0]) == [True, True]
    with pytest.raises(DimensionMismatch):
        verify_tags(pkt, [keys[0]], positions=[9])
    with pytest.raises(DimensionMismatch):
        verify_tags(pkt, keys, positions=[0])


def test_forged_random_tag_passes_at_one_over_q():
    spec = GF16
    rng = np.random.default_rng(22)
    gen = random_generation("s", 2, 8, spec, rng)
    key = generate_key(8, spec, rng, "k", "d")
    base = encode(gen, rng)
    trials, passes = 200_000, 0
    deltas = 1 + rng.integers(0, 15, size=trials)
    positions = rng.integers(0, 8, size=trials)
    forged_tags = rng.integers(0, 16, size=trials)
    base_tag = make_tag(base.payload, key)
    k_last = key.vec[8]
    k_head = FieldVector(key.vec.elems[:-1], spec, _checked=True)
    for i in range(trials):
        payload = base.payload.copy()
        payload.elems[positions[i]] ^= deltas[i]
        acc = payload.dot(k_head)
        acc ^= spec.mul(int(forged_tags[i]), k_last)
        passes += int(acc == 0)
    rate = passes / trials
    assert abs(rate - 1 / 16) <= 3 * binomial_sigma(1 / 16, trials)
    assert base_tag == make_tag(base.payload, key)  # base untouched


def test_combine_tags_cases(setup):
    rng, gen, keys = setup
    ts = tagset_for_generation(gen, keys, "src")
    unit = FieldVector([1, 0, 0, 0], GF256)
    assert combine_tags(ts.native_tags, unit).tolist() == list(map(int, ts.native_tags[0]))
    zero = FieldVector.zeros(4, GF256)
    assert combine_tags(ts.native_tags, zero).is_zero()
    pkt = attach_tags(encode(gen, rng), keys)
    mixed = recode([pkt, attach_tags(encode(gen, rng), keys)], rng)
    assert combine_tags(ts.native_tags, mixed.coeffs) == mixed.tags


def test_ledger_check_accepts_honest_rejects_modified(setup):
    rng, gen, keys = setup
    ts = tagset_for_generation(gen, keys, "src")
    pkt = attach_tags(encode(gen, rng), keys)
    assert ledger_check(pkt, ts, keys)

    # all-keys adversary recomputes valid tags over a modified payload
    bad = pkt.payload.copy()
    bad.elems[0] ^= 1
    forged = attach_tags(CodedPacket(pkt.gen_id, pkt.coeffs.copy(), bad), keys)
    assert all(verify_tags(forged, keys))
    assert not ledger_check(forged, ts, keys)

    # tag pollution: payload intact, one tag altered
    polluted = CodedPacket(pkt.gen_id, pkt.coeffs.copy(), pkt.payload.copy(), pkt.tags.copy())
    polluted.tags.elems[1] ^= 3
    assert not ledger_check(polluted, ts, keys)

    with pytest.raises(TagSetUnavailable):
        ledger_check(pkt, None, keys)
    with pytest.raises(TagSetUnavailable):
        ledger_check(pkt, TagSet("other", "src", ts.native_tags), keys)


def test_homomorphism_under_random_nesting(setup):
    rng, gen, keys = setup
    ts = tagset_for_generation(gen, keys, "src")
    pool = [attach_tags(encode(gen, rng), keys) for _ in range(3)]
    for _ in range(1000):
        picks = [pool[i] for i in rng.integers(0, len(pool), size=2)]
        mixed = recode(picks, rng)
        assert all(verify_tags(mixed, keys))
        assert ledger_check(mixed, ts, keys)
        if len(pool) < 8:
            pool.append(mixed)


def test_honest_pipeline_completeness():
    # encode -> recode* -> verify/ledger_check never rejects honest traffic
    spec = GF16
    rng = np.random.default_rng(23)
    gen = random_generation("c", 2, 4, spec, rng)
    keys = generate_domain_keys(4, 2, spec, rng, "d")
    ts = tagset_for_generation(gen, keys, "src")
    for _ in range(10_000):
        a = attach_tags(encode(gen, rng), keys)
        b = attach_tags(encode(gen, rng), keys)
        mixed = recode([a, b], rng)
        assert all(verify_tags(mixed, keys))
        assert ledger_check(mixed, ts, keys)


def test_ledger_soundness_rejects_all_modifications():
    spec = GF16
    rng = np.random.default_rng(24)
    gen = random_generation("s", 2, 8, spec, rng)
    keys = generate_domain_keys(8, 3, spec, rng, "d")
    ts = tagset_for_generation(gen, keys, "src")
    rejected = 0
    trials = 10_000
    for i in range(trials):
        pkt = attach_tags(encode(gen, rng), keys)
        mode = i % 3
        if mode == 0:  # payload modified, tags recomputed validly (all keys)
            bad = pkt.payload.copy()
            bad.elems[int(rng.integers(0, 8))] ^= 1 + int(rng.integers(0, 15))
            pkt = attach_tags(CodedPacket(pkt.gen_id, pkt.coeffs.copy(), bad), keys)
        elif mode == 1:  # tags randomised
            pkt.tags = FieldVector(spec.random_elements(rng, 3), spec, _checked=True)
            if ledger_check(pkt, ts, keys):  # 1/q^3 fluke would be a pass
                continue
        else:  # single tag flipped
            pkt.tags.elems[int(rng.integers(0, 3))] ^= 1 + int(rng.integers(0, 15))
        rejected += int(not ledger_check(pkt, ts, keys))
    assert rejected == trials


def test_make_tag_dimension_mismatch(setup):
    _, _, keys = setup
    with pytest.raises(DimensionMismatch):
        make_tag(FieldVector.zeros(5, GF256), keys[0])


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.sampled_from(sorted(SPECS)),
    m=st.integers(1, 4),
    n=st.integers(1, 8),
    l=st.integers(1, 4),
    tree=st.lists(st.lists(st.integers(0, 63), min_size=1, max_size=4), min_size=1, max_size=10),
)
def test_tags_survive_random_recode_trees(seed, k, m, n, l, tree):
    # Each step recodes a random multiset of the packets so far, so the
    # pool grows into an arbitrary recoding tree over two source packets.
    spec = SPECS[k]
    rng = np.random.default_rng(seed)
    gen = random_generation("t", m, n, spec, rng)
    keys = generate_domain_keys(n, l, spec, rng, "d")
    ts = tagset_for_generation(gen, keys, "src")
    pool = [attach_tags(encode(gen, rng), keys) for _ in range(2)]
    for picks in tree:
        mixed = recode([pool[i % len(pool)] for i in picks], rng)
        assert all(verify_tags(mixed, keys))
        assert attach_tags(mixed, keys).tags == mixed.tags  # tag(sum) == sum(tags)
        assert ledger_check(mixed, ts, keys)
        pool.append(mixed)
