import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncsecsim._stats import binomial_sigma
from ncsecsim.errors import (
    DimensionMismatch,
    EmptyInput,
    GenerationMismatch,
    InvalidParameter,
    TagSetUnavailable,
)
from ncsecsim.gf import GF16, GF256, FieldSpec, FieldVector, field
from ncsecsim.integrity import (
    KeyRing,
    TagSet,
    attach_tags,
    combine_tags,
    generate_domain_keys,
    key_ring_bytes,
    key_verdicts,
    ledger_check,
    tag_matrix,
    tagset_for_generation,
    verify_tags,
)
from ncsecsim.rlnc import CodedPacket, encode, random_generation, recode

from oracles import dot_oracle, matvec_oracle

SPECS = {k: FieldSpec(k) for k in (1, 2, 4, 8, 16)}


@pytest.fixture
def setup():
    rng = np.random.default_rng(20)
    gen = random_generation("g", 4, 16, GF256, rng)
    keys = generate_domain_keys(16, 4, GF256, rng, "dom")
    return rng, gen, keys


def test_key_invariants():
    keys = generate_domain_keys(8, 50, GF16, np.random.default_rng(21), "d")
    assert keys.matrix.shape == (50, 9) and len(keys) == 50
    assert keys.matrix[:, 8].all()
    assert keys.slots.tolist() == list(range(50))
    with pytest.raises(ValueError):  # read-only
        keys.matrix[0, 0] = 1
    with pytest.raises(InvalidParameter):
        KeyRing([[1, 2, 0]], GF256)


def test_zero_payload_has_zero_tag(setup):
    _, _, keys = setup
    assert not tag_matrix(np.zeros(16, dtype=np.uint8), keys).any()


def test_tag_verifies_by_construction(setup):
    rng, gen, keys = setup
    for _ in range(50):
        pkt = attach_tags(encode(gen, rng), keys)
        assert all(verify_tags(pkt, keys))
        # the tag really zeroes the (payload || tag) inner product
        for j, key in enumerate(keys.matrix):
            row = pkt.payload.tolist() + [pkt.tags[j]]
            assert dot_oracle(row, key, 8, 0x11B) == 0


def test_tag_of_sum_is_sum_of_tags(setup):
    rng, _, keys = setup
    for _ in range(100):
        p1, p2 = GF256.random_elements(rng, (2, 16))
        assert (tag_matrix(p1 ^ p2, keys) == tag_matrix(p1, keys) ^ tag_matrix(p2, keys)).all()


def test_single_tag_flip_fails_exactly_that_key(setup):
    rng, gen, keys = setup
    pkt = attach_tags(encode(gen, rng), keys)
    for j in range(len(keys)):
        tampered = CodedPacket(pkt.gen_id, pkt.coeffs.copy(), pkt.payload.copy(), pkt.tags.copy())
        tampered.tags.elems[j] ^= 5
        verdicts = verify_tags(tampered, keys)
        assert verdicts == [i != j for i in range(len(keys))]


def test_verify_with_sub_ring(setup):
    rng, gen, keys = setup
    pkt = attach_tags(encode(gen, rng), keys)
    pkt.tags.elems[1] ^= 1
    assert keys[[2, 0]].slots.tolist() == [2, 0]
    assert verify_tags(pkt, keys[[2, 0]]) == [True, True]
    assert verify_tags(pkt, keys[1:]) == [False, True, True]
    assert verify_tags(pkt, keys[3]) == [True]
    assert verify_tags(pkt, keys[[]]) == []
    short = attach_tags(encode(gen, rng), keys[:2])
    with pytest.raises(DimensionMismatch):
        verify_tags(short, keys[[0, 2]])


def test_keys_from_another_field_are_rejected(setup):
    # GF(16) key values in GF(256) arithmetic would give wrong verdicts
    # and tags, not an error
    rng, gen, keys = setup
    pkt = attach_tags(encode(gen, rng), keys)
    ts = tagset_for_generation(gen, keys, "src")
    other = generate_domain_keys(16, 4, GF16, rng, "d")
    with pytest.raises(DimensionMismatch):
        verify_tags(pkt, other)
    with pytest.raises(DimensionMismatch):
        attach_tags(pkt, other)
    with pytest.raises(DimensionMismatch):
        tagset_for_generation(gen, other, "src")
    with pytest.raises(DimensionMismatch):
        ledger_check(pkt, ts, other)


def test_forged_random_tag_passes_at_one_over_q():
    # One symbol of the payload changed, the tag guessed at random.
    spec = GF16
    rng = np.random.default_rng(22)
    gen = random_generation("s", 2, 8, spec, rng)
    key = generate_domain_keys(8, 1, spec, rng, "d")
    base = encode(gen, rng)
    trials = 200_000
    deltas = 1 + rng.integers(0, 15, size=trials)
    positions = rng.integers(0, 8, size=trials)
    forged_tags = rng.integers(0, 16, size=trials)
    payloads = np.tile(base.payload.elems, (trials, 1))
    payloads[np.arange(trials), positions] ^= deltas.astype(spec.dtype)
    passes = int(key_verdicts(payloads, forged_tags[:, None], key).sum())
    # the count a per-trial loop of scalar inner products gave on these draws
    assert passes == 12_363
    assert abs(passes / trials - 1 / 16) <= 3 * binomial_sigma(1 / 16, trials)


def test_combine_tags_cases(setup):
    rng, gen, keys = setup
    ts = tagset_for_generation(gen, keys, "src")
    unit = FieldVector([1, 0, 0, 0], GF256)
    assert combine_tags(ts.native_tags, unit).tolist() == list(map(int, ts.native_tags[0]))
    zero = FieldVector.zeros(4, GF256)
    assert not combine_tags(ts.native_tags, zero).elems.any()
    pkt = attach_tags(encode(gen, rng), keys)
    mixed = recode([pkt, attach_tags(encode(gen, rng), keys)], rng)
    assert combine_tags(ts.native_tags, mixed.coeffs) == mixed.tags


def test_native_tags_outside_the_field_are_rejected(setup):
    rng, gen, keys = setup
    pkt = attach_tags(encode(gen, rng), keys)
    one = FieldVector([1], GF256)
    # floats and negative tags fail when the tag set is built
    for bad in ([[1.7, 300.0]], [[1.0, 2.0]], [[1, -1]]):
        with pytest.raises(InvalidParameter):
            TagSet("g", "s", np.array(bad))
        with pytest.raises(InvalidParameter):
            combine_tags(np.array(bad), one)
    # an integer tag is checked against the field it is combined over
    wide = TagSet("g", "s", np.array([[1, 300]]))
    for rows in (wide.native_tags, [[1, 300]]):
        with pytest.raises(InvalidParameter):
            combine_tags(rows, one)
    assert combine_tags(wide.native_tags, FieldVector([1], SPECS[16])).tolist() == [1, 300]
    ts = tagset_for_generation(gen, keys, "src")
    too_big = ts.native_tags.astype(np.int64)
    too_big[0, 0] = 256
    with pytest.raises(InvalidParameter):
        ledger_check(pkt, TagSet(gen.gen_id, "src", too_big), keys)
    assert ledger_check(pkt, TagSet(gen.gen_id, "src", ts.native_tags.astype(np.int64)), keys)


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


def test_tag_matrix_dimension_mismatch(setup):
    _, _, keys = setup
    with pytest.raises(DimensionMismatch):
        tag_matrix(np.zeros(5, dtype=np.uint8), keys)


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


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.sampled_from(sorted(SPECS)),
    n=st.integers(1, 8),
    l=st.integers(1, 5),
    data=st.data(),
)
def test_key_ring_rows_and_slots_match_oracle(seed, k, n, l, data):
    # A sub-ring of any rows, repeats and the empty selection included:
    # each row checks its own slot, by the oracle's inner product.
    spec = SPECS[k]
    rng = np.random.default_rng(seed)
    keys = generate_domain_keys(n, l, spec, rng, "d")
    rows = data.draw(st.lists(st.integers(0, l - 1), max_size=2 * l), label="rows")
    ring = keys[rows]
    assert ring.slots.tolist() == rows and len(ring) == len(rows)
    payloads = spec.random_elements(rng, (3, n))
    tags = tag_matrix(payloads, keys)
    tags ^= spec.random_elements(rng, tags.shape) * rng.integers(0, 2, tags.shape).astype(spec.dtype)

    def oracle(t, i, tag):
        return dot_oracle(list(payloads[t]) + [tag], keys.matrix[rows[i]], spec.k, spec.poly)

    verdicts = key_verdicts(payloads, tags, ring)
    assert verdicts.shape == (3, len(rows))
    for t in range(3):
        pkt = CodedPacket("g", FieldVector([1], spec), FieldVector(payloads[t], spec),
                          FieldVector(tags[t], spec))
        expected = [oracle(t, i, tags[t, r]) == 0 for i, r in enumerate(rows)]
        assert verdicts[t].tolist() == expected == verify_tags(pkt, ring)
    ring_tags = tag_matrix(payloads, ring)
    assert all(oracle(t, i, ring_tags[t, i]) == 0 for t in range(3) for i in range(len(rows)))

    if rows:
        with pytest.raises(DimensionMismatch):
            key_verdicts(payloads, tags[:, : max(rows)], ring)
        with pytest.raises(DimensionMismatch):
            verify_tags(CodedPacket("g", FieldVector([1], spec), FieldVector(payloads[0], spec),
                                    FieldVector(tags[0, : max(rows)], spec)), ring)
    bad = keys.matrix.astype(np.int64)
    bad[0, -1] = 0
    with pytest.raises(InvalidParameter):  # zero last element
        KeyRing(bad, spec)
    bad[0, -1], bad[0, 0] = 1, spec.q
    with pytest.raises(InvalidParameter):  # element outside the field
        KeyRing(bad, spec)
    with pytest.raises(InvalidParameter):  # no payload column
        KeyRing(keys.matrix[:, -1:], spec)
    with pytest.raises(InvalidParameter):  # non-integer elements
        KeyRing(keys.matrix.astype(float), spec)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 16),
    n=st.integers(1, 12),
    count=st.integers(0, 9),
    lead=st.sampled_from([(), (0,), (4,), (0, 2), (2, 3)]),
    data=st.data(),
)
def test_ring_products_match_matmul_and_oracle(seed, k, n, count, lead, data):
    # Tags and verdicts of a ring and of a sub-ring with repeated and
    # reordered rows, parent products first, against the key-by-key
    # formula through ``matmul`` and the oracle's inner product.
    spec = field(k)
    rng = np.random.default_rng(seed)
    keys = generate_domain_keys(n, count, spec, rng, "d")
    rows = data.draw(st.lists(st.integers(0, max(count - 1, 0)), max_size=9), label="rows")
    rings = [keys, keys[rows]] if count else [keys]
    payloads = spec.random_elements(rng, lead + (n,))
    tags = tag_matrix(payloads, keys)
    noisy = tags ^ spec.random_elements(rng, tags.shape) * rng.integers(0, 2, tags.shape).astype(spec.dtype)
    for ring in rings:
        heads, last = ring.matrix[:, :-1].T, ring.matrix[:, -1]
        inv_last = np.array([spec.inv(int(x)) for x in last], dtype=spec.dtype)
        expect = spec.vec_mul(spec.matmul(payloads, heads), inv_last)
        assert np.array_equal(tag_matrix(payloads, ring), expect)
        acc = spec.matmul(payloads, heads) ^ spec.vec_mul(noisy[..., ring.slots], last)
        assert np.array_equal(key_verdicts(payloads, noisy, ring), acc == 0)
        flat = payloads.reshape(-1, n)
        for t, row in enumerate(tag_matrix(flat, ring).tolist()):
            assert row == [
                spec.mul(dot_oracle(list(flat[t]), key[:-1], k, spec.poly), spec.inv(int(key[-1])))
                for key in ring.matrix
            ]
        with pytest.raises(DimensionMismatch):
            tag_matrix(np.zeros(lead + (n + 1,), dtype=spec.dtype), ring)
        with pytest.raises(DimensionMismatch):
            key_verdicts(np.zeros(lead + (n + 1,), dtype=spec.dtype), noisy, ring)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.sampled_from([4, 8, 16]),
    m=st.integers(1, 4),
    n=st.integers(1, 12),
    l=st.integers(1, 5),
    order=st.permutations(range(5)),
    keep=st.integers(0, 5),
    position=st.integers(0, 2**20),
    delta=st.integers(0, 2**16),
)
# a flip of a coefficient alone leaves every key check passing: only the
# ledger comparison covers the coefficients
@example(seed=3, k=8, m=3, n=5, l=2, order=[1, 0, 2, 3, 4], keep=2, position=0, delta=0)
def test_one_flipped_element_of_a_recoded_row_matches_the_oracles(
    seed, k, m, n, l, order, keep, position, delta
):
    spec = field(k)
    rng = np.random.default_rng(seed)
    gen = random_generation("g", m, n, spec, rng)
    keys = generate_domain_keys(n, l, spec, rng, "d")
    tagset = tagset_for_generation(gen, keys, "src")
    window = [attach_tags(encode(gen, rng), keys) for _ in range(3)]
    coded = recode(window, rng)
    row = coded.row.copy()
    at = position % len(row)
    row[at] ^= 1 + delta % (spec.q - 1)
    pkt = coded.with_row(row)
    ring = keys[[r for r in order if r < l][:keep]]

    coeffs, payload, tags = row[:m], row[m : m + n], row[m + n :]
    by_key = [
        dot_oracle(list(payload) + [tags[slot]], keys.matrix[slot], k, spec.poly) == 0
        for slot in ring.slots
    ]
    pinned = tags.tolist() == matvec_oracle(coeffs, tagset.native_tags, k, spec.poly)
    assert verify_tags(pkt, ring) == by_key
    assert ledger_check(pkt, tagset) == pinned
    assert ledger_check(pkt, tagset, ring) == (pinned and all(by_key))
    if at < m:
        assert all(by_key)


def test_every_error_of_the_relay_calls(setup):
    rng, gen, keys = setup
    ts = tagset_for_generation(gen, keys, "src")
    pkt = attach_tags(encode(gen, rng), keys)
    other = random_generation("other", 4, 16, GF256, rng)
    with pytest.raises(EmptyInput):
        recode([], rng)
    with pytest.raises(GenerationMismatch):
        recode([pkt, attach_tags(encode(other, rng), keys)], rng)
    with pytest.raises(DimensionMismatch):  # a wrong tag count
        recode([pkt, attach_tags(encode(gen, rng), keys[:3])], rng)
    with pytest.raises(DimensionMismatch):  # a key's slot past the carried tags
        verify_tags(attach_tags(pkt, keys[:2]), keys)
    with pytest.raises(DimensionMismatch):  # a wrong tag-row count
        ledger_check(pkt, TagSet(gen.gen_id, "src", ts.native_tags[:3]))
    with pytest.raises(TagSetUnavailable):
        ledger_check(pkt, None)
    with pytest.raises(TagSetUnavailable):
        ledger_check(pkt, TagSet("other", "src", ts.native_tags))
    with pytest.raises(InvalidParameter):  # native tags outside GF(256)
        ledger_check(pkt, TagSet(gen.gen_id, "src", ts.native_tags.astype(np.int64) + 256))
    # a tag set of another width is no error: the carried tags differ
    assert not ledger_check(pkt, TagSet(gen.gen_id, "src", ts.native_tags[:, :3]))
    # the ledger comparison comes first, and a key past the tags raises after it
    short = attach_tags(pkt, keys[:2])
    with pytest.raises(DimensionMismatch):
        ledger_check(short, TagSet(gen.gen_id, "src", ts.native_tags[:, :2]), keys)


@pytest.mark.parametrize("k, n, count", [(8, 1024, 8), (8, 3000, 1), (16, 2000, 4), (4, 500, 16)])
def test_key_ring_bytes_bounds_a_ring_and_its_first_product(k, n, count):
    spec = field(k)
    rng = np.random.default_rng(5)
    payload = spec.random_elements(rng, n)
    tracemalloc.start()
    try:
        generate_domain_keys(n, count, spec, rng, "d").tag_product(payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= key_ring_bytes(n, count, spec)
