import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncsecsim.errors import (
    DimensionMismatch,
    EmptyInput,
    GenerationMismatch,
    InvalidParameter,
    PollutionDetectedAtDecode,
)
from ncsecsim.gf import GF16, GF256, FieldSpec, FieldVector
from ncsecsim.integrity import attach_tags, generate_domain_keys
from ncsecsim.rlnc import (
    CodedPacket,
    Generation,
    decode,
    encode,
    in_row_space,
    random_generation,
    recode,
)

from oracles import matmul_oracle, matvec_oracle

SPECS = {k: FieldSpec(k) for k in (1, 2, 4, 8, 16)}


class StubRng:
    """Yields pre-set integer draws so coefficient vectors can be forced."""

    def __init__(self, *draws):
        self._draws = list(draws)

    def integers(self, low, high, size=None, dtype=None):
        out = np.asarray(self._draws.pop(0), dtype=dtype or np.int64)
        return out


@pytest.fixture
def gen():
    rng = np.random.default_rng(10)
    return random_generation("g", 4, 16, GF256, rng)


def test_encode_unit_coefficients_reproduce_natives(gen):
    for i in range(gen.m):
        unit = [0] * gen.m
        unit[i] = 1
        pkt = encode(gen, StubRng(unit))
        assert pkt.payload.tolist() == list(map(int, gen.natives[i]))
        assert pkt.coeffs.tolist() == unit
        assert len(pkt.tags) == 0


def test_encode_zero_coefficients_give_zero_payload(gen):
    pkt = encode(gen, StubRng([0] * gen.m))
    assert not pkt.payload.elems.any()


def test_encode_matches_matrix_product_oracle(gen):
    rng = np.random.default_rng(11)
    for _ in range(20):
        pkt = encode(gen, rng)
        expect = matvec_oracle(pkt.coeffs.tolist(), gen.natives, 8, 0x11B)
        assert pkt.payload.tolist() == expect


def test_recode_single_packet_identity(gen):
    rng = np.random.default_rng(12)
    pkt = encode(gen, rng)
    pkt.tags = FieldVector([3, 7], GF256)
    out = recode([pkt], StubRng([1]))
    assert out.coeffs == pkt.coeffs
    assert out.payload == pkt.payload
    assert out.tags == pkt.tags


def test_recode_same_packet_twice_cancels(gen):
    rng = np.random.default_rng(13)
    pkt = encode(gen, rng)
    pkt.tags = FieldVector([9], GF256)
    out = recode([pkt, pkt], StubRng([1, 1]))
    assert not (out.coeffs.elems.any() or out.payload.elems.any() or out.tags.elems.any())


def test_recode_zero_draw_is_redrawn_once(gen):
    rng = np.random.default_rng(14)
    pkt = encode(gen, rng)
    out = recode([pkt], StubRng([0], [2]))
    assert out.coeffs == pkt.coeffs.scale(2)


def test_recode_rejects_mixed_generations(gen):
    rng = np.random.default_rng(15)
    other = random_generation("other", 4, 16, GF256, rng)
    with pytest.raises(GenerationMismatch):
        recode([encode(gen, rng), encode(other, rng)], rng)
    with pytest.raises(EmptyInput):
        recode([], rng)
    a, b = encode(gen, rng), encode(gen, rng)
    a.tags = FieldVector([1, 2], GF256)
    b.tags = FieldVector([1], GF256)
    with pytest.raises(DimensionMismatch):
        recode([a, b], rng)


def test_decode_identity_matrix_returns_natives(gen):
    packets = []
    for i in range(gen.m):
        unit = [0] * gen.m
        unit[i] = 1
        packets.append(encode(gen, StubRng(unit)))
    result = decode(packets)
    assert result.complete
    assert np.array_equal(result.natives, gen.natives)


def test_decode_rank_deficiency_reported(gen):
    rng = np.random.default_rng(16)
    packets = [encode(gen, rng) for _ in range(gen.m - 1)]
    result = decode(packets)
    assert not result.complete
    assert result.rank == gen.m - 1
    assert result.natives is None


def test_decode_roundtrip_random_generations():
    # 100 seeded generations, q=256: full-rank receptions decode exactly.
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        g = random_generation(f"g{seed}", 4, 16, GF256, rng)
        packets = [encode(g, rng) for _ in range(8)]
        result = decode(packets)
        if result.complete:  # 8 draws of rank-4 almost surely
            assert np.array_equal(result.natives, g.natives)
        else:
            assert result.rank < g.m


def test_recoding_closure_stays_in_row_space(gen):
    rng = np.random.default_rng(17)
    pool = [encode(gen, rng) for _ in range(3)]
    for _ in range(20):
        pick = [pool[i] for i in rng.integers(0, len(pool), size=2)]
        mixed = recode(pick, rng)
        assert in_row_space(mixed.payload, gen)
        pool.append(mixed)


def test_decode_inconsistent_system_flags_pollution(gen):
    packets = []
    for i in range(gen.m):
        unit = [0] * gen.m
        unit[i] = 1
        packets.append(encode(gen, StubRng(unit)))
    forged = CodedPacket(
        gen.gen_id,
        packets[0].coeffs.copy(),
        packets[1].payload.copy(),  # wrong payload for these coefficients
    )
    with pytest.raises(PollutionDetectedAtDecode):
        decode(packets + [forged])


def test_pollution_propagates_through_recoding():
    # Mixing one polluted packet in leaves the row space unless the local
    # coefficient for it happens to be zero (probability 1/q).
    spec = GF16
    rng = np.random.default_rng(18)
    g = random_generation("p", 3, 8, spec, rng)
    trials, outside = 10_000, 0
    for _ in range(trials):
        polluted = encode(g, rng)
        polluted.payload.elems[int(rng.integers(0, g.n))] ^= 1 + int(
            rng.integers(0, spec.q - 1)
        )
        mixed = recode([polluted, encode(g, rng)], rng)
        if not in_row_space(mixed.payload, g):
            outside += 1
    rate = outside / trials
    sigma = np.sqrt((1 / 16) * (15 / 16) / trials)
    assert rate >= 1 - 1 / 16 - 3 * sigma


def test_generation_validation():
    with pytest.raises(Exception):
        Generation("bad", np.zeros((0, 4), dtype=np.uint8), GF256)
    with pytest.raises(Exception):
        Generation("bad", np.full((2, 2), 999), GF256)
    with pytest.raises(InvalidParameter):  # a cast would truncate to [[1, 2]]
        Generation("bad", np.array([[1.7, 2.2]]), GF256)


@st.composite
def full_rank_receptions(draw):
    """A generation and a shuffled reception that contains a full-rank set.

    Row i of the full-rank set is e_i plus random multiples of e_j, j < i
    (unit lower triangular), so rank m holds by construction; extra random
    packets and recodes ride along.
    """
    k = draw(st.sampled_from(sorted(SPECS)))
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = SPECS[k]
    g = random_generation("r", m, n, spec, rng)
    packets = []
    for i in range(m):
        row = spec.random_elements(rng, m)
        row[i] = 1
        row[i + 1 :] = 0
        packets.append(encode(g, StubRng(row)))
    packets += [encode(g, rng) for _ in range(draw(st.integers(0, 3)))]
    packets += [recode(packets[:2], rng) for _ in range(draw(st.integers(0, 2)))]
    order = draw(st.permutations(range(len(packets))))
    return g, [packets[i] for i in order], rng


@settings(max_examples=150, deadline=None)
@given(full_rank_receptions())
def test_decode_roundtrip_property(case):
    g, packets, _ = case
    result = decode(packets)
    assert result.complete and result.rank == g.m
    assert np.array_equal(result.natives, g.natives)


@settings(max_examples=150, deadline=None)
@given(full_rank_receptions(), st.data())
def test_pollution_flagged_at_decode_property(case, data):
    # With a full-rank honest set present, one packet whose payload does
    # not match its coefficients makes the system inconsistent.
    g, packets, rng = case
    bad = encode(g, rng)
    pos = data.draw(st.integers(0, g.n - 1))
    bad.payload.elems[pos] ^= data.draw(st.integers(1, g.spec.q - 1))
    at = data.draw(st.integers(0, len(packets)))
    with pytest.raises(PollutionDetectedAtDecode):
        decode(packets[:at] + [bad] + packets[at:])


def test_in_row_space_rejects_payloads_of_another_shape_or_field(gen):
    rng = np.random.default_rng(19)
    with pytest.raises(DimensionMismatch):
        in_row_space(FieldVector.random(gen.n + 1, GF256, rng), gen)
    with pytest.raises(DimensionMismatch):
        in_row_space(FieldVector.random(gen.n, GF16, rng), gen)
    assert in_row_space(encode(gen, rng).payload, gen)


ROW_FIELDS = [SPECS[k] for k in (1, 4, 8, 16)]


@st.composite
def packet_shapes(draw):
    """A field, a generation's m and n, a tag count l and a seeded rng."""
    spec = draw(st.sampled_from(ROW_FIELDS))
    m, n, l = draw(st.integers(1, 6)), draw(st.integers(1, 20)), draw(st.integers(0, 9))
    return spec, m, n, l, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=100, deadline=None)
@given(packet_shapes())
def test_packet_is_one_row_with_views_of_its_parts(case):
    spec, m, n, l, rng = case
    parts = [FieldVector.random(size, spec, rng) for size in (m, n, l)]
    pkt = CodedPacket("g", *parts)
    assert pkt.row.tolist() == parts[0].tolist() + parts[1].tolist() + parts[2].tolist()
    assert (pkt.gen_id, pkt.spec, pkt.m, pkt.n) == ("g", spec, m, n)
    assert [pkt.coeffs, pkt.payload, pkt.tags] == parts
    # the constructor copies its vectors
    row = pkt.row.copy()
    for part in parts:
        part.elems ^= 1
    assert np.array_equal(pkt.row, row)
    # a write through a view is a write to the row, and recoding sees it
    pos = int(rng.integers(0, n))
    pkt.payload.elems[pos] ^= 1
    row[m + pos] ^= 1
    if l:
        pkt.tags.elems[l - 1] ^= 1
        row[-1] ^= 1
    assert np.array_equal(pkt.row, row)
    assert np.array_equal(recode([pkt], StubRng([1])).row, row)
    # assigning tags rebuilds the row
    pkt.tags = FieldVector.zeros(l + 1, spec)
    assert pkt.row.tolist() == row[: m + n].tolist() + [0] * (l + 1)


@settings(max_examples=100, deadline=None)
@given(packet_shapes(), st.sampled_from(ROW_FIELDS), st.integers(0, 3))
def test_packet_parts_over_different_fields_are_rejected(case, other, which):
    spec, m, n, l, rng = case
    assume(other != spec)
    parts = [FieldVector.random(size, spec, rng) for size in (m, n, l)]
    pkt = CodedPacket("g", *parts)
    with pytest.raises(DimensionMismatch):
        if which == 3:
            pkt.tags = FieldVector.zeros(l, other)
        else:
            parts[which] = FieldVector.zeros(len(parts[which]), other)
            CodedPacket("g", *parts)


@settings(max_examples=100, deadline=None)
@given(packet_shapes(), st.integers(1, 4))
def test_recode_row_is_the_product_of_the_stacked_rows(case, count):
    spec, m, n, l, rng = case
    gen = random_generation("g", m, n, spec, rng)
    packets = [encode(gen, rng) for _ in range(count)]
    for p in packets:
        p.tags = FieldVector.random(l, spec, rng)
    local = spec.random_elements(rng, count)
    if not local.any():
        local[0] = 1
    out = recode(packets, StubRng(local))
    expect = matmul_oracle(local[None, :], np.stack([p.row for p in packets]), spec.k, spec.poly)
    assert out.row.tolist() == expect[0]
    assert (out.gen_id, out.spec, out.m, out.n, len(out.tags)) == ("g", spec, m, n, l)


@settings(max_examples=100, deadline=None)
@given(packet_shapes(), st.data())
def test_decode_ignores_the_tag_columns(case, data):
    # m unit lower triangular packets (full rank) and one more, all
    # honestly tagged; tampering with one packet's tags changes nothing
    spec, m, n, l, rng = case
    l = max(l, 1)
    gen = random_generation("g", m, n, spec, rng)
    keys = generate_domain_keys(n, l, spec, rng, "d")
    packets = []
    for i in range(m + 1):
        row = spec.random_elements(rng, m)
        if i < m:
            row[i], row[i + 1 :] = 1, 0
        packets.append(attach_tags(encode(gen, StubRng(row)), keys))
    bad = packets[data.draw(st.integers(0, m))]
    bad.tags.elems[data.draw(st.integers(0, l - 1))] ^= data.draw(st.integers(1, spec.q - 1))
    result = decode(packets)
    assert result.complete and np.array_equal(result.natives, gen.natives)
