import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncsecsim import gf
from ncsecsim.errors import DimensionMismatch, InvalidParameter, InversionOfZero
from ncsecsim.gf import GF16, GF256, FieldSpec, FieldVector

from oracles import (
    axpy_oracle,
    dot_oracle,
    inv_oracle,
    is_irreducible_oracle,
    matmul_oracle,
    mul_oracle,
)

SPECS = {k: FieldSpec(k) for k in range(1, 17)}


@st.composite
def operand_pairs(draw):
    """A bit width and two equal-length operand lists, zeros planted often."""
    k = draw(st.integers(1, 16))
    q = 1 << k
    element = st.one_of(st.just(0), st.just(1), st.just(q - 1), st.integers(0, q - 1))
    size = draw(st.integers(1, 12))
    a = draw(st.lists(element, min_size=size, max_size=size))
    b = draw(st.lists(element, min_size=size, max_size=size))
    return k, a, b


@settings(max_examples=300, deadline=None)
@given(operand_pairs())
def test_kernel_matches_oracle_at_every_k(case):
    k, a, b = case
    spec = SPECS[k]
    got = spec.vec_mul(np.array(a), np.array(b))
    assert got.dtype == spec.dtype
    for x, y, z in zip(a, b, got):
        expect = mul_oracle(x, y, k, spec.poly)
        assert int(z) == expect
        assert spec.mul(x, y) == expect
        if x:
            assert spec.inv(x) == inv_oracle(x, k, spec.poly)
        else:
            with pytest.raises(InversionOfZero):
                spec.inv(x)


# Bytes per product row the matmul tests cover: 1, and the 2/4/8-byte rows
# reduced a word at a time, and 16, wider than any word.
ROW_BYTES = [1, 2, 4, 8, 16]


@st.composite
def matrix_pairs(draw):
    """Operands of a product and a block size, the row count on or next to
    a multiple of the rows one block holds.  ``b`` may be contiguous, a
    transposed view or a strided view; ``a`` may carry batch axes or be a
    single 1-d row.  Inner and outer dimensions may be empty."""
    k = draw(st.sampled_from([1, 2, 4, 8, 12, 16]))
    spec = SPECS[k]
    itemsize = np.dtype(spec.dtype).itemsize
    c = draw(st.sampled_from([0] + [w // itemsize for w in ROW_BYTES if w >= itemsize]))
    m = draw(st.integers(0, 6))
    block = draw(st.sampled_from([1, 2, 3, 7, 16, 64, gf.MATMUL_BLOCK]))
    per_block = max(1, block // max(m * c, 1))
    rows = per_block * draw(st.integers(0, 3)) + draw(st.sampled_from([-1, 0, 1]))
    rows = max(0, min(rows, 24))
    batch = draw(st.sampled_from([(), (2,), (1, 2)]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    a = spec.random_elements(rng, batch + (rows, m))
    layout = draw(st.sampled_from(["contiguous", "transposed", "strided"]))
    if layout == "contiguous":
        b = spec.random_elements(rng, (m, c))
    elif layout == "transposed":
        b = spec.random_elements(rng, (c, m)).T
    else:
        b = spec.random_elements(rng, (2 * m, 2 * c + 1))[::2, 1::2]
    # plant zero rows/columns so the zero sentinel meets every position
    if rows and draw(st.booleans()):
        a[..., draw(st.integers(0, rows - 1)), :] = 0
    if c and draw(st.booleans()):
        b[:, draw(st.integers(0, c - 1))] = 0
    if rows == 1 and not batch and draw(st.booleans()):
        a = a[0]  # a 1-d left operand
    return k, a, b, block


@settings(max_examples=300, deadline=None)
@given(matrix_pairs())
def test_matmul_matches_loop_oracle(case):
    k, a, b, block = case
    spec = SPECS[k]
    with mock.patch.object(gf, "MATMUL_BLOCK", block):
        got = spec.matmul(a, b)
        assert got.shape == a.shape[:-1] + b.shape[1:] and got.dtype == spec.dtype
        rows = math.prod(a.shape[:-1])
        flat_a = a.reshape(rows, b.shape[0])
        flat_got = got.reshape(rows, b.shape[1])
        assert flat_got.tolist() == matmul_oracle(flat_a, b, k, spec.poly)
        # a single row is the same product as a 1-d left operand
        for i in range(len(flat_a)):
            assert spec.matmul(flat_a[i], b).tolist() == flat_got[i].tolist()


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8])
def test_product_table_exhaustive(k):
    # every one of the q*q table products against log/antilog and the oracle
    spec = SPECS[k]
    a, b = np.divmod(np.arange(spec.q * spec.q), spec.q)
    got = spec.vec_mul(a, b).tolist()
    for x, y, z in zip(a.tolist(), b.tolist(), got):
        assert z == spec.mul(x, y) == mul_oracle(x, y, k, spec.poly)


@pytest.mark.parametrize("k, m, c", [(4, 32, 8), (8, 1024, 8), (8, 32, 1024), (16, 64, 4)])
def test_matmul_at_block_boundaries(k, m, c):
    # the module's own block size, row counts either side of a block edge,
    # against one vec_mul row at a time
    spec = SPECS[k]
    per_block = max(1, gf.MATMUL_BLOCK // (m * c))
    rng = np.random.default_rng(k + m + c)
    b = spec.random_elements(rng, (c, m)).T
    for rows in (per_block - 1, per_block, per_block + 1, 2 * per_block + 1):
        a = spec.random_elements(rng, (rows, m))
        expect = [np.bitwise_xor.reduce(spec.vec_mul(row[:, None], b), axis=0) for row in a]
        assert np.array_equal(spec.matmul(a, b), np.array(expect, dtype=spec.dtype).reshape(rows, c))


@pytest.mark.parametrize(
    "spec, a_shape, b_shape",
    [(GF256, (32, 1024), (1024, 8)), (GF16, (3000, 32), (32, 8))],
)
def test_matmul_working_set_is_bounded(spec, a_shape, b_shape):
    # A block of products costs a uint16 index (2 B), its intp copy inside
    # np.take (8 B) and the products (1 B); 12 B per product leaves slack.
    # Without blocking these calls hold 4 and 12 blocks' worth at once.
    rng = np.random.default_rng(9)
    a = spec.random_elements(rng, a_shape)
    b = spec.random_elements(rng, b_shape)
    out_bytes = spec.matmul(a, b).nbytes
    tracemalloc.start()
    try:
        spec.matmul(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12 * gf.MATMUL_BLOCK + out_bytes


@st.composite
def fixed_products(draw):
    """A field, a fixed right-hand matrix of 0-9 columns (every word width
    and the fallback to ``matmul``) whose columns may repeat and come in
    any order, a left operand shaped (m,), (r, m) or (a, b, m) with empty
    stacks allowed, and a block size."""
    k = draw(st.integers(1, 16))
    spec = SPECS[k]
    m = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = spec.random_elements(rng, (m, draw(st.integers(1, 9))))
    cols = draw(st.lists(st.integers(0, base.shape[1] - 1), max_size=9))
    b = base[:, cols]
    if cols and draw(st.booleans()):
        b[:, draw(st.integers(0, len(cols) - 1))] = 0
    lead = draw(st.sampled_from([(), (0,), (1,), (5,), (0, 3), (2, 3)]))
    a = spec.random_elements(rng, lead + (m,))
    if a.size and draw(st.booleans()):
        a.flat[draw(st.integers(0, a.size - 1))] = spec.q - 1  # every digit set
    block = draw(st.sampled_from([1, 2, 5, 16, gf.PRODUCT_BLOCK]))
    return spec, a, b, block


@settings(max_examples=300, deadline=None)
@given(fixed_products())
def test_fixed_product_matches_oracle_and_matmul(case):
    spec, a, b, block = case
    product = gf.FixedProduct(spec, b)
    with mock.patch.object(gf, "PRODUCT_BLOCK", block):
        got = product(a)
    assert got.shape == a.shape[:-1] + b.shape[1:] and got.dtype == spec.dtype
    assert np.array_equal(got, spec.matmul(a, b))
    rows = a.reshape(math.prod(a.shape[:-1]), b.shape[0])
    assert got.reshape(len(rows), b.shape[1]).tolist() == matmul_oracle(rows, b, spec.k, spec.poly)
    itemsize = np.dtype(spec.dtype).itemsize
    assert (product.tables is None) == (b.shape[1] < 2 or b.shape[1] * itemsize > 8)
    with pytest.raises(DimensionMismatch):
        product(np.zeros(a.shape[:-1] + (b.shape[0] + 1,), dtype=spec.dtype))


@pytest.mark.parametrize("k, c", [(3, 3), (4, 8), (6, 5), (8, 2), (12, 3), (16, 4)])
def test_fixed_product_tables_hold_digit_products(k, c):
    # entry (s, j, v) is the row (v << 4s) * b[j], zero-padded to its word;
    # digit values past the field's top bit are never read and stay zero
    spec = SPECS[k]
    b = spec.random_elements(np.random.default_rng(k), (5, c))
    product = gf.FixedProduct(spec, b)
    product(b[:, 0])
    digits = -(-k // 4)
    width = product.tables.itemsize // np.dtype(spec.dtype).itemsize
    tables = product.tables.view(spec.dtype).reshape(digits, 5, 16, width)
    assert not product.tables.flags.writeable
    for s in range(digits):
        for j in range(5):
            for v in range(16):
                x = v << 4 * s
                expect = [mul_oracle(x, int(y), k, spec.poly) if x < spec.q else 0 for y in b[j]]
                assert tables[s, j, v].tolist() == expect + [0] * (width - c)


def test_fixed_product_tables_are_nibble_sized():
    # one GF(256) ring's tables at n=1024, l=8: 2 digits x 1024 rows x 16
    # words of 8 bytes, 256 KiB, where per-byte tables would take 2 MiB
    rng = np.random.default_rng(5)
    product = gf.FixedProduct(GF256, GF256.random_elements(rng, (1024, 8)))
    a = GF256.random_elements(rng, 1024)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        product(a)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert product.tables.nbytes == 2 * 1024 * 16 * 8
    assert kept - before <= 300_000


def test_field_is_shared_and_read_only():
    assert gf.field(8) is gf.field(8) is GF256
    assert gf.field(4) is GF16
    assert gf.field(12) is gf.field(12) and gf.field(12) == FieldSpec(12)
    for table in (GF256._exp, GF256._log, GF256._prod, gf.field(12)._exp):
        with pytest.raises(ValueError):
            table[0] = 1


def test_matmul_rejects_mismatched_inner_dimension():
    with pytest.raises(DimensionMismatch):
        GF256.matmul(np.zeros((2, 3)), np.zeros((4, 2)))
    with pytest.raises(DimensionMismatch):
        GF256.matmul(np.zeros(3), np.zeros(3))


def test_published_aes_field_values():
    # 0x53 * 0xCA = 1 under 0x11B; confirmed by the shift-and-reduce oracle.
    assert mul_oracle(0x53, 0xCA, 8, 0x11B) == 0x01
    assert GF256.mul(0x53, 0xCA) == 0x01
    assert inv_oracle(0x02, 8, 0x11B) == 0x8D
    assert GF256.inv(0x02) == 0x8D


def test_mul_identity_and_annihilator():
    for x in range(256):
        assert GF256.mul(x, 1) == x
        assert GF256.mul(x, 0) == 0


def test_mul_matches_oracle_exhaustive_k4():
    for a in range(16):
        for b in range(16):
            assert GF16.mul(a, b) == mul_oracle(a, b, 4, GF16.poly)


def test_mul_matches_oracle_random_k8():
    rng = np.random.default_rng(0)
    for a, b in rng.integers(0, 256, size=(2000, 2)):
        assert GF256.mul(int(a), int(b)) == mul_oracle(int(a), int(b), 8, 0x11B)


@pytest.mark.parametrize("k", [2, 4, 8])
def test_inverse_defining_property_exhaustive(k):
    spec = FieldSpec(k)
    for a in range(1, spec.q):
        assert spec.mul(a, spec.inv(a)) == 1
        assert spec.inv(a) == inv_oracle(a, k, spec.poly)


def test_inverse_of_one_and_zero():
    assert GF256.inv(1) == 1
    with pytest.raises(InversionOfZero):
        GF256.inv(0)
    with pytest.raises(InversionOfZero):
        GF16.inv(0)


def test_distributivity_exhaustive_k4():
    for a in range(16):
        for b in range(16):
            for c in range(16):
                assert GF16.mul(a, b ^ c) == GF16.mul(a, b) ^ GF16.mul(a, c)


def test_distributivity_randomized_k8():
    rng = np.random.default_rng(1)
    a, b, c = (rng.integers(0, 256, size=100_000, dtype=np.uint8) for _ in range(3))
    lhs = GF256.vec_mul(a, b ^ c)
    rhs = GF256.vec_mul(a, b) ^ GF256.vec_mul(a, c)
    assert np.array_equal(lhs, rhs)


def test_commutativity_and_associativity_random():
    rng = np.random.default_rng(2)
    for a, b, c in rng.integers(0, 256, size=(500, 3)):
        a, b, c = int(a), int(b), int(c)
        assert GF256.mul(a, b) == GF256.mul(b, a)
        assert GF256.mul(GF256.mul(a, b), c) == GF256.mul(a, GF256.mul(b, c))


@pytest.mark.parametrize("k", [2, 4, 8])
def test_nonzero_elements_form_group_of_order_q_minus_1(k):
    spec = FieldSpec(k)
    for a in range(1, spec.q):
        assert spec.pow(a, spec.q - 1) == 1
    # the searched generator really has full order
    seen = set()
    val = 1
    for _ in range(spec.q - 1):
        seen.add(val)
        val = spec.mul(val, spec.generator)
    assert seen == set(range(1, spec.q))


def test_dot_zero_and_unit_vectors():
    rng = np.random.default_rng(3)
    v = FieldVector.random(8, GF256, rng)
    zero = FieldVector.zeros(8, GF256)
    assert v.dot(zero) == 0
    for i in range(8):
        e = FieldVector.zeros(8, GF256)
        e.elems[i] = 1
        assert e.dot(v) == v[i]


def test_dot_matches_loop_oracle():
    rng = np.random.default_rng(4)
    for _ in range(50):
        u = FieldVector.random(8, GF256, rng)
        v = FieldVector.random(8, GF256, rng)
        assert u.dot(v) == dot_oracle(u.tolist(), v.tolist(), 8, 0x11B)


def test_dot_bilinearity_randomized():
    rng = np.random.default_rng(5)
    spec = GF256
    u = spec.random_elements(rng, (10_000, 8))
    v = spec.random_elements(rng, (10_000, 8))
    w = spec.random_elements(rng, (10_000, 8))
    alpha = spec.random_elements(rng, (10_000, 1))
    combo = spec.vec_mul(alpha, u) ^ v
    lhs = np.bitwise_xor.reduce(spec.vec_mul(combo, w), axis=1)
    rhs = np.bitwise_xor.reduce(
        spec.vec_mul(alpha, np.bitwise_xor.reduce(spec.vec_mul(u, w), axis=1)[:, None]),
        axis=1,
    ) ^ np.bitwise_xor.reduce(spec.vec_mul(v, w), axis=1)
    assert np.array_equal(lhs, rhs)


def test_axpy_cases():
    rng = np.random.default_rng(6)
    x = FieldVector.random(6, GF256, rng)
    y = FieldVector.random(6, GF256, rng)
    assert x.scale(0) + y == y
    assert (x.scale(1) + x).is_zero()  # characteristic 2
    got = x.scale(0x37) + y
    assert got.tolist() == axpy_oracle(0x37, x.tolist(), y.tolist(), 8, 0x11B)


def test_length_and_spec_mismatches_raise():
    rng = np.random.default_rng(7)
    a = FieldVector.random(4, GF256, rng)
    b = FieldVector.random(5, GF256, rng)
    c = FieldVector.random(4, GF16, rng)
    with pytest.raises(DimensionMismatch):
        a.dot(b)
    with pytest.raises(DimensionMismatch):
        a.scale(1) + b
    with pytest.raises(DimensionMismatch):
        a.dot(c)


def test_invalid_specs_rejected():
    with pytest.raises(InvalidParameter):
        FieldSpec(0)
    with pytest.raises(InvalidParameter):
        FieldSpec(17)
    with pytest.raises(InvalidParameter):
        FieldVector([300], GF256)
    with pytest.raises(InvalidParameter):  # a cast would truncate to [1, 2]
        FieldVector([1.5, 2.9], GF256)
    assert len(FieldVector([], GF256)) == 0  # float64 in numpy, but empty


def test_all_default_polynomials_are_irreducible():
    for k, spec in SPECS.items():
        assert spec.q == 1 << k and spec.poly.bit_length() - 1 == k
        assert is_irreducible_oracle(spec.poly), f"k={k}: {spec.poly:#x}"
        # the generator's powers are the q-1 nonzero elements, and log inverts them
        powers = spec._exp[: spec.q - 1].astype(np.int64)
        assert np.array_equal(np.sort(powers), np.arange(1, spec.q))
        assert np.array_equal(spec._log[powers], np.arange(spec.q - 1))


def test_field_of_order_maps_q_to_its_width():
    for k in range(1, 17):
        assert gf.field_of_order(1 << k) is gf.field(k)
    for q in (-4, 0, 1, 3, 100, 200, 255, 1 << 17):
        with pytest.raises(InvalidParameter):
            gf.field_of_order(q)


@pytest.mark.parametrize("k", [12, 16])
def test_wide_field_fallback_matches_oracle(k):
    spec = FieldSpec(k)
    rng = np.random.default_rng(8)
    for a, b in rng.integers(0, spec.q, size=(200, 2)):
        a, b = int(a), int(b)
        assert spec.mul(a, b) == mul_oracle(a, b, k, spec.poly)
    for a in (1, 2, 5, 1000, spec.q - 1):
        assert spec.mul(a, spec.inv(a)) == 1
    u = FieldVector.random(5, spec, rng)
    v = FieldVector.random(5, spec, rng)
    assert u.dot(v) == dot_oracle(u.tolist(), v.tolist(), k, spec.poly)
