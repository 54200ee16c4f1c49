"""GF(2^k) arithmetic underlying packets, MAC keys, and tags.

Field elements are plain ints in [0, 2^k); their binary digits are the
coefficients of a polynomial over GF(2), reduced modulo the one irreducible
polynomial of degree k that each width has.  Addition is XOR.  Vectors of
elements are thin wrappers around numpy arrays so that bulk operations
(recoding rows, inner products over long payloads, Monte-Carlo batches)
run as table lookups instead of Python loops.

Every field, k = 1..16, builds a pair of log/antilog tables at
construction time from a searched generator.  Zero has a sentinel
logarithm that lands every product with a zero factor in a zero-filled run
of the antilog table, so no product needs a zero branch.  Scalar products
and every inverse read these tables.  Elementwise products (``vec_mul``)
read them too for k > 8; for k <= 8 the field also keeps a q*q product
table (64 KiB at k = 8), built from the log/antilog tables, so a product is
one gather at index ``(a << k) | b``.

Matrix products (``FieldSpec.matmul``) are xor-reductions of ``vec_mul``
products.  Where a product row is 2, 4 or 8 bytes wide and contiguous, as
in the tag and verdict products at l = 8, the reduction xors one machine
word per row.  The rows of the left operand go through in blocks of at
most ``MATMUL_BLOCK`` products, so the index arrays of a gather stay well
under a MiB whatever the shapes.

A product by a right-hand matrix that stays fixed over many calls, as a
key ring's is, has a faster path (``FixedProduct``): split-nibble tables of
the fixed matrix, one word gathered per 4-bit digit of the left operand.

``field(k)`` returns one shared ``FieldSpec`` per bit width, and
``field_of_order(q)`` the one of order q; the tables of a field are
read-only.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, InversionOfZero

#: Products per block in ``FieldSpec.matmul``.  The product-table gather
#: widens its uint16 index to intp, about 11 bytes per product in all.
MATMUL_BLOCK = 1 << 16

#: Table words gathered per block in ``FixedProduct``: the gather's intp
#: index and the words it reads take 16 bytes per word, 256 KiB a block.
PRODUCT_BLOCK = 1 << 14

# Reduction rows of these byte widths are xored as one machine word.
_XOR_WORDS = {2: np.uint16, 4: np.uint32, 8: np.uint64}
# Words of ``FixedProduct``'s tables, by byte width: none of one byte, since
# ``matmul`` is faster for a one-column product than one-byte or padded tables.
_TABLE_WORDS = dict(_XOR_WORDS)

# The irreducible reduction polynomial of each supported bit width.  The k=8
# entry is 0x11B, the widely tabulated choice, so results can be checked
# against published GF(256) tables.
_DEFAULT_POLY = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0x11B,
    9: 0x211,
    10: 0x409,
    11: 0x805,
    12: 0x1053,
    13: 0x201B,
    14: 0x4443,
    15: 0x8003,
    16: 0x1100B,
}


class FieldSpec:
    """A binary extension field GF(2^k), reduced by ``_DEFAULT_POLY[k]``.

    Immutable after construction; all methods are safe for concurrent use.
    """

    def __init__(self, k: int = 8):
        if not isinstance(k, int) or not 1 <= k <= 16:
            raise InvalidParameter(f"field bit width k={k!r} must be an integer in 1..16")
        self.k = k
        self.poly = _DEFAULT_POLY[k]
        self.q = 1 << k
        self.dtype = np.uint8 if k <= 8 else np.uint16
        self._build_tables()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _raw_mul(self, a, b: int):
        """Carry-less multiply reduced by the field polynomial (no tables).

        ``a`` may be an int or an integer array; ``b`` is an int.
        """
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            a = a << 1
            a ^= (a >> self.k) * self.poly
            b >>= 1
        return acc

    def _powers(self, g: int) -> np.ndarray:
        """g**0 .. g**(q-2), built by doubling the run computed so far."""
        out = np.ones(1, dtype=np.int64)
        while out.size < self.q - 1:
            step = self._raw_mul(int(out[-1]), g)  # g**out.size
            out = np.concatenate([out, self._raw_mul(out, step)])
        return out[: self.q - 1]

    def _build_tables(self) -> None:
        q = self.q
        # x need not be primitive for an irreducible polynomial (it is not
        # for 0x11B), so search for an element of order q-1:
        # its powers hit 1 exactly once.
        for gen in range(1, q):
            powers = self._powers(gen)
            if np.count_nonzero(powers == 1) == 1:
                break
        # log[0] = 2q is the sentinel: a sum with a zero operand falls in
        # exp[2q:], and 0*0 in exp[4q], all zero.  Nonzero sums stay below
        # 2q-3, covered by two periods of the powers.
        exp = np.zeros(4 * q + 1, dtype=self.dtype)
        exp[: 2 * (q - 1)] = np.tile(powers, 2)
        log = np.full(q, 2 * q, dtype=np.int32)
        log[powers] = np.arange(q - 1, dtype=np.int32)
        self.generator = gen
        self._exp = exp
        self._log = log
        # prod[(a << k) | b] = a*b, for the fields whose table fits in 64 KiB
        self._prod = exp[log[:, None] + log[None, :]].ravel() if self.k <= 8 else None
        for table in (exp, log, self._prod):
            if table is not None:
                table.flags.writeable = False  # fields are shared, see ``field``

    # ------------------------------------------------------------------
    # scalar operations
    # ------------------------------------------------------------------
    def mul(self, a: int, b: int) -> int:
        return int(self._exp[self._log[a] + self._log[b]])

    def inv(self, a: int) -> int:
        if a == 0:
            raise InversionOfZero("0 has no multiplicative inverse")
        return int(self._exp[self.q - 1 - self._log[a]])

    def pow(self, a: int, e: int) -> int:
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    # ------------------------------------------------------------------
    # vectorised kernels (arrays of field elements)
    # ------------------------------------------------------------------
    def vec_mul(self, a, b) -> np.ndarray:
        """Elementwise product; broadcasts, so a scalar times a vector works."""
        a = np.asarray(a, dtype=self.dtype)
        b = np.asarray(b, dtype=self.dtype)
        if self._prod is None:
            return self._exp[self._log[a] + self._log[b]]
        return np.take(self._prod, (a.astype(np.uint16) << self.k) | b)

    def matmul(self, a, b) -> np.ndarray:
        """Matrix product over the field: ``a`` is (..., r, m) or (m,), ``b``
        is (m, c); sums of products are xor-reductions of ``vec_mul``.

        Rows of ``a`` go through in blocks of at most ``MATMUL_BLOCK``
        products; a row longer than that is split along m as well (a block
        holds at least one term of c products).
        """
        a = np.asarray(a, dtype=self.dtype)
        b = np.asarray(b, dtype=self.dtype)
        if b.ndim != 2 or a.ndim < 1 or a.shape[-1] != b.shape[0]:
            raise DimensionMismatch(f"cannot multiply shapes {a.shape} and {b.shape}")
        m, c = b.shape
        lead = a.shape[:-1]
        rows = a.reshape(math.prod(lead), m)
        inner = max(1, min(m, MATMUL_BLOCK // max(c, 1)))
        step = max(1, MATMUL_BLOCK // (inner * max(c, 1)))
        if inner == m and step >= len(rows):  # one block: the common case
            return _xor_reduce(self.vec_mul(rows[:, :, None], b)).reshape(*lead, c)
        out = np.zeros((len(rows), c), dtype=self.dtype)
        for i in range(0, len(rows), step):
            for j in range(0, m, inner):
                out[i : i + step] ^= _xor_reduce(
                    self.vec_mul(rows[i : i + step, j : j + inner, None], b[j : j + inner])
                )
        return out.reshape(*lead, c)

    def random_elements(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.integers(0, self.q, size=size, dtype=np.uint16).astype(self.dtype)

    def elements(self, data) -> np.ndarray:
        """``data`` as a new array of field elements, any shape.

        Raises ``InvalidParameter`` for non-integer data (a cast would
        truncate it) or an element outside the field.  Empty data of any
        dtype is accepted, since ``np.asarray([])`` is float64.
        """
        raw = np.asarray(data)
        if raw.size:
            if raw.dtype.kind not in "iu":
                raise InvalidParameter(f"field elements must be integers, got {raw.dtype}")
            if int(raw.min()) < 0 or int(raw.max()) >= self.q:
                raise InvalidParameter(f"element outside GF({self.q})")
        return raw.astype(self.dtype)

    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldSpec)
            and self.k == other.k
            and self.poly == other.poly
        )

    def __hash__(self) -> int:
        return hash((self.k, self.poly))

    def __repr__(self) -> str:
        return f"FieldSpec(k={self.k}, poly={self.poly:#x})"


@functools.cache
def field(k: int) -> FieldSpec:
    """The field GF(2^k), built once per bit width and shared."""
    return FieldSpec(k)


def field_of_order(q: int) -> FieldSpec:
    """The field GF(q), ``field(k)`` for q = 2^k; raises ``InvalidParameter``
    unless 1 <= k <= 16."""
    k = q.bit_length() - 1
    if q < 2 or 1 << k != q or k > 16:
        raise InvalidParameter(f"field order {q} is not 2^k for k in 1..16")
    return field(k)


class FixedProduct:
    """``a @ b`` over ``spec`` for any number of ``a`` and one fixed ``b``
    (m, c), as for the heads of a key ring.

    Where a row of ``b`` fits in one machine word (c >= 2 elements of at
    most 8 bytes, padded with zero columns to 2, 4 or 8 bytes), the product
    reads split-nibble tables (Plank, Greenan and Miller, FAST 2013): for
    each row j of ``b``, 4-bit digit position s of an element and digit
    value v, the word-packed row ``(v << 4s) * b[j]``.  A field of k bits
    has ceil(k/4) digit positions, so the tables hold ceil(k/4) * m * 16
    words, 256 KiB for a GF(256) matrix of 1024 x 8.  ``a @ b`` is then the
    xor, over j and s, of one word gathered per (row of ``a``, j, s).  The
    tables are built with ``vec_mul`` on the first product and read-only;
    rows of ``a`` go through in blocks of at most ``PRODUCT_BLOCK`` words.
    Wider rows, and a ``b`` of 0 or 1 columns, go through ``FieldSpec.matmul``.
    """

    __slots__ = ("spec", "b", "tables", "_word", "_offsets")

    def __init__(self, spec: FieldSpec, b):
        b = np.array(b, dtype=spec.dtype)  # a copy, so it stays fixed
        if b.ndim != 2:
            raise DimensionMismatch(f"fixed operand must be 2-d, got shape {b.shape}")
        b.flags.writeable = False
        self.spec = spec
        self.b = b
        row_bytes = b.shape[1] * b.itemsize if b.shape[1] > 1 else math.inf
        self._word = next((w for w in _TABLE_WORDS if w >= row_bytes), None)
        self.tables = None

    def _build(self) -> None:
        spec, b = self.spec, self.b
        m, c = b.shape
        digits = -(-spec.k // 4)
        tables = np.zeros((digits, m, 16, self._word // b.itemsize), dtype=spec.dtype)
        # at most MATMUL_BLOCK products per vec_mul, as in matmul; digit
        # values past the field's top bit stay zero and are never read
        step = max(1, MATMUL_BLOCK // (16 * c))
        for s in range(digits):
            values = np.arange(min(16, spec.q >> 4 * s)) << 4 * s
            for j in range(0, m, step):
                tables[s, j : j + step, : len(values), :c] = spec.vec_mul(
                    values[:, None], b[j : j + step, None, :]
                )
        self.tables = tables.view(_TABLE_WORDS[self._word]).reshape(-1)
        self.tables.flags.writeable = False
        # flat index of digit s of row j's table: (s*m + j) * 16
        self._offsets = (np.arange(digits * m, dtype=np.intp) * 16).reshape(digits, m)

    def __call__(self, a) -> np.ndarray:
        """The product of ``a`` (..., m) or (m,) by ``b``: (..., c) or (c,)."""
        spec, b = self.spec, self.b
        a = np.asarray(a, dtype=spec.dtype)
        if a.ndim < 1 or a.shape[-1] != b.shape[0]:
            raise DimensionMismatch(f"cannot multiply shapes {a.shape} and {b.shape}")
        if self._word is None:
            return spec.matmul(a, b)
        if self.tables is None:
            self._build()
        m, c = b.shape
        lead = a.shape[:-1]
        rows = a.reshape(math.prod(lead), m)
        offsets = self._offsets
        digits = len(offsets)
        words = np.empty(len(rows), dtype=self.tables.dtype)
        step = max(1, PRODUCT_BLOCK // max(digits * m, 1))
        for i in range(0, len(rows), step):
            block = rows[i : i + step]
            index = np.empty((len(block), digits, m), dtype=np.intp)
            for s in range(digits):
                digit = block >> 4 * s if s else block
                np.add(digit & 15 if s < digits - 1 else digit, offsets[s], out=index[:, s])
            gathered = np.take(self.tables, index.reshape(len(block), digits * m))
            np.bitwise_xor.reduce(gathered, axis=1, out=words[i : i + step])
        out = words.view(spec.dtype).reshape(len(rows), self._word // b.itemsize)
        return (out if out.shape[1] == c else out[:, :c].copy()).reshape(*lead, c)


def _xor_reduce(prod: np.ndarray) -> np.ndarray:
    """XOR-sum of a (rows, terms, c) product over its terms axis, one word
    per row when the product is contiguous and a row is 2, 4 or 8 bytes."""
    word = _XOR_WORDS.get(prod.shape[-1] * prod.itemsize)
    if word is not None and prod.flags.c_contiguous:
        return np.bitwise_xor.reduce(prod.view(word), axis=-2).view(prod.dtype)
    return np.bitwise_xor.reduce(prod, axis=-2)


class FieldVector:
    """A fixed-length sequence of field elements tied to a FieldSpec."""

    __slots__ = ("elems", "spec")

    def __init__(self, elems, spec: FieldSpec, _checked: bool = False):
        arr = np.asarray(elems, dtype=spec.dtype) if _checked else spec.elements(elems)
        if arr.ndim != 1:
            raise DimensionMismatch(f"expected 1-d data, got shape {arr.shape}")
        self.elems = arr
        self.spec = spec

    @classmethod
    def zeros(cls, n: int, spec: FieldSpec) -> "FieldVector":
        return cls(np.zeros(n, dtype=spec.dtype), spec, _checked=True)

    @classmethod
    def random(cls, n: int, spec: FieldSpec, rng: np.random.Generator) -> "FieldVector":
        return cls(spec.random_elements(rng, n), spec, _checked=True)

    def __len__(self) -> int:
        return int(self.elems.size)

    def __getitem__(self, i: int) -> int:
        return int(self.elems[i])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldVector)
            and self.spec == other.spec
            and self.elems.shape == other.elems.shape
            and bool(np.array_equal(self.elems, other.elems))
        )

    def __xor__(self, other: "FieldVector") -> "FieldVector":
        self._check_compatible(other)
        return FieldVector(self.elems ^ other.elems, self.spec, _checked=True)

    __add__ = __xor__  # addition in characteristic 2 is XOR

    def scale(self, alpha: int) -> "FieldVector":
        return FieldVector(self.spec.vec_mul(alpha, self.elems), self.spec, _checked=True)

    def dot(self, other: "FieldVector") -> int:
        self._check_compatible(other)
        return int(self.spec.matmul(self.elems, other.elems[:, None])[0])

    def copy(self) -> "FieldVector":
        return FieldVector(self.elems.copy(), self.spec, _checked=True)

    def tolist(self) -> list[int]:
        return [int(x) for x in self.elems]

    def is_zero(self) -> bool:
        return not self.elems.any()

    def _check_compatible(self, other: "FieldVector") -> None:
        if self.spec != other.spec:
            raise DimensionMismatch("vectors from different fields")
        if self.elems.size != other.elems.size:
            raise DimensionMismatch(
                f"length mismatch: {self.elems.size} vs {other.elems.size}"
            )

    def __repr__(self) -> str:
        return f"FieldVector({self.tolist()}, GF({self.spec.q}))"


#: Shared default fields, the instances ``field`` returns.
GF256 = field(8)
GF16 = field(4)
