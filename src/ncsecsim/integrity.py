"""Homomorphic MAC tags and ledger-backed tag comparison.

A MAC key is a secret vector of length n+1 over the coding field with a
nonzero last element.  The tag of a payload p is the unique t for which
the inner product of (p, t) with the key vanishes:

    t = dot(p, key[0..n)) / key[n]

The map p -> t is linear, so the tag of any linear combination of
payloads equals the same combination of their tags, and tags survive
recoding untouched.  Verification is a single inner product.

Against an adversary holding every key, key checks alone are useless.
The ledger stores the source's native tag matrix; the expected tags of a
coded packet follow from its coding coefficients, and any payload or tag
modification breaks that comparison.  Coding coefficients are not covered
by the key inner product (the key has n+1 elements, not m+n+1); tampering
with them is caught by the same ledger comparison instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, TagSetUnavailable
from .gf import FieldSpec, FieldVector, FixedProduct
from .rlnc import CodedPacket, Generation


class KeyRing:
    """MAC keys of one security domain, one key per row of a read-only
    (count, n+1) matrix over ``spec``.

    A key is a secret vector in GF(q)^(n+1) with a nonzero last element.
    Row i checks the tag in slot ``slots[i]``; a ring built from a matrix
    has row i own slot i.  Indexing by an int, a slice or a list of rows
    gives the sub-ring of those rows with their slots, so ``keys[[2, 0]]``
    checks slots 2 and 0.  A ring with no rows stands for a node that holds
    no key.

    Every tag and verdict product is one ``tag_product``: the product by
    the (n, count) transposed key heads, each divided by its key's last
    element, so that ``tag_product(p)`` holds the tags of payload p.  A
    ring builds it (``gf.FixedProduct``, with its tables) on its first
    product and keeps it; a sub-ring builds its own.
    """

    __slots__ = ("spec", "domain_id", "matrix", "slots", "inv_last", "_slot_end", "_product")

    def __init__(self, matrix, spec: FieldSpec, domain_id: str = ""):
        mat = spec.elements(matrix)
        if mat.ndim != 2 or mat.shape[1] < 2:
            raise InvalidParameter(f"key matrix must be (count, n+1) with n >= 1, got {mat.shape}")
        if not mat[:, -1].all():
            raise InvalidParameter("last key element must be nonzero")
        inv_last = np.array([spec.inv(int(x)) for x in mat[:, -1]], dtype=spec.dtype)
        self._set(spec, domain_id, mat, np.arange(len(mat)), inv_last)

    def _set(self, spec, domain_id, matrix, slots, inv_last) -> None:
        self.spec = spec
        self.domain_id = domain_id
        self.matrix = matrix
        self.slots = slots
        self.inv_last = inv_last
        self._slot_end = int(slots.max()) + 1 if len(slots) else 0
        self._product = None
        for arr in (matrix, slots, inv_last):
            arr.flags.writeable = False

    @property
    def tag_product(self) -> FixedProduct:
        if self._product is None:
            heads = self.spec.vec_mul(self.matrix[:, :-1].T, self.inv_last)
            self._product = FixedProduct(self.spec, heads)
        return self._product

    def __len__(self) -> int:
        return len(self.matrix)

    def __getitem__(self, index) -> "KeyRing":
        rows = np.atleast_1d(np.arange(len(self))[index])
        ring = object.__new__(KeyRing)
        ring._set(self.spec, self.domain_id, self.matrix[rows], self.slots[rows], self.inv_last[rows])
        return ring

    def check_slots(self, tag_count: int) -> None:
        """Raise ``DimensionMismatch`` unless every key's slot is one of the
        ``tag_count`` tags a packet carries."""
        if self._slot_end > tag_count:
            raise DimensionMismatch(
                f"key slot {self._slot_end - 1} outside the {tag_count} tags a packet carries"
            )

    def check_field(self, spec: FieldSpec) -> None:
        """Raise ``DimensionMismatch`` unless the keys are over ``spec``."""
        if spec != self.spec:
            raise DimensionMismatch(f"keys over {self.spec} used on data over {spec}")

    def __repr__(self) -> str:
        return (
            f"KeyRing({self.domain_id!r}, {len(self)} keys, n={self.matrix.shape[1] - 1}, "
            f"GF({self.spec.q}), slots={self.slots.tolist()})"
        )


def generate_domain_keys(
    n: int,
    count: int,
    spec: FieldSpec,
    rng: np.random.Generator,
    domain_id: str,
) -> KeyRing:
    """``count`` uniform random keys of length n+1, drawn key by key; the
    last element of each is redrawn until nonzero."""
    rows = []
    for _ in range(count):
        vec = spec.random_elements(rng, n + 1)
        while vec[n] == 0:
            vec[n] = spec.random_elements(rng, 1)[0]
        rows.append(vec)
    return KeyRing(np.array(rows, dtype=spec.dtype).reshape(count, n + 1), spec, domain_id)


def key_ring_bytes(n: int, count: int, spec: FieldSpec) -> int:
    """Bytes ``generate_domain_keys`` and a first tag product hold at once
    for a ring of ``count`` keys of n+1 elements, at most: 24 per key
    element (the drawn rows, the key matrix and its checked copy, the
    heads, their copy and their product's temporaries), twice the
    product's tables (``FixedProduct.table_bytes``; the gather of one
    payload takes at most as much), and 1 MiB for blocked temporaries."""
    return 24 * count * (n + 1) + 2 * FixedProduct.table_bytes(spec, n, count) + 2**20


def tag_matrix(payloads, keys: KeyRing) -> np.ndarray:
    """Tags of every payload under every key: dot(p, key[0..n)) / key[n].

    ``payloads`` is one payload (n,) or a stack (rows, n); the result is
    (len(keys),) or (rows, len(keys)) respectively, in row order.
    """
    return keys.tag_product(payloads)


def attach_tags(pkt: CodedPacket, keys: KeyRing) -> CodedPacket:
    """Return a copy of pkt carrying one tag per key, in row order."""
    keys.check_field(pkt.spec)
    body = pkt.row[: pkt.m + pkt.n]
    return pkt.with_row(np.concatenate([body, tag_matrix(body[pkt.m :], keys)]))


def key_verdicts(payloads, tags, keys: KeyRing) -> np.ndarray:
    """Per-key verdicts over stacked packets: dot((p || t[slot]), key) == 0.

    ``payloads`` is (..., n) and ``tags`` (..., l); the result is
    (..., len(keys)).  Each key checks the tag in its own slot, which
    must be one of the l the packets carry.  The key's last element is
    nonzero, so the check is that the tag equals the one the key gives p.
    """
    tags = np.asarray(tags, dtype=keys.spec.dtype)
    keys.check_slots(tags.shape[-1])
    return keys.tag_product(payloads) == tags[..., keys.slots]


def verify_tags(pkt: CodedPacket, keys: KeyRing) -> list[bool]:
    """Per-key verdicts: dot((payload || tags[slot]), key) == 0.

    A node holding a subset of the source keys passes that sub-ring,
    which carries the slots its keys check.
    """
    keys.check_field(pkt.spec)
    end = pkt.m + pkt.n
    return key_verdicts(pkt.row[pkt.m : end], pkt.row[end:], keys).tolist()


def combine_tags(tag_rows: np.ndarray | Sequence[Sequence[int]], coeffs: FieldVector) -> FieldVector:
    """Expected tag vector of a coded packet from ledgered native tags.

    ``tag_rows`` is the m x l native tag matrix; the result is the same
    linear combination of rows that produced the packet's payload.  A tag
    that is not an element of the coefficients' field (a float, or out of
    range) raises ``InvalidParameter``, and rows that are not m x l raise
    ``DimensionMismatch``.
    """
    spec = coeffs.spec
    return FieldVector(spec.matmul(coeffs.elems, spec.elements(tag_rows)), spec, _checked=True)


@dataclass(frozen=True)
class TagSet:
    """Ledgered native tags for one generation: m rows of l tags.

    The tags must be non-negative integers; a float or negative tag raises
    ``InvalidParameter`` here, and a tag outside the field of the packet
    it is checked against raises it in ``elements``.
    """

    gen_id: str
    source_id: str
    native_tags: np.ndarray  # shape (m, l)

    def __post_init__(self):
        arr = np.asarray(self.native_tags)
        if arr.ndim != 2:
            raise InvalidParameter("native_tags must be m x l")
        if arr.size and (arr.dtype.kind not in "iu" or int(arr.min()) < 0):
            raise InvalidParameter(f"native tags must be non-negative integers, got {arr.dtype}")
        object.__setattr__(self, "native_tags", arr)
        object.__setattr__(self, "_top", int(arr.max()) if arr.size else 0)

    def elements(self, spec: FieldSpec) -> np.ndarray:
        """The native tags as elements of ``spec``'s field."""
        if self._top >= spec.q:
            raise InvalidParameter(f"native tag {self._top} outside GF({spec.q})")
        return self.native_tags.astype(spec.dtype, copy=False)


def tagset_for_generation(gen: Generation, keys: KeyRing, source_id: str) -> TagSet:
    """Tags of every native payload, as uploaded by the source."""
    keys.check_field(gen.spec)
    return TagSet(gen.gen_id, source_id, tag_matrix(gen.natives, keys))


def ledger_check(pkt: CodedPacket, tagset: TagSet | None, keys: KeyRing | None = None) -> bool:
    """Accept iff the carried tags equal the ledger-derived expectation and
    every locally held key verifies.

    Even an adversary holding all keys cannot pass a payload-modified
    packet: it would need matching tags, but those are pinned by the
    ledger rows it cannot rewrite.
    """
    if tagset is None:
        raise TagSetUnavailable(f"no ledgered tags for generation {pkt.gen_id!r}")
    if tagset.gen_id != pkt.gen_id:
        raise TagSetUnavailable(
            f"tag set covers {tagset.gen_id!r}, packet is {pkt.gen_id!r}"
        )
    if keys is not None:
        keys.check_field(pkt.spec)
    expected = pkt.spec.matmul(pkt.row[: pkt.m], tagset.elements(pkt.spec))
    if not np.array_equal(expected, pkt.row[pkt.m + pkt.n :]):
        return False
    return keys is None or all(verify_tags(pkt, keys))
