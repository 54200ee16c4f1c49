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
from .gf import FieldSpec, FieldVector
from .rlnc import CodedPacket, Generation


@dataclass(frozen=True)
class MacKey:
    """Secret vector in GF(q)^(n+1) defining one homomorphic MAC."""

    key_id: str
    vec: FieldVector
    domain_id: str

    def __post_init__(self):
        if len(self.vec) < 2:
            raise InvalidParameter("key vector needs at least 2 elements")
        if self.vec[len(self.vec) - 1] == 0:
            raise InvalidParameter("last key element must be nonzero")

    @property
    def payload_len(self) -> int:
        return len(self.vec) - 1


def generate_key(
    n: int,
    spec: FieldSpec,
    rng: np.random.Generator,
    key_id: str,
    domain_id: str,
) -> MacKey:
    """Uniform random key; the last element is redrawn until nonzero."""
    vec = spec.random_elements(rng, n + 1)
    while vec[n] == 0:
        vec[n] = spec.random_elements(rng, 1)[0]
    return MacKey(key_id, FieldVector(vec, spec, _checked=True), domain_id)


def generate_domain_keys(
    n: int,
    count: int,
    spec: FieldSpec,
    rng: np.random.Generator,
    domain_id: str,
) -> tuple[MacKey, ...]:
    return tuple(
        generate_key(n, spec, rng, key_id=f"{domain_id}/k{i}", domain_id=domain_id)
        for i in range(count)
    )


def _key_matrix(keys: Sequence[MacKey], n: int, spec: FieldSpec) -> np.ndarray:
    """The key vectors as rows of a (len(keys), n+1) matrix."""
    for key in keys:
        if key.payload_len != n:
            raise DimensionMismatch(
                f"payload length {n} does not match key dimension {key.payload_len}+1"
            )
    return np.array([key.vec.elems for key in keys], dtype=spec.dtype).reshape(len(keys), n + 1)


def tag_matrix(payloads, keys: Sequence[MacKey], spec: FieldSpec) -> np.ndarray:
    """Tags of every payload under every key: dot(p, key[0..n)) / key[n].

    ``payloads`` is one payload (n,) or a stack (rows, n); the result is
    (len(keys),) or (rows, len(keys)) respectively.
    """
    payloads = np.asarray(payloads, dtype=spec.dtype)
    vecs = _key_matrix(keys, payloads.shape[-1], spec)
    inv_last = [spec.inv(int(last)) for last in vecs[:, -1]]
    return spec.vec_mul(spec.matmul(payloads, vecs[:, :-1].T), inv_last)


def make_tag(payload: FieldVector, key: MacKey) -> int:
    """Tag t with dot((payload || t), key.vec) == 0."""
    return int(tag_matrix(payload.elems, [key], key.vec.spec)[0])


def attach_tags(pkt: CodedPacket, keys: Sequence[MacKey]) -> CodedPacket:
    """Return a copy of pkt carrying one tag per key, in key order."""
    spec = pkt.spec
    return CodedPacket(
        pkt.gen_id,
        pkt.coeffs.copy(),
        pkt.payload.copy(),
        FieldVector(tag_matrix(pkt.payload.elems, keys, spec), spec, _checked=True),
    )


def tag_slots(
    keys: Sequence[MacKey], positions: Sequence[int] | None, tag_count: int
) -> list[int]:
    """The tag slot of each key (by default key i owns slot i), checked
    against the number of tags a packet carries."""
    positions = list(range(len(keys)) if positions is None else positions)
    if len(positions) != len(keys):
        raise DimensionMismatch("one tag position per key required")
    if any(p < 0 or p >= tag_count for p in positions):
        raise DimensionMismatch("tag position outside the packet's tag vector")
    return positions


def key_verdicts(
    payloads,
    tags,
    keys: Sequence[MacKey],
    positions: Sequence[int] | None,
    spec: FieldSpec,
) -> np.ndarray:
    """Per-key verdicts over stacked packets: dot((p || t[pos]), key.vec) == 0.

    ``payloads`` is (..., n) and ``tags`` (..., l); the result is
    (..., len(keys)).  ``positions`` maps each key to its tag slot.
    """
    payloads = np.asarray(payloads, dtype=spec.dtype)
    tags = np.asarray(tags, dtype=spec.dtype)
    positions = tag_slots(keys, positions, tags.shape[-1])
    vecs = _key_matrix(keys, payloads.shape[-1], spec)
    acc = spec.matmul(payloads, vecs[:, :-1].T)
    acc ^= spec.vec_mul(tags[..., positions], vecs[:, -1])
    return acc == 0


def verify_tags(
    pkt: CodedPacket,
    keys: Sequence[MacKey],
    positions: Sequence[int] | None = None,
) -> list[bool]:
    """Per-key verdicts: dot((payload || tags[pos]), key.vec) == 0.

    ``positions`` maps each supplied key to its tag slot; by default key i
    checks tag i.  A node holding a subset of the source keys passes that
    subset along with the slots those keys correspond to.
    """
    return key_verdicts(pkt.payload.elems, pkt.tags.elems, keys, positions, pkt.spec).tolist()


def combine_tags(tag_rows: np.ndarray | Sequence[Sequence[int]], coeffs: FieldVector) -> FieldVector:
    """Expected tag vector of a coded packet from ledgered native tags.

    ``tag_rows`` is the m x l native tag matrix; the result is the same
    linear combination of rows that produced the packet's payload.
    """
    spec = coeffs.spec
    rows = np.asarray(tag_rows, dtype=spec.dtype)
    if rows.ndim != 2:
        raise DimensionMismatch("tag rows must form a 2-d matrix")
    if rows.shape[0] != len(coeffs):
        raise DimensionMismatch(
            f"{rows.shape[0]} tag rows vs {len(coeffs)} coefficients"
        )
    return FieldVector(spec.matmul(coeffs.elems, rows), spec, _checked=True)


@dataclass(frozen=True)
class TagSet:
    """Ledgered native tags for one generation: m rows of l tags."""

    gen_id: str
    source_id: str
    native_tags: np.ndarray  # shape (m, l)

    def __post_init__(self):
        arr = np.asarray(self.native_tags)
        if arr.ndim != 2:
            raise InvalidParameter("native_tags must be m x l")
        object.__setattr__(self, "native_tags", arr)


def tagset_for_generation(
    gen: Generation, keys: Sequence[MacKey], source_id: str
) -> TagSet:
    """Tags of every native payload, as uploaded by the source."""
    return TagSet(gen.gen_id, source_id, tag_matrix(gen.natives, keys, gen.spec))


def ledger_check(
    pkt: CodedPacket,
    tagset: TagSet | None,
    keys: Sequence[MacKey] = (),
    positions: Sequence[int] | None = None,
) -> bool:
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
    expected = combine_tags(tagset.native_tags, pkt.coeffs)
    if expected != pkt.tags:
        return False
    if not keys:
        return True
    return bool(key_verdicts(pkt.payload.elems, pkt.tags.elems, keys, positions, pkt.spec).all())
