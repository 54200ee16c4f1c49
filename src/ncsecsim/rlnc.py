"""Random linear network coding over a generation of native packets.

A generation is a block of m native payloads of n field symbols each.
Sources emit random linear combinations, intermediate nodes recode by
combining whatever they hold with fresh local coefficients, and the
destination recovers the natives by Gaussian elimination once it has m
linearly independent coded packets.  Tags riding on packets are combined
with the same coefficients so the MAC homomorphism survives recoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyInput,
    GenerationMismatch,
    InvalidParameter,
    PollutionDetectedAtDecode,
)
from .gf import FieldSpec, FieldVector


@dataclass(frozen=True)
class Generation:
    """The m native payload vectors that are coded together."""

    gen_id: str
    natives: np.ndarray  # shape (m, n)
    spec: FieldSpec

    def __post_init__(self):
        raw = np.asarray(self.natives)
        if raw.ndim != 2 or raw.shape[0] < 1 or raw.shape[1] < 1:
            raise InvalidParameter(f"natives must be a non-empty 2-d array, got {raw.shape}")
        object.__setattr__(self, "natives", self.spec.elements(raw))

    @property
    def m(self) -> int:
        return int(self.natives.shape[0])

    @property
    def n(self) -> int:
        return int(self.natives.shape[1])


def random_generation(
    gen_id: str, m: int, n: int, spec: FieldSpec, rng: np.random.Generator
) -> Generation:
    return Generation(gen_id, spec.random_elements(rng, (m, n)), spec)


@dataclass
class CodedPacket:
    """One in-transit packet: coding coefficients, payload, attached tags."""

    gen_id: str
    coeffs: FieldVector
    payload: FieldVector
    tags: FieldVector = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.tags is None:
            self.tags = FieldVector.zeros(0, self.coeffs.spec)

    @property
    def spec(self) -> FieldSpec:
        return self.coeffs.spec


def encode(gen: Generation, rng: np.random.Generator) -> CodedPacket:
    """Source encoding: uniform random coefficients over the whole field."""
    coeffs = gen.spec.random_elements(rng, gen.m)
    payload = gen.spec.matmul(coeffs, gen.natives)
    return CodedPacket(
        gen.gen_id,
        FieldVector(coeffs, gen.spec, _checked=True),
        FieldVector(payload, gen.spec, _checked=True),
    )


def _check_same_shape(packets: list[CodedPacket]) -> None:
    first = packets[0]
    for p in packets[1:]:
        if p.gen_id != first.gen_id:
            raise GenerationMismatch(f"mixed generations {first.gen_id!r}, {p.gen_id!r}")
        if (
            len(p.coeffs) != len(first.coeffs)
            or len(p.payload) != len(first.payload)
            or p.spec != first.spec
        ):
            raise DimensionMismatch("packets with different dimensions")


def recode(packets: list[CodedPacket], rng: np.random.Generator) -> CodedPacket:
    """Recode at an intermediate node.

    Applies one set of fresh uniform local coefficients to coefficients,
    payloads, and tags alike.  An all-zero local draw is redrawn once and
    then accepted, so a fixed seed still gives a reproducible stream.
    """
    if not packets:
        raise EmptyInput("recode needs at least one packet")
    _check_same_shape(packets)
    tag_len = len(packets[0].tags)
    for p in packets:
        if len(p.tags) != tag_len:
            raise DimensionMismatch("packets carry different tag counts")
    spec = packets[0].spec
    local = spec.random_elements(rng, len(packets))
    if not local.any():
        local = spec.random_elements(rng, len(packets))
    m, n = len(packets[0].coeffs), len(packets[0].payload)
    rows = np.vstack(
        [np.concatenate([p.coeffs.elems, p.payload.elems, p.tags.elems]) for p in packets]
    )
    mixed = spec.matmul(local, rows)
    return CodedPacket(
        packets[0].gen_id,
        FieldVector(mixed[:m], spec, _checked=True),
        FieldVector(mixed[m : m + n], spec, _checked=True),
        FieldVector(mixed[m + n :], spec, _checked=True),
    )


@dataclass(frozen=True)
class DecodeResult:
    """Either the recovered natives (rank == m) or a rank-deficiency report."""

    rank: int
    natives: np.ndarray | None

    @property
    def complete(self) -> bool:
        return self.natives is not None


def decode(packets: list[CodedPacket]) -> DecodeResult:
    """Gaussian elimination over the field; exact arithmetic, no pivot scaling
    tricks (pivot is simply the first nonzero entry in the column)."""
    if not packets:
        raise EmptyInput("decode needs at least one packet")
    _check_same_shape(packets)
    spec = packets[0].spec
    m = len(packets[0].coeffs)
    aug = np.vstack(
        [np.concatenate([p.coeffs.elems, p.payload.elems]) for p in packets]
    ).astype(spec.dtype)
    rank = _row_reduce(aug, m, spec)
    # A row with zero coefficients but nonzero payload means the received
    # packets were not all combinations of one native set.
    tail = aug[rank:]
    if tail.size and (~tail[:, :m].any(axis=1) & tail[:, m:].any(axis=1)).any():
        raise PollutionDetectedAtDecode("inconsistent system: polluted input")
    if rank < m:
        return DecodeResult(rank=rank, natives=None)
    return DecodeResult(rank=m, natives=aug[:m, m:].copy())


def in_row_space(payload: FieldVector, gen: Generation) -> bool:
    """Rank test for row-space membership of a payload vector."""
    stacked = np.vstack([gen.natives, payload.elems[None, :]])
    rank = _row_reduce(gen.natives.copy(), gen.n, gen.spec)
    return _row_reduce(stacked, gen.n, gen.spec) == rank


def _row_reduce(work: np.ndarray, cols: int, spec: FieldSpec) -> int:
    """Gauss-Jordan elimination over the first ``cols`` columns, in place.

    The pivot is the first nonzero entry at or below the current rank row;
    it is scaled to 1 and cleared from every other row.  Returns the rank.
    """
    rank = 0
    for col in range(cols):
        if rank == work.shape[0]:
            break
        below = np.flatnonzero(work[rank:, col])
        if not below.size:
            continue
        pivot = rank + int(below[0])
        if pivot != rank:
            work[[rank, pivot]] = work[[pivot, rank]]
        work[rank] = spec.vec_mul(spec.inv(int(work[rank, col])), work[rank])
        others = np.flatnonzero(work[:, col])
        others = others[others != rank]
        if others.size:
            work[others] ^= spec.vec_mul(work[others, col][:, None], work[rank][None, :])
        rank += 1
    return rank
