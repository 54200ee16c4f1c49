"""Random linear network coding over a generation of native packets.

A generation is a block of m native payloads of n field symbols each.
Sources emit random linear combinations, intermediate nodes recode by
combining whatever they hold with fresh local coefficients, and the
destination recovers the natives by Gaussian elimination once it has m
linearly independent coded packets.  Tags riding on packets are combined
with the same coefficients so the MAC homomorphism survives recoding.
"""

from __future__ import annotations

from dataclasses import dataclass

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


class CodedPacket:
    """One in-transit packet: one row ``[coeffs | payload | tags]`` of m + n + l
    elements over ``spec``.

    ``coeffs``, ``payload`` and ``tags`` are writable ``FieldVector`` views of
    the row.  The constructor copies its vectors into a new row and raises
    ``DimensionMismatch`` for vectors over different fields; assigning
    ``tags`` rebuilds the row.  Packets compare by identity; compare rows.
    """

    __slots__ = ("gen_id", "row", "spec", "m", "n")

    def __init__(self, gen_id: str, coeffs: FieldVector, payload: FieldVector, tags=None):
        tags = FieldVector.zeros(0, coeffs.spec) if tags is None else tags
        if not coeffs.spec == payload.spec == tags.spec:
            raise DimensionMismatch("coefficients, payload and tags over different fields")
        self.gen_id, self.spec, self.m, self.n = gen_id, coeffs.spec, len(coeffs), len(payload)
        self.row = np.concatenate([coeffs.elems, payload.elems, tags.elems])

    def with_row(self, row: np.ndarray) -> "CodedPacket":
        """A packet of this generation, field, m and n over ``row``, kept as
        is; its elements past m + n are the tags."""
        return _packet(self.gen_id, self.spec, self.m, self.n, row)

    @property
    def coeffs(self) -> FieldVector:
        return FieldVector(self.row[: self.m], self.spec, _checked=True)

    @property
    def payload(self) -> FieldVector:
        return FieldVector(self.row[self.m : self.m + self.n], self.spec, _checked=True)

    @property
    def tags(self) -> FieldVector:
        return FieldVector(self.row[self.m + self.n :], self.spec, _checked=True)

    @tags.setter
    def tags(self, tags: FieldVector) -> None:
        self.row = CodedPacket(self.gen_id, self.coeffs, self.payload, tags).row


def _packet(gen_id: str, spec: FieldSpec, m: int, n: int, row: np.ndarray) -> CodedPacket:
    pkt = object.__new__(CodedPacket)
    pkt.gen_id, pkt.spec, pkt.m, pkt.n, pkt.row = gen_id, spec, m, n, row
    return pkt


def encode(gen: Generation, rng: np.random.Generator) -> CodedPacket:
    """Source encoding: uniform random coefficients over the whole field."""
    spec = gen.spec
    coeffs = spec.random_elements(rng, gen.m)
    row = np.concatenate([coeffs, spec.matmul(coeffs, gen.natives)])
    return _packet(gen.gen_id, spec, gen.m, gen.n, row)


def _check_same_shape(packets: list[CodedPacket]) -> None:
    first = packets[0]
    for p in packets[1:]:
        if p.gen_id != first.gen_id:
            raise GenerationMismatch(f"mixed generations {first.gen_id!r}, {p.gen_id!r}")
        if (p.m, p.n, p.spec) != (first.m, first.n, first.spec):
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
    first = packets[0]
    if any(p.row.size != first.row.size for p in packets):
        raise DimensionMismatch("packets carry different tag counts")
    spec = first.spec
    local = spec.random_elements(rng, len(packets))
    if not local.any():
        local = spec.random_elements(rng, len(packets))
    return first.with_row(spec.matmul(local, np.array([p.row for p in packets])))


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
    spec, m, n = packets[0].spec, packets[0].m, packets[0].n
    aug = np.stack([p.row[: m + n] for p in packets])
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
    """Rank test for row-space membership of a payload vector of ``gen``'s
    field and length."""
    if payload.spec != gen.spec or len(payload) != gen.n:
        raise DimensionMismatch(f"payload of {len(payload)} over {payload.spec} vs "
                                f"{gen.n} over {gen.spec}")
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
