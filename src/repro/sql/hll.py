"""HyperLogLog sketch backing APPROXIMATE COUNT(DISTINCT ...).

The paper (§4, "Data Transformation") names approximate functions as key to
the data-pipeline use case and states the ambition to "build distributed
approximate equivalents for all non-linear exact operations". HLL is the
canonical example: constant memory, mergeable across slices (so the
aggregate distributes), with relative error ≈ 1.04/sqrt(2**precision).
"""

from __future__ import annotations

import math
from array import array
from itertools import repeat
from operator import and_, rshift
from typing import Iterable, Sequence

from repro.distribution.hashing import stable_hash


_MASK64 = (1 << 64) - 1
#: The optimizer-statistics sketch's precision: its codes fit 16 bits.
CODE_PRECISION = 10
RANK_BITS = 6


def _mix(h: int) -> int:
    """splitmix64 finalizer: FNV-1a avalanches weakly in its high bits,
    and HLL's register ranks live there."""
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    h = (h ^ (h >> 27)) * 0x94D049BB133111EB & _MASK64
    return h ^ (h >> 31)


def _code(value: object, precision: int) -> int:
    """The register *value* sets at *precision*, ``index << RANK_BITS |
    rank``: the hash's low p bits, and the position of the first set bit
    in the other 64-p (at most 65 - p < 64)."""
    h = _mix(stable_hash(value))
    remainder = h >> precision
    rank = (remainder & -remainder).bit_length() if remainder else 65 - precision
    return (h & ((1 << precision) - 1)) << RANK_BITS | rank


def codes(values: Sequence[object], memo: dict) -> array:
    """Each value's :func:`_code` at :data:`CODE_PRECISION`, NULL's 0 (no
    rank is 0). *memo* maps values to codes and gains those it lacked, so
    each distinct value is hashed once."""
    memo.setdefault(None, 0)
    for value in set(values).difference(memo):
        memo[value] = _code(value, CODE_PRECISION)
    # array() takes a list faster than an iterator.
    return array("H", list(map(memo.__getitem__, values)))


class HyperLogLog:
    """A 64-bit HyperLogLog with the standard bias corrections.

    ``precision`` p gives m=2**p one-byte registers; default p=12 is
    4 KiB per sketch and ~1.6% relative error.
    """

    __slots__ = ("precision", "_m", "_registers")

    def __init__(self, precision: int = 12):
        if not 4 <= precision <= 18:
            raise ValueError(f"precision must be in [4, 18], got {precision}")
        self.precision = precision
        self._m = 1 << precision
        self._registers = bytearray(self._m)

    def add(self, value: object) -> None:
        """Add one value (hashed with the engine's stable 64-bit hash)."""
        self.update((value,))

    def update(self, values: Iterable[object]) -> "HyperLogLog":
        """Add every value of *values* — the registers :meth:`add` sets one
        value at a time, so a set of distinct values gives what its rows do."""
        registers, p = self._registers, self.precision
        for value in values:
            index, rank = divmod(_code(value, p), 1 << RANK_BITS)
            if rank > registers[index]:
                registers[index] = rank
        return self

    @classmethod
    def from_codes(cls, coded: set[int]) -> "HyperLogLog":
        """The sketch of the values whose :func:`codes` *coded* holds:
        sorted, each index's last code has its highest rank."""
        sketch, ordered = cls(CODE_PRECISION), sorted(coded)
        indexes = map(rshift, ordered, repeat(RANK_BITS))
        ranks = map(and_, ordered, repeat((1 << RANK_BITS) - 1))
        for index, rank in dict(zip(indexes, ranks)).items():
            sketch._registers[index] = rank
        return sketch

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        """Merge another sketch into this one (register-wise max)."""
        if other.precision != self.precision:
            raise ValueError(
                f"cannot merge HLL(p={other.precision}) into HLL(p={self.precision})"
            )
        for i, r in enumerate(other._registers):
            if r > self._registers[i]:
                self._registers[i] = r
        return self

    def cardinality(self) -> int:
        """Estimate the number of distinct values added."""
        m = self._m
        raw = self._alpha() * m * m / sum(2.0 ** -r for r in self._registers)
        if raw <= 2.5 * m:
            zeros = self._registers.count(0)
            if zeros:
                return round(m * math.log(m / zeros))  # linear counting
        return round(raw)

    def _alpha(self) -> float:
        m = self._m
        return {16: 0.673, 32: 0.697, 64: 0.709}.get(m, 0.7213 / (1 + 1.079 / m))

    @property
    def size_bytes(self) -> int:
        """Memory the sketch occupies — the constant the exact-vs-approx
        benchmark contrasts with a full distinct-value set."""
        return self._m

    def standard_error(self) -> float:
        """Expected relative error of :meth:`cardinality`."""
        return 1.04 / math.sqrt(self._m)
