"""HyperLogLog sketch backing APPROXIMATE COUNT(DISTINCT ...).

The paper (§4, "Data Transformation") names approximate functions as key to
the data-pipeline use case and states the ambition to "build distributed
approximate equivalents for all non-linear exact operations". HLL is the
canonical example: constant memory, mergeable across slices (so the
aggregate distributes), with relative error ≈ 1.04/sqrt(2**precision).
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.distribution.hashing import stable_hash


_MASK64 = (1 << 64) - 1


def _mix(h: int) -> int:
    """splitmix64 finalizer: FNV-1a avalanches weakly in its high bits,
    and HLL's register ranks live there."""
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    h = (h ^ (h >> 27)) * 0x94D049BB133111EB & _MASK64
    return h ^ (h >> 31)


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
        registers, mask, p = self._registers, self._m - 1, self.precision
        for value in values:
            h = _mix(stable_hash(value))
            # Rank: position of the first set bit in the remaining 64-p bits.
            remainder = h >> p
            rank = (remainder & -remainder).bit_length() if remainder else 65 - p
            if rank > registers[h & mask]:
                registers[h & mask] = rank
        return self

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
