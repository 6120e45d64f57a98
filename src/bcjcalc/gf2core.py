"""Bit-packed linear algebra over GF(2).

Vectors are arbitrary-precision Python integers read as little-endian bit
strings of a declared length, so xor of two vectors is a single operation on
the packed representation.  ``SpanBasis`` maintains an incrementally grown,
fully reduced row basis: every row's lowest set bit is its pivot, and no row
has a set bit at another row's pivot.  Rows are keyed by pivot, and the set
of pivots is also kept as one packed mask.  Because xor-ing in a fully
reduced row clears its own pivot and touches no other pivot, reducing a
vector v means xor-ing exactly the rows at the set bits of v & mask: the
cost follows the number of pivots v touches, not the rank.  Membership is
one such reduction, which is what the incremental image searches need.

Back-substitution on insert uses a column index: for every non-pivot column
c, one packed mask over the pivots whose row has bit c.  A new row with
pivot q must be xor-ed into exactly the rows that have bit q, which the
index names at once, and afterwards every other bit c of the new row
toggles those rows and the new one in the mask of c.  The index holds at
most rank x (length - rank) bits, one per (row, non-pivot column) pair.

The pivots are also kept in one list in the order their inserts happened.
``insert_bits`` appends to it and ``copy`` copies it, so a loop that walks
the list by index while it inserts visits every pivot, the new ones too,
and reads each pivot's row as it is at that moment: fully reduced against
every pivot found so far.  Saturation walks it that way.

Loops over set bits walk from the top bit down (``p = b.bit_length() - 1``,
then clear bit p), which allocates no negated integer per step.  Each visited
row or delta is xor-ed in on its own, so the visiting order cannot change a
result.

Equality of vectors is value equality on (length, bit content); the word size
of the underlying integers is never visible through the interface.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import DimensionError


@dataclass(frozen=True, slots=True)
class BitVec:
    """Immutable GF(2) vector of fixed length."""

    length: int
    bits: int = 0

    def __post_init__(self):
        if self.length < 0:
            raise DimensionError("vector length must be nonnegative")
        if self.bits < 0 or self.bits >> self.length:
            raise DimensionError(
                f"bit content does not fit in {self.length} bits"
            )

    @classmethod
    def from_indices(cls, length: int, indices: Iterable[int]) -> "BitVec":
        bits = 0
        for i in indices:
            if not 0 <= i < length:
                raise DimensionError(f"bit index {i} out of range [0,{length})")
            bits ^= 1 << i
        return cls(length, bits)

    def __xor__(self, other: "BitVec") -> "BitVec":
        if self.length != other.length:
            raise DimensionError(
                f"length mismatch: {self.length} vs {other.length}"
            )
        return BitVec(self.length, self.bits ^ other.bits)

    def __bool__(self) -> bool:
        return self.bits != 0

    def support(self) -> tuple[int, ...]:
        """Indices of set bits, ascending."""
        out = []
        b = self.bits
        while b:
            low = b & -b
            out.append(low.bit_length() - 1)
            b ^= low
        return tuple(out)

    def to01(self) -> str:
        return "".join("1" if (self.bits >> i) & 1 else "0" for i in range(self.length))

    def __repr__(self) -> str:
        return f"BitVec({self.length}, 0b{self.to01()[::-1] or '0'})"


class SpanBasis:
    """Incrementally maintained, fully reduced basis of a GF(2) subspace.

    Single-writer: concurrent searches should each own a private instance and
    merge by re-inserting rows.
    """

    __slots__ = ("length", "_rows", "_pivmask", "_cols", "_order")

    def __init__(self, length: int):
        if length < 0:
            raise DimensionError("ambient dimension must be nonnegative")
        self.length = length
        self._rows: dict[int, int] = {}   # pivot -> fully reduced row
        self._pivmask = 0                 # bit p set iff p is a pivot
        # non-pivot column c -> mask of the pivots whose row has bit c
        # (an entry may be left at 0; no entry exists at a pivot column)
        self._cols: defaultdict[int, int] = defaultdict(int)
        self._order: list[int] = []       # pivots in insertion order

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(sorted(self._rows))

    @property
    def insertion_order(self) -> list[int]:
        """The pivots in the order their independent inserts happened.

        This is the live list: it grows with every independent insert, so a
        loop over it by index sees the pivots added while it runs.  Callers
        must not mutate it."""
        return self._order

    def pivot_row(self, p: int) -> int:
        """The current, fully reduced row whose pivot is p."""
        return self._rows[p]

    def rows(self) -> tuple[BitVec, ...]:
        return tuple(BitVec(self.length, r) for r in self.row_bits())

    def row_bits(self) -> tuple[int, ...]:
        rows = self._rows
        return tuple(rows[p] for p in sorted(rows))

    def copy(self) -> "SpanBasis":
        dup = SpanBasis(self.length)
        dup._rows = dict(self._rows)
        dup._pivmask = self._pivmask
        dup._cols = self._cols.copy()
        dup._order = self._order.copy()
        return dup

    def _check_length(self, v: BitVec) -> None:
        if v.length != self.length:
            raise DimensionError(
                f"vector length {v.length} != ambient dimension {self.length}"
            )

    def _reduce_bits(self, bits: int) -> int:
        # Each row carries its own pivot and no other, so the pivots to clear
        # are known up front and the rows can be applied in any order.
        rows = self._rows
        hit = bits & self._pivmask
        while hit:
            p = hit.bit_length() - 1
            bits ^= rows[p]
            hit ^= 1 << p
        return bits

    def insert_bits(self, bits: int) -> bool:
        """Raw-integer insert; returns True iff the vector was independent."""
        bits = self._reduce_bits(bits)
        if bits == 0:
            return False
        q = (bits & -bits).bit_length() - 1
        rows, cols = self._rows, self._cols
        hit = cols.pop(q, 0)  # the rows that hold the new pivot
        h = hit
        while h:
            p = h.bit_length() - 1
            rows[p] ^= bits
            h ^= 1 << p
        # Those rows and the new one now toggle every other column of bits.
        toggle = hit | 1 << q
        rest = bits ^ 1 << q
        while rest:
            c = rest.bit_length() - 1
            cols[c] ^= toggle
            rest ^= 1 << c
        rows[q] = bits
        self._pivmask |= 1 << q
        self._order.append(q)
        return True

    def insert(self, v: BitVec) -> bool:
        """Grow the span by v; returns True iff v was outside the old span."""
        self._check_length(v)
        return self.insert_bits(v.bits)

    def contains_bits(self, bits: int) -> bool:
        return self._reduce_bits(bits) == 0

    def contains(self, v: BitVec) -> bool:
        """True iff v reduces to zero against the basis rows."""
        self._check_length(v)
        return self.contains_bits(v.bits)


def mat_rank(rows: Sequence[BitVec]) -> int:
    """Rank over GF(2); equal to folding span insertion in any order."""
    rows = list(rows)
    if not rows:
        return 0
    length = rows[0].length
    basis = SpanBasis(length)
    for v in rows:
        basis.insert(v)
    return basis.rank


@dataclass(frozen=True, slots=True)
class F2Matrix:
    """Square GF(2) matrix stored column-major, each column a packed int."""

    n: int
    cols: tuple[int, ...]

    def __post_init__(self):
        if len(self.cols) != self.n:
            raise DimensionError(f"expected {self.n} columns, got {len(self.cols)}")
        for c in self.cols:
            if c < 0 or c >> self.n:
                raise DimensionError("column does not fit the declared size")

    @classmethod
    def identity(cls, n: int) -> "F2Matrix":
        return cls(n, tuple(1 << i for i in range(n)))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "F2Matrix":
        n = len(rows)
        cols = [0] * n
        for i, row in enumerate(rows):
            if len(row) != n:
                raise DimensionError("matrix is not square")
            for j, e in enumerate(row):
                if e & 1:
                    cols[j] |= 1 << i
        return cls(n, tuple(cols))

    def entry(self, i: int, j: int) -> int:
        return (self.cols[j] >> i) & 1

    def mul_vec(self, bits: int) -> int:
        """Matrix-vector product M.v with v a packed column vector."""
        out = 0
        b = bits
        while b:
            low = b & -b
            out ^= self.cols[low.bit_length() - 1]
            b ^= low
        return out

    def __matmul__(self, other: "F2Matrix") -> "F2Matrix":
        if self.n != other.n:
            raise DimensionError("size mismatch in matrix product")
        return F2Matrix(self.n, tuple(self.mul_vec(c) for c in other.cols))

    def transpose(self) -> "F2Matrix":
        rows = [[self.entry(j, i) for j in range(self.n)] for i in range(self.n)]
        return F2Matrix.from_rows(rows)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        for i in range(self.n):
            yield tuple(self.entry(i, j) for j in range(self.n))
