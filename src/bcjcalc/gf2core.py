"""Bit-packed linear algebra over GF(2).

A vector is a nonnegative Python integer read as a little-endian bit string:
bit i is coordinate i, so xor of two vectors is one integer operation.  There
is no vector type; a caller that fixes a length checks it where it makes a
vector (``WedgeElem`` does), and ``bit_indices`` lists a vector's set bits.

``SpanBasis`` maintains an incrementally grown, fully reduced row basis:
every row's lowest set bit is its pivot, and no row has a set bit at another
row's pivot.  Rows are keyed by pivot, and the set of pivots is also kept as
one packed mask.  Because xor-ing in a fully reduced row clears its own
pivot and touches no other pivot, reducing a vector v means xor-ing exactly
the rows at the set bits of v & mask: the cost follows the number of pivots
v touches, not the rank.  Membership is one such reduction, which is what
the incremental image searches need.

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

The loops over set bits in ``SpanBasis`` walk from the top bit down
(``p = b.bit_length() - 1``, then clear bit p), which allocates no negated
integer per step.  Each visited row or delta is xor-ed in on its own, so
the visiting order cannot change a result.
"""

from __future__ import annotations

from collections import defaultdict

from .errors import DimensionError
from .value import Value


def bit_indices(bits: int) -> tuple[int, ...]:
    """Indices of the set bits of a nonnegative int, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return tuple(out)


class SpanBasis:
    """Incrementally maintained, fully reduced basis of a GF(2) subspace of
    the `length`-bit vectors."""

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

    def contains_bits(self, bits: int) -> bool:
        return self._reduce_bits(bits) == 0


class F2Matrix(Value):
    """Square GF(2) matrix stored column-major, each column a packed int."""

    __slots__ = ("n", "cols")

    def __init__(self, n: int, cols: tuple[int, ...]):
        if len(cols) != n:
            raise DimensionError(f"expected {n} columns, got {len(cols)}")
        for c in cols:
            if c < 0 or c >> n:
                raise DimensionError("column does not fit the declared size")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "cols", cols)

    @classmethod
    def identity(cls, n: int) -> "F2Matrix":
        return cls(n, tuple(1 << i for i in range(n)))

    def mul_vec(self, bits: int) -> int:
        """Matrix-vector product M.v with v a packed column vector."""
        out = 0
        for i in bit_indices(bits):
            out ^= self.cols[i]
        return out

    def __matmul__(self, other: "F2Matrix") -> "F2Matrix":
        if self.n != other.n:
            raise DimensionError("size mismatch in matrix product")
        return F2Matrix(self.n, tuple(self.mul_vec(c) for c in other.cols))
