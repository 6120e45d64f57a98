"""Bit-packed linear algebra over GF(2).

A vector is a nonnegative Python integer read as a little-endian bit string:
bit i is coordinate i, so xor of two vectors is one integer operation.  There
is no vector type; a caller that fixes a length checks it where it makes a
vector (``WedgeElem`` does), and ``bit_indices`` lists a vector's set bits.

``SpanBasis`` maintains an incrementally grown, fully reduced row basis:
every row's lowest set bit is its pivot, and no row has a set bit at another
row's pivot.  Rows are keyed by pivot (unit rows aside, see below), and the
set of pivots is also kept as one packed mask.  Because xor-ing in a fully
reduced row clears its own pivot and touches no other pivot, reducing a
vector v means xor-ing exactly the rows at the set bits of v & mask: the
cost follows the number of pivots v touches, not the rank.  Membership is
one such reduction.  A unit vector's membership is one mask test: a sum of
rows has a set bit at each of their pivots, so e_p lies in the span exactly
when some row is e_p, that is when bit p of ``units`` is set; the image
search reads its coverage off that mask.

Back-substitution on insert uses a column index: for every non-pivot column
c, one packed mask over the pivots whose row has bit c.  A new row with
pivot q must be xor-ed into exactly the rows that have bit q, which the
index names at once, and afterwards every other bit c of the new row
toggles those rows and the new one in the mask of c.  The index holds at
most rank x (length - rank) bits, one per (row, non-pivot column) pair.

The unit rows, those equal to e_p, are kept only as one more packed mask,
and the row dict holds the other rows.  A unit row touches no column but
its pivot, so reducing clears every unit pivot of v with one AND before the
loop over the other rows.  Most dependent inserts of a saturation are sums
of unit rows.  An insert adds a unit row when the reduced vector is one
bit, and back-substitution can turn a row into one (a row with a bit at
the new pivot is never a unit row, so none is lost).  Stored as an int,
e_p takes p bits: at the end of a genus-10 search 18,645 of the 21,945 rows
are unit rows, which as ints held 27 MB.

``insert_units`` puts e_p for a list of new pivots p, in that order, into a
span of unit rows only with one OR: it builds the image search's stream span.

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
from collections.abc import Sequence
from itertools import compress

from .errors import DimensionError
from .value import Value


_DIGIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def bit_indices(bits: int) -> tuple[int, ...]:
    """Indices of the set bits of a nonnegative int, ascending.

    Clearing the lowest bit in a loop rewrites the whole int at each of the
    n set bits, about n * (w + 1500) time units for a w-bit int; one pass
    over the binary digits of ``bin()`` costs about 300 * (w + 32).  (Both
    fitted to timings of the two forms on CPython 3.11, a unit being about
    0.08 ns: the loop is faster up to about 8 set bits of 8, 85 of 661 and
    300 to 400 of 140,000.)  The cheaper form is taken; ``n > 6`` follows
    from the test (300 * 32 / 1500 = 6.4) and spares the small ints, most
    of the calls, the products.
    """
    n = bits.bit_count()
    if n > 6 and n * (bits.bit_length() + 1500) > 300 * (bits.bit_length() + 32):
        digits = bin(bits)[:1:-1].encode().translate(_DIGIT_VALUES)
        return tuple(compress(range(len(digits)), digits))
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return tuple(out)


class SpanBasis:
    """Incrementally maintained, fully reduced basis of a GF(2) subspace of
    the `length`-bit vectors."""

    __slots__ = ("length", "_rows", "_pivmask", "_units", "_cols", "_order")

    def __init__(self, length: int):
        if length < 0:
            raise DimensionError("ambient dimension must be nonnegative")
        self.length = length
        self._rows: dict[int, int] = {}   # pivot -> row, unit rows excepted
        self._pivmask = 0                 # bit p set iff p is a pivot
        self._units = 0                   # bit p set iff row p is e_p
        # non-pivot column c -> mask of the pivots whose row has bit c
        # (an entry may be left at 0; no entry exists at a pivot column)
        self._cols: defaultdict[int, int] = defaultdict(int)
        self._order: list[int] = []       # pivots in insertion order

    @property
    def rank(self) -> int:
        return len(self._order)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(sorted(self._order))

    @property
    def insertion_order(self) -> list[int]:
        """The pivots in the order their independent inserts happened.

        This is the live list: it grows with every independent insert, so a
        loop over it by index sees the pivots added while it runs.  Callers
        must not mutate it."""
        return self._order

    @property
    def units(self) -> int:
        """Mask of the pivots p whose row is the unit vector e_p: every
        vector inside it lies in the span."""
        return self._units

    def is_unit_pivot(self, p: int) -> bool:
        """Whether the row of pivot p (p must be a pivot) is e_p: a dict
        test, where ``units >> p & 1`` copies the mask above bit p."""
        return p not in self._rows

    def pivot_row(self, p: int) -> int:
        """The current, fully reduced row whose pivot is p."""
        return 1 << p if self._units >> p & 1 else self._rows[p]

    def row_bits(self) -> tuple[int, ...]:
        return tuple(map(self.pivot_row, self.pivots))

    def copy(self) -> "SpanBasis":
        dup = SpanBasis(self.length)
        dup._rows = dict(self._rows)
        dup._pivmask = self._pivmask
        dup._units = self._units
        dup._cols = self._cols.copy()
        dup._order = self._order.copy()
        return dup

    def _reduce_bits(self, bits: int) -> int:
        # Each row carries its own pivot and no other, so the pivots to clear
        # are known up front and the rows can be applied in any order; the
        # unit rows among them are applied at once.
        rows = self._rows
        bits ^= bits & self._units
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
        units = self._units
        h = hit
        while h:
            p = h.bit_length() - 1
            row = rows[p] ^ bits
            if row == 1 << p:
                units |= row
                del rows[p]
            else:
                rows[p] = row
            h ^= 1 << p
        # Those rows and the new one now toggle every other column of bits.
        toggle = hit | 1 << q
        rest = bits ^ 1 << q
        while rest:
            c = rest.bit_length() - 1
            cols[c] ^= toggle
            rest ^= 1 << c
        if bits == 1 << q:
            units |= bits
        else:
            rows[q] = bits
        self._units = units
        self._pivmask |= 1 << q
        self._order.append(q)
        return True

    def insert_units(self, pivots: Sequence[int]) -> None:
        """Insert e_p for every p of `pivots`, in that order: distinct
        columns that are no pivot yet, into a span of unit rows only, whose
        column index is then empty (an entry goes only when its column
        becomes a pivot, and until then some row has a bit there)."""
        if self._rows:
            raise ValueError("insert_units needs a span that holds unit rows only")
        digits = bytearray(b"0" * self.length)  # digit -1 - p is bit p
        for p in pivots:
            digits[-1 - p] = 49  # ord("1")
        mask = int(b"0" + digits, 2)
        if mask.bit_count() != len(pivots) or mask & self._pivmask:
            raise ValueError("insert_units takes distinct columns that are no pivot yet")
        self._units |= mask
        self._pivmask |= mask
        self._order.extend(pivots)

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
