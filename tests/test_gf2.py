"""Bit-packed GF(2) substrate: set bits, span maintenance and rank."""

import random
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from bcjcalc.gf2core import F2Matrix, SpanBasis, bit_indices


def mat_rank(rows):
    """Rank over GF(2) of int vectors, by folding them into a span."""
    basis = SpanBasis(max((v.bit_length() for v in rows), default=0))
    for v in rows:
        basis.insert_bits(v)
    return basis.rank


def span_size_bruteforce(vectors):
    """Oracle: enumerate all GF(2) combinations; span size is 2^rank."""
    seen = {0}
    for coeffs in product((0, 1), repeat=len(vectors)):
        acc = 0
        for c, v in zip(coeffs, vectors):
            if c:
                acc ^= v
        seen.add(acc)
    return len(seen)


class TestBitIndices:
    def test_zero(self):
        assert bit_indices(0) == ()

    def test_single_bit(self):
        for i in (0, 1, 63, 64, 1000):
            assert bit_indices(1 << i) == (i,)

    def test_wide_int_matches_range_scan(self):
        rng = random.Random(19)
        for n in (1, 64, 65, 3000):
            v = rng.randrange(1 << n)
            assert bit_indices(v) == tuple(i for i in range(n) if (v >> i) & 1)

    @given(
        st.integers(0, 17),  # the width is about 2 ** k bits, up to 140,000
        st.integers(0, 140_000),
        st.sampled_from(["dense", "sparse", "loop edge", "bin edge"]),
        st.integers(0, 2**32),
    )
    @example(17, 140_000, "dense", 1)
    @example(17, 140_000, "bin edge", 1)
    @example(6, 64, "loop edge", 1)
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_matches_the_xor_loop(self, k, width, density, seed):
        # the loop that clears the lowest bit is the oracle; the two edges
        # are the most set bits of a w-bit int that still take that loop,
        # n * (w + 1500) <= 300 * (w + 32), and one more, the fewest that
        # take the pass over bin()
        width = min(width, 1 << k)
        rng = random.Random(seed)
        if density == "dense":
            v = rng.getrandbits(width) if width else 0
        elif density == "sparse":
            v = 0
            for p in rng.sample(range(width), min(width, rng.randrange(4))):
                v |= 1 << p
        else:
            w = max(width, 16)
            count = 300 * (w + 32) // (w + 1500) + (density == "bin edge")
            v = 1 << (w - 1)
            for p in rng.sample(range(w - 1), count - 1):
                v |= 1 << p
        want = []
        bits = v
        while bits:
            low = bits & -bits
            want.append(low.bit_length() - 1)
            bits ^= low
        assert bit_indices(v) == tuple(want)


class TestSpanBasis:
    def test_insert_zero_into_empty(self):
        basis = SpanBasis(4)
        assert basis.insert_bits(0) is False
        assert basis.rank == 0

    def test_insert_idempotent(self):
        basis = SpanBasis(4)
        assert basis.insert_bits(0b0001) is True
        assert basis.insert_bits(0b0001) is False
        assert basis.rank == 1

    def test_rank_two_triangle(self):
        # 0b011 ^ 0b110 = 0b101, so the three vectors span a 2-dimensional space
        vs = [0b011, 0b110, 0b101]
        assert span_size_bruteforce(vs) == 4
        basis = SpanBasis(3)
        for v in vs:
            basis.insert_bits(v)
        assert basis.rank == 2

    def test_contains(self):
        basis = SpanBasis(3)
        assert basis.contains_bits(0) is True
        basis.insert_bits(0b001)
        assert basis.contains_bits(0b010) is False
        basis2 = SpanBasis(3)
        basis2.insert_bits(0b011)
        basis2.insert_bits(0b110)
        assert basis2.contains_bits(0b101) is True

    def test_reduction_invariants(self):
        rng = random.Random(11)
        basis = SpanBasis(24)
        for _ in range(40):
            basis.insert_bits(rng.randrange(1 << 24))
        pivots = basis.pivots
        assert list(pivots) == sorted(pivots)
        rows = basis.row_bits()
        for k, row in enumerate(rows):
            assert (row & -row).bit_length() - 1 == pivots[k]
            for other, p in zip(rows, pivots):
                if other is not row:
                    assert not (row >> p) & 1


class TestMatRank:
    def test_empty(self):
        assert mat_rank([]) == 0

    def test_identity(self):
        for n in (2, 4, 8):
            rows = [1 << i for i in range(n)]
            assert mat_rank(rows) == n

    def test_triangle(self):
        assert mat_rank([0b011, 0b110, 0b101]) == 2

    def test_order_independence(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(1, 20)
            rows = [rng.randrange(1 << n) for _ in range(rng.randint(0, 12))]
            r0 = mat_rank(rows)
            for _ in range(5):
                shuffled = rows[:]
                rng.shuffle(shuffled)
                assert mat_rank(shuffled) == r0

    def test_rank_bounds_and_combination_invariance(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(2, 16)
            rows = [rng.randrange(1 << n) for _ in range(rng.randint(1, 10))]
            r = mat_rank(rows)
            assert r <= min(len(rows), n)
            combo = 0
            for v in rows:
                if rng.random() < 0.5:
                    combo ^= v
            assert mat_rank(rows + [combo]) == r

    def test_contains_iff_dependent(self):
        rng = random.Random(17)
        for _ in range(50):
            n = rng.randint(1, 16)
            basis = SpanBasis(n)
            for _ in range(rng.randint(0, 8)):
                basis.insert_bits(rng.randrange(1 << n))
            probe = rng.randrange(1 << n)
            was_inside = basis.contains_bits(probe)
            assert basis.copy().insert_bits(probe) == (not was_inside)

    def test_rank_matches_bruteforce_span(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(1, 8)
            rows = [rng.randrange(1 << n) for _ in range(rng.randint(0, 6))]
            assert 1 << mat_rank(rows) == span_size_bruteforce(rows)


@given(
    st.integers(min_value=1, max_value=16).flatmap(
        lambda n: st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=10)
    ),
    st.randoms(use_true_random=False),
)
def test_hypothesis_rank_shuffle_invariant(rows, rng):
    r0 = mat_rank(rows)
    rows2 = rows[:]
    rng.shuffle(rows2)
    assert mat_rank(rows2) == r0


def reduce_full_scan(basis, bits):
    """Oracle: the textbook pass over every row in ascending pivot order."""
    for p, row in zip(basis.pivots, basis.row_bits()):
        if (bits >> p) & 1:
            bits ^= row
    return bits


def assert_fully_reduced(basis):
    pivots, rows = basis.pivots, basis.row_bits()
    assert list(pivots) == sorted(set(pivots))
    assert len(rows) == len(pivots) == basis.rank
    for row, p in zip(rows, pivots):
        assert (row & -row).bit_length() - 1 == p
        for q in pivots:
            if q != p:
                assert not (row >> q) & 1


def packed_vectors(n):
    """Dense vectors, and sparse ones like the search's wedge images."""
    sparse = st.lists(st.integers(0, n - 1), max_size=3).map(
        lambda idx: sum(1 << i for i in set(idx))
    )
    return st.lists(st.one_of(st.integers(0, (1 << n) - 1), sparse), max_size=40)


insert_sequences = st.integers(min_value=1, max_value=64).flatmap(
    lambda n: st.tuples(st.just(n), packed_vectors(n), packed_vectors(n))
)


@given(insert_sequences)
def test_hypothesis_pivot_reduction_matches_full_scan(case):
    n, vectors, probes = case
    basis = SpanBasis(n)
    for bits in vectors:
        for probe in probes + vectors:
            assert basis._reduce_bits(probe) == reduce_full_scan(basis, probe)
        rank = basis.rank
        expected = reduce_full_scan(basis, bits) != 0
        assert basis.insert_bits(bits) is expected
        assert basis.rank == rank + expected
        assert basis.contains_bits(bits)
        assert_fully_reduced(basis)


def column_index_from_rows(basis):
    """Oracle: for every column with a set bit in some row other than at
    that row's pivot, the mask of the pivots whose row has the bit."""
    cols = {}
    for p, row in zip(basis.pivots, basis.row_bits()):
        rest = row ^ (1 << p)
        for c in range(basis.length):
            if (rest >> c) & 1:
                cols[c] = cols.get(c, 0) | (1 << p)
    return cols


def assert_column_index(basis):
    index = basis._cols
    assert not any(basis._pivmask >> c & 1 for c in index)
    assert {c: m for c, m in index.items() if m} == column_index_from_rows(basis)


@given(insert_sequences)
def test_hypothesis_column_index_matches_rows(case):
    n, vectors, extra = case
    basis = SpanBasis(n)
    for bits in vectors + extra:
        basis.insert_bits(bits)
        assert_column_index(basis)


def unit_mask_from_rows(basis):
    """Oracle: the mask of the pivots p whose row is e_p."""
    return sum(1 << p for p, row in zip(basis.pivots, basis.row_bits()) if row == 1 << p)


def reduce_without_units(basis, bits):
    """Oracle: the pivot loop alone, with no unit-mask step."""
    for p in bit_indices(bits & basis._pivmask):
        bits ^= basis.pivot_row(p)
    return bits


def assert_unit_mask_matches_rows(basis, probes):
    assert basis._units == basis.units == unit_mask_from_rows(basis)
    # the row dict holds exactly the other rows
    assert all(row != 1 << p for p, row in basis._rows.items())
    assert sum(1 << p for p in basis._rows) == basis._pivmask ^ basis._units
    for probe in probes:
        assert basis._reduce_bits(probe) == reduce_without_units(basis, probe)


@given(insert_sequences)
def test_hypothesis_unit_mask_matches_rows(case):
    n, vectors, probes = case
    basis = SpanBasis(n)
    for bits in vectors:
        basis.insert_bits(bits)
        assert_unit_mask_matches_rows(basis, probes + vectors)
    assert basis.copy()._units == basis._units


def test_back_substitution_makes_unit_rows():
    basis = SpanBasis(3)
    basis.insert_bits(0b011)
    basis.insert_bits(0b101)
    assert basis.units == 0
    assert basis.row_bits() == (0b101, 0b110)
    # reduces to e_2, whose back-substitution leaves e_0 and e_1 in rows 0, 1
    basis.insert_bits(0b010)
    assert basis.row_bits() == (0b001, 0b010, 0b100)
    assert basis.units == 0b111
    assert basis._rows == {}  # unit rows live in the mask only


unit_pivot_sequences = st.integers(min_value=1, max_value=64).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.permutations(range(n)),
        st.lists(st.integers(0, n), min_size=1, max_size=4),
        packed_vectors(n),
    )
)


@given(unit_pivot_sequences)
def test_hypothesis_insert_units_equals_unit_inserts_one_by_one(case):
    # the columns in a random order, cut into runs: the first run is
    # inserted one by one into both spans, each later one by insert_units
    n, columns, cuts, probes = case
    cuts = sorted(cuts)
    runs = [columns[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    bulk, single = SpanBasis(n), SpanBasis(n)
    for p in runs[0]:
        bulk.insert_bits(1 << p)
    for run in runs:
        for p in run:
            single.insert_bits(1 << p)
        if run is not runs[0]:
            bulk.insert_units(run)
        assert bulk.insertion_order == single.insertion_order
        assert bulk.row_bits() == single.row_bits()
        assert (bulk._units, bulk._pivmask, bulk._rows) == (single._units, single._pivmask, {})
        assert_fully_reduced(bulk)
        assert_column_index(bulk)
        assert_unit_mask_matches_rows(bulk, probes)
        dup = bulk.copy()
        assert (dup.units, dup.insertion_order, dup.row_bits()) == (
            bulk.units, bulk.insertion_order, bulk.row_bits()
        )


@given(unit_pivot_sequences)
def test_hypothesis_unit_vector_membership_is_the_unit_mask(case):
    # rows are fully reduced, so a sum of rows has a set bit at each of
    # their pivots: e_s is in the span iff some row is e_s, whatever mix of
    # unit runs and arbitrary inserts built it
    n, columns, cuts, vectors = case
    basis = SpanBasis(n)
    basis.insert_units(columns[: min(cuts)])
    for bits in vectors:
        basis.insert_bits(bits)
        units = basis.units
        assert [basis.contains_bits(1 << s) for s in range(n)] == [
            bool(units >> s & 1) for s in range(n)
        ]
        assert [basis.is_unit_pivot(p) for p in basis.pivots] == [
            basis.pivot_row(p) == 1 << p for p in basis.pivots
        ]


def test_insert_units_after_back_substitution():
    # back-substitution leaves only unit rows, and an empty column index
    basis = SpanBasis(5)
    for bits in (0b011, 0b101, 0b010):
        basis.insert_bits(bits)
    assert not basis._cols
    basis.insert_units([4, 3])
    assert basis.row_bits() == (0b1, 0b10, 0b100, 0b1000, 0b10000)
    assert basis.insertion_order[3:] == [4, 3]
    assert not basis.copy().insert_bits(0b11111)


def test_insert_units_rejects_other_spans_and_old_or_repeated_pivots():
    basis = SpanBasis(3)
    basis.insert_bits(0b011)
    with pytest.raises(ValueError):
        basis.insert_units([2])
    assert basis.row_bits() == (0b011,)
    basis = SpanBasis(3)
    basis.insert_bits(0b001)
    for pivots in ([0], [1, 1], [2, 0]):
        with pytest.raises(ValueError):
            basis.insert_units(pivots)
    assert (basis.units, basis.insertion_order) == (0b001, [0])
    basis.insert_units([])
    assert SpanBasis(0).insert_units([]) is None


@given(insert_sequences)
def test_hypothesis_copy_is_independent(case):
    n, vectors, extra = case
    basis = SpanBasis(n)
    for bits in vectors:
        basis.insert_bits(bits)
    rank, rows, pivots = basis.rank, basis.row_bits(), basis.pivots
    pivot_map = dict(basis._rows)
    index = dict(basis._cols)
    dup = basis.copy()
    for bits in extra:
        dup.insert_bits(bits)
    assert basis.rank == rank
    assert basis.row_bits() == rows
    assert basis.pivots == pivots
    assert basis._rows == pivot_map
    assert dict(basis._cols) == index
    assert_fully_reduced(dup)
    assert_column_index(basis)
    assert_column_index(dup)


@given(insert_sequences)
def test_hypothesis_insertion_order_lists_each_pivot_once(case):
    n, vectors, extra = case
    basis = SpanBasis(n)
    want = []
    for bits in vectors:
        before = set(basis.pivots)
        if basis.insert_bits(bits):
            (new,) = set(basis.pivots) - before
            want.append(new)
        assert basis.insertion_order == want
    assert sorted(basis.insertion_order) == list(basis.pivots)
    for p in basis.insertion_order:
        assert basis.pivot_row(p) & -basis.pivot_row(p) == 1 << p
    order = list(basis.insertion_order)
    dup = basis.copy()
    for bits in extra:
        dup.insert_bits(bits)
    assert basis.insertion_order == order
    assert dup.insertion_order[: len(order)] == order
    assert sorted(dup.insertion_order) == list(dup.pivots)


class TestF2Matrix:
    def test_identity_action(self):
        M = F2Matrix.identity(6)
        assert M.mul_vec(0b101010) == 0b101010

    def test_matmul_composition(self):
        rng = random.Random(3)
        n = 6
        for _ in range(20):
            A = F2Matrix(n, tuple(rng.randrange(1 << n) for _ in range(n)))
            B = F2Matrix(n, tuple(rng.randrange(1 << n) for _ in range(n)))
            v = rng.randrange(1 << n)
            assert (A @ B).mul_vec(v) == A.mul_vec(B.mul_vec(v))

    def test_from_rows(self):
        # the rows [[1, 0], [1, 1]]: entry (i, j) is bit i of column j, which
        # is also the image of e_j
        M = F2Matrix(2, (0b11, 0b10))
        rows = [[(M.mul_vec(1 << j) >> i) & 1 for j in range(2)] for i in range(2)]
        assert rows == [[1, 0], [1, 1]]
