"""The fixed surface model: intersection form, spines, symplectic bases."""

import random

import pytest

from bcjcalc import surface as sf
from bcjcalc.errors import BasisError, DimensionError, GenusMismatchError
from bcjcalc.gf2core import F2Matrix, SpanBasis
from bcjcalc.surface import (
    HClass,
    SubsurfaceBasis,
    ZHClass,
    ZSubsurfaceBasis,
    intersect,
    is_symplectic_basis,
    random_symplectic_rebase,
    support,
    symplectic_violation,
)


class TestIntersect:
    def test_dual_pair(self):
        assert intersect(sf.a(2, 1), sf.b(2, 1)) == 1

    def test_orthogonal_basis_classes(self):
        assert intersect(sf.a(2, 1), sf.a(2, 2)) == 0
        assert intersect(sf.b(3, 2), sf.a(3, 3)) == 0
        assert intersect(sf.b(3, 1), sf.b(3, 3)) == 0

    def test_genus_mismatch(self):
        with pytest.raises(GenusMismatchError):
            intersect(sf.a(2, 1), sf.a(3, 1))

    def test_mod2_form_symmetric_alternating_exhaustive(self):
        # u.u = 0 and u.v = v.u for every pair, g <= 3
        for g in (1, 2, 3):
            for ub in range(1 << (2 * g)):
                u = HClass(g, ub)
                assert intersect(u, u) == 0
                for vb in range(1 << (2 * g)):
                    v = HClass(g, vb)
                    assert intersect(u, v) == intersect(v, u)

    def test_integral_form_antisymmetric(self):
        rng = random.Random(1)
        for _ in range(200):
            g = rng.randint(1, 4)
            u = ZHClass(g, tuple(rng.randint(-3, 3) for _ in range(2 * g)))
            v = ZHClass(g, tuple(rng.randint(-3, 3) for _ in range(2 * g)))
            assert intersect(u, v) == -intersect(v, u)
            assert intersect(u, u) == 0

    def test_integral_standard_values(self):
        assert intersect(sf.za(2, 1), sf.zb(2, 1)) == 1
        assert intersect(sf.zb(2, 1), sf.za(2, 1)) == -1

    def test_mod2_reduction_compatible(self):
        rng = random.Random(2)
        for _ in range(100):
            g = rng.randint(1, 3)
            u = ZHClass(g, tuple(rng.randint(-4, 4) for _ in range(2 * g)))
            v = ZHClass(g, tuple(rng.randint(-4, 4) for _ in range(2 * g)))
            assert intersect(u, v) % 2 == intersect(u.mod2(), v.mod2())


class TestSupport:
    def test_zero(self):
        assert support(HClass(3)) == frozenset()

    def test_single_handle(self):
        assert support(sf.a(2, 1) + sf.b(2, 1)) == {1}

    def test_two_handles(self):
        assert support(sf.b(4, 2) + sf.a(4, 3)) == {2, 3}

    def test_union_bound(self):
        rng = random.Random(3)
        for _ in range(100):
            g = rng.randint(1, 5)
            u = HClass(g, rng.randrange(1 << (2 * g)))
            v = HClass(g, rng.randrange(1 << (2 * g)))
            assert support(u + v) <= support(u) | support(v)

    def test_integral_support(self):
        assert support(ZHClass(2, (0, 2, 0, 0))) == {2}


def spine(x, y):
    """A spine in its one representation, a genus-1 symplectic basis."""
    return SubsurfaceBasis(x.genus, ((x, y),))


def disjoint(s1, s2):
    """The conservative disjoint-realization criterion on handle supports."""
    return not (s1.support() & s2.support())


class TestSpines:
    def test_invalid_spine(self):
        with pytest.raises(BasisError):
            spine(sf.a(2, 1), sf.a(2, 2)).validate()

    def test_disjoint_standard(self):
        s1 = spine(sf.a(3, 1), sf.b(3, 1))
        s2 = spine(sf.a(3, 2), sf.b(3, 2))
        assert disjoint(s1, s2)

    def test_disjoint_mixed_classes(self):
        g = 3
        s1 = spine(sf.a(g, 1) + sf.b(g, 1), sf.a(g, 1) + sf.a(g, 2))
        s2 = spine(sf.a(g, 3), sf.b(g, 3))
        assert s1.support() == {1, 2}
        assert disjoint(s1, s2)

    def test_shared_handle(self):
        g = 2
        s1 = spine(sf.a(g, 1), sf.b(g, 1))
        s2 = spine(sf.a(g, 1) + sf.a(g, 2), sf.b(g, 2))
        assert not disjoint(s1, s2)

    def test_symmetric(self):
        rng = random.Random(4)
        g = 4
        spines = []
        while len(spines) < 20:
            x = HClass(g, rng.randrange(1, 1 << (2 * g)))
            y = HClass(g, rng.randrange(1, 1 << (2 * g)))
            if intersect(x, y) == 1:
                spines.append(spine(x, y))
        for s1 in spines:
            s1.validate()
            for s2 in spines:
                assert disjoint(s1, s2) == disjoint(s2, s1)

    def test_spinepair_factory(self):
        # a pair of spines enters the search as an abelian cycle whose
        # support-disjoint certificate is checked
        from bcjcalc.bcjmap import SeparatingTwist
        from bcjcalc.errors import DisjointnessError
        from bcjcalc.wedgespan import AbelianCycle

        t1 = SeparatingTwist(spine(sf.a(2, 1), sf.b(2, 1)))
        t2 = SeparatingTwist(spine(sf.a(2, 2), sf.b(2, 2)))
        AbelianCycle(t1, t2, label="orbit-one").validate_certificate()
        bad = SeparatingTwist(spine(sf.a(2, 1) + sf.a(2, 2), sf.b(2, 2)))
        with pytest.raises(DisjointnessError):
            AbelianCycle(t1, bad).validate_certificate()


class TestSymplecticBasis:
    def test_standard_valid(self):
        assert is_symplectic_basis(SubsurfaceBasis.standard(3, [1]))
        assert is_symplectic_basis(SubsurfaceBasis.standard(3, [1, 2]))

    def test_bad_pair(self):
        basis = SubsurfaceBasis(2, ((sf.a(2, 1), sf.a(2, 2)),))
        assert is_symplectic_basis(basis) is False
        assert "A1.B1" in symplectic_violation(basis)

    def test_validate_raises(self):
        basis = SubsurfaceBasis(2, ((sf.a(2, 1), sf.a(2, 2)),))
        with pytest.raises(BasisError):
            basis.validate()

    def test_cross_pair_violation_reported(self):
        g = 2
        basis = SubsurfaceBasis(
            g, ((sf.a(g, 1), sf.b(g, 1)), (sf.a(g, 1) + sf.a(g, 2), sf.b(g, 2)))
        )
        # A2.B1 = 0 ok, but B1.A2... a1 appears in A2 so A2.B1 = 1
        assert is_symplectic_basis(basis) is False

    def test_integral_standard(self):
        assert is_symplectic_basis(ZSubsurfaceBasis.standard(3, [1, 3]))


class TestRebase:
    def test_swap_move(self):
        # seed-independent check of the move algebra: swapping keeps validity
        basis = SubsurfaceBasis(1, ((sf.a(1, 1), sf.b(1, 1)),))
        swapped = SubsurfaceBasis(1, ((sf.b(1, 1), sf.a(1, 1)),))
        assert is_symplectic_basis(swapped)
        assert intersect(swapped.pairs[0][0], swapped.pairs[0][1]) == 1

    def test_shear_move(self):
        sheared = SubsurfaceBasis(1, ((sf.a(1, 1) + sf.b(1, 1), sf.b(1, 1)),))
        assert is_symplectic_basis(sheared)

    def test_rebase_valid_and_same_span(self):
        def span_rank(classes):
            span = SpanBasis(2 * classes[0].genus)
            for c in classes:
                span.insert_bits(c.bits)
            return span.rank

        rng = random.Random(5)
        for g, handles in ((2, [1, 2]), (3, [1, 3]), (4, [2, 3, 4])):
            basis = SubsurfaceBasis.standard(g, handles)
            for _ in range(25):
                seed = rng.randrange(1 << 30)
                rebased = random_symplectic_rebase(basis, seed)
                assert is_symplectic_basis(rebased)
                r = span_rank(basis.rows())
                assert span_rank(rebased.rows()) == r
                assert span_rank(basis.rows() + rebased.rows()) == r

    def test_rebase_deterministic(self):
        basis = SubsurfaceBasis.standard(3, [1, 2])
        assert random_symplectic_rebase(basis, 99) == random_symplectic_rebase(basis, 99)

    def test_rebase_rejects_invalid(self):
        with pytest.raises(BasisError):
            random_symplectic_rebase(
                SubsurfaceBasis(2, ((sf.a(2, 1), sf.a(2, 2)),)), 1
            )


class TestSpMatrices:
    def test_j_matrix_symplectic_check(self):
        for g in (1, 2, 3):
            # a1 <-> b1: column k is the image of basis vector k
            cols = [1 << k for k in range(2 * g)]
            cols[0], cols[g] = cols[g], cols[0]
            assert sf.is_symplectic(F2Matrix(2 * g, tuple(cols)), g)
        # handles 1 <-> 3 at genus 3: a1 <-> a3 and b1 <-> b3
        M = F2Matrix(6, (0b000100, 0b000010, 0b000001, 0b100000, 0b010000, 0b001000))
        assert sf.is_symplectic(M, 3)

    def test_transvections_symplectic(self):
        g = 2
        for bits in range(1, 1 << (2 * g)):
            assert sf.is_symplectic(sf.transvection(HClass(g, bits)), g)

    def test_random_words_symplectic(self):
        rng = random.Random(6)
        for g in (2, 3, 4):
            for _ in range(20):
                assert sf.is_symplectic(sf.random_sp_word(g, rng), g)

    @pytest.mark.parametrize("g", [1, 2])
    def test_agrees_with_definition_on_every_matrix(self, g):
        # M^T J M = J, J the Gram matrix of the mod-2 form: e_{a_i}.e_{b_i} = 1
        n = 2 * g
        J = F2Matrix(n, tuple(1 << ((j + g) % n) for j in range(n)))
        count = 0
        for entries in range(1 << (n * n)):
            cols = tuple((entries >> (n * j)) & ((1 << n) - 1) for j in range(n))
            M = F2Matrix(n, cols)
            # column j of M^T is row j of M
            MT = F2Matrix(
                n, tuple(sum(((c >> j) & 1) << i for i, c in enumerate(cols)) for j in range(n))
            )
            by_definition = MT @ J @ M == J
            assert sf.is_symplectic(M, g) == by_definition, cols
            count += by_definition
        assert count == {1: 6, 2: 720}[g]  # |Sp(2, 2)| and |Sp(4, 2)|

    def test_non_symplectic_detected(self):
        g = 1
        M = F2Matrix(2, (0b01, 0b01))  # rows [[1, 1], [0, 0]]
        assert sf.is_symplectic(M, g) is False

    def test_transform_basis_stays_valid(self):
        rng = random.Random(7)
        g = 3
        basis = SubsurfaceBasis.standard(g, [1, 2])
        for _ in range(10):
            M = sf.random_sp_word(g, rng)
            assert is_symplectic_basis(sf.transform_basis(M, basis))


def z_transvection(v, x):
    """Oracle: the integral symplectic transvection x -> x + (x.v) v, in
    ZHClass arithmetic."""
    return x + v.scale(intersect(x, v))


def z_basis_oracle(g, h, rng, handles, n_moves=6, coeff_bound=1):
    """random_z_symplectic_basis replayed move by move through the oracle,
    with the same draws: one randint per support position per move, and a
    zero direction skipped."""
    rows = [[sf.za(g, i) for i in handles], [sf.zb(g, i) for i in handles]]
    positions = [k - 1 for k in handles] + [g + k - 1 for k in handles]
    for _ in range(n_moves):
        coords = [0] * (2 * g)
        for p in positions:
            coords[p] = rng.randint(-coeff_bound, coeff_bound)
        v = ZHClass(g, tuple(coords))
        if v:
            rows = [[z_transvection(v, x) for x in r] for r in rows]
    return sf.ZSubsurfaceBasis(g, tuple(zip(rows[0], rows[1])))


class TestIntegralBases:
    def test_z_transvection_preserves_form(self):
        rng = random.Random(8)
        g = 3
        for _ in range(100):
            v = ZHClass(g, tuple(rng.randint(-2, 2) for _ in range(2 * g)))
            x = ZHClass(g, tuple(rng.randint(-2, 2) for _ in range(2 * g)))
            y = ZHClass(g, tuple(rng.randint(-2, 2) for _ in range(2 * g)))
            tx, ty = z_transvection(v, x), z_transvection(v, y)
            assert intersect(tx, ty) == intersect(x, y)

    def test_z_transvection_formula(self):
        # x -> x + (x.v) v on the basis classes, then the builder against
        # the oracle replay: same bases and the same generator state after
        g = 2
        a1, b1 = ZHClass(g, (1, 0, 0, 0)), ZHClass(g, (0, 0, 1, 0))
        assert z_transvection(b1, a1) == a1 + b1
        assert z_transvection(a1, b1) == b1 + (-a1)
        for seed in range(40):
            for g in range(1, 5):
                for h in range(0, g + 1):
                    handles = sorted(random.Random(seed).sample(range(1, g + 1), h))
                    mine, theirs = random.Random(seed), random.Random(seed)
                    bound = 1 + seed % 4
                    got = sf.random_z_symplectic_basis(
                        g, h, mine, handles, n_moves=seed % 9, coeff_bound=bound
                    )
                    want = z_basis_oracle(g, h, theirs, handles, seed % 9, bound)
                    assert got == want
                    assert mine.getstate() == theirs.getstate()

    def test_random_z_basis_valid_and_confined(self):
        rng = random.Random(9)
        for _ in range(30):
            g = rng.randint(2, 5)
            h = rng.randint(1, min(g, 3))
            handles = sorted(rng.sample(range(1, g + 1), h))
            basis = sf.random_z_symplectic_basis(g, h, rng, handles)
            assert is_symplectic_basis(basis)
            for A, B in basis.pairs:
                assert support(A) | support(B) <= set(handles)

    @pytest.mark.parametrize("handles", [[1, 1], [0, 2], [2, 4]])
    def test_random_z_basis_rejects_bad_handles(self, handles):
        with pytest.raises(ValueError):
            sf.random_z_symplectic_basis(3, 2, random.Random(0), handles)


def catalog_basis(genus, pairs):
    """The basis of a one-entry separating-twist catalog."""
    from bcjcalc.bcjmap import catalog_from_json

    _, [(twist, _)] = catalog_from_json(
        {"genus": genus, "entries": [{"type": "separating", "basis": pairs}]}, 32
    )
    return twist.basis


class TestJson:
    def test_hclass_roundtrip(self):
        u = sf.a(3, 1) + sf.b(3, 2)
        assert HClass.from_coords(3, u.coords()) == u

    def test_zhclass_roundtrip(self):
        u = ZHClass(2, (3, -1, 0, 7))
        assert ZHClass.from_coords(2, list(u.coords)) == u

    def test_spinepair_roundtrip(self):
        # spines are genus-1 bases and travel through the catalog decoder
        for s in (
            spine(sf.a(3, 1), sf.b(3, 1)),
            spine(sf.a(3, 2) + sf.a(3, 3), sf.b(3, 2)),
        ):
            ((x, y),) = s.pairs
            assert catalog_basis(3, [[x.coords(), y.coords()]]) == s

    def test_basis_roundtrip(self):
        pairs = [[[1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0]], [[0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 1]]]
        assert catalog_basis(3, pairs) == SubsurfaceBasis.standard(3, [1, 3])
        zpairs = [[[1, 0, 0, 0], [0, 0, 1, 0]], [[0, 1, 0, 0], [0, 0, 0, 1]]]
        assert sf.zbasis_from_json({"genus": 2, "pairs": zpairs}) == ZSubsurfaceBasis.standard(2, [1, 2])

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionError):
            HClass.from_coords(2, [1, 0, 1])

    @pytest.mark.parametrize("coords, got", [(5, "int"), ("1010", "str"), (None, "NoneType")])
    def test_non_list_rejected_with_its_type(self, coords, got):
        # 5 used to fail inside len(): "object of type 'int' has no len()"
        with pytest.raises(TypeError, match=f"^coordinates must be a list, got {got}$"):
            HClass.from_coords(2, coords)
