"""Square-free algebra: ring laws, the bar map, evaluation, substitution."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from bcjcalc import surface as sf
from bcjcalc.boolring import (
    BoolMonomial,
    BoolPoly,
    SelfLinkingForm,
    b2_basis,
    bar,
    evaluate,
    monomial_image,
    require_degree,
    sp_variable_images,
    substitute_sp,
)
from bcjcalc.errors import FiltrationError, GenusMismatchError, MatrixError
from bcjcalc.gf2core import F2Matrix, SpanBasis, bit_indices
from bcjcalc.jsonio import poly_to_json
from bcjcalc.surface import HClass


def random_poly(g, rng, max_monomials=4):
    masks = {rng.randrange(1 << (2 * g)) for _ in range(rng.randint(0, max_monomials))}
    return BoolPoly(g, masks)


def all_forms(g):
    """All 2^(2g) self-linking forms, in order of their basis values."""
    return [SelfLinkingForm(g, values) for values in range(1 << (2 * g))]


def basis_value(form, k):
    """omega(e_k), the form's value on the k-th basis class."""
    return (form.values >> k) & 1


def omega_extension_oracle(form, u):
    """Independent oracle: extend omega one basis vector at a time via
    omega(x + e) = omega(x) + omega(e) + x.e."""
    g = u.genus
    acc_class = HClass(g, 0)
    value = 0
    for k in range(2 * g):
        if (u.bits >> k) & 1:
            e = HClass(g, 1 << k)
            value = (value + basis_value(form, k) + sf.intersect(acc_class, e)) & 1
            acc_class = acc_class + e
    return value


class TestPolyArithmetic:
    def test_add_self_cancels(self):
        p = BoolPoly(2, {0b0001, 0b0110})
        assert p + p == BoolPoly.zero(2)

    def test_add_disjoint(self):
        a1, b1 = BoolPoly.variable(2, 0), BoolPoly.variable(2, 2)
        assert (a1 + b1).masks == frozenset({0b0001, 0b0100})

    def test_add_with_cancellation(self):
        g = 2
        p = BoolPoly(g, {0b0101, 0b0010})      # a1*b1 + a2
        q = BoolPoly(g, {0b0010, 0b0000})      # a2 + 1
        assert p + q == BoolPoly(g, {0b0101, 0b0000})

    def test_mul_idempotent_variable(self):
        a1 = BoolPoly.variable(2, 0)
        assert a1 * a1 == a1

    def test_mul_worked_expansion(self):
        # (a1 + b1 + 1) * a1 = a1*b1
        g = 2
        p = BoolPoly(g, {0b0001, 0b0100, 0b0000})
        a1 = BoolPoly.variable(g, 0)
        assert p * a1 == BoolPoly(g, {0b0101})

    def test_mul_identity(self):
        rng = random.Random(1)
        for _ in range(20):
            p = random_poly(3, rng)
            assert p * BoolPoly.one(3) == p

    def test_genus_mismatch(self):
        with pytest.raises(GenusMismatchError):
            BoolPoly.one(2) + BoolPoly.one(3)
        with pytest.raises(GenusMismatchError):
            BoolPoly.one(2) * BoolPoly.one(3)

    def test_monomial_poly_squares_to_itself(self):
        rng = random.Random(2)
        for _ in range(50):
            g = rng.randint(1, 4)
            m = BoolPoly(g, {rng.randrange(1 << (2 * g))})
            assert m * m == m

    def test_degree(self):
        assert BoolPoly.zero(2).degree() == -1
        assert BoolPoly.one(2).degree() == 0
        assert BoolPoly(2, {0b1101}).degree() == 3

    def test_require_degree(self):
        p = BoolPoly(2, {0b0111})
        with pytest.raises(FiltrationError):
            require_degree(p, 2)
        assert require_degree(p, 3) is p


@settings(max_examples=150)
@given(st.data())
def test_hypothesis_ring_laws(data):
    g = data.draw(st.integers(min_value=1, max_value=3))
    masks = st.sets(st.integers(min_value=0, max_value=(1 << (2 * g)) - 1), max_size=4)
    p = BoolPoly(g, data.draw(masks))
    q = BoolPoly(g, data.draw(masks))
    r = BoolPoly(g, data.draw(masks))
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@st.composite
def class_and_form(draw):
    """A genus, a packed class and the basis values of a form at it."""
    g = draw(st.integers(1, 10))
    top = (1 << (2 * g)) - 1
    return g, draw(st.integers(0, top)), draw(st.integers(0, top))


class TestBar:
    def test_basis_variable(self):
        assert bar(sf.a(2, 1)) == BoolPoly.variable(2, 0)

    def test_intersecting_pair_constant(self):
        g = 3
        u = sf.a(g, 2) + sf.b(g, 2)
        assert bar(u) == BoolPoly(g, {1 << 1, 1 << 4, 0})

    def test_non_intersecting_pair(self):
        g = 3
        u = sf.b(g, 1) + sf.a(g, 3)
        assert bar(u) == BoolPoly(g, {1 << 3, 1 << 2})

    def test_zero(self):
        assert bar(HClass(2, 0)) == BoolPoly.zero(2)

    def test_defect_is_intersection_exhaustive(self):
        for g in (1, 2, 3):
            one = BoolPoly.one(g)
            for ub in range(1 << (2 * g)):
                u = HClass(g, ub)
                for vb in range(1 << (2 * g)):
                    v = HClass(g, vb)
                    defect = bar(u + v) + bar(u) + bar(v)
                    want = one if sf.intersect(u, v) else BoolPoly.zero(g)
                    assert defect == want

    @given(class_and_form())
    @settings(max_examples=300, deadline=None)
    def test_constant_counts_paired_handles(self, gbv):
        # the inline pair count that bar and omega carried before
        # surface.paired_handles owned it is the oracle here
        g, bits, values = gbv
        pairs = (bits & (bits >> g) & ((1 << g) - 1)).bit_count()
        assert sf.paired_handles(g, bits).bit_count() == pairs
        p = bar(HClass(g, bits))
        assert (0 in p.masks) == bool(pairs & 1)
        assert p.masks - {0} == {1 << v for v in range(2 * g) if (bits >> v) & 1}
        linear = (bits & values).bit_count()
        assert SelfLinkingForm(g, values).omega(HClass(g, bits)) == (linear + pairs) & 1

    def test_defect_is_intersection_randomized_high_genus(self):
        rng = random.Random(3)
        for _ in range(500):
            g = rng.randint(4, 6)
            u = HClass(g, rng.randrange(1 << (2 * g)))
            v = HClass(g, rng.randrange(1 << (2 * g)))
            defect = bar(u + v) + bar(u) + bar(v)
            want = BoolPoly.one(g) if sf.intersect(u, v) else BoolPoly.zero(g)
            assert defect == want


class TestEvaluate:
    def test_constant(self):
        for form in all_forms(2):
            assert evaluate(BoolPoly.one(2), form) == 1

    def test_monomial_is_product(self):
        g = 2
        m = BoolPoly(g, {0b0101})  # a1*b1
        for form in all_forms(g):
            assert evaluate(m, form) == basis_value(form, 0) * basis_value(form, 2)

    def test_bar_evaluates_to_omega_exhaustive_g2(self):
        g = 2
        for form in all_forms(g):
            for ub in range(1 << (2 * g)):
                u = HClass(g, ub)
                want = omega_extension_oracle(form, u)
                assert form.omega(u) == want
                assert evaluate(bar(u), form) == want

    def test_evaluation_is_ring_hom(self):
        rng = random.Random(4)
        for _ in range(100):
            g = rng.randint(1, 3)
            p, q = random_poly(g, rng), random_poly(g, rng)
            form = SelfLinkingForm(g, rng.randrange(1 << (2 * g)))
            assert evaluate(p + q, form) == evaluate(p, form) ^ evaluate(q, form)
            assert evaluate(p * q, form) == evaluate(p, form) & evaluate(q, form)


class TestSubstitution:
    def test_identity(self):
        rng = random.Random(5)
        for _ in range(20):
            g = rng.randint(1, 3)
            p = random_poly(g, rng)
            assert substitute_sp(F2Matrix.identity(2 * g), p) == p

    def test_handle_swap_fixes_diagonal(self):
        g = 2
        p = BoolPoly(g, {0b0101})  # a1*b1
        M = F2Matrix(2 * g, (0b0100, 0b0010, 0b0001, 0b1000))  # a1 <-> b1
        assert substitute_sp(M, p) == p

    def test_handle_transposition_moves_variable(self):
        g = 3
        p = BoolPoly.variable(g, 0)  # a1
        # a1 <-> a2 and b1 <-> b2; column k is the image of variable k
        M = F2Matrix(2 * g, (0b000010, 0b000001, 0b000100, 0b010000, 0b001000, 0b100000))
        assert substitute_sp(M, p) == BoolPoly.variable(g, 1)

    def test_rejects_non_symplectic(self):
        M = F2Matrix(2, (0b01, 0b01))  # rows [[1, 1], [0, 0]]
        with pytest.raises(MatrixError):
            substitute_sp(M, BoolPoly.one(1))

    def test_compatible_with_bar_exhaustive_g2(self):
        # substitute(M, bar(c)) == bar(M c) over all classes and transvections
        g = 2
        mats = [sf.transvection(HClass(g, v)) for v in range(1, 1 << (2 * g))]
        for M in mats:
            for cb in range(1 << (2 * g)):
                c = HClass(g, cb)
                assert substitute_sp(M, bar(c)) == bar(sf.apply_matrix(M, c))

    def test_composition_law(self):
        rng = random.Random(6)
        for _ in range(40):
            g = rng.randint(1, 3)
            M1 = sf.random_sp_word(g, rng, 4)
            M2 = sf.random_sp_word(g, rng, 4)
            p = random_poly(g, rng)
            assert substitute_sp(M2, substitute_sp(M1, p)) == substitute_sp(M2 @ M1, p)

    def test_is_algebra_endomorphism(self):
        rng = random.Random(7)
        for _ in range(40):
            g = rng.randint(1, 3)
            M = sf.random_sp_word(g, rng, 5)
            p, q = random_poly(g, rng), random_poly(g, rng)
            assert substitute_sp(M, p + q) == substitute_sp(M, p) + substitute_sp(M, q)
            assert substitute_sp(M, p * q) == substitute_sp(M, p) * substitute_sp(M, q)


class TestB2Basis:
    def test_sizes(self):
        assert b2_basis(1).size == 4
        assert b2_basis(2).size == 11
        assert b2_basis(4).size == 37
        for g in range(1, 7):
            assert b2_basis(g).size == 2 * g * g + g + 1

    def test_constant_first(self):
        assert b2_basis(3).index(BoolMonomial(3, 0)) == 0

    def test_linear_block_order(self):
        g = 3
        for v in range(2 * g):
            assert b2_basis(g).index(BoolMonomial(g, 1 << v)) == 1 + v

    def test_quadratic_block_lex(self):
        g = 2
        expected = 1 + 2 * g
        for v1, v2 in combinations(range(2 * g), 2):
            m = BoolMonomial(g, (1 << v1) | (1 << v2))
            assert b2_basis(g).index(m) == expected
            expected += 1

    def test_rejects_degree_three(self):
        with pytest.raises(FiltrationError):
            b2_basis(2).index(BoolMonomial(2, 0b0111))

    def test_index_lookup_consistent(self):
        g = 3
        basis = b2_basis(g)
        for i in range(basis.size):
            assert basis.index(basis.monomial(i)) == i


class TestSeparation:
    @pytest.mark.parametrize("g", [2, 3])
    def test_b2_evaluation_vectors_independent(self, g):
        """Distinct degree-<=2 polynomials induce distinct functions on the
        2^(2g) forms.  Evaluation is linear in the polynomial, so this is
        exactly full rank of the basis value-vector matrix."""
        basis = b2_basis(g)
        n_forms = 1 << (2 * g)
        span = SpanBasis(n_forms)
        for k in range(basis.size):
            p = BoolPoly(g, {basis.monomial(k).mask})
            bits = 0
            for idx, form in enumerate(all_forms(g)):
                if evaluate(p, form):
                    bits |= 1 << idx
            span.insert_bits(bits)
        assert span.rank == basis.size

    def test_random_pair_spot_check(self):
        rng = random.Random(8)
        g = 2
        for _ in range(50):
            p = BoolPoly(g, {m for m in random_poly(g, rng).masks if m.bit_count() <= 2})
            q = BoolPoly(g, {m for m in random_poly(g, rng).masks if m.bit_count() <= 2})
            if p == q:
                continue
            vectors_equal = all(
                evaluate(p, form) == evaluate(q, form) for form in all_forms(g)
            )
            assert not vectors_equal


class TestCodecs:
    def test_text_rendering(self):
        g = 2
        p = BoolPoly(g, {0b0101, 0b0010, 0b0000})
        assert str(p) == "1 + a2 + a1*b1"

    def test_json_roundtrip(self):
        rng = random.Random(10)
        for _ in range(100):
            g = rng.randint(1, 4)
            p = random_poly(g, rng)
            data = poly_to_json(p)
            masks = [sum(1 << v for v in mono) for mono in data]
            assert len(set(masks)) == len(masks)
            assert BoolPoly(g, masks) == p

    def test_json_shape(self):
        g = 2
        p = BoolPoly(g, {0b0101, 0b0000})
        assert poly_to_json(p) == [[], [0, 2]]


def ref_monomial_image(genus, images, mask):
    """The product as `monomial_image` took it before it worked on mask
    sets: one BoolPoly per factor, each product by symmetric differences."""
    term = BoolPoly.one(genus)
    for v in bit_indices(mask):
        acc = set()
        for m1 in term.masks:
            for m2 in images[v]:
                acc ^= {m1 | m2}
        term = BoolPoly(genus, acc)
    return term


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hypothesis_monomial_image_matches_poly_product(data):
    g = data.draw(st.integers(1, 4))
    M = sf.random_sp_word(g, random.Random(data.draw(st.integers(0, 2**32))), 6)
    images = sp_variable_images(M, g)
    masks = data.draw(st.lists(st.integers(0, (1 << (2 * g)) - 1), min_size=1, max_size=20))
    for mask in masks:
        assert monomial_image(images, mask) == ref_monomial_image(g, images, mask).masks
