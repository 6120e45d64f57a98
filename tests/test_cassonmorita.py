"""Linking-symbol algebra, Morita's twist value, the reduction, evaluation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from bcjcalc import surface as sf
from bcjcalc.bcjmap import sigma_separating
from bcjcalc.boolring import BoolPoly, bar, evaluate
from bcjcalc.cassonmorita import (
    CMPoly,
    LinkingMatrix,
    _random_integral_class,
    cm_generator,
    epsilon,
    mu,
    mu_quadratic_exhaustive,
    rho_separating,
    right_square_failures,
    selflink_eval,
    verify_diagrams,
)
from bcjcalc.errors import BasisError, ConsistencyError, GenusMismatchError
from bcjcalc.jsonio import cmpoly_to_json, linking_matrix_from_json
from bcjcalc.surface import ZHClass, ZSubsurfaceBasis, random_z_symplectic_basis


def sym(g, p, q, coeff=1):
    return CMPoly.symbol(g, p, q, coeff)


def random_zclass(g, rng, bound=2):
    return ZHClass(g, tuple(rng.randint(-bound, bound) for _ in range(2 * g)))


class TestCMPoly:
    def test_normal_form_rejects_disorder(self):
        with pytest.raises(ValueError):
            CMPoly.symbol(2, 3, 1)

    @pytest.mark.parametrize("p,q", [(3, 1), (0, 4), (-1, 0)])
    @pytest.mark.parametrize("coeff", [1, -2, 0])
    def test_symbol_rejects_a_bad_symbol_with_any_coefficient(self, p, q, coeff):
        with pytest.raises(ValueError, match=rf"^symbol \({p},{q}\) is not in normal form$"):
            CMPoly.symbol(2, p, q, coeff)
        with pytest.raises(ValueError, match=rf"^symbol \({p},{q}\) is not in normal form$"):
            CMPoly(2, {((p, q),): coeff})

    def test_mul_identity_and_zero(self):
        g = 2
        x = sym(g, 0, 2) + CMPoly.const(g, 3)
        assert x * CMPoly.one(g) == x
        assert x + (-x) == CMPoly.zero(g)

    def test_squares_do_not_collapse(self):
        g = 1
        laa = sym(g, 0, 0)
        sq = laa * laa
        assert sq.terms == {((0, 0), (0, 0)): 1}
        assert sq != laa

    def test_commutative_associative(self):
        rng = random.Random(1)
        g = 2
        for _ in range(50):
            def rp():
                acc = CMPoly.const(g, rng.randint(-2, 2))
                for _ in range(rng.randint(0, 3)):
                    p = rng.randint(0, 3)
                    q = rng.randint(p, 3)
                    acc = acc + sym(g, p, q, rng.randint(-2, 2))
                return acc

            x, y, z = rp(), rp(), rp()
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z

    def test_big_coefficients(self):
        g = 1
        x = sym(g, 0, 1, 10**15)
        assert (x * x).terms[((0, 1), (0, 1))] == 10**30

    def test_render(self):
        g = 1
        x = -sym(g, 0, 0) * sym(g, 1, 1) + sym(g, 0, 1) * sym(g, 0, 1) + sym(g, 0, 1)
        assert str(x) == "l(a1,b1) - l(a1,a1)*l(b1,b1) + l(a1,b1)^2"

    def test_genus_mismatch(self):
        with pytest.raises(GenusMismatchError):
            CMPoly.one(1) + CMPoly.one(2)


class TestCMGenerator:
    def test_swap_creates_constant(self):
        g = 1
        got = cm_generator(sf.zb(g, 1), sf.za(g, 1))
        assert got == sym(g, 0, 1) + CMPoly.one(g)

    def test_bilinear(self):
        g = 2
        got = cm_generator(sf.za(g, 1) + sf.za(g, 2), sf.zb(g, 1))
        assert got == sym(g, 0, 2) + sym(g, 1, 2)

    def test_quadratic_expansion(self):
        g = 1
        u = ZHClass(g, (1, 1))
        got = cm_generator(u, u)
        want = sym(g, 0, 0) + sym(g, 1, 1) + sym(g, 0, 1, 2) + CMPoly.one(g)
        assert got == want

    def test_swap_relation_confluent(self):
        # expanding l(u,v) and l(v,u) + u.v gives identical normal forms
        rng = random.Random(2)
        for _ in range(300):
            g = rng.randint(1, 3)
            u, v = random_zclass(g, rng), random_zclass(g, rng)
            lhs = cm_generator(v, u)
            rhs = cm_generator(u, v) + CMPoly.const(g, sf.intersect(u, v))
            assert lhs == rhs

    def test_basis_pairs_exhaustive(self):
        g = 2
        for p in range(2 * g):
            for q in range(2 * g):
                ep = ZHClass(g, tuple(1 if k == p else 0 for k in range(2 * g)))
                eq = ZHClass(g, tuple(1 if k == q else 0 for k in range(2 * g)))
                got = cm_generator(ep, eq)
                if p <= q:
                    assert got == sym(g, p, q)
                else:
                    pairing = 1 if p == q + g else 0
                    assert got == sym(g, q, p) + CMPoly.const(g, pairing)


class TestRho:
    def test_genus_one_worked(self):
        g = 1
        basis = ZSubsurfaceBasis.standard(g, [1])
        got = rho_separating(basis)
        want = -(sym(g, 0, 0) * sym(g, 1, 1)) + sym(g, 0, 1) * sym(g, 0, 1) + sym(g, 0, 1)
        assert got == want

    def test_empty_basis(self):
        for g in range(1, 6):
            got = rho_separating(ZSubsurfaceBasis(g, ()))
            assert got == CMPoly.zero(g) and not got.terms

    def test_cross_terms_even(self):
        # the i<j sum enters with an explicit factor of 2: strip the i-terms
        # and everything left must have even coefficients
        rng = random.Random(3)
        g = 3
        for _ in range(20):
            basis = random_z_symplectic_basis(g, 2, rng, [1, 3])
            full = rho_separating(basis)
            diag = CMPoly.zero(g)
            for A, B in basis.pairs:
                diag = diag - (
                    cm_generator(A, A) * cm_generator(B, B)
                    - cm_generator(A, B) * cm_generator(B, A)
                )
            rest = full - diag
            assert all(c % 2 == 0 for c in rest.terms.values())

    def test_invalid_basis_rejected(self):
        from bcjcalc.errors import BasisError

        bad = ZSubsurfaceBasis(1, ((sf.za(1, 1), sf.za(1, 1)),))
        with pytest.raises(BasisError):
            rho_separating(bad)


def cm_generator_reference(u, v):
    """l(u, v) term by term through the validating constructor."""
    g = u.genus
    terms = {}
    for p in range(2 * g):
        for q in range(2 * g):
            c = u.coords[p] * v.coords[q]
            if p <= q:
                terms[((p, q),)] = terms.get(((p, q),), 0) + c
            else:
                terms[((q, p),)] = terms.get(((q, p),), 0) + c
                if p == q + g:
                    terms[()] = terms.get((), 0) + c
    return CMPoly(g, terms)


def rho_reference(basis):
    """Morita's formula in plain CMPoly arithmetic, one product at a time."""
    basis.validate()
    l = cm_generator_reference
    acc = CMPoly.zero(basis.genus)
    pairs = basis.pairs
    for A, B in pairs:
        acc = acc - (l(A, A) * l(B, B) - l(A, B) * l(B, A))
    for i in range(len(pairs)):
        Ai, Bi = pairs[i]
        for j in range(i + 1, len(pairs)):
            Aj, Bj = pairs[j]
            acc = acc - (l(Ai, Aj) * l(Bi, Bj) - l(Ai, Bj) * l(Aj, Bi)).scale(2)
    return acc


def z_transvect(g, rows, v):
    """x -> x + (x.v) v over Z on each coordinate list in rows, in place."""
    for x in rows:
        n = sum(x[i] * v[g + i] - x[g + i] * v[i] for i in range(g))
        for p in range(2 * g):
            x[p] += n * v[p]


def dense_sub_basis(g, k, rng, bound, moves=3):
    """The first k pairs of the standard basis on all g handles after
    integral transvections along directions on every coordinate: for k < g
    a non-coordinate subspace, where N has nonzeros off the handle pairs."""
    rows = [[int(p == q) for p in range(2 * g)] for i in range(g) for q in (i, g + i)]
    for _ in range(moves):
        z_transvect(g, rows, [rng.randint(-bound, bound) for _ in range(2 * g)])
    classes = [ZHClass(g, tuple(x)) for x in rows[: 2 * k]]
    return ZSubsurfaceBasis(g, tuple(zip(classes[0::2], classes[1::2])))


def n_nonzeros(basis):
    """Nonzero entries N_pq, p < q, of N = sum_i A_i B_i^T - B_i A_i^T."""
    n = 2 * basis.genus
    return sum(
        1
        for p in range(n)
        for q in range(p + 1, n)
        if sum(A.coords[p] * B.coords[q] - B.coords[p] * A.coords[q] for A, B in basis.pairs)
    )


class TestRhoReference:
    def test_matches_plain_arithmetic(self):
        rng = random.Random(41)
        seen_h = set()
        for g in range(1, 6):
            for h in range(0, min(g, 3) + 1):
                for _ in range(6):
                    if h == 0:
                        basis = ZSubsurfaceBasis(g, ())
                    else:
                        handles = sorted(rng.sample(range(1, g + 1), h))
                        basis = random_z_symplectic_basis(g, h, rng, handles)
                    got = rho_separating(basis)
                    assert got == rho_reference(basis)
                    assert_normal_form(got)
                    seen_h.add(h)
        assert seen_h == {0, 1, 2, 3}

    def test_standard_bases(self):
        # up to h = g, where the support is every coordinate position
        for g in range(1, 6):
            for h in range(1, g + 1):
                basis = ZSubsurfaceBasis.standard(g, range(1, h + 1))
                got = rho_separating(basis)
                assert got == rho_reference(basis)
                assert_normal_form(got)

    def test_matches_plain_arithmetic_where_n_is_dense(self):
        # a coordinate subspace has N with one nonzero per handle; sub-bases
        # of a transvected full basis reach the general case
        rng = random.Random(47)
        dense = 0
        for g in range(1, 6):
            for k in range(1, g + 1):
                for bound in (1, 2, 2**30):
                    for _ in range(2):
                        basis = dense_sub_basis(g, k, rng, bound)
                        got = rho_separating(basis)
                        assert got == rho_reference(basis)
                        assert_normal_form(got)
                        dense += n_nonzeros(basis) > k
        assert dense == 60  # every basis with k < g

    def test_cm_generator_matches_term_by_term(self):
        rng = random.Random(43)
        for g in range(1, 6):
            for _ in range(30):
                u, v = random_zclass(g, rng, 3), random_zclass(g, rng, 3)
                got = cm_generator(u, v)
                assert got == cm_generator_reference(u, v)
                assert_normal_form(got)


@st.composite
def wide_integral_bases(draw):
    """Integral symplectic bases with coordinates up to 2^70 in size, so
    every product runs past 64 bits.  The standard basis on h of g handles
    is moved by transvections along drawn directions supported on those
    handles (a coordinate subspace), or, in the dense case, the standard
    basis on all g handles is moved along directions on every coordinate
    and cut to the pairs of those h handles."""
    g = draw(st.integers(1, 5))
    h = draw(st.integers(0, g))
    handles = sorted(draw(st.permutations(range(1, g + 1)))[:h])
    moved = list(range(1, g + 1)) if draw(st.booleans()) else handles
    positions = [i - 1 for i in moved] + [g + i - 1 for i in moved]
    coeff = st.integers(-(2**70), 2**70)
    A = [sf.za(g, i) for i in moved]
    B = [sf.zb(g, i) for i in moved]
    for _ in range(draw(st.integers(0, 2))):
        coords = [0] * (2 * g)
        for p in positions:
            coords[p] = draw(coeff)
        v = ZHClass(g, tuple(coords))
        A = [x + v.scale(sf.intersect(x, v)) for x in A]
        B = [x + v.scale(sf.intersect(x, v)) for x in B]
    keep = [moved.index(i) for i in handles]
    return ZSubsurfaceBasis(g, tuple((A[k], B[k]) for k in keep))


@settings(max_examples=60, deadline=None)
@given(wide_integral_bases())
def test_hypothesis_rho_matches_reference_on_wide_coefficients(basis):
    got = rho_separating(basis)
    assert got == rho_reference(basis)
    assert_normal_form(got)


@settings(max_examples=60, deadline=None)
@given(wide_integral_bases(), st.data())
def test_hypothesis_rho_commutes_with_handle_relabelling(basis, data):
    # a handle permutation preserves the intersection form, so it acts on
    # normal-form symbols by relabelling both positions and re-sorting them
    g = basis.genus
    perm = data.draw(st.permutations(range(g)))
    move = list(perm) + [g + i for i in perm]  # new position of each coordinate

    def relabel(x):
        coords = [0] * (2 * g)
        for p, c in enumerate(x.coords):
            coords[move[p]] = c
        return ZHClass(g, tuple(coords))

    moved = ZSubsurfaceBasis(g, tuple((relabel(A), relabel(B)) for A, B in basis.pairs))
    want = CMPoly(
        g,
        {
            tuple(tuple(sorted((move[p], move[q]))) for p, q in mon): c
            for mon, c in rho_separating(basis).terms.items()
        },
    )
    assert rho_separating(moved) == want


class TestRhoInvariance:
    def test_basis_independence_over_z(self):
        # rho depends on the basis only through N, which every symplectic
        # basis of the same subspace shares: integral transvections along
        # vectors of the span move the basis and leave rho unchanged
        rng = random.Random(53)
        changed = 0
        for g in range(1, 6):
            for h in range(1, g + 1):
                for dense in (False, True):
                    if dense:
                        basis = dense_sub_basis(g, h, rng, 2)
                    else:
                        handles = sorted(rng.sample(range(1, g + 1), h))
                        basis = random_z_symplectic_basis(g, h, rng, handles)
                    want = rho_separating(basis)
                    rows = [list(c.coords) for pair in basis.pairs for c in pair]
                    for _ in range(3):
                        coeffs = [rng.randint(-2, 2) for _ in rows]
                        v = [sum(c * x[p] for c, x in zip(coeffs, rows)) for p in range(2 * g)]
                        z_transvect(g, rows, v)
                        classes = [ZHClass(g, tuple(x)) for x in rows]
                        moved = ZSubsurfaceBasis(g, tuple(zip(classes[0::2], classes[1::2])))
                        changed += moved != basis
                        assert rho_separating(moved) == want
        assert changed == 90  # every move changed the basis


def assert_normal_form(x):
    """No stored zero, every monomial a sorted tuple of valid symbols."""
    n = 2 * x.genus
    for mon, c in x.terms.items():
        assert c != 0
        assert isinstance(mon, tuple) and list(mon) == sorted(mon)
        for p, q in mon:
            assert 0 <= p <= q < n


@st.composite
def cmpoly_pairs(draw):
    g = draw(st.integers(1, 3))
    n = 2 * g
    symbol = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(
        lambda pq: (min(pq), max(pq))
    )
    monomial = st.lists(symbol, max_size=3).map(lambda syms: tuple(sorted(syms)))
    terms = st.dictionaries(monomial, st.integers(-4, 4), max_size=6)
    return CMPoly(g, draw(terms)), CMPoly(g, draw(terms))


def rebuilt(g, products):
    """The validating constructor over raw (monomial, coeff) pairs; the
    monomials may be unsorted and repeated."""
    terms = {}
    for mon, c in products:
        terms[mon] = terms.get(mon, 0) + c
    return CMPoly(g, terms)


@given(cmpoly_pairs(), st.integers(-3, 3))
def test_hypothesis_arithmetic_stays_in_normal_form(pair, n):
    x, y = pair
    g = x.genus
    xs, ys = list(x.terms.items()), list(y.terms.items())
    cases = [
        (x + y, rebuilt(g, xs + ys)),
        (x - y, rebuilt(g, xs + [(m, -c) for m, c in ys])),
        (-x, rebuilt(g, [(m, -c) for m, c in xs])),
        (x * y, rebuilt(g, [(m2 + m1, c1 * c2) for m1, c1 in xs for m2, c2 in ys])),
        (x.scale(n), rebuilt(g, [(m, n * c) for m, c in xs])),
        (x.scale(0), CMPoly.zero(g)),
        (x - x, CMPoly.zero(g)),
    ]
    for got, want in cases:
        assert_normal_form(got)
        assert got == want
        assert got == CMPoly(g, dict(got.terms))
    assert not (x - x).terms and not x.scale(0).terms


def json_monomial(symbols):
    return tuple(tuple(s) for s in symbols)


class TestValidation:
    def test_constructor_rejects_unsorted_symbol(self):
        with pytest.raises(ValueError):
            CMPoly(2, {((1, 0),): 1})

    def test_constructor_rejects_out_of_range_symbol(self):
        with pytest.raises(ValueError):
            CMPoly(2, {((0, 4),): 1})

    # the symbols as a JSON term list spells them, [[p, q], ...]

    def test_from_json_rejects_unsorted_symbol(self):
        with pytest.raises(ValueError):
            CMPoly(2, {json_monomial([[1, 0]]): 1})

    def test_from_json_rejects_out_of_range_symbol(self):
        with pytest.raises(ValueError):
            CMPoly(2, {json_monomial([[0, 4]]): 1})
        with pytest.raises(ValueError):
            CMPoly(2, {json_monomial([[-1, 0]]): 1})


class TestMu:
    def test_table_values(self):
        g = 2
        assert mu(sym(g, 0, 0)) == BoolPoly.variable(g, 0)      # l(a1,a1) -> abar1
        assert mu(sym(g, 2, 2)) == BoolPoly.variable(g, 2)      # l(b1,b1) -> bbar1
        assert mu(sym(g, 0, 3)) == BoolPoly.zero(g)             # l(a1,b2) -> 0
        assert mu(sym(g, 0, 1)) == BoolPoly.zero(g)             # l(a1,a2) -> 0
        assert mu(sym(g, 2, 3)) == BoolPoly.zero(g)             # l(b1,b2) -> 0

    def test_swap_symbol_reduces_to_one(self):
        g = 2
        assert mu(cm_generator(sf.zb(g, 1), sf.za(g, 1))) == BoolPoly.one(g)

    def test_even_coefficients_die(self):
        g = 1
        assert mu(sym(g, 0, 0, 2)) == BoolPoly.zero(g)
        assert mu(CMPoly.const(g, 4)) == BoolPoly.zero(g)

    def test_is_ring_hom(self):
        rng = random.Random(4)
        g = 2
        for _ in range(100):
            def rp():
                acc = CMPoly.const(g, rng.randint(-2, 2))
                for _ in range(rng.randint(0, 3)):
                    p = rng.randint(0, 3)
                    q = rng.randint(p, 3)
                    acc = acc + sym(g, p, q, rng.randint(-2, 2))
                return acc

            x, y = rp(), rp()
            assert mu(x + y) == mu(x) + mu(y)
            assert mu(x * y) == mu(x) * mu(y)

    def test_quadratic_identity_exhaustive_small(self):
        assert mu_quadratic_exhaustive(1) == []
        assert mu_quadratic_exhaustive(2) == []

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_quadratic_identity_exhaustive(self, g):
        assert mu_quadratic_exhaustive(g) == []

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_is_ring_hom_on_generator_products(self, data):
        # x is a product of one or two l(u, v), y one l(u, v), all with
        # wide coefficients
        g = data.draw(st.integers(1, 4))
        wide = st.integers(-(10**12), 10**12)

        def product(factors):
            acc = CMPoly.one(g)
            for _ in range(factors):
                u, v = (ZHClass(g, tuple(data.draw(wide) for _ in range(2 * g))) for _ in "uv")
                acc = acc * cm_generator(u, v)
            return acc

        x, y = product(data.draw(st.integers(1, 2))), product(1)
        assert mu(x * y) == mu(x) * mu(y)
        assert mu(x + y) == mu(x) + mu(y)

    def test_mixed_product_vanishes(self):
        # mu kills l(A,B) l(B,A) whenever A.B = 1
        rng = random.Random(5)
        g = 2
        count = 0
        while count < 50:
            A, B = random_zclass(g, rng), random_zclass(g, rng)
            if sf.intersect(A, B) != 1:
                continue
            count += 1
            assert mu(cm_generator(A, B) * cm_generator(B, A)) == BoolPoly.zero(g)

    def test_triangle_on_worked_example(self):
        g = 1
        rho = rho_separating(ZSubsurfaceBasis.standard(g, [1]))
        assert mu(rho) == BoolPoly(g, {0b11})
        assert mu(rho) == sigma_separating(sf.SubsurfaceBasis.standard(g, [1]))

    def test_b2_surjectivity_through_simple_monomials(self):
        # 1, the diagonal symbols, and their products hit every basis monomial
        from bcjcalc.boolring import b2_basis

        g = 3
        basis = b2_basis(g)
        images = {mu(CMPoly.one(g))}
        for k in range(2 * g):
            images.add(mu(sym(g, k, k)))
            for l in range(2 * g):
                images.add(mu(sym(g, k, k) * sym(g, l, l)))
        got_masks = set()
        for p in images:
            if len(p.masks) == 1:
                got_masks |= p.masks
        assert got_masks == {m.mask for m in basis.monomials}


class TestLinkingMatrix:
    def test_standard_model_valid(self):
        L = LinkingMatrix.standard_model(2)
        assert L.entry(2, 0) == 1  # lk(b1, a1+) = 1
        assert L.entry(0, 2) == 0

    def test_invalid_named_entry(self):
        rows = [[0, 0], [0, 0]]  # misses L[b1][a1] - L[a1][b1] = 1
        with pytest.raises(ConsistencyError) as err:
            LinkingMatrix.from_rows(1, rows)
        assert "a1" in str(err.value) and "b1" in str(err.value)

    def test_random_valid(self):
        rng = random.Random(6)
        for g in (1, 2, 3):
            for _ in range(20):
                LinkingMatrix.random_valid(g, rng)  # constructor validates

    def test_random_valid_draws_match_randint(self):
        # the reference draws with randint, in the same order: the diagonal
        # entry of each row, then the entries right of it
        def reference(g, rng, bound):
            n = 2 * g
            rows = [[0] * n for _ in range(n)]
            for p in range(n):
                rows[p][p] = rng.randint(-bound, bound)
                for q in range(p + 1, n):
                    rows[p][q] = rng.randint(-bound, bound)
                    rows[q][p] = rows[p][q] + (q == p + g)
            return tuple(map(tuple, rows))

        for seed in range(30):
            g, bound = 1 + seed % 4, seed % 5
            mine, theirs = random.Random(seed), random.Random(seed)
            assert LinkingMatrix.random_valid(g, mine, bound).entries == reference(
                g, theirs, bound
            )
            assert mine.getstate() == theirs.getstate()

    def test_batched_rows_keep_the_closure_protocol(self):
        # random_valid as it was with one draw closure call per entry, each
        # giving what randint gives: the same matrices and generator state
        def closure_oracle(g, rng, bound):
            n = 2 * g
            draw = rng.randint
            rows = [[0] * n for _ in range(n)]
            for p in range(n):
                row = rows[p]
                row[p] = draw(-bound, bound)
                for q in range(p + 1, n):
                    x = row[q] = draw(-bound, bound)
                    rows[q][p] = x + 1 if q == p + g else x
            return tuple(map(tuple, rows))

        for bound in range(1, 6):
            for g in range(1, 7):
                for seed in range(4):
                    mine, theirs = random.Random(seed), random.Random(seed)
                    for _ in range(3):
                        got = LinkingMatrix.random_valid(g, mine, bound).entries
                        assert got == closure_oracle(g, theirs, bound)
                    assert mine.getstate() == theirs.getstate()

    def test_random_integral_class_matches_randint(self):
        for seed in range(30):
            g, bound = 1 + seed % 4, seed % 4
            mine, theirs = random.Random(seed), random.Random(seed)
            for _ in range(5):
                assert _random_integral_class(g, mine, bound) == random_zclass(
                    g, theirs, bound
                )
            assert mine.getstate() == theirs.getstate()

    def test_first_violation_matches_full_scan(self):
        # the constructor reads the pairs above the diagonal only; a scan of
        # every entry against J names the same first violation
        def full_scan(g, rows):
            n = 2 * g
            e = [ZHClass(g, tuple(int(k == p) for k in range(n))) for p in range(n)]
            for p in range(n):
                for q in range(n):
                    got = rows[q][p] - rows[p][q]
                    want = sf.intersect(e[p], e[q])
                    if got != want:
                        return f"L[{q}][{p}] - L[{p}][{q}] = {got}, expected {want}"
            return None

        rng = random.Random(16)
        broken = 0
        for _ in range(400):
            g = rng.randint(1, 4)
            rows = [list(row) for row in LinkingMatrix.random_valid(g, rng).entries]
            for _ in range(rng.randint(0, 3)):
                rows[rng.randrange(2 * g)][rng.randrange(2 * g)] += rng.choice((-1, 1))
            want = full_scan(g, rows)
            if want is None:
                LinkingMatrix.from_rows(g, rows)
                continue
            broken += 1
            with pytest.raises(ConsistencyError) as err:
                LinkingMatrix.from_rows(g, rows)
            assert str(err.value).startswith(want + " (pair ")
        assert broken > 200

    def test_epsilon_is_ring_hom(self):
        rng = random.Random(7)
        g = 2
        L = LinkingMatrix.random_valid(g, rng)
        for _ in range(50):
            def rp():
                acc = CMPoly.const(g, rng.randint(-2, 2))
                for _ in range(rng.randint(0, 3)):
                    p = rng.randint(0, 3)
                    q = rng.randint(p, 3)
                    acc = acc + sym(g, p, q, rng.randint(-2, 2))
                return acc

            x, y = rp(), rp()
            assert epsilon(L, x * y) == epsilon(L, x) * epsilon(L, y)
            assert epsilon(L, x + y) == epsilon(L, x) + epsilon(L, y)

    def test_epsilon_respects_swap_relation(self):
        rng = random.Random(8)
        for g in (1, 2):
            L = LinkingMatrix.random_valid(g, rng)
            for p in range(2 * g):
                for q in range(2 * g):
                    ep = ZHClass(g, tuple(1 if k == p else 0 for k in range(2 * g)))
                    eq = ZHClass(g, tuple(1 if k == q else 0 for k in range(2 * g)))
                    lhs = epsilon(L, cm_generator(eq, ep))
                    rhs = epsilon(L, cm_generator(ep, eq)) + sf.intersect(ep, eq)
                    assert lhs == rhs

    def test_epsilon_standard_on_rho(self):
        g = 1
        rho = rho_separating(ZSubsurfaceBasis.standard(g, [1]))
        assert epsilon(LinkingMatrix.standard_model(g), rho) == 0

    def test_selflink_eval_is_quadratic_form(self):
        rng = random.Random(9)
        g = 2
        for _ in range(10):
            L = LinkingMatrix.random_valid(g, rng)
            for bits in range(1 << (2 * g)):
                u = sf.HClass(g, bits)
                coords = [(bits >> k) & 1 for k in range(2 * g)]
                quad = 0
                for p in range(2 * g):
                    for q in range(2 * g):
                        quad += coords[p] * L.entry(p, q) * coords[q]
                assert selflink_eval(L, bar(u)) == quad % 2

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.data())
    def test_epsilon_of_self_linking_symbol_is_omega_mod_2(self, g, seed, data):
        # epsilon(L, l(u, u)) = u^T L u, which mod 2 is omega_L(u mod 2)
        L = LinkingMatrix.random_valid(g, random.Random(seed), bound=10**6)
        u = ZHClass(g, tuple(data.draw(st.integers(-(10**9), 10**9)) for _ in range(2 * g)))
        assert epsilon(L, cm_generator(u, u)) % 2 == L.omega().omega(u.mod2())

    def test_json_roundtrip(self):
        L = LinkingMatrix.standard_model(2)
        data = {"genus": 2, "matrix": [list(row) for row in L.entries]}
        assert linking_matrix_from_json(data) == L

    @given(
        st.integers(1, 5).flatmap(
            lambda g: st.lists(st.integers(-(10**20), 10**20), min_size=2 * g, max_size=2 * g)
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_omega_is_the_diagonal_mod2(self, diagonal):
        # the constraint leaves the diagonal free, so any integers will do
        n = len(diagonal)
        g = n // 2
        rows = [[0] * n for _ in range(n)]
        for i in range(g):
            rows[g + i][i] = 1
        for k, c in enumerate(diagonal):
            rows[k][k] = c
        form = LinkingMatrix.from_rows(g, rows).omega()
        assert [(form.values >> k) & 1 for k in range(n)] == [c % 2 for c in diagonal]


class TestDiagrams:
    def test_verify_passes_g2(self):
        checks = verify_diagrams(2, 120, seed=7)
        assert all(c["passed"] for c in checks.values()), checks

    def test_verify_passes_g1(self):
        checks = verify_diagrams(1, 60, seed=8)
        assert all(c["passed"] for c in checks.values()), checks

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_each_integral_basis_validated_once(self, seed, monkeypatch):
        # the generator leaves the check to rho_separating, the one
        # validation of every integral basis that verify draws; sigma reads
        # the parity bits of that validated basis, so nothing is validated
        # mod 2
        from bcjcalc import cassonmorita

        calls = {"validate": 0, "rho": 0, "mod2": 0}
        validate, rho = ZSubsurfaceBasis.validate, cassonmorita.rho_separating
        violation = sf.symplectic_violation

        def counted_validate(basis):
            calls["validate"] += 1
            return validate(basis)

        def counted_rho(basis):
            calls["rho"] += 1
            return rho(basis)

        def counted_violation(basis):
            calls["mod2"] += isinstance(basis, sf.SubsurfaceBasis)
            return violation(basis)

        monkeypatch.setattr(ZSubsurfaceBasis, "validate", counted_validate)
        monkeypatch.setattr(cassonmorita, "rho_separating", counted_rho)
        monkeypatch.setattr(sf, "symplectic_violation", counted_violation)
        assert all(c["passed"] for c in verify_diagrams(4, 40, seed).values())
        assert calls["rho"] > 40
        assert calls["validate"] == calls["rho"]
        assert calls["mod2"] == 0

    def test_validation_counts_of_the_benchmark_command(self, monkeypatch, tmp_path):
        # verify --g 4 --trials 500 --seed 5151: 1,250 integral bases, each
        # validated once by rho, and 310 mod-2 validations, all by the sigma
        # checks (104 rebase inputs, 106 rebased and start bases, 100 bases
        # of the equivariance check); the triangle, right square and wedge
        # lift once validated their 1,250 mod-2 reductions too
        from bcjcalc import cli

        calls = {"integral": 0, "mod2": 0}
        violation = sf.symplectic_violation

        def counted(basis):
            calls["mod2" if isinstance(basis, sf.SubsurfaceBasis) else "integral"] += 1
            return violation(basis)

        monkeypatch.setattr(sf, "symplectic_violation", counted)
        argv = ["verify", "--g", "4", "--trials", "500", "--seed", "5151"]
        assert cli.main([*argv, "--out", str(tmp_path / "report.json")]) == 0
        assert calls == {"integral": 1250, "mod2": 310}

    @pytest.mark.parametrize("check", ["verify_diagrams", "right_square_failures"])
    def test_sigma_never_reads_an_unvalidated_basis(self, check, monkeypatch):
        # A_1 = 3 a_i: A_1.B_1 = 3, so the basis is symplectic mod 2 but not
        # over Z.  rho rejects it before sigma reads its parity bits.
        from bcjcalc import cassonmorita

        def broken(g, h, rng, handles, *args):
            basis = random_z_symplectic_basis(g, h, rng, handles, *args)
            (A, B), *rest = basis.pairs
            return ZSubsurfaceBasis(g, ((A.scale(3), B), *rest))

        read = []
        sigma_masks = cassonmorita.sigma_masks

        def counted_sigma_masks(g, pairs):
            read.append(pairs)
            return sigma_masks(g, pairs)

        broken_basis = broken(3, 1, random.Random(0), [2])
        assert sf.symplectic_violation(broken_basis) == "A1.B1 = 3, expected 1"
        assert sf.symplectic_violation(broken_basis.mod2()) is None
        monkeypatch.setattr(cassonmorita, "random_z_symplectic_basis", broken)
        monkeypatch.setattr(cassonmorita, "sigma_masks", counted_sigma_masks)
        with pytest.raises(BasisError, match="A1.B1 = 3, expected 1"):
            if check == "verify_diagrams":
                verify_diagrams(3, 20, seed=4)
            else:
                right_square_failures(3, 20, random.Random(4))
        assert all(not pairs for pairs in read)  # only empty bases, h = 0

    def test_zero_trials_never_pass(self):
        checks = verify_diagrams(2, 0, seed=8)
        for name in ("triangle", "mu_quadratic", "right_square"):
            assert checks[name] == {
                "trials": 0, "failures": 0, "witnesses": [], "passed": False,
            }
        assert not all(c["passed"] for c in checks.values())

    @pytest.mark.parametrize("g", [1, 2, 4])
    def test_returns_the_check_records_only(self, g):
        # the report envelope (genus, trials, seed, all_passed) is the CLI's
        want = {"triangle", "mu_quadratic", "right_square"} | ({"wedge_lift"} if g >= 2 else set())
        checks = verify_diagrams(g, 8, seed=3)
        assert set(checks) == want
        assert all(set(c) == {"trials", "failures", "witnesses", "passed"} for c in checks.values())

    def test_triangle_direct(self):
        rng = random.Random(10)
        for g in (1, 2, 3):
            for _ in range(40):
                h = rng.randint(1, min(g, 3))
                handles = sorted(rng.sample(range(1, g + 1), h))
                zbasis = random_z_symplectic_basis(g, h, rng, handles)
                assert mu(rho_separating(zbasis)) == sigma_separating(zbasis.mod2())

    def test_right_square_direct(self):
        rng = random.Random(11)
        g = 2
        for _ in range(60):
            zbasis = random_z_symplectic_basis(g, rng.randint(1, 2), rng)
            L = LinkingMatrix.random_valid(g, rng)
            assert epsilon(L, rho_separating(zbasis)) & 1 == selflink_eval(
                L, sigma_separating(zbasis.mod2())
            )

    def test_right_square_fails_on_off_diagonal_generator(self):
        # documents why commutativity is only claimed on im(rho) and l(u,u):
        # an off-diagonal symbol with odd value breaks it
        g = 1
        rows = [[0, 1], [2, 0]]  # L[a1][b1] = 1 (odd), constraint holds: 2-1=1
        L = LinkingMatrix.from_rows(g, rows)
        x = sym(g, 0, 1)  # l(a1, b1)
        assert epsilon(L, x) & 1 == 1
        assert evaluate(mu(x), L.omega()) == 0


class TestCMJson:
    def test_roundtrip(self):
        g = 2
        x = rho_separating(ZSubsurfaceBasis.standard(g, [1, 2]))
        data = cmpoly_to_json(x)
        monomials = [json_monomial(item["monomial"]) for item in data]
        assert monomials == sorted(monomials, key=lambda m: (len(m), m))
        assert len(set(monomials)) == len(monomials)
        assert CMPoly(g, {m: item["coeff"] for m, item in zip(monomials, data)}) == x
