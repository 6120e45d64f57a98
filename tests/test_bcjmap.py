"""Twist formulas and the index-matched classification."""

import random
from itertools import permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from bcjcalc import surface as sf
from bcjcalc.bcjmap import (
    BPMap,
    SeparatingTwist,
    basis_independence_failures,
    equivariance_failures,
    is_index_matched,
    sigma,
    sigma_bp,
    sigma_masks,
    sigma_separating,
)
from bcjcalc.boolring import (
    BoolMonomial,
    BoolPoly,
    SelfLinkingForm,
    b2_basis,
    bar,
    evaluate,
    substitute_sp,
)
from bcjcalc.errors import (
    BasisError,
    CatalogError,
    FiltrationError,
    GeometryError,
)
from bcjcalc.gf2core import F2Matrix
from bcjcalc.jsonio import catalog_from_json
from bcjcalc.surface import HClass, SubsurfaceBasis, intersect, random_symplectic_rebase


def matched_oracle(m1, m2, g):
    """Independent restatement: some handle has its a-variable in one
    monomial and its b-variable in the other."""
    s1, s2 = set(m1.variables()), set(m2.variables())
    for i in range(g):
        ai, bi = i, g + i
        if (ai in s1 and bi in s2) or (ai in s2 and bi in s1):
            return True
    return False


def bar_product(basis):
    """sum_i bar(A_i) bar(B_i), multiplied out in BoolPoly."""
    acc = BoolPoly.zero(basis.genus)
    for A, B in basis.pairs:
        acc = acc + bar(A) * bar(B)
    return acc


@st.composite
def moved_bases(draw, min_h=0):
    """A valid mod-2 basis on min_h..g pairs at genus g <= 6: pairs of the
    standard basis of the surface moved by a word of transvections."""
    g = draw(st.integers(max(1, min_h), 6))
    M = F2Matrix.identity(2 * g)
    for v in draw(st.lists(st.integers(1, (1 << (2 * g)) - 1), max_size=8)):
        M = sf.transvection(HClass(g, v)) @ M
    full = sf.transform_basis(M, SubsurfaceBasis.standard(g, range(1, g + 1)))
    pairs = draw(st.permutations(full.pairs))
    return SubsurfaceBasis(g, tuple(pairs[: draw(st.integers(min_h, g))]))


class TestSigmaSeparating:
    def test_single_handle_spine(self):
        g = 3
        for i in (1, 2, 3):
            t = SeparatingTwist(SubsurfaceBasis.standard(g, [i]))
            want = bar(sf.a(g, i)) * bar(sf.b(g, i))
            assert sigma_separating(t) == want
            assert str(sigma_separating(t)) == f"a{i}*b{i}"

    def test_mixed_spine_with_linear_term(self):
        # spine (a_i + b_i, a_i + a_j): the expansion hits a linear term
        g = 3
        i, j = 1, 2
        basis = SubsurfaceBasis(g, ((sf.a(g, i) + sf.b(g, i), sf.a(g, i) + sf.a(g, j)),))
        got = sigma_separating(basis)
        want = (
            BoolPoly(g, {(1 << (i - 1)) | (1 << (g + i - 1))})    # a_i b_i
            + BoolPoly(g, {(1 << (i - 1)) | (1 << (j - 1))})      # a_i a_j
            + BoolPoly(g, {(1 << (j - 1)) | (1 << (g + i - 1))})  # a_j b_i
            + BoolPoly(g, {1 << (j - 1)})                         # a_j
        )
        assert got == want

    def test_empty_basis(self):
        assert sigma_separating(SubsurfaceBasis(2, ())) == BoolPoly.zero(2)

    def test_degree_bound(self):
        rng = random.Random(1)
        for _ in range(200):
            g = rng.randint(1, 5)
            h = rng.randint(0, min(g, 3))
            basis = SubsurfaceBasis.standard(g, sorted(rng.sample(range(1, g + 1), h)))
            basis = random_symplectic_rebase(basis, rng.randrange(1 << 30)) if h else basis
            assert sigma_separating(basis).degree() <= 2

    def test_invalid_basis_rejected(self):
        bad = SubsurfaceBasis(2, ((sf.a(2, 1), sf.a(2, 2)),))
        with pytest.raises(BasisError):
            sigma_separating(bad)
        with pytest.raises(BasisError):
            SeparatingTwist(bad)

    def test_a_descriptor_basis_is_validated_once(self, monkeypatch):
        # by the descriptor's constructor; sigma of the immutable descriptor
        # reads the basis as it is, and validates only a bare basis
        g = 3
        basis = random_symplectic_rebase(SubsurfaceBasis.standard(g, [1, 2]), 7)
        calls = []
        violation = sf.symplectic_violation
        monkeypatch.setattr(sf, "symplectic_violation", lambda b: calls.append(b) or violation(b))
        twist, bp = SeparatingTwist(basis), BPMap(basis, sf.a(g, 3))
        assert len(calls) == 2
        assert sigma(twist) == bar_product(basis)
        assert sigma(bp) == bar_product(basis) * (bar(sf.a(g, 3)) + BoolPoly.one(g))
        assert len(calls) == 2
        assert sigma_separating(basis) == bar_product(basis)
        assert calls == [basis] * 3

    @pytest.mark.parametrize("g", range(1, 7))
    def test_equals_the_bar_product(self, g):
        # the one-pass kernel against sum_i bar(A_i) bar(B_i) multiplied out
        # in BoolPoly, on coordinate bases, their rebases, and dense
        # sub-bases of a moved basis of the whole surface
        rng = random.Random(100 + g)
        for _ in range(40):
            h = rng.randint(0, g)
            coordinate = SubsurfaceBasis.standard(g, sorted(rng.sample(range(1, g + 1), h)))
            rebased = coordinate
            if h:
                rebased = random_symplectic_rebase(coordinate, rng.randrange(1 << 30))
            full = sf.transform_basis(
                sf.random_sp_word(g, rng, rng.randint(1, 10)),
                SubsurfaceBasis.standard(g, range(1, g + 1)),
            )
            dense = SubsurfaceBasis(g, tuple(rng.sample(full.pairs, h)))
            for basis in (coordinate, rebased, dense):
                assert sigma_separating(basis) == bar_product(basis)

    @given(moved_bases())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_bar_product_hypothesis(self, basis):
        assert sigma_separating(basis) == bar_product(basis)

    @given(moved_bases(min_h=1), st.integers(0, (1 << 30) - 1))
    @settings(max_examples=150, deadline=None)
    def test_kernel_on_bare_pairs_hypothesis(self, basis, seed):
        # sigma_masks on packed pairs with no basis object, against
        # sigma_separating and the bar product, on a basis and a rebase of it
        for b in (basis, random_symplectic_rebase(basis, seed)):
            got = sigma_masks(b.genus, [(A.bits, B.bits) for A, B in b.pairs])
            assert got == sigma_separating(b).masks == bar_product(b).masks


class TestSigmaBP:
    def test_empty_subsurface(self):
        m = BPMap(SubsurfaceBasis(2, ()), sf.a(2, 1))
        assert sigma_bp(m) == BoolPoly.zero(2)

    def test_worked_expansion(self):
        g = 2
        m = BPMap(SubsurfaceBasis.standard(g, [2]), sf.a(g, 1))
        got = sigma_bp(m)
        want = BoolPoly(g, {0b1011, 0b1010})  # a1*a2*b2 + a2*b2
        assert got == want
        assert str(got) == "a2*b2 + a1*a2*b2"

    def test_worked_expansion_against_evaluation_oracle(self):
        # independent route: evaluate the defining product pointwise
        g = 2
        m = BPMap(SubsurfaceBasis.standard(g, [2]), sf.a(g, 1))
        got = sigma_bp(m)
        for values in range(1 << (2 * g)):
            form = SelfLinkingForm(g, values)
            direct = (form.omega(sf.a(g, 2)) & form.omega(sf.b(g, 2))) & (
                form.omega(sf.a(g, 1)) ^ 1
            )
            assert evaluate(got, form) == direct

    def test_orthogonality_enforced(self):
        with pytest.raises(GeometryError):
            BPMap(SubsurfaceBasis.standard(2, [1]), sf.a(2, 1))

    def test_degree_at_most_three_randomized(self):
        rng = random.Random(2)
        for _ in range(1000):
            g = rng.randint(2, 5)
            h = rng.randint(1, g - 1)
            handles = sorted(rng.sample(range(1, g + 1), h))
            rest = [i for i in range(1, g + 1) if i not in handles]
            basis = random_symplectic_rebase(
                SubsurfaceBasis.standard(g, handles), rng.randrange(1 << 30)
            )
            cbits = 0
            for i in rest:
                if rng.random() < 0.6:
                    cbits |= 1 << (i - 1)
                if rng.random() < 0.6:
                    cbits |= 1 << (g + i - 1)
            m = BPMap(basis, HClass(g, cbits))
            assert sigma_bp(m).degree() <= 3

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_degree_exactly_three_on_genus_one_bases(self, data):
        # C != 0 orthogonal to x and y lies outside span(x, y), so x-bar,
        # y-bar, C-bar have independent linear parts: no bounding pair on a
        # genus-1 basis passes the search's degree <= 2 filter
        g = data.draw(st.integers(min_value=2, max_value=6))
        classes = st.integers(min_value=0, max_value=(1 << (2 * g)) - 1).map(
            lambda bits: HClass(g, bits)
        )
        x = data.draw(classes.filter(bool))
        # a class meeting x once: the dual of its lowest nonzero coordinate
        low = (x.bits & -x.bits).bit_length() - 1
        dual = HClass(g, 1 << (low + g if low < g else low - g))
        y = data.draw(classes)
        if intersect(x, y) == 0:
            y = y + dual
        # project onto the orthogonal complement of span(x, y)
        C = data.draw(classes)
        if intersect(C, y):
            C = C + x
        if intersect(C, x):
            C = C + y
        assume(C)
        m = BPMap(SubsurfaceBasis(g, ((x, y),)), C)
        assert sigma_bp(m).degree() == 3

    def test_c_zero_degenerates_to_separating(self):
        g = 3
        basis = SubsurfaceBasis.standard(g, [2])
        m = BPMap(basis, HClass(g, 0))
        assert sigma_bp(m) == sigma_separating(basis)


class TestBasisIndependence:
    def test_no_failures_small(self):
        for g in (2, 3):
            assert basis_independence_failures(g, 60, seed=11) == []

    def test_direct_rebase_equality(self):
        g = 4
        basis = SubsurfaceBasis.standard(g, [1, 3])
        reference = sigma_separating(basis)
        for seed in range(50):
            assert sigma_separating(random_symplectic_rebase(basis, seed)) == reference


class TestEquivariance:
    def test_exhaustive_transvections_g2(self):
        g = 2
        mats = [sf.transvection(HClass(g, v)) for v in range(1, 1 << (2 * g))]
        for h in (1, 2):
            basis = SubsurfaceBasis.standard(g, list(range(1, h + 1)))
            for M in mats:
                lhs = substitute_sp(M, sigma_separating(basis))
                rhs = sigma_separating(sf.transform_basis(M, basis))
                assert lhs == rhs

    def test_random_words(self):
        rng = random.Random(3)
        for g in (3, 4, 5):
            mats = [sf.random_sp_word(g, rng) for _ in range(20)]
            assert equivariance_failures(g, mats, seed=5) == []


@st.composite
def basis_pairs(draw):
    """Two distinct monomials of the degree-<=2 basis at a genus up to 8."""
    mons = b2_basis(draw(st.integers(1, 8))).monomials
    i, j = draw(st.lists(st.integers(0, len(mons) - 1), min_size=2, max_size=2, unique=True))
    return mons[i], mons[j]


class TestIndexMatched:
    def test_matched_examples(self):
        g = 3
        m = lambda *vs: BoolMonomial(g, sum(1 << v for v in vs))
        # a1*b2 vs b1*a3: matched through handle 1
        assert is_index_matched(m(0, g + 1), m(g, 2)) is True
        # a1*b1 vs a2*b2: not matched (the orbit-I pair)
        assert is_index_matched(m(0, g), m(1, g + 1)) is False
        # a1 vs b1: matched, both linear
        assert is_index_matched(m(0), m(g)) is True

    def test_equal_monomials_rejected(self):
        m = BoolMonomial(2, 0b0011)
        with pytest.raises(ValueError):
            is_index_matched(m, m)

    def test_degree_cap(self):
        with pytest.raises(FiltrationError):
            is_index_matched(BoolMonomial(2, 0b0111), BoolMonomial(2, 0b0001))

    @given(basis_pairs())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_a_b_split(self, pair):
        # the split into a- and b-halves that is_index_matched used to make
        m1, m2 = pair
        g = m1.genus
        amask = (1 << g) - 1
        a1, b1 = m1.mask & amask, m1.mask >> g
        a2, b2 = m2.mask & amask, m2.mask >> g
        assert is_index_matched(m1, m2) is bool((a1 & b2) | (a2 & b1))

    def test_constant_never_matched(self):
        g = 2
        one = BoolMonomial(g, 0)
        for mask in range(1, 1 << (2 * g)):
            if mask.bit_count() <= 2:
                assert is_index_matched(one, BoolMonomial(g, mask)) is False

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_agrees_with_oracle_exhaustive(self, g):
        basis = b2_basis(g)
        for i in range(basis.size):
            for j in range(i + 1, basis.size):
                m1, m2 = basis.monomial(i), basis.monomial(j)
                assert is_index_matched(m1, m2) == matched_oracle(m1, m2, g)


def orbit_pattern_instances(g):
    """All instances of the eleven catalogued index patterns, as printed,
    over distinct handle indices.  Independent of the classifier."""

    def A(i):
        return 1 << (i - 1)

    def B(i):
        return 1 << (g + i - 1)

    pats = {
        "I": [lambda i, j: (A(i) | B(i), A(j) | B(j))],
        "II": [
            lambda i, j, k: (A(i) | B(i), A(j) | B(k)),
            lambda i, j, k: (A(i) | B(i), A(j) | A(k)),
            lambda i, j, k: (A(i) | B(i), B(j) | B(k)),
        ],
        # class III is the full swap-orbit of four-distinct-handle pairs of
        # non-diagonal quadratics; the a_i b_j ^ b_k b_l shape is reached by
        # a single handle swap from b_i b_j ^ b_k b_l
        "III": [
            lambda i, j, k, l: (A(i) | A(j), A(k) | A(l)),
            lambda i, j, k, l: (A(i) | A(j), A(k) | B(l)),
            lambda i, j, k, l: (A(i) | A(j), B(k) | B(l)),
            lambda i, j, k, l: (A(i) | B(j), A(k) | B(l)),
            lambda i, j, k, l: (A(i) | B(j), B(k) | B(l)),
            lambda i, j, k, l: (B(i) | B(j), B(k) | B(l)),
        ],
        "IV": [
            lambda i, j, k: (A(i) | A(j), A(i) | A(k)),
            lambda i, j, k: (A(i) | A(j), A(i) | B(k)),
            lambda i, j, k: (A(i) | B(j), A(i) | B(k)),
            lambda i, j, k: (A(i) | B(j), A(k) | B(j)),
            lambda i, j, k: (A(i) | B(j), B(j) | B(k)),
            lambda i, j, k: (B(i) | B(j), B(i) | B(k)),
        ],
        "V": [
            lambda i, j: (A(i), A(j) | B(j)),
            lambda i, j: (B(i), A(j) | B(j)),
        ],
        "VI": [
            lambda i, j: (A(i), A(i) | A(j)),
            lambda i, j: (A(i), A(i) | B(j)),
            lambda i, j: (B(i), A(j) | B(i)),
            lambda i, j: (B(i), B(i) | B(j)),
        ],
        "VII": [
            lambda i, j, k: (A(i), A(j) | A(k)),
            lambda i, j, k: (A(i), A(j) | B(k)),
            lambda i, j, k: (A(i), B(j) | B(k)),
            lambda i, j, k: (B(i), A(j) | A(k)),
            lambda i, j, k: (B(i), A(j) | B(k)),
            lambda i, j, k: (B(i), B(j) | B(k)),
        ],
        "VIII": [lambda i: (0, A(i) | B(i))],
        "IX": [
            lambda i, j: (0, A(i) | A(j)),
            lambda i, j: (0, A(i) | B(j)),
            lambda i, j: (0, B(i) | B(j)),
        ],
        "X": [
            lambda i, j: (A(i), A(j)),
            lambda i, j: (A(i), B(j)),
            lambda i, j: (B(i), B(j)),
        ],
        "XI": [lambda i: (0, A(i)), lambda i: (0, B(i))],
    }
    out = {}
    handles = range(1, g + 1)
    for label, builders in pats.items():
        pairs = set()
        for build in builders:
            arity = build.__code__.co_argcount
            for idxs in permutations(handles, arity):
                m1, m2 = build(*idxs)
                if m1 == m2:
                    continue
                pairs.add((min(m1, m2), max(m1, m2)))
        out[label] = pairs
    return out


class TestOrbitPatternCatalog:
    def test_catalog_pairs_unmatched_and_labelled_g4(self):
        from bcjcalc.wedgespan import classify_pair

        g = 4
        catalog = orbit_pattern_instances(g)
        assert set(catalog) == {
            "I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X", "XI",
        }
        for label, pairs in catalog.items():
            assert pairs, label
            for mask1, mask2 in pairs:
                m1, m2 = BoolMonomial(g, mask1), BoolMonomial(g, mask2)
                assert is_index_matched(m1, m2) is False
                assert classify_pair(m1, m2) == label

    def test_catalog_covers_every_unmatched_pair_g4(self):
        from bcjcalc.boolring import b2_basis

        g = 4
        catalog = orbit_pattern_instances(g)
        all_pattern_pairs = set().union(*catalog.values())
        basis = b2_basis(g)
        unmatched = set()
        for i in range(basis.size):
            for j in range(i + 1, basis.size):
                m1, m2 = basis.monomial(i), basis.monomial(j)
                if not is_index_matched(m1, m2):
                    unmatched.add(
                        (min(m1.mask, m2.mask), max(m1.mask, m2.mask))
                    )
        assert unmatched == all_pattern_pairs


def read_entry(entry, genus=2):
    """The (descriptor, integral basis) of a one-entry catalog."""
    g, [parsed] = catalog_from_json({"genus": genus, "entries": [entry]}, 32)
    assert g == genus
    return parsed


class TestCatalogJson:
    def test_separating_roundtrip(self):
        t = SeparatingTwist(SubsurfaceBasis.standard(2, [1]), label="t1")
        entry = {"type": "separating", "basis": [[[1, 0, 0, 0], [0, 0, 1, 0]]], "label": "t1"}
        assert read_entry(entry) == (t, None)

    def test_bp_roundtrip(self):
        m = BPMap(SubsurfaceBasis.standard(2, [2]), sf.a(2, 1), label="bp1")
        entry = {
            "type": "bp",
            "basis": [[[0, 1, 0, 0], [0, 0, 0, 1]]],
            "C": [1, 0, 0, 0],
            "label": "bp1",
        }
        assert read_entry(entry) == (m, None)

    def test_schema_errors(self):
        with pytest.raises(CatalogError):
            read_entry({"type": "nope"})
        with pytest.raises(CatalogError):
            read_entry({"type": "bp", "basis": []})
        with pytest.raises(CatalogError):
            read_entry({"type": "separating", "basis": [[[1, 0], [1, 0, 0, 0]]]})
