"""Wedge square, cycle images, orbit classes, dimension tables, search."""

import random
import tracemalloc
from functools import lru_cache
from itertools import combinations, permutations
from math import comb
from typing import Iterator

import pytest
from hypothesis import given, settings, strategies as st

from bcjcalc import surface as sf
from bcjcalc import wedgespan
from bcjcalc.bcjmap import (
    BPMap,
    SeparatingTwist,
    is_index_matched,
    sigma,
    sigma_masks,
    sigma_separating,
)
from bcjcalc.boolring import BoolPoly, b2_basis
from bcjcalc.errors import DisjointnessError, FiltrationError, GenusMismatchError, MatrixError
from bcjcalc.gf2core import F2Matrix, SpanBasis, bit_indices
from bcjcalc.surface import SubsurfaceBasis, check_genus
from bcjcalc.wedgespan import (
    AbelianCycle,
    WedgeElem,
    closure_generators,
    cubic_type_count,
    cycle_image,
    dims,
    image_rank_report,
    orbit_classes,
    pair_index,
    render_slot,
    saturate_span,
    slot_pair,
    wedge,
    wedge_dim,
    wedge_translate,
    _basis_map,
    _descriptors_for_set,
    _disjoint_set_pairs,
    _handle_map,
    _local_spines,
    _fold_stream,
    _slot_labels,
    _support_sets,
    _wedge_action_table,
)

# Regression constants computed by the independent brute-force pair scan
# (enumerate degree-<=2 monomials as index tuples, count pairs where some
# handle contributes its a-variable to one side and its b-variable to the
# other) before the module was built.
FROZEN_DIMS = {
    # g: (d, dim_wedge, dim_im, dim_w)
    1: (4, 6, 3, 3),
    2: (11, 55, 28, 27),
    3: (22, 231, 99, 132),
    4: (37, 666, 240, 426),
    5: (56, 1540, 475, 1065),
    6: (79, 3081, 828, 2253),
}


def spine_twist(g, x, y, label=""):
    return SeparatingTwist(SubsurfaceBasis(g, ((x, y),)), label=label)


# -- object-level oracles for the descriptor templates -------------------------
#
# These build every twist as a `SeparatingTwist` at the full genus and
# evaluate `sigma` on it, so they share no sigma code with the templates.
# sigma is cached per twist label to keep the walks cheap.

_SIGMA_BY_LABEL = {}


def ref_sigma(twist):
    """The monomial masks of sigma(twist), cached by genus and label."""
    key = (twist.genus, twist.label)
    if key not in _SIGMA_BY_LABEL:
        _SIGMA_BY_LABEL[key] = sigma(twist).masks
    return _SIGMA_BY_LABEL[key]


def enumerate_spine_cycles(
    genus: int, max_support_per_spine: int
) -> Iterator[AbelianCycle]:
    """Deterministic stream of support-disjoint abelian cycles.

    Each descriptor is the separating twist of a genus-1 spine (x, y) with
    x.y = 1 using at most `max_support_per_spine` handles, so every sigma
    value has degree <= 2.  The stream has one block per pair of disjoint
    support sets, taken in (size, lex) order, and emits each unordered pair
    exactly once.  Two runs with equal parameters emit identical sequences.
    """
    check_genus(genus)
    if max_support_per_spine < 1:
        raise ValueError("max_support_per_spine must be >= 1")
    sets = _support_sets(genus, max_support_per_spine)
    twists = [ref_set_twists(genus, S) for S in sets]
    for k1, k2 in _disjoint_set_pairs(sets):
        for t1 in twists[k1]:
            for t2 in twists[k2]:
                yield AbelianCycle(t1, t2, label=f"{t1.label} & {t2.label}")


@lru_cache(maxsize=None)
def ref_set_twists(g, S):
    """Twists of every spine (x, y) with x.y = 1 whose handles are exactly S,
    x then y ascending as integers: the stream's order, since relabelling
    onto sorted handles keeps the a-then-b bit order."""
    allowed = sum((1 << (h - 1)) | (1 << (g + h - 1)) for h in S)
    classes = [sf.HClass(g, v) for v in range(1 << (2 * g)) if not v & ~allowed]
    out = []
    for x in classes:
        for y in classes:
            u = x.bits | y.bits
            handles = {h for h in S if (u >> (h - 1)) & 1 or (u >> (g + h - 1)) & 1}
            if sf.intersect(x, y) and handles == set(S):
                out.append(spine_twist(g, x, y, label=f"sep({x},{y})"))
    return out


class TestSlotIndexing:
    def test_pair_index_bijective(self):
        for d in (2, 5, 11):
            seen = set()
            for i in range(d):
                for j in range(i + 1, d):
                    k = pair_index(d, i, j)
                    assert slot_pair(d, k) == (i, j)
                    seen.add(k)
            assert seen == set(range(wedge_dim(d)))

    def test_bad_pair_rejected(self):
        with pytest.raises(ValueError):
            pair_index(5, 3, 3)

    def test_bad_slot_rejected(self):
        # a negative slot once indexed the pairs from the end: slot -1 of
        # basis size 10 read as (8, 9)
        for d, slot in [(10, -1), (10, 45), (5, 10), (2, 1)]:
            with pytest.raises(ValueError, match=f"slots are 0..{wedge_dim(d) - 1}"):
                slot_pair(d, slot)
        for slot in (-1, wedge_dim(b2_basis(2).size)):
            with pytest.raises(ValueError):
                render_slot(2, slot)
        assert slot_pair(10, 44) == (8, 9)


class TestWedge:
    def test_alternation(self):
        rng = random.Random(1)
        for _ in range(200):
            g = rng.randint(1, 3)
            masks = {
                m
                for m in (rng.randrange(1 << (2 * g)) for _ in range(4))
                if m.bit_count() <= 2
            }
            p = BoolPoly(g, masks)
            assert not wedge(p, p)

    def test_bilinearity(self):
        rng = random.Random(2)
        for _ in range(200):
            g = rng.randint(1, 3)

            def rp():
                masks = {
                    m
                    for m in (rng.randrange(1 << (2 * g)) for _ in range(4))
                    if m.bit_count() <= 2
                }
                return BoolPoly(g, masks)

            p, q, r = rp(), rp(), rp()
            assert wedge(p + q, r) == wedge(p, r) + wedge(q, r)
            assert wedge(p, q) == wedge(q, p)

    def test_degree_cap(self):
        g = 2
        cubic = BoolPoly(g, {0b0111})
        with pytest.raises(FiltrationError):
            wedge(cubic, BoolPoly.one(g))

    def test_single_slot(self):
        g = 2
        p = BoolPoly(g, {0b0101})  # a1*b1
        q = BoolPoly(g, {0b1010})  # a2*b2
        w = wedge(p, q)
        assert len(w.slots()) == 1
        assert str(w) == "a1*b1 ^ a2*b2"

    def test_two_slots(self):
        g = 3
        p = BoolPoly(g, {0b001001})            # a1*b1
        q = BoolPoly(g, {0b010010, 0b000110})  # a2*b2 + a2*a3
        w = wedge(p, q)
        assert len(w.slots()) == 2

    def test_bits_must_fit_the_genus(self):
        n = wedge_dim(b2_basis(2).size)
        assert WedgeElem(2, (1 << n) - 1).slots() == tuple(range(n))
        for bits in (-1, 1 << n):
            with pytest.raises(GenusMismatchError):
                WedgeElem(2, bits)

    def test_sum_across_genera_rejected(self):
        with pytest.raises(GenusMismatchError):
            WedgeElem(1, 1 << 0) + WedgeElem(2, 1 << 0)


class TestCycleImage:
    def test_orbit_one_worked(self):
        g = 3
        c = AbelianCycle(
            spine_twist(g, sf.a(g, 1), sf.b(g, 1)),
            spine_twist(g, sf.a(g, 2), sf.b(g, 2)),
        )
        w = cycle_image(c)
        basis = b2_basis(g)
        i = basis.index_of_mask[0b001001]
        j = basis.index_of_mask[0b010010]
        assert w.slots() == (pair_index(basis.size, min(i, j), max(i, j)),)

    def test_orbit_two_worked(self):
        # spine pair (a_i, b_i), (a_j, b_j + a_k): the image is the orbit-I
        # slot plus the diagonal-against-a_j*a_k slot
        g = 3
        c = AbelianCycle(
            spine_twist(g, sf.a(g, 1), sf.b(g, 1)),
            spine_twist(g, sf.a(g, 2), sf.b(g, 2) + sf.a(g, 3)),
        )
        w = cycle_image(c)
        want = wedge(
            BoolPoly(g, {0b001001}), BoolPoly(g, {0b010010, 0b000110})
        )
        assert w == want
        assert len(w.slots()) == 2

    def test_orbit_five_worked(self):
        # spines (a_i + b_i, a_i + a_j), (a_k, b_k): four slots, one linear
        g = 3
        c = AbelianCycle(
            spine_twist(g, sf.a(g, 1) + sf.b(g, 1), sf.a(g, 1) + sf.a(g, 2)),
            spine_twist(g, sf.a(g, 3), sf.b(g, 3)),
        )
        w = cycle_image(c)
        sigma1 = BoolPoly(g, {0b001001, 0b000011, 0b001010, 0b000010})
        assert sigma_separating(SubsurfaceBasis(g, ((sf.a(g, 1) + sf.b(g, 1), sf.a(g, 1) + sf.a(g, 2)),))) == sigma1
        want = wedge(sigma1, BoolPoly(g, {0b100100}))
        assert w == want
        assert len(w.slots()) == 4

    def test_self_pair_is_zero(self):
        g = 2
        t = spine_twist(g, sf.a(g, 1), sf.b(g, 1))
        # the same sigma on both sides wedges to zero, but a twist shares its
        # handles with itself, so the pair is not a certified cycle
        p = sigma(t)
        assert not wedge(p, p)
        with pytest.raises(DisjointnessError):
            cycle_image(AbelianCycle(t, t))

    def test_symmetry(self):
        g = 3
        c = AbelianCycle(
            spine_twist(g, sf.a(g, 1), sf.b(g, 1)),
            spine_twist(g, sf.a(g, 2) + sf.a(g, 3), sf.b(g, 2)),
        )
        assert cycle_image(c) == cycle_image(AbelianCycle(c.second, c.first, c.label))

    def test_support_overlap_rejected(self):
        g = 2
        c = AbelianCycle(
            spine_twist(g, sf.a(g, 1), sf.b(g, 1)),
            spine_twist(g, sf.a(g, 1) + sf.a(g, 2), sf.b(g, 2)),
        )
        with pytest.raises(DisjointnessError):
            cycle_image(c)

    def test_degree_three_bp_rejected(self):
        g = 3
        bp = BPMap(SubsurfaceBasis.standard(g, [2]), sf.a(g, 1))
        c = AbelianCycle(bp, spine_twist(g, sf.a(g, 3), sf.b(g, 3)))
        with pytest.raises(FiltrationError):
            cycle_image(c)


class TestEnumeration:
    def test_count_g2_single_support(self):
        cycles = list(enumerate_spine_cycles(2, 1))
        assert len(cycles) == 36

    def test_all_certificates_valid(self):
        for c in enumerate_spine_cycles(2, 2):
            c.validate_certificate()

    def test_stream_reproducible(self):
        a = [c.label for c in enumerate_spine_cycles(3, 2)]
        b = [c.label for c in enumerate_spine_cycles(3, 2)]
        assert a == b

    def test_no_swap_duplicates(self):
        seen = set()
        for c in enumerate_spine_cycles(2, 1):
            key = frozenset((c.first.label, c.second.label))
            assert key not in seen
            seen.add(key)

    def test_single_handle_spines_share_sigma(self):
        # all six ordered spine pairs on one handle give the same sigma
        g = 2
        sigmas = set()
        for c in enumerate_spine_cycles(g, 1):
            sigmas.add(sigma_separating(c.first.basis))
            sigmas.add(sigma_separating(c.second.basis))
        assert sigmas == {BoolPoly(g, {0b0101}), BoolPoly(g, {0b1010})}

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_sigma_handle_support_is_the_support_set(self, g):
        # sigma(sep(x, y)) = x-bar y-bar has exactly the variables of x and
        # y, so a sigma value determines its support set and no sigma pair
        # recurs across stream blocks
        amask = (1 << g) - 1
        for S in _support_sets(g, 3):
            for twist in ref_set_twists(g, S):
                ((x, y),) = twist.basis.pairs
                variables = 0
                for m in ref_sigma(twist):
                    variables |= m
                assert variables == x.bits | y.bits
                handles = (variables & amask) | (variables >> g)
                assert {i + 1 for i in range(g) if (handles >> i) & 1} == set(S)

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_stream_twists_are_the_set_twists(self, g):
        # the object-level stream carries exactly the per-set twists of the
        # oracle, in its order; at g >= 4 every support set occurs
        by_set = {}
        for twist in ref_stream(g, 3)[1].values():
            by_set.setdefault(tuple(sorted(twist.support())), []).append(twist)
        if g >= 4:
            assert set(by_set) == set(_support_sets(g, 3))
        for S, twists in by_set.items():
            assert [t.label for t in twists] == [t.label for t in ref_set_twists(g, S)]

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            list(enumerate_spine_cycles(2, 0))


class TestTemplates:
    def test_template_sizes(self):
        # n(s) spines and N(s) distinct sigma values per support size
        sizes = [wedgespan._template(s) for s in (1, 2, 3)]
        assert [n for n, _, _ in sizes] == [6, 108, 1674]
        assert [len(groups) for _, groups, _ in sizes] == [1, 18, 279]

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_each_plane_holds_six_spines_of_one_sigma(self, s):
        # _template evaluates sigma once per plane {x, y, x+y}, on the spine
        # with x < y < x+y; here sigma is computed on every spine of every plane
        planes = {}
        for x, y in wedgespan._local_spines(s):
            basis = SubsurfaceBasis(s, ((sf.HClass(s, x), sf.HClass(s, y)),))
            planes.setdefault(frozenset((x, y, x ^ y)), []).append(
                ((x, y), sigma_separating(basis).masks)
            )
        assert len(planes) == [1, 18, 279][s - 1]
        for spines in planes.values():
            assert len(spines) == 6
            assert len({value for _, value in spines}) == 1
            # in position order, the plane's first spine and no other is picked
            assert [x < y < x ^ y for (x, y), _ in spines] == [True] + [False] * 5

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_local_spines_are_pairing_and_handle_bits(self, s):
        # the inline tests of _local_spines against the surface helpers
        n, full = 1 << (2 * s), (1 << s) - 1
        want = tuple(
            (x, y)
            for x in range(n)
            for y in range(n)
            if sf.pairing(s, x, y) and sf.handle_bits(s, x | y) == full
        )
        assert _local_spines(s) == want

    def test_template_calls_sigma_once_per_plane(self, monkeypatch):
        calls = []

        def counted(g, pairs):
            calls.append(pairs)
            return sigma_masks(g, pairs)

        monkeypatch.setattr(wedgespan, "sigma_masks", counted)
        wedgespan._template.cache_clear()
        try:
            for s in (1, 2, 3):
                wedgespan._template(s)
        finally:
            wedgespan._template.cache_clear()
        assert len(calls) == 1 + 18 + 279

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_template_equals_reference_through_twist(self, s):
        # the template hands sigma's kernel each packed local spine; built
        # as the object-level twists of the oracle, the data is the same
        spines = _local_spines(s)
        twists = ref_set_twists(s, tuple(range(1, s + 1)))
        first = {}
        for pos, (x, y) in enumerate(spines):
            if x < y < x ^ y:
                first.setdefault(sigma(twists[pos]).masks, pos)
        index = b2_basis(s).index_of_mask
        span = SpanBasis(1 << (2 * s))
        for masks in first:
            span.insert_bits(sum(1 << m for m in masks))
        want = (
            len(spines),
            tuple((pos, tuple(index[m] for m in masks)) for masks, pos in first.items()),
            tuple(tuple(index[m] for m in bit_indices(row)) for row in span.row_bits()),
        )
        assert wedgespan._template(s) == want

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_template_basis_is_the_echelon_in_mask_order(self, s):
        # the stream inserts products of these rows, so the echelon that
        # picks them is pinned: bit m is the monomial of mask m, whose order
        # differs from the basis-index order (a1*a2 sorts after every variable)
        _, groups, basis = wedgespan._template(s)
        masks = [m.mask for m in b2_basis(s).monomials]
        span = SpanBasis(1 << (2 * s))
        for _, sig in groups:
            span.insert_bits(sum(1 << masks[i] for i in sig))
        assert tuple(sum(1 << masks[i] for i in row) for row in basis) == span.row_bits()

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_relabelled_template_equals_per_twist_sigma(self, g):
        basis = b2_basis(g)
        for S in _support_sets(g, 3):
            twists = ref_set_twists(g, S)
            n, groups, rows = _descriptors_for_set(g, S)
            assert n == len(twists)
            first = {}
            for pos, twist in enumerate(twists):
                first.setdefault(ref_sigma(twist), pos)
            want = [
                (pos, sorted(basis.index_of_mask[m] for m in masks))
                for masks, pos in first.items()
            ]
            assert [(pos, sorted(sig)) for pos, sig in groups] == want
            want_span, got_span = SpanBasis(basis.size), SpanBasis(basis.size)
            for _, sig in want:
                want_span.insert_bits(sum(1 << i for i in sig))
            for row in rows:
                assert got_span.insert_bits(sum(1 << i for i in row))
            assert got_span.row_bits() == want_span.row_bits()


def reference_classify_pair(m1, m2):
    """The labeller restated on BoolMonomial objects: sort by degree, then
    read handle bits and diagonals off each monomial."""
    if is_index_matched(m1, m2):
        return None
    x, y = sorted((m1, m2), key=lambda m: -m.degree)
    dx, dy = x.degree, y.degree
    g = m1.genus
    hx, hy = sf.handle_bits(g, x.mask), sf.handle_bits(g, y.mask)
    diag_x = sf.paired_handles(g, x.mask) != 0  # a_i b_i: both coordinates of one handle
    diag_y = sf.paired_handles(g, y.mask) != 0
    if (dx, dy) == (2, 2):
        if diag_x and diag_y:
            return "I"
        if diag_x or diag_y:
            return "II"
        return "III" if hx & hy == 0 else "IV"
    if (dx, dy) == (2, 1):
        if diag_x:
            return "V"
        return "VI" if hx & hy else "VII"
    if (dx, dy) == (2, 0):
        return "VIII" if diag_x else "IX"
    if (dx, dy) == (1, 1):
        return "X"
    if (dx, dy) == (1, 0):
        return "XI"
    raise AssertionError(f"unclassifiable degrees {(dx, dy)}")


@pytest.mark.parametrize("g", range(1, 7))
def test_slot_labels_equal_object_classifier(g):
    # the mask labeller on every slot against the object-level restatement
    mons = b2_basis(g).monomials
    want = tuple(
        reference_classify_pair(mons[i], mons[j]) for i, j in combinations(range(len(mons)), 2)
    )
    assert _slot_labels(g) == want


@lru_cache(maxsize=None)
def ref_orbit_classes(g):
    """The orbit classes as slot lists, by union-find at genus g itself under
    all g handle swaps and C(g, 2) handle transpositions: (classes,
    representatives, errors), classes mapping each label to its slots in
    order, in the order of their first slots."""
    d = b2_basis(g).size
    labels = _slot_labels(g)
    parent = list(range(wedge_dim(d)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    swaps = [
        tuple((v + g) % (2 * g) if v % g == i else v for v in range(2 * g)) for i in range(g)
    ]
    transpositions = [
        _handle_map(g, [j if h == i else i if h == j else h for h in range(1, g + 1)])
        for i, j in combinations(range(1, g + 1), 2)
    ]
    for var_map in swaps + transpositions:
        image = _basis_map(g, var_map)
        for slot in range(wedge_dim(d)):
            if labels[slot] is not None:
                i, j = slot_pair(d, slot)
                parent[find(slot)] = find(pair_index(d, *sorted((image[i], image[j]))))
    components = {}
    for slot in range(wedge_dim(d)):
        if labels[slot] is not None:
            components.setdefault(find(slot), []).append(slot)
    classes, representatives, errors = {}, {}, []
    for slots in components.values():
        seen = {labels[s] for s in slots}
        if len(seen) != 1:
            errors.append(
                f"component of {render_slot(g, slots[0])} mixes patterns {sorted(seen)}"
            )
            continue
        (lab,) = seen
        if lab in classes:
            errors.append(f"pattern {lab} splits into several components")
            continue
        classes[lab] = slots
        representatives[lab] = render_slot(g, slots[0])
    return classes, representatives, errors


class TestDims:
    @pytest.mark.parametrize("g", sorted(FROZEN_DIMS))
    def test_frozen_regression(self, g):
        d, dim_wedge, dim_im, dim_w = FROZEN_DIMS[g]
        got = dims(g)
        assert got["d"] == d
        assert got["dim_wedge"] == dim_wedge
        assert got["dim_im"] == dim_im
        assert got["dim_w"] == dim_w

    def test_formula_identities(self):
        for g in range(1, 7):
            got = dims(g)
            assert got["d"] == 2 * g * g + g + 1
            # closed form of the wedge dimension
            assert got["dim_wedge"] == (4 * g**4 + 4 * g**3 + 3 * g**2 + g) // 2
            assert got["dim_w"] + got["dim_im"] == got["dim_wedge"]

    def test_cubic_residual_nonnegative(self):
        for g in range(2, 7):
            got = dims(g)
            assert got["cubic_residual"] == got["dim_im"] - cubic_type_count(g)
            assert got["cubic_residual"] >= 0

    @pytest.mark.parametrize("g", range(1, 11))
    def test_dim_im_matches_pair_walk(self, g):
        # dims reads the genus-4 census; count the index-matched pairs of
        # basis monomials directly
        mons = b2_basis(g).monomials
        matched = sum(is_index_matched(m1, m2) for m1, m2 in combinations(mons, 2))
        assert dims(g)["dim_im"] == matched


class TestOrbitClasses:
    def test_counts(self):
        assert orbit_classes(3)["n_classes"] == 10
        assert orbit_classes(4)["n_classes"] == 11

    def test_no_errors(self):
        for g in (2, 3, 4):
            assert orbit_classes(g)["errors"] == []

    def test_class_three_absent_below_four_handles(self):
        assert "III" not in orbit_classes(3)["classes"]
        assert "III" in orbit_classes(4)["classes"]

    def test_specific_membership(self):
        # a1*b1 ^ a2*b3 lies in class II
        g = 3
        basis = b2_basis(g)
        i = basis.index_of_mask[0b001001]          # a1*b1
        j = basis.index_of_mask[0b100010]          # a2*b3
        slot = pair_index(basis.size, min(i, j), max(i, j))
        classes, _, _ = ref_orbit_classes(g)
        assert slot in classes["II"]

    def test_partition_covers_unmatched(self):
        g = 3
        classes, _, _ = ref_orbit_classes(g)
        labels = _slot_labels(g)
        unmatched = {s for s in range(wedge_dim(b2_basis(g).size)) if labels[s]}
        covered = set()
        for slots in classes.values():
            for s in slots:
                assert s not in covered
                covered.add(s)
        assert covered == unmatched

    @pytest.mark.parametrize("g", range(1, 7))
    def test_generating_set_matches_every_swap_and_transposition(self, g):
        # orbit_classes joins slots at genus min(g, 4) only, under a_1 <-> b_1
        # and the adjacent handle transpositions, and scales the sizes above
        # genus 4; the components at genus g under all g swaps and C(g, 2)
        # transpositions must give the same report
        classes, representatives, errors = ref_orbit_classes(g)
        report = orbit_classes(g)
        assert report == {
            "genus": g,
            "n_classes": len(classes),
            "classes": {
                lab: {"size": len(slots), "representative": representatives[lab]}
                for lab, slots in classes.items()
            },
            "errors": errors,
        }
        assert list(report["classes"]) == list(classes)

    @pytest.mark.parametrize("g", range(1, 7))
    def test_census_handle_counts(self, g):
        # every slot of label L uses exactly k_L handles, and L has
        # c_L * C(g, k_L) slots
        d = b2_basis(g).size
        mons = b2_basis(g).monomials
        classes, _, _ = ref_orbit_classes(g)
        census = wedgespan._census()
        for lab, slots in classes.items():
            k, c = census[lab]
            assert len(slots) == c * comb(g, k)
            for s in slots:
                i, j = slot_pair(d, s)
                assert sf.handle_bits(g, mons[i].mask | mons[j].mask).bit_count() == k

    def test_no_slot_table_above_genus_four(self, monkeypatch):
        # dims and orbit_classes above genus 4 read the genus-4 census and
        # scale it; they build no slot labels or slot pairs at their genus
        slot_labels, slot_pairs = wedgespan._slot_labels, wedgespan._slot_pairs

        def labels_to_four(genus):
            assert genus <= 4, f"_slot_labels({genus})"
            return slot_labels(genus)

        def pairs_to_four(d):
            assert d <= b2_basis(4).size, f"_slot_pairs({d})"
            return slot_pairs(d)

        monkeypatch.setattr(wedgespan, "_slot_labels", labels_to_four)
        monkeypatch.setattr(wedgespan, "_slot_pairs", pairs_to_four)
        for g in (5, 12, 32):
            report = orbit_classes(g)
            assert report["errors"] == [] and report["n_classes"] == 11
            assert sum(c["size"] for c in report["classes"].values()) == dims(g)["dim_w"]
        assert dims(5)["dim_w"] == FROZEN_DIMS[5][3]

        def representatives(g):
            return {lab: c["representative"] for lab, c in orbit_classes(g)["classes"].items()}

        assert representatives(12) == representatives(4)

    def test_search_runs_no_union_find(self, monkeypatch):
        def refuse(genus):
            raise AssertionError("orbit_classes on the search path")

        monkeypatch.setattr(wedgespan, "orbit_classes", refuse)
        assert image_rank_report(3, 2)["dims"] == dims(3)

    def test_generator_invariance(self):
        # translating any member by a generator map stays in its class; each
        # handle swap and handle transposition is built as a permutation
        # matrix, and its monomial images come from the substitution action
        # (`_wedge_action_table`), which shares no code with `_basis_map`
        for g in (3, 4):
            classes, _, _ = ref_orbit_classes(g)
            d = b2_basis(g).size
            slot_to_class = {s: lab for lab, slots in classes.items() for s in slots}
            perms = []
            for i in range(g):
                p = list(range(2 * g))
                p[i], p[g + i] = g + i, i
                perms.append(p)
            for i, j in combinations(range(g), 2):
                p = list(range(2 * g))
                p[i], p[j], p[g + i], p[g + j] = j, i, g + j, g + i
                perms.append(p)
            assert len(perms) == g + g * (g - 1) // 2
            for p in perms:
                M = F2Matrix(2 * g, tuple(1 << p[k] for k in range(2 * g)))
                images, _ = _wedge_action_table(g, M)
                for s, lab in slot_to_class.items():
                    i, j = slot_pair(d, s)
                    (pi,), (pj,) = images[i], images[j]
                    assert slot_to_class[pair_index(d, min(pi, pj), max(pi, pj))] == lab


@st.composite
def partner_maps(draw):
    """(k, g, phi): an injective, partner-preserving variable map from genus
    k in {1, 2, 3} into genus g <= 5, a handle injection composed with
    random a_i <-> b_i swaps, written out without the module's helpers."""
    k = draw(st.integers(1, 3))
    g = draw(st.integers(k, 5))
    handles = draw(st.permutations(range(g)))[:k]
    swaps = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    a_images = [h + g * swap for h, swap in zip(handles, swaps)]
    return k, g, tuple(a_images + [(v + g) % (2 * g) for v in a_images])


class TestRelabelling:
    @given(partner_maps(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_basis_map_commutes_with_sigma(self, kgphi, data):
        # sigma(sep(x, y)) carried through _basis_map is sigma(sep(phi x, phi y))
        k, g, phi = kgphi
        x = data.draw(st.integers(1, (1 << (2 * k)) - 1), label="x")
        y = data.draw(
            st.integers(1, (1 << (2 * k)) - 1).filter(lambda y: sf.pairing(k, x, y)), label="y"
        )

        def image(v):
            return sum(1 << phi[b] for b in range(2 * k) if (v >> b) & 1)

        local = sigma(spine_twist(k, sf.HClass(k, x), sf.HClass(k, y)))
        full = sigma(spine_twist(g, sf.HClass(g, image(x)), sf.HClass(g, image(y))))
        to = _basis_map(g, phi)
        index_k, index_g = b2_basis(k).index_of_mask, b2_basis(g).index_of_mask
        assert sorted(to[index_k[m]] for m in local.masks) == sorted(
            index_g[m] for m in full.masks
        )


def family_slot_pairs(g):
    """The slot pairs of the two-index sums a_i*b_i ^ a_i*b_j + a_j*b_j ^ a_i*b_j
    (i != j) and the four-index sums a_i*b_j ^ a_k*b_i + a_l*b_j ^ a_k*b_l
    (i, j, k, l distinct), built from monomial masks."""
    basis = b2_basis(g)

    def slot(i, j, k, l):  # a_i*b_j ^ a_k*b_l
        masks = ((1 << (i - 1)) | (1 << (g + j - 1)), (1 << (k - 1)) | (1 << (g + l - 1)))
        return pair_index(basis.size, *sorted(basis.index_of_mask[m] for m in masks))

    handles = range(1, g + 1)
    pairs = [(slot(i, i, i, j), slot(j, j, i, j)) for i, j in permutations(handles, 2)]
    pairs += [(slot(i, j, k, i), slot(l, j, k, l)) for i, j, k, l in permutations(handles, 4)]
    return pairs


class TestFamilies:
    def test_each_element_two_matched_slots(self):
        # each sum of two index-matched slots lies in the default saturated
        # span, though in none of the raw stream spans
        for g in (3, 4, 5):
            labels = _slot_labels(g)
            span, _, _, _ = _fold_stream(g, 3)
            saturate_span(g, span)
            pairs = family_slot_pairs(g)
            assert len(pairs) == g * (g - 1) + g * (g - 1) * (g - 2) * (g - 3)
            for s1, s2 in pairs:
                assert s1 != s2
                assert labels[s1] is None and labels[s2] is None
                assert span.contains_bits((1 << s1) | (1 << s2))

    def test_span_claim_arithmetic(self):
        # the matched cubic-type pairs that the dims table reports at g = 4
        assert cubic_type_count(4) == 120


class TestSearch:
    def test_g2_partial_coverage(self):
        r = image_rank_report(2, 1)
        assert r["rank"] == 10
        assert len(r["missing"]) == 26
        assert not r["coverage_complete"]
        assert r["counts"]["cycles"] == 36
        assert r["counts"]["cycle_rank"] == 1

    def test_monotone_in_max_support(self):
        r1 = image_rank_report(3, 1)
        r2 = image_rank_report(3, 2)
        r3 = image_rank_report(3, 3)
        assert r1["rank"] <= r2["rank"] <= r3["rank"]

    def test_g3_full_coverage_with_closure(self):
        r = image_rank_report(3, 3)
        assert r["coverage_complete"]
        assert r["rank"] >= FROZEN_DIMS[3][3]

    def test_closure_off_hits_obstruction(self):
        # without saturation the overlapping-handle classes stay uncovered
        r = image_rank_report(3, 3, sp_closure=False)
        assert not r["coverage_complete"]
        missing_classes = {m["class"] for m in r["missing"]}
        assert {"IV", "VI"} <= missing_classes

    def test_orbit_hits_recorded(self):
        r = image_rank_report(3, 3)
        assert r["orbit_hits"]["I"]["cycle"]
        assert set(r["class_coverage"]) == set(orbit_classes(3)["classes"])
        assert r["class_coverage"]["IV"] == "sp-closure"
        assert r["class_coverage"]["I"] == "stream"

    @pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
    def test_search_builds_no_twist_objects(self, g, monkeypatch):
        # first hits are labelled from the packed spines, so the search
        # constructs no twist or subsurface basis, hits or not
        def refuse(self, *args, **kwargs):
            raise AssertionError(f"{type(self).__name__} built on the search path")

        monkeypatch.setattr(SeparatingTwist, "__init__", refuse)
        monkeypatch.setattr(SubsurfaceBasis, "__init__", refuse)
        for ms in (1, 2, 3, 4):
            for closure in (True, False):
                assert image_rank_report(g, ms, sp_closure=closure)["orbit_hits"]

    def test_g4_report_pins_golden_numbers(self):
        # the genus-4 numbers of the benchmark golden, written out: first-hit
        # stream indices and cycles per class, and the stream counts
        r = image_rank_report(4, 3)
        assert r["orbit_hits"] == {
            "I": {"index": 0, "cycle": "sep(a1,b1) & sep(a2,b2)"},
            "II": {"index": 108, "cycle": "sep(a1,b1) & sep(a2,a3+b2)"},
            "III": {"index": 48168, "cycle": "sep(a1,a2+b1) & sep(a3,a4+b3)"},
            "IX": {"index": 48197, "cycle": "sep(a1,a2+b1) & sep(a3+b3,a3+a4+b4)"},
            "V": {"index": 112, "cycle": "sep(a1,b1) & sep(a2,a3+b2+b3)"},
            "VII": {"index": 48172, "cycle": "sep(a1,a2+b1) & sep(a3,a4+b3+b4)"},
            "VIII": {"index": 137, "cycle": "sep(a1,b1) & sep(a2+b2,a2+a3+b3)"},
            "X": {"index": 48604, "cycle": "sep(a1,a2+b1+b2) & sep(a3,a4+b3+b4)"},
            "XI": {"index": 48629, "cycle": "sep(a1,a2+b1+b2) & sep(a3+b3,a3+a4+b4)"},
        }
        assert r["counts"]["cycles"] == 83160
        assert r["counts"]["distinct_images"] == 2310
        assert r["counts"]["cycle_rank"] == 282
        assert r["rank"] == 630
        assert r["class_coverage"]["IV"] == r["class_coverage"]["VI"] == "sp-closure"

    def test_report_deterministic(self):
        # no run metadata: the CLI times the search
        assert image_rank_report(2, 2) == image_rank_report(2, 2)


class TestClosureMachinery:
    def test_translate_linear(self):
        rng = random.Random(3)
        g = 2
        M = sf.transvection(sf.HClass(g, 0b0101))  # along a1 + b1
        for _ in range(50):
            masks1 = {m for m in (rng.randrange(16) for _ in range(3)) if m.bit_count() <= 2}
            masks2 = {m for m in (rng.randrange(16) for _ in range(3)) if m.bit_count() <= 2}
            w1 = wedge(BoolPoly(g, masks1), BoolPoly(g, masks2))
            w2 = wedge(BoolPoly(g, masks2), BoolPoly(g, masks1))
            assert wedge_translate(M, w1 + w2) == wedge_translate(M, w1) + wedge_translate(M, w2)

    def test_translate_matches_substitution(self):
        # the slot-delta action agrees with wedging the substituted factors
        from bcjcalc.boolring import substitute_sp

        rng = random.Random(4)
        g = 2
        for M in weight_le_2_transvections(g):
            for _ in range(10):
                masks1 = {m for m in (rng.randrange(16) for _ in range(2)) if m.bit_count() <= 2}
                masks2 = {m for m in (rng.randrange(16) for _ in range(2)) if m.bit_count() <= 2}
                p, q = BoolPoly(g, masks1), BoolPoly(g, masks2)
                assert wedge_translate(M, wedge(p, q)) == wedge(
                    substitute_sp(M, p), substitute_sp(M, q)
                )

    def test_saturation_idempotent(self):
        g = 2
        span, _, _, _ = _fold_stream(g, 1)
        saturate_span(g, span)
        assert saturate_span(g, span) == 0


def weight_le_2_transvections(g):
    """Transvections along every class with at most two nonzero coordinates,
    the saturation set used before the Lickorish and Humphries generators."""
    vs = [1 << k for k in range(2 * g)]
    vs += [(1 << i) | (1 << j) for i, j in combinations(range(2 * g), 2)]
    return [sf.transvection(sf.HClass(g, v)) for v in vs]


def humphries_transvections(g):
    """The transvections along a_1, a_2, b_i (i = 1..g) and a_i + a_{i+1}
    (i < g): the mod-2 images of Humphries' 2g + 1 twist generators (2 at
    genus 1), the saturation set before the handle permutations."""
    a = [1 << i for i in range(g)]
    b = [1 << (g + i) for i in range(g)]
    vs = a[:2] + b + [a[i] | a[i + 1] for i in range(g - 1)]
    return tuple(sf.transvection(sf.HClass(g, v)) for v in vs)


def handle_permutation(g, perm):
    """The matrix sending a_i to a_perm[i] and b_i to b_perm[i], handles
    numbered from 0."""
    cols = [1 << perm[i] for i in range(g)] + [1 << (g + perm[i]) for i in range(g)]
    return F2Matrix(2 * g, tuple(cols))


def handle_cycle(g):
    """P_(1 2 ... g), handle i to handle i + 1 and handle g to handle 1."""
    return handle_permutation(g, [(i + 1) % g for i in range(g)])


def handle_swap_and_cycle(g):
    """P_(12) and P_(1 2 ... g), as one matrix at genus 2, none at genus 1."""
    perms = [handle_permutation(g, [1, 0, *range(2, g)])] if g >= 2 else []
    return perms + [handle_cycle(g)] if g >= 3 else perms


def five_generators(g):
    """T_{a_1}, T_{b_1}, the handle swap, the handle cycle and T_{a_1 + a_2}:
    the closure generators before the swap was dropped (4 at genus 2, where
    the swap is the cycle, and 2 at genus 1)."""
    t = [sf.transvection(sf.HClass(g, v)) for v in (1, 1 << g, 0b11)]
    return tuple(t[:2] + handle_swap_and_cycle(g) + t[2:] if g >= 2 else t[:2])


class TestClosureGenerators:
    @pytest.mark.parametrize("g", range(1, 9))
    def test_generators_are_three_transvections_and_the_cycle(self, g):
        # the order is part of the contract: handle_invariant saturation
        # applies only the last generator to the rows it starts with
        t = [sf.transvection(sf.HClass(g, v)) for v in (1, 1 << g, 0b11)]
        want = (*t[:2], handle_cycle(g), t[2]) if g >= 2 else tuple(t[:2])
        assert closure_generators(g) == want

    @pytest.mark.parametrize("g", range(1, 9))
    def test_orbit_of_a1_is_every_nonzero_class(self, g):
        # h T_v h^-1 = T_{h v}, so an orbit of all nonzero classes puts every
        # transvection in the generated group, which is then Sp(2g, 2)
        gens = closure_generators(g)
        assert len(gens) == {1: 2}.get(g, 4)
        orbit, frontier = {1}, [1]
        while frontier:
            v = frontier.pop()
            for M in gens:
                w = M.mul_vec(v)
                if w not in orbit:
                    orbit.add(w)
                    frontier.append(w)
        assert orbit == set(range(1, 1 << (2 * g)))

    @pytest.mark.parametrize("g", range(2, 9))
    def test_cycle_conjugates_reach_every_humphries_transvection(self, g):
        # P T_v P^-1 = T_{Pv}: the powers of the cycle carry T_{a_1},
        # T_{b_1} and T_{a_1 + a_2} onto every Humphries generator
        t_a1, t_b1, P, t_a12 = closure_generators(g)
        powers = [F2Matrix.identity(2 * g)]  # P^k, k = 0..g, and P^g = I
        for _ in range(g):
            powers.append(P @ powers[-1])
        assert powers[g] == powers[0] and len(set(powers)) == g
        conjugates = {
            powers[k] @ M @ powers[g - k] for k in range(g) for M in (t_a1, t_b1, t_a12)
        }
        assert set(humphries_transvections(g)) <= conjugates

    def test_group_order_genus_2(self):
        gens = closure_generators(2)
        identity = F2Matrix.identity(4)
        group, frontier = {identity}, [identity]
        while frontier:
            X = frontier.pop()
            for M in gens:
                Y = M @ X
                if Y not in group:
                    group.add(Y)
                    frontier.append(Y)
        assert len(group) == 720  # |Sp(4, 2)|

    @pytest.mark.parametrize("g", [3, 4])
    def test_saturated_span_matches_weight_two_set(self, g, monkeypatch):
        stream, _, _, _ = _fold_stream(g, 3)
        new, old = stream.copy(), stream.copy()
        saturate_span(g, new)
        old_gens = tuple(weight_le_2_transvections(g))
        monkeypatch.setattr(wedgespan, "closure_generators", lambda genus: old_gens)
        saturate_span(g, old)
        assert new.rank > stream.rank
        assert new.row_bits() == old.row_bits()

    @pytest.mark.parametrize("ms", [1, 2, 3, 4])
    @pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
    def test_saturated_span_equals_humphries_saturation(self, g, ms, monkeypatch):
        stream, _, _, _ = _fold_stream(g, ms)
        new, old = stream.copy(), stream.copy()
        saturate_span(g, new, handle_invariant=True)
        monkeypatch.setattr(wedgespan, "closure_generators", humphries_transvections)
        saturate_span(g, old)
        assert new.rank > stream.rank
        assert new.row_bits() == old.row_bits()

    @pytest.mark.parametrize("ms", [1, 2, 3, 4])
    @pytest.mark.parametrize("g", range(2, 9))
    def test_saturated_span_equals_five_generator_saturation(self, g, ms, monkeypatch):
        # dropping the handle swap changes only the order in which pivots
        # arrive: a span's fully reduced basis is unique
        stream, _, _, _ = _fold_stream(g, ms)
        new, old = stream.copy(), stream.copy()
        saturate_span(g, new, handle_invariant=True)
        monkeypatch.setattr(wedgespan, "closure_generators", five_generators)
        saturate_span(g, old, handle_invariant=True)
        assert new.rank > stream.rank
        assert new.row_bits() == old.row_bits()

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_saturated_span_is_closed_under_every_humphries_transvection(self, g):
        # by whole images Mv of every row, through tables built from
        # substitute_sp, not through the generators' delta tables
        span, _, _, _ = _fold_stream(g, 3)
        saturate_span(g, span, handle_invariant=True)
        rows = span.row_bits()
        for M in humphries_transvections(g):
            table = ref_full_table(g, M)
            assert all(span.contains_bits(ref_apply(table, row)) for row in rows)


# -- reference oracles for the search core ------------------------------------
#
# The loops below are the search core as it was before the stream inserted
# per-block basis products and the saturation inserted (M - I)v deltas: one
# wedge per distinct image, and full action tables applied to whole vectors.
# They spell out the slot arithmetic on their own, so they share no code
# with the module beyond the object-level stream, `sigma` and `substitute_sp`.


def ref_slot_bits(offs, left, right):
    bits = 0
    for ip in left:
        for iq in right:
            if ip == iq:
                continue
            i, j = (ip, iq) if ip < iq else (iq, ip)
            bits ^= 1 << (offs[i] + j - i - 1)
    return bits


def ref_offsets(g):
    d = b2_basis(g).size
    return [i * (2 * d - i - 1) // 2 for i in range(d)]


@lru_cache(maxsize=None)
def ref_stream(g, ms):
    """(cycle label, sigma pair, image bits) of every cycle of the object-level
    stream, in order, and its distinct twists by label in order of first
    appearance; sigma is evaluated at the full genus, once per twist."""
    offs = ref_offsets(g)
    index = b2_basis(g).index_of_mask
    images = {}
    twists = {}
    out = []
    first = None
    for c in enumerate_spine_cycles(g, ms):
        if c.first is not first:
            first, sigma_first = c.first, ref_sigma(c.first)
            twists.setdefault(first.label, first)
        twists.setdefault(c.second.label, c.second)
        key = (sigma_first, ref_sigma(c.second))
        if key not in images:
            images[key] = ref_slot_bits(
                offs, [index[m] for m in key[0]], [index[m] for m in key[1]]
            )
        out.append((c.label, key, images[key]))
    return out, twists


def ref_stream_span(g, ms):
    span = SpanBasis(wedge_dim(b2_basis(g).size))
    for _, _, bits in ref_stream(g, ms)[0]:
        span.insert_bits(bits)
    return span


def ref_full_table(g, M):
    from bcjcalc.boolring import substitute_sp

    basis = b2_basis(g)
    d = basis.size
    offs = ref_offsets(g)
    mon_images = [
        [basis.index_of_mask[m] for m in substitute_sp(M, BoolPoly(g, (basis.monomial(k).mask,))).masks]
        for k in range(d)
    ]
    return [
        ref_slot_bits(offs, mon_images[i], mon_images[j])
        for i in range(d)
        for j in range(i + 1, d)
    ]


def ref_apply(table, bits):
    out = 0
    while bits:
        low = bits & -bits
        out ^= table[low.bit_length() - 1]
        bits ^= low
    return out


@lru_cache(maxsize=None)
def ref_tables(g):
    return tuple(ref_full_table(g, M) for M in closure_generators(g))


def ref_saturate(g, span):
    """Saturation by full images Mv; returns added rank."""
    tables = ref_tables(g)
    before = span.rank
    work = list(span.row_bits())
    while work:
        v = work.pop()
        for table in tables:
            img = ref_apply(table, v)
            if span.insert_bits(img):
                work.append(img)
    return span.rank - before


def handle_disjoint_mask(g):
    basis = b2_basis(g)
    d = basis.size

    def handles(k):
        return {v % g for v in range(2 * g) if (basis.monomial(k).mask >> v) & 1}

    mask = 0
    for slot in range(wedge_dim(d)):
        i, j = slot_pair(d, slot)
        if not handles(i) & handles(j):
            mask |= 1 << slot
    return mask


# The stream as it was before blocks were skipped: every block's basis
# products inserted in stream order, and every block's group pairs scanned
# for first hits, against per-class masks of the handle-disjoint slots.


def ref_class_masks(g):
    """Per class label, the mask of its handle-disjoint slots."""
    disjoint = handle_disjoint_mask(g)
    masks = {}
    for s, lab in enumerate(_slot_labels(g)):
        if lab is not None and (disjoint >> s) & 1:
            masks[lab] = masks.get(lab, 0) | 1 << s
    return masks


def ref_block_span(g, ms):
    offs = ref_offsets(g)
    sets = _support_sets(g, ms)
    data = [_descriptors_for_set(g, S) for S in sets]
    span = SpanBasis(wedge_dim(b2_basis(g).size))
    for k1, k2 in _disjoint_set_pairs(sets):
        for r1 in data[k1][2]:
            for r2 in data[k2][2]:
                bits = ref_slot_bits(offs, r1, r2)
                if bits:
                    span.insert_bits(bits)
    return span


def ref_block_hits(g, ms):
    """(first hits, pair count, distinct-image count) of the stream."""
    offs = ref_offsets(g)
    labels = _slot_labels(g)
    class_masks = ref_class_masks(g)
    unhit = sum(class_masks.values())
    sets = _support_sets(g, ms)
    data = [_descriptors_for_set(g, S) for S in sets]
    hits = {}
    n_pairs = n_distinct = 0
    for k1, k2 in _disjoint_set_pairs(sets):
        (n1, groups1, _), (n2, groups2, _) = data[k1], data[k2]
        block_base = n_pairs
        n_pairs += n1 * n2
        n_distinct += len(groups1) * len(groups2)
        if not unhit:
            continue
        for pos1, sig1 in groups1:
            for pos2, sig2 in groups2:
                if not unhit:
                    break
                b = ref_slot_bits(offs, sig1, sig2) & unhit
                while b:
                    lab = labels[(b & -b).bit_length() - 1]
                    t1, t2 = ref_set_twists(g, sets[k1])[pos1], ref_set_twists(g, sets[k2])[pos2]
                    hits[lab] = (block_base + pos1 * n2 + pos2, f"{t1.label} & {t2.label}")
                    unhit &= ~class_masks[lab]
                    b &= unhit
    return hits, n_pairs, n_distinct


@lru_cache(maxsize=None)
def ref_saturated_rows(g, rows):
    """The rows of the full-image saturation of the span of `rows`."""
    span = SpanBasis(wedge_dim(b2_basis(g).size))
    for row in rows:
        span.insert_bits(row)
    ref_saturate(g, span)
    return span.row_bits()


def single_handle_transvections(g):
    """The transvections along a_i and b_i, each acting inside handle i."""
    return [sf.transvection(sf.HClass(g, 1 << k)) for k in range(2 * g)]


STREAM_SPANS = [(g, ms) for g in (2, 3, 4, 5) for ms in (1, 2, 3, 4)]


class TestHandleInvariantSaturation:
    @pytest.mark.parametrize("g,ms", STREAM_SPANS)
    def test_stream_span_is_single_handle_invariant(self, g, ms):
        # the lemma behind handle_invariant, checked row by row: (M - I)v
        # lies in the stream span for every single-handle M and for the
        # handle swap and cycle
        span, _, _, _ = _fold_stream(g, ms)
        rows = span.row_bits()
        for M in single_handle_transvections(g) + handle_swap_and_cycle(g):
            table = ref_full_table(g, M)
            assert all(span.contains_bits(ref_apply(table, v) ^ v) for v in rows)

    @pytest.mark.parametrize("g,ms", STREAM_SPANS)
    def test_handle_invariant_equals_full_image_saturation(self, g, ms):
        span, _, _, _ = _fold_stream(g, ms)
        start = span.rank
        want = ref_saturated_rows(g, span.row_bits())
        assert saturate_span(g, span, handle_invariant=True) == len(want) - start
        assert span.row_bits() == want

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_unit_slot_spans_take_the_default_path(self, data):
        g = data.draw(st.sampled_from([2, 3]))
        n = wedge_dim(b2_basis(g).size)
        slots = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
        new, old = SpanBasis(n), SpanBasis(n)
        for s in slots:
            new.insert_bits(1 << s)
            old.insert_bits(1 << s)
        assert saturate_span(g, new) == ref_saturate(g, old)
        assert new.row_bits() == old.row_bits()

    def test_skipping_is_unsound_for_other_spans(self):
        # a single unit slot spans no single-handle invariant subspace in
        # general, so only the stream span may skip those generators
        g = 2
        n = wedge_dim(b2_basis(g).size)
        differ = 0
        for s in range(n):
            full, skipped = SpanBasis(n), SpanBasis(n)
            full.insert_bits(1 << s)
            skipped.insert_bits(1 << s)
            saturate_span(g, full)
            saturate_span(g, skipped, handle_invariant=True)
            differ += full.row_bits() != skipped.row_bits()
        assert differ > 0


class TestSearchCoreReference:
    @pytest.mark.parametrize("g,ms", [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3)])
    def test_block_basis_span_equals_per_image_span(self, g, ms):
        span, _, n_pairs, n_distinct = _fold_stream(g, ms)
        oracle = ref_stream_span(g, ms)
        assert span.row_bits() == oracle.row_bits()
        cycles, _ = ref_stream(g, ms)
        assert n_pairs == len(cycles)
        # the closed-form count against the whole-stream key set
        assert n_distinct == len({frozenset(key) for _, key, _ in cycles})

    @pytest.mark.parametrize("g,ms", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2), (4, 3)])
    def test_early_stop_hits_equal_full_stream_scan(self, g, ms):
        labels = _slot_labels(g)
        classes_of = {}
        want = {}
        for idx, (label, _, bits) in enumerate(ref_stream(g, ms)[0]):
            if bits not in classes_of:
                classes_of[bits] = {
                    labels[s] for s in range(len(labels)) if (bits >> s) & 1
                } - {None}
            for lab in classes_of[bits]:
                want.setdefault(lab, (idx, label))
        _, hits, _, _ = _fold_stream(g, ms)
        assert hits == want

    @pytest.mark.parametrize("g", [3, 4])
    def test_stream_images_lie_in_handle_disjoint_slots(self, g):
        outside = ~handle_disjoint_mask(g)
        images = {bits for _, _, bits in ref_stream(g, 3)[0]}
        assert len(images) > 1
        assert all(bits & outside == 0 for bits in images)

    @pytest.mark.parametrize("ms", [1, 2, 3, 4])
    @pytest.mark.parametrize("g", [2, 3, 4, 5, 6, 7, 8])
    def test_stream_equals_all_blocks_oracle(self, g, ms):
        # covers the block shapes (2, 3), (3, 3) and (., 4), which the
        # object-level stream above reaches only at g > 4, and the spans
        # carried from genus 4 at every --max-support
        span, hits, n_pairs, n_distinct = _fold_stream(g, ms)
        assert span.row_bits() == ref_block_span(g, ms).row_bits()
        if (g, ms) != (8, 4):  # the hits oracle alone takes about 11 s there
            assert (hits, n_pairs, n_distinct) == ref_block_hits(g, ms)

    @pytest.mark.parametrize("g", [9, 10])
    def test_closed_form_hits_equal_the_walk_above_genus_eight(self, g):
        # the first-block stream index against the running index of the walk,
        # at genera where the (2, 2) hits come after thousands of blocks
        assert _fold_stream(g, 3)[1:] == ref_block_hits(g, 3)

    def test_stream_enumerates_support_sets_at_genus_four_at_most(self, monkeypatch):
        # counts and first hits come from the block shapes in closed form;
        # only the genus-h span walks support sets
        support_sets = wedgespan._support_sets

        def sets_to_four(genus, max_support):
            assert genus <= 4, f"_support_sets({genus}, {max_support})"
            return support_sets(genus, max_support)

        monkeypatch.setattr(wedgespan, "_support_sets", sets_to_four)
        for g in (5, 8, 16):
            _fold_stream(g, 3)

    @pytest.mark.parametrize("ms", [1, 2, 3, 4])
    @pytest.mark.parametrize("g", range(1, 11))
    def test_closed_form_counts_equal_the_full_walk(self, g, ms):
        # every pair of disjoint support sets, each adding its templates'
        # spine and sigma-group products
        n_pairs = n_distinct = 0
        for S1, S2 in combinations(_support_sets(g, ms), 2):
            if not set(S1) & set(S2):
                (n1, groups1, _), (n2, groups2, _) = map(wedgespan._template, (len(S1), len(S2)))
                n_pairs += n1 * n2
                n_distinct += len(groups1) * len(groups2)
        assert _fold_stream(g, ms)[2:] == (n_pairs, n_distinct)

    @pytest.mark.parametrize("ms", [2, 3, 4])
    @pytest.mark.parametrize("g", [4, 5, 6, 7, 8])
    def test_stream_mask_is_the_handle_disjoint_slots(self, g, ms):
        span, _, _, _ = _fold_stream(g, ms)
        disjoint = handle_disjoint_mask(g)
        assert span.units == disjoint
        assert span.rank == disjoint.bit_count()

    @pytest.mark.parametrize("ms", [3, 4])
    def test_a_genus_4_mask_short_of_d4_raises(self, ms, monkeypatch):
        # D_4 less the constant's slots: the genus-4 stream span no longer
        # matches it, so carrying that span to genus 5 is not known complete
        basis = b2_basis(4)
        const = basis.index_of_mask[0]
        without_const = handle_disjoint_mask(4) & ~sum(
            1 << pair_index(basis.size, *sorted((const, k)))
            for k in range(basis.size)
            if k != const
        )
        monkeypatch.setattr(wedgespan, "_disjoint_slots", lambda genus: without_const)
        with pytest.raises(RuntimeError, match="D_4"):
            _fold_stream(5, ms)
        # genus 4 itself carries nothing, and --max-support 2 needs no D_4
        assert _fold_stream(4, ms)[0].units == handle_disjoint_mask(4)
        assert _fold_stream(5, 2)[0].units == handle_disjoint_mask(5)

    @pytest.mark.parametrize("g", [3, 4, 5])
    def test_a_genus_h_span_with_a_non_unit_row_raises(self, g, monkeypatch):
        # the 2-handle template cut to its first basis row: the block loop's
        # span is then no unit span, and there is no mask to carry
        real = wedgespan._template

        def first_row_only(s):
            n, groups, basis = real(s)
            return (n, groups, basis[:1]) if s == 2 else (n, groups, basis)

        monkeypatch.setattr(wedgespan, "_template", first_row_only)
        with pytest.raises(RuntimeError, match="not a unit row"):
            _fold_stream(g, 2)

    @pytest.mark.parametrize("g", [4, 5, 6])
    def test_hits_are_the_classes_of_handle_disjoint_slots(self, g):
        _, hits, _, _ = _fold_stream(g, 3)
        assert set(hits) == set(ref_class_masks(g))
        assert "IV" not in hits and "VI" not in hits

    @pytest.mark.parametrize("g", [5, 6, 7])
    def test_no_insert_bits_builds_the_stream_span_above_genus_4(self, g, monkeypatch):
        # the block loop runs at genus 4; genus g gets its unit slots at once
        real = SpanBasis.insert_bits
        spans = []

        def recording(self, bits):
            spans.append(self)
            return real(self, bits)

        monkeypatch.setattr(SpanBasis, "insert_bits", recording)
        span, _, _, _ = _fold_stream(g, 3)
        assert spans and all(s is not span for s in spans)
        assert {s.length for s in spans} <= {wedge_dim(b2_basis(4).size)} | {
            1 << (2 * s) for s in (1, 2, 3)  # template spans, if not yet cached
        }
        assert span.rank == span.units.bit_count() == handle_disjoint_mask(g).bit_count()

    def test_covered_blocks_and_hit_scan_stay_small(self, monkeypatch):
        # every block's products and group pairs took 135,752 calls at g = 7
        real = wedgespan._slot_bits
        calls = []

        def counting(offs, left, right):
            calls.append(1)
            return real(offs, left, right)

        monkeypatch.setattr(wedgespan, "_slot_bits", counting)
        _fold_stream(7, 3)
        assert len(calls) < 30_000

    def test_only_first_blocks_relabel_sigma_groups(self):
        # relabelling the groups of all 98 support sets held 42 MB here
        for s in (1, 2, 3, 4):
            wedgespan._template(s)
        tracemalloc.start()
        try:
            _fold_stream(7, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_delta_saturation_equals_full_image_saturation(self, g):
        start, _, _, _ = _fold_stream(g, 3)
        new, old = start.copy(), start.copy()
        assert saturate_span(g, new) == ref_saturate(g, old)
        assert new.row_bits() == old.row_bits()

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_saturated_span_is_closed_under_full_tables(self, g):
        # checks closure directly, by whole images Mv of every row, rather
        # than by comparing two saturation loops
        span, _, _, _ = _fold_stream(g, 3)
        saturate_span(g, span)
        rows = span.row_bits()
        for M in closure_generators(g):
            table = ref_full_table(g, M)
            assert all(span.contains_bits(ref_apply(table, row)) for row in rows)

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_delta_table_matches_full_table(self, g):
        # the per-slot delta of every unit slot, under every generator and
        # products of generators, which are not transvections
        gens = closure_generators(g)
        products = [gens[0] @ gens[1], gens[1] @ gens[0], gens[-1] @ gens[1] @ gens[-2]]
        for M in gens + tuple(products):
            images, moved = _wedge_action_table(g, M)
            full = ref_full_table(g, M)
            for slot, image in enumerate(full):
                unit = WedgeElem(g, 1 << slot)
                assert wedge_translate(M, unit).bits == image
                i, j = slot_pair(len(images), slot)
                if not (moved >> i) & 1 and not (moved >> j) & 1:
                    assert image == 1 << slot
            for k, image in enumerate(images):
                assert ((moved >> k) & 1) == (image != (k,))

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_hypothesis_translate_matches_full_table(self, data):
        g = data.draw(st.sampled_from([2, 3]))
        n = wedge_dim(b2_basis(g).size)
        rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
        M = sf.random_sp_word(g, rng)
        v = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
        w = WedgeElem(g, v)
        assert wedge_translate(M, w).bits == ref_apply(ref_full_table(g, M), v)

    def test_action_table_rejects_non_symplectic_matrix(self):
        g = 2
        M = F2Matrix(2 * g, (0b0011, 0b0010, 0b0100, 0b1000))  # a1 -> a1 + a2
        with pytest.raises(MatrixError):
            _wedge_action_table(g, M)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_hypothesis_delta_saturation_on_random_spans(self, data):
        g = data.draw(st.sampled_from([2, 3]))
        n = wedge_dim(b2_basis(g).size)
        vectors = data.draw(
            st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), min_size=1, max_size=3)
        )
        new, old = SpanBasis(n), SpanBasis(n)
        for v in vectors:
            new.insert_bits(v)
            old.insert_bits(v)
        assert saturate_span(g, new) == ref_saturate(g, old)
        assert new.row_bits() == old.row_bits()


# -- the search's per-slot passes ---------------------------------------------


def ref_carry_slots(units, h, genus):
    """`_carry_slots` as it was first written: every slot through the checked
    `pair_index` of its sorted basis-index pair."""
    d_h, d = b2_basis(h).size, b2_basis(genus).size
    slots = []
    for k in range(h, 0, -1):
        up = _basis_map(h, _handle_map(h, range(1, k + 1)))
        hb = [sf.handle_bits(k, m.mask) for m in b2_basis(k).monomials]
        on_all = [(i, j) for i, j in combinations(range(len(hb)), 2)
                  if hb[i] | hb[j] == (1 << k) - 1]
        pattern = [
            (i, j) for i, j in on_all if units >> pair_index(d_h, *sorted((up[i], up[j]))) & 1
        ]
        for handles in combinations(range(genus, 0, -1), k):
            to = _basis_map(genus, _handle_map(genus, handles[::-1]))
            slots.extend(pair_index(d, *sorted((to[i], to[j]))) for i, j in pattern)
    return slots


def ref_handle_invariant_saturate(g, span):
    """`saturate_span(handle_invariant=True)` by full images Mv: each
    starting row under T_{a_1 + a_2}, the fixed unit rows too, and each
    later row under every generator, in insertion order."""
    tables = ref_tables(g)
    order = span.insertion_order
    before = span.rank
    i = 0
    while i < len(order):
        v = span.pivot_row(order[i])
        for table in tables[-1:] if i < before else tables:
            delta = ref_apply(table, v) ^ v
            if delta:
                span.insert_bits(delta)
        i += 1
    return span.rank - before


class TestSlotPasses:
    @pytest.mark.parametrize("closure", [True, False])
    @pytest.mark.parametrize("ms", [1, 2, 3])
    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_missing_equals_per_slot_membership(self, g, ms, closure):
        # the report reads coverage off the unit mask; the oracle asks the
        # span about every labelled slot, with labels from the full table
        span, _, _, _ = _fold_stream(g, ms)
        if closure:
            saturate_span(g, span, handle_invariant=True)
        labels = _slot_labels(g)
        want = [
            {"slot": s, "element": render_slot(g, s), "class": lab}
            for s, lab in enumerate(labels)
            if lab is not None and not span.contains_bits(1 << s)
        ]
        assert image_rank_report(g, ms, sp_closure=closure)["missing"] == want

    @pytest.mark.parametrize("g,ms,closure", [(5, 3, True), (6, 2, False), (7, 1, True)])
    def test_search_builds_no_slot_table_and_asks_no_membership(self, g, ms, closure, monkeypatch):
        slot_labels = wedgespan._slot_labels

        def labels_to_four(genus):
            assert genus <= 4, f"_slot_labels({genus})"
            return slot_labels(genus)

        def refuse(self, bits):
            raise AssertionError("contains_bits on the search path")

        monkeypatch.setattr(wedgespan, "_slot_labels", labels_to_four)
        monkeypatch.setattr(SpanBasis, "contains_bits", refuse)
        report = image_rank_report(g, ms, sp_closure=closure)
        assert report["coverage_complete"] == (not report["missing"])

    @pytest.mark.parametrize("ms", [1, 2, 3, 4])
    @pytest.mark.parametrize("g", [2, 4, 5, 6, 9])
    def test_carry_slots_equal_checked_pair_index(self, g, ms):
        h = min(g, 4)
        units = _fold_stream(h, ms)[0].units
        assert wedgespan._carry_slots(units, h, g) == ref_carry_slots(units, h, g)

    @pytest.mark.parametrize("ms", [1, 2, 3, 4])
    @pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
    def test_skipping_fixed_start_rows_keeps_the_inserts(self, g, ms):
        # same inserts in the same order: the pivots' insertion order, which
        # sets saturation's transient rows, and the rows themselves
        new, _, _, _ = _fold_stream(g, ms)
        old = new.copy()
        added = saturate_span(g, new, handle_invariant=True)
        assert added == ref_handle_invariant_saturate(g, old)
        assert new.insertion_order == old.insertion_order
        assert new.row_bits() == old.row_bits()

    def test_fixed_start_rows_cost_no_slot_bits(self, monkeypatch):
        # at g = 5 T_{a_1 + a_2} fixes both monomials of 319 of the 745
        # stream slots; a span of only those, as starting rows, gets no
        # delta computed and gains nothing
        from bcjcalc.boolring import substitute_sp

        g = 5
        basis = b2_basis(g)
        M = closure_generators(g)[-1]
        fixed = [
            substitute_sp(M, BoolPoly(g, (m.mask,))).masks == {m.mask} for m in basis.monomials
        ]
        stream, _, _, _ = _fold_stream(g, 3)
        slots = [q for q in stream.insertion_order if all(fixed[k] for k in slot_pair(basis.size, q))]
        assert (stream.rank, len(slots)) == (745, 319)
        span = SpanBasis(stream.length)
        span.insert_units(slots)
        calls = []
        slot_bits = wedgespan._slot_bits

        def counting(*args):
            calls.append(args)
            return slot_bits(*args)

        monkeypatch.setattr(wedgespan, "_slot_bits", counting)
        assert saturate_span(g, span, handle_invariant=True) == 0
        assert calls == []


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 7])
def test_basis_map_equals_mask_lookup(g):
    # the arithmetic map against renaming each basis monomial's mask and
    # looking it up, for handle maps and for random partner-preserving maps
    rng = random.Random(g)
    maps = [_handle_map(g, S) for S in _support_sets(g, min(g, 3))]
    for _ in range(10):
        k = rng.randint(1, g)
        handles, swaps = rng.sample(range(g), k), [rng.random() < 0.5 for _ in range(k)]
        maps.append(tuple(h + g * sw for h, sw in zip(handles, swaps))
                    + tuple(h + g * (not sw) for h, sw in zip(handles, swaps)))
    index = b2_basis(g).index_of_mask
    for var_map in maps:
        want = [index[sum(1 << var_map[v] for v in bit_indices(m.mask))]
                for m in b2_basis(len(var_map) // 2).monomials]
        assert _basis_map(g, var_map) == want
