"""Wedge square of the degree-<=2 piece and the abelian-cycle image search.

A commuting pair of twists f, g maps to sigma(f) ^ sigma(g) in the wedge
square; commutation is certified by machine-checked handle-support
disjointness.  The search folds the images of all enumerated cycles into a
GF(2) span and reports which non-index-matched basis elements (the subspace
W) are still missing.

The wedge is bilinear over GF(2), so the images of one block of the stream
(every descriptor on one support set against every descriptor on a disjoint
one) span exactly the products b ^ c of a basis b of the first set's sigma
values with a basis c of the second's.  The search walks the blocks largest
sets first and inserts only the basis products with a slot outside the
span's unit rows, skipping every block whose slots are all such.  It counts
distinct images per block; images themselves are computed, by distinct
sigma pair, only in the first block of each shape (|S1|, |S2|) and only for
each class's first hit.

A set's sigma data comes from one template per support size s, computed
once at genus s from the spines on s handles: their count, the position and
value of each distinct sigma, and a basis of their span, in basis indices.
Every relabelling is one map of variables, injective and sending partners
to partners; such a map commutes with sigma (sigma(sep(x, y)) = x-bar y-bar,
and it keeps bar's constant, the count of handles on which a class has both
coordinates, `surface.paired_handles`), so every set's data is its template
carried through `_basis_map`.  A template evaluates sigma once per plane
{x, y, x+y}, not once per spine: sigma of a separating twist does not depend
on the choice of symplectic basis, so the 6 ordered bases of a plane share
one value, and the 1,788 spines on 1..3 handles cost 298 calls.  A
template calls sigma's kernel `sigma_masks` on the packed spine at genus s,
so twists with their handle maps and `sep(x,y)` labels (`_twist`) are built
for the per-class first hits only.

Support-disjoint cycles alone cannot span W: each of their image slots pairs
two monomials on disjoint handle sets, so the slots whose monomials share a
handle (orbit classes IV and VI) are unreachable by construction.  The
first-hit scan therefore waits only for the classes on the support of the
raw span, which are exactly the classes the stream hits, and stops computing
images once all of them are hit.  The image of the
induced map is however closed under the symplectic action - acting on a
cycle's curves by a mapping class yields another commuting pair whose image
is the matrix translate of the original - so the search saturates its span
under substitution by the 2g + 1 transvections of `closure_generators`.
Every vector added this way is the image of a conjugated cycle, or a sum of
such images; soundness rests on the equivariance of the twist formulas,
which its own test suite verifies.  For v already in the span, Mv is in the
span iff (M - I)v is, so saturation inserts that delta.  It is sparse, and
it is computed bit by bit from M's monomial images: slot (i, j) moves only
if M moves monomial i or j, and then its delta is the slot bits of Mi ^ Mj
less the slot itself.  No table of slot deltas is stored.

Wedge coordinates use the triangular flattening of unordered pairs (i < j)
of basis indices: slot(i, j) = i(2d - i - 1)/2 + (j - i - 1), with d the
basis size.  All persisted reports reference these slot numbers, so the
flattening is frozen.

Only genus-1 spines feed the enumeration; that the saturated span covers W
is an empirical finding re-established per genus by the searches themselves.
Bounding pairs cannot feed it: for a genus-1 basis (x, y) and a class C != 0
orthogonal to both, C lies outside span(x, y), so the affine forms x-bar,
y-bar, C-bar have independent linear parts and sigma_bp = x-bar y-bar C-bar
+ x-bar y-bar has degree exactly 3, with no wedge image.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from functools import lru_cache
from itertools import combinations
from math import comb
from time import perf_counter

from .bcjmap import Descriptor, SeparatingTwist, is_index_matched, sigma, sigma_masks
from .boolring import (
    BoolMonomial,
    BoolPoly,
    b2_basis,
    monomial_image,
    require_degree,
    sp_variable_images,
)
from .errors import DisjointnessError, FiltrationError, GenusMismatchError
from .gf2core import SpanBasis, bit_indices
from .surface import (
    HClass,
    SubsurfaceBasis,
    check_genus,
    handle_bits,
    paired_handles,
    transvection,
)
from .value import Value


ROMAN = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X", "XI")
CENSUS_GENUS = 4  # every label's slots use at most 4 handles


def wedge_dim(d: int) -> int:
    return d * (d - 1) // 2


@lru_cache(maxsize=None)
def _row_offsets(d: int) -> tuple[int, ...]:
    """Slot of the pair (i, i + 1), per i: the frozen flattening's offsets."""
    return tuple(i * (2 * d - i - 1) // 2 for i in range(d))


def pair_index(d: int, i: int, j: int) -> int:
    """Slot of the unordered pair (i < j) in the triangular flattening."""
    if not 0 <= i < j < d:
        raise ValueError(f"bad pair ({i},{j}) for basis size {d}")
    return _row_offsets(d)[i] + j - i - 1


@lru_cache(maxsize=None)
def _slot_pairs(d: int) -> tuple[tuple[int, int], ...]:
    """The pair (i < j) of each slot, in slot order."""
    return tuple(combinations(range(d), 2))


def slot_pair(d: int, slot: int) -> tuple[int, int]:
    return _slot_pairs(d)[slot]


class WedgeElem(Value):
    """Element of the wedge square: bit s of `bits` is the coefficient of
    wedge slot s (see `slot_pair`)."""

    __slots__ = ("genus", "bits")

    def __init__(self, genus: int, bits: int):
        n = wedge_dim(b2_basis(genus).size)
        if not 0 <= bits < 1 << n:
            raise GenusMismatchError(
                f"wedge vector does not fit the {n} slots of genus {genus}"
            )
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "bits", bits)

    def __add__(self, other: "WedgeElem") -> "WedgeElem":
        if self.genus != other.genus:
            raise GenusMismatchError("cannot add wedge elements across genera")
        return WedgeElem(self.genus, self.bits ^ other.bits)

    def __bool__(self) -> bool:
        return self.bits != 0

    def slots(self) -> tuple[int, ...]:
        return bit_indices(self.bits)

    def __str__(self) -> str:
        if not self.bits:
            return "0"
        return " + ".join(
            render_slot(self.genus, s) for s in self.slots()
        )


def render_slot(genus: int, slot: int) -> str:
    basis = b2_basis(genus)
    i, j = slot_pair(basis.size, slot)
    return f"{basis.monomial(i)} ^ {basis.monomial(j)}"


def wedge(p: BoolPoly, q: BoolPoly) -> WedgeElem:
    """Bilinear alternating product of two degree-<=2 polynomials."""
    if p.genus != q.genus:
        raise GenusMismatchError("wedge factors have different genus")
    require_degree(p, 2)
    require_degree(q, 2)
    basis = b2_basis(p.genus)
    d = basis.size
    index = basis.index_of_mask
    bits = _slot_bits(
        _row_offsets(d), [index[m] for m in p.masks], [index[m] for m in q.masks]
    )
    return WedgeElem(p.genus, bits)


def _slot_bits(offs: Sequence[int], left: Sequence[int], right: Sequence[int]) -> int:
    """Slot bits of (sum of basis elements `left`) ^ (sum of `right`).

    The one path from basis-index pairs to wedge slots: `wedge`, the search
    stream and the symplectic action's slot deltas all go through it.  e_i ^ e_i vanishes and
    e_i ^ e_j = e_j ^ e_i over GF(2), so repeated pairs cancel.
    """
    bits = 0
    for i in left:
        for j in right:
            if i < j:
                bits ^= 1 << (offs[i] + j - i - 1)
            elif j < i:
                bits ^= 1 << (offs[j] + i - j - 1)
    return bits


def _block_bits(
    offs: Sequence[int], left: tuple[Sequence[int], int], right: tuple[Sequence[int], int]
) -> int:
    """`_slot_bits` of two sets of basis indices, each given as (indices,
    mask), by one shift per index rather than one step per pair: for i in
    `left`, the slots (i, j) with j > i in `right` are the bits of
    right's mask >> (i + 1), moved to row i's offset; the slots (j, i) with
    j in `right` and i > j come the same way from left's mask."""
    (lidx, lmask), (ridx, rmask) = left, right
    bits = 0
    for i in lidx:
        bits ^= (rmask >> (i + 1)) << offs[i]
    for j in ridx:
        bits ^= (lmask >> (j + 1)) << offs[j]
    return bits


# -- abelian cycles -----------------------------------------------------------


class AbelianCycle(Value):
    """Two curve descriptors whose twists commute because their handle
    supports are disjoint."""

    __slots__ = ("first", "second", "label")

    def __init__(self, first: Descriptor, second: Descriptor, label: str = ""):
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)
        object.__setattr__(self, "label", label)

    @property
    def genus(self) -> int:
        return self.first.genus

    def validate_certificate(self) -> None:
        if self.first.genus != self.second.genus:
            raise GenusMismatchError("cycle descriptors have different genus")
        overlap = self.first.support() & self.second.support()
        if overlap:
            raise DisjointnessError(f"descriptors share handles {sorted(overlap)}")


def cycle_image(c: AbelianCycle) -> WedgeElem:
    """sigma(first) ^ sigma(second); both factors must have degree <= 2."""
    c.validate_certificate()
    p, q = sigma(c.first), sigma(c.second)
    if p.degree() > 2 or q.degree() > 2:
        raise FiltrationError(
            "a degree-3 sigma value (bounding-pair factor) has no wedge image"
        )
    return wedge(p, q)


# -- spine and cycle enumeration ---------------------------------------------


@lru_cache(maxsize=None)
def _local_spines(s: int) -> tuple[tuple[int, int], ...]:
    """Ordered pairs (x, y) on s handles, x.y = 1, using all s handles.

    Local packing: bits 0..s-1 are a-coordinates, bits s..2s-1 are
    b-coordinates.  The two tests are `pairing` and `handle_bits`, inline.
    """
    full, n = (1 << s) - 1, 1 << (2 * s)
    return tuple(
        (x, y)
        for x in range(n)
        for y in range(n)
        if ((x & (y >> s)) ^ (y & (x >> s))).bit_count() & 1
        and ((x | y) & full) | ((x | y) >> s) == full
    )


def _handle_map(genus: int, handles: Sequence[int]) -> tuple[int, ...]:
    """The variable map taking handle k + 1 onto handle handles[k] at `genus`:
    entry v is the image of variable v at genus len(handles)."""
    return tuple(h - 1 for h in handles) + tuple(genus + h - 1 for h in handles)


def _map_bits(var_map: Sequence[int], bits: int) -> int:
    """A packed class or monomial (one packing) with its variables renamed."""
    return sum(1 << var_map[v] for v in bit_indices(bits))


def _basis_map(genus: int, var_map: Sequence[int]) -> list[int]:
    """The basis index at `genus` of the image of each degree-<=2 basis index
    at genus len(var_map) // 2, under an injective, partner-preserving
    variable map; slot images follow through `pair_index`."""
    index = b2_basis(genus).index_of_mask
    return [index[_map_bits(var_map, m.mask)] for m in b2_basis(len(var_map) // 2).monomials]


def _twist(genus: int, handles: tuple[int, ...], pos: int) -> SeparatingTwist:
    """The separating twist of local spine `pos` relabelled onto `handles`."""
    var_map = _handle_map(genus, handles)
    x, y = (HClass(genus, _map_bits(var_map, v)) for v in _local_spines(len(handles))[pos])
    return SeparatingTwist(SubsurfaceBasis(genus, ((x, y),)), label=f"sep({x},{y})")


@lru_cache(maxsize=None)
def _template(s: int) -> tuple[int, tuple, tuple]:
    """The sigma data of the spines on s handles, computed once at genus s.

    Returns the spine count, the (position, sigma basis indices) of the
    first spine of each distinct sigma value in order of first appearance,
    and a basis of their span, rows given by basis indices at genus s.

    sigma(sep(x, y)) depends only on the plane {x, y, x+y}: it does not
    depend on the choice of symplectic basis, and the 6 ordered bases of one
    plane are all spines.  So sigma is evaluated only on the first spine of
    each plane, in position order, which is the first spine of its value.
    Spines are ordered by x, then y, so a plane's first spine is the one
    with x < y < x+y.  sigma is `sigma_separating`'s kernel `sigma_masks` on
    the packed spine, with no separate validation: x.y = 1, the spine filter,
    is all that `symplectic_violation` checks for a one-pair basis.
    """
    spines = _local_spines(s)
    first: dict[frozenset[int], int] = {}
    for pos, (x, y) in enumerate(spines):
        if x < y < x ^ y:
            first.setdefault(sigma_masks(s, ((x, y),)), pos)
    # bit m is the monomial of mask m, not basis index m: the echelon basis,
    # and so which products the stream inserts, depends on the bit order
    span = SpanBasis(1 << (2 * s))
    for masks in first:
        span.insert_bits(sum(1 << m for m in masks))
    index = b2_basis(s).index_of_mask
    groups = tuple((pos, tuple(index[m] for m in masks)) for masks, pos in first.items())
    basis = tuple(tuple(index[m] for m in bit_indices(row)) for row in span.row_bits())
    return len(spines), groups, basis


def _relabel(genus: int, handles: tuple[int, ...], rows: Sequence) -> list[list[int]]:
    """Rows of basis indices at genus len(handles), relabelled onto `handles`."""
    to = _basis_map(genus, _handle_map(genus, handles))
    return [[to[i] for i in row] for row in rows]


def _descriptors_for_set(genus: int, handles: tuple[int, ...]) -> tuple[int, list, list]:
    """The template of size len(handles) relabelled onto `handles`: the
    spine count, the (position, sigma basis indices) of each distinct sigma
    value and a basis of their span, rows given by basis indices.

    Relabelling handles commutes with sigma, so the relabelled values are
    the sigma values of the relabelled spines, still distinct, and a basis
    stays a basis.
    """
    n, groups, basis = _template(len(handles))
    sigmas = _relabel(genus, handles, [sig for _, sig in groups])
    return n, list(zip([pos for pos, _ in groups], sigmas)), _relabel(genus, handles, basis)


def _support_sets(genus: int, max_support: int) -> list[tuple[int, ...]]:
    sets = []
    for size in range(1, min(max_support, genus) + 1):
        sets.extend(combinations(range(1, genus + 1), size))
    sets.sort(key=lambda S: (len(S), S))
    return sets


def _disjoint_set_pairs(sets: Sequence[tuple[int, ...]]) -> Iterator[tuple[int, int]]:
    """Positions (k1 < k2) of each pair of disjoint support sets, in stream
    order.  Only pairs of distinct sets are combined, so the swap-symmetric
    duplicate never appears."""
    for k1, S1 in enumerate(sets):
        for k2 in range(k1 + 1, len(sets)):
            if not set(S1) & set(sets[k2]):
                yield k1, k2


# -- dimension bookkeeping ----------------------------------------------------


def cubic_type_count(genus: int) -> int:
    """Count of matched pairs {a_i x, b_i y} with x, y quadratic partners of
    pairwise distinct index; the only source of cubic growth in dim IM."""
    return genus * (2 * genus - 2) * (2 * genus - 3)


def dims(genus: int) -> dict:
    """Exact dimension table at one genus, from the genus-4 census: dim W
    is the sum of the label sizes c_L * C(g, k_L) (`_class_sizes`), and the
    index-matched rest of the C(d, 2) slots is dim IM."""
    g = check_genus(genus)
    d = b2_basis(g).size
    total = wedge_dim(d)
    dim_w = sum(_class_sizes(g).values())
    dim_im = total - dim_w
    return {
        "g": g,
        "d": d,
        "dim_wedge": total,
        "dim_im": dim_im,
        "dim_w": dim_w,
        "cubic_type": cubic_type_count(g),
        "cubic_residual": dim_im - cubic_type_count(g),
    }


# -- orbit classification -----------------------------------------------------


def classify_pair(m1: BoolMonomial, m2: BoolMonomial) -> str | None:
    """Structural class I..XI of a wedge basis pair; None if index-matched.

    The classes are the equivalence classes of non-matched basis pairs under
    handle swaps (a_i <-> b_i) and handle transpositions, distinguished by
    the index pattern of the two monomials (`_pair_label`).
    """
    if is_index_matched(m1, m2):
        return None
    g = m1.genus
    return _pair_label(g, _monomial_facts(g, m1.mask), _monomial_facts(g, m2.mask))


def _monomial_facts(g: int, mask: int) -> tuple[int, int, int, bool]:
    """(mask, degree, handle bits, diagonal: some a_i b_i divides it) of a monomial."""
    return mask, mask.bit_count(), handle_bits(g, mask), paired_handles(g, mask) != 0


def _pair_label(g: int, x: tuple, y: tuple) -> str | None:
    """The class of the slot of two distinct degree-<=2 monomials given by their
    `_monomial_facts`, or None if index-matched: the one labeller, on masks."""
    if (x[0] & (y[0] >> g)) | (y[0] & (x[0] >> g)):
        return None
    if x[1] < y[1]:
        x, y = y, x
    (_, dx, hx, diag_x), (_, dy, hy, diag_y) = x, y
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
    return "X" if dy else "XI"  # (1, 1) or (1, 0): the monomials are distinct


@lru_cache(maxsize=None)
def _slot_labels(genus: int) -> tuple[str | None, ...]:
    """Class label per wedge slot; None marks index-matched slots."""
    facts = [_monomial_facts(genus, m.mask) for m in b2_basis(genus).monomials]
    return tuple(_pair_label(genus, facts[i], facts[j]) for i, j in _slot_pairs(len(facts)))


@lru_cache(maxsize=None)
def _census() -> dict[str, tuple[int, int]]:
    """(k_L, c_L) per label L, read off the slots at genus 4: the slots of L
    use exactly k_L handles, and any k_L handles carry c_L of them (its count
    at genus 4 over C(4, k_L)), since relabelling keeps a slot's label."""
    g = CENSUS_GENUS
    mons = b2_basis(g).monomials
    census: dict[str, list[int]] = {}  # label -> [k_L, count at genus 4]
    for (i, j), lab in zip(_slot_pairs(len(mons)), _slot_labels(g)):
        if lab is not None:
            k = handle_bits(g, mons[i].mask | mons[j].mask).bit_count()
            census.setdefault(lab, [k, 0])[1] += 1
    return {lab: (k, n // comb(g, k)) for lab, (k, n) in census.items()}


def _class_sizes(genus: int) -> dict[str, int]:
    """Slot count c_L * C(g, k_L) of each label at genus g; 0 for k_L > g."""
    return {lab: c * comb(genus, k) for lab, (k, c) in _census().items()}


class OrbitReport(Value):
    """The orbit classes of the non-index-matched wedge basis under handle
    swaps and transpositions: per label, its slot count (`classes`) and its
    first slot, rendered (`representatives`); and any partition errors."""

    __slots__ = ("genus", "classes", "representatives", "errors")

    def __init__(self, genus: int, classes: dict, representatives: dict, errors: list):
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "representatives", representatives)
        object.__setattr__(self, "errors", errors)

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def orbit_classes(genus: int) -> OrbitReport:
    """Connected components of the non-matched wedge basis under handle
    swaps and transpositions, labelled by their index pattern.

    Slots are joined at genus min(g, 4) only, under generator maps carried
    onto slots by `_basis_map`: that gives the components, representatives
    and errors.  Sizes are the census's c_L * C(g, k_L) (`_class_sizes`);
    the README's "`dims` and `orbits` at the largest genus" shows why each
    label is one class at every genus, with genus 4's first slot.
    """
    g = check_genus(genus)
    h = min(g, CENSUS_GENUS)
    d = b2_basis(h).size
    labels = _slot_labels(h)
    nslots = wedge_dim(d)

    parent = list(range(nslots))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    # a_1 <-> b_1 and the adjacent transpositions generate all swaps and transpositions (B_h)
    swap = tuple((v + h) % (2 * h) if v % h == 0 else v for v in range(2 * h))
    transpositions = [
        _handle_map(h, [i + 1 if k == i else i if k == i + 1 else k for k in range(1, h + 1)])
        for i in range(1, h)
    ]
    for var_map in [swap] + transpositions:
        image = _basis_map(h, var_map)
        for slot, (i, j) in enumerate(_slot_pairs(d)):
            if labels[slot] is not None:
                parent[find(slot)] = find(pair_index(d, *sorted((image[i], image[j]))))

    components: dict[int, list[int]] = {}
    for slot in range(nslots):
        if labels[slot] is not None:
            components.setdefault(find(slot), []).append(slot)

    sizes = _class_sizes(g)
    classes, representatives, errors = {}, {}, []
    for slots in components.values():
        seen = {labels[s] for s in slots}
        if len(seen) != 1:
            errors.append(
                f"component of {render_slot(h, slots[0])} mixes patterns {sorted(seen)}"
            )
            continue
        lab = next(iter(seen))
        if lab in classes:
            errors.append(f"pattern {lab} splits into several components")
            continue
        classes[lab] = sizes[lab]
        representatives[lab] = render_slot(h, slots[0])
    return OrbitReport(g, classes, representatives, errors)


# -- the symplectic action on the wedge square ---------------------------------


@lru_cache(maxsize=None)
def closure_generators(genus: int) -> tuple:
    """Transvections along a_1, a_2, b_i (i = 1..g) and a_i + a_{i+1} (i < g).

    These 2g + 1 matrices (2 at genus 1) are the mod-2 images of Humphries'
    twist generators of the mapping class group, so they generate
    Sp(2g, 2).  Saturating under them therefore gives the same subspace as
    saturating under the whole group.  Any subset of symplectic matrices
    gives a sound saturation (translates of images are images of conjugated
    cycles); a generating set makes it complete.

    The first min(g, 2) + g act inside one handle; the g - 1 mixing ones
    come last, and `saturate_span` with `handle_invariant` applies only
    those to the rows it starts with.
    """
    g = check_genus(genus)
    a = [1 << i for i in range(g)]
    b = [1 << (g + i) for i in range(g)]
    vs = a[:2] + b + [a[i] | a[i + 1] for i in range(g - 1)]
    return tuple(transvection(HClass(g, v)) for v in vs)


def _wedge_action_table(genus: int, M) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(images, moved) of the substitution action of M on the degree-<=2 basis.

    images[k] is the image of basis monomial k as a tuple of basis indices,
    and `moved` has bit k set iff that image is not monomial k itself.  The
    wedge action sends slot (i, j) to images[i] ^ images[j], so a slot of two
    fixed monomials is fixed.  The variable images are built, and M checked,
    once per call.  A monomial with no moved variable is fixed; any other
    monomial's image is the product of its variables' images.
    """
    basis = b2_basis(genus)
    images = sp_variable_images(M, genus)
    moved_vars = sum(1 << v for v, img in enumerate(images) if img.masks != {1 << v})
    index = basis.index_of_mask
    mon_images = tuple(
        tuple(index[m] for m in monomial_image(genus, images, mono.mask).masks)
        if mono.mask & moved_vars
        else (k,)
        for k, mono in enumerate(basis.monomials)
    )
    moved = sum(1 << k for k, img in enumerate(mon_images) if img != (k,))
    return mon_images, moved


def _action_deltas(actions: Sequence[tuple[tuple, int]]) -> Callable[[int], list[int]]:
    """The map v -> [(M - I)v for each action (images, moved) of
    `_wedge_action_table`].

    The delta of slot (i, j) under M is the slot bits of
    images[i] ^ images[j] less the slot itself.  It is computed, for each
    set bit of v, only for the actions that move i or j (movers[i] is the
    mask of the actions that move monomial i); every other action fixes the
    slot.
    """
    d = len(actions[0][0])
    offs, pairs = _row_offsets(d), _slot_pairs(d)
    movers = [
        sum(1 << k for k, (_, moved) in enumerate(actions) if (moved >> i) & 1)
        for i in range(d)
    ]

    def deltas(v: int) -> list[int]:
        out = [0] * len(actions)
        b = v
        while b:
            low = b & -b
            i, j = pairs[low.bit_length() - 1]
            gens = movers[i] | movers[j]
            while gens:
                k = (gens & -gens).bit_length() - 1
                images = actions[k][0]
                out[k] ^= _slot_bits(offs, images[i], images[j]) ^ low
                gens &= gens - 1
            b ^= low
        return out

    return deltas


def wedge_translate(M, w: WedgeElem) -> WedgeElem:
    """Image of a wedge vector under the symplectic substitution action."""
    (delta,) = _action_deltas([_wedge_action_table(w.genus, M)])(w.bits)
    return WedgeElem(w.genus, w.bits ^ delta)


def saturate_span(genus: int, span: SpanBasis, *, handle_invariant: bool = False) -> int:
    """Close a span under the transvection action; returns added rank.

    The loop walks the span's pivots in insertion order, by index, while the
    list grows.  At each pivot q it reads q's row as it is at that moment,
    fully reduced against every pivot found so far, so it has few bits, and
    each bit's delta is computed only for the generators that move one of
    the slot's monomials.  That row v is in the span, so Mv is in the span
    iff (M - I)v is; each generator's sparse delta is inserted, in generator
    order.

    Every pivot gets visited, the ones the loop itself adds too, and each
    visited row lies in the final span with its own distinct lowest bit (a
    row's lowest bit is its pivot, since back-substitution adds to it only
    rows whose pivot is a higher bit of it).  So the visited rows, one per
    pivot, form a basis of the final span, and every generator's delta was
    inserted for each of them: the final span is closed under the
    generators.  It holds nothing outside the closure, since each insert is
    (M - I)v for a v already in it.

    `handle_invariant` asserts that the starting span S0 is invariant under
    the single-handle generators (those along a_i or b_i); the span of the
    stream images is (README, "What the search verifies").  Then the rows
    present at the start are visited with the g - 1 mixing generators only,
    and every later pivot with all of them.  The final span is S0 plus the
    span of the later visited rows, whose lowest bits are new pivots, and a
    single-handle M maps S0 into itself, so closure still holds.
    """
    actions = [_wedge_action_table(genus, M) for M in closure_generators(genus)]
    deltas = _action_deltas(actions)
    before = span.rank
    order = span.insertion_order
    i = 0
    if handle_invariant:
        mixing = actions[len(actions) - (genus - 1):]
        if mixing:
            mixing_deltas = _action_deltas(mixing)
            for k in range(before):
                for delta in mixing_deltas(span.pivot_row(order[k])):
                    if delta:
                        span.insert_bits(delta)
        i = before
    while i < len(order):
        v = span.pivot_row(order[i])
        i += 1
        for delta in deltas(v):
            if delta:
                span.insert_bits(delta)
    return span.rank - before


# -- the image search ---------------------------------------------------------


def _search_shard(
    genus: int, max_support: int
) -> tuple[SpanBasis, dict[str, tuple[int, str]], int, int]:
    """Fold the whole descriptor-pair stream (one block per pair of disjoint
    support sets) into a span; returns the span, the per-class first hits
    keyed by stream index, the pair count and the distinct-image count.

    The wedge is bilinear, so a block's images span the same space as the
    products of a basis of each set's sigma values.  The span loop walks the
    blocks largest sets first and reads the span's unit mask: each of its
    slots is a row e_s, so a vector inside it is in the span.  A block is
    skipped when every slot pairing a monomial of its first basis with one
    of its second lies in the mask (that block mask is built by
    `_block_bits`, one shift per monomial), and otherwise only its products
    with a bit outside the mask are inserted.  Where both sets' template
    rows are single monomials (1, 3 and 4 handles), each product is one
    slot of the block mask, so the block's slots outside the unit mask are
    inserted one by one and no product is computed.  Where 3-handle
    templates fill the handle-disjoint slots first, no other block is left
    to insert.

    Descriptors with equal sigma have equal images, so a block's distinct
    images pair the sigma groups of its two sets: a group pair stands for
    |G1|.|G2| stream pairs and first appears at the stream position of its
    two first descriptors.  The variables of sigma(sep(x, y)) = x-bar y-bar
    are exactly supp(x) | supp(y) (its derivative along a variable of x only
    is y-bar, of y only x-bar, of both x-bar + y-bar + 1, none of them 0), so
    a sigma value determines its support set; blocks pair distinct sets, so
    no group pair occurs in two blocks and the distinct-image count is the
    sum of the block products.

    The hit loop walks the blocks in stream order.  Class labels do not
    change when handles are relabelled, and two blocks of one shape
    (|S1|, |S2|) are relabellings of each other with the same group
    positions, so only the first block of each shape is scanned for hits,
    and only its two sets have their sigma groups relabelled.  Every block
    reads its spine and group counts from the templates.
    The classes to wait for are the labels on the raw span's support, which
    is the union of the supports of the stream images; the scan stops once
    all of them are hit.
    """
    basis = b2_basis(genus)
    d = basis.size
    offs = _row_offsets(d)
    labels = _slot_labels(genus)
    sets = _support_sets(genus, max_support)
    bases = [_relabel(genus, S, _template(len(S))[2]) for S in sets]
    span = SpanBasis(wedge_dim(d))

    used = []  # (indices, mask) of the basis indices each set's basis uses
    for rows in bases:
        idx = {i for row in rows for i in row}
        used.append((tuple(idx), sum(1 << i for i in idx)))
    single = [all(len(row) == 1 for row in rows) for rows in bases]
    last = len(sets) - 1
    for r1, r2 in _disjoint_set_pairs(sets[::-1]):
        k1, k2 = last - r1, last - r2
        new = _block_bits(offs, used[k1], used[k2]) & ~span.units
        if not new:
            continue
        if single[k1] and single[k2]:
            # every product is one slot of the block, so the slots outside
            # the unit mask are the vectors to insert
            while new:
                low = new & -new
                if not low & span.units:
                    span.insert_bits(low)
                new ^= low
            continue
        for row1 in bases[k1]:
            for row2 in bases[k2]:
                bits = _slot_bits(offs, row1, row2)
                if bits & span.units != bits:
                    span.insert_bits(bits)

    # slots still worth testing: the raw span's support, less the ones seen
    live = span.support()
    unhit = {labels[s] for s in bit_indices(live)} - {None}
    hits: dict[str, tuple[int, str]] = {}
    shapes = set()
    n_pairs = 0
    n_distinct = 0
    for k1, k2 in _disjoint_set_pairs(sets):
        shape = (len(sets[k1]), len(sets[k2]))
        (n1, groups1, _), (n2, groups2, _) = map(_template, shape)
        block_base = n_pairs
        n_pairs += n1 * n2
        n_distinct += len(groups1) * len(groups2)
        if not unhit or shape in shapes:
            continue
        shapes.add(shape)
        groups1, groups2 = (_descriptors_for_set(genus, sets[k])[1] for k in (k1, k2))
        # Group pairs are visited in increasing stream index, so the first
        # hit of a class is final.
        for pos1, sig1 in groups1:
            for pos2, sig2 in groups2:
                if not unhit:
                    break
                b = _slot_bits(offs, sig1, sig2) & live
                while b:
                    low = b & -b
                    lab = labels[low.bit_length() - 1]
                    if lab in unhit:
                        unhit.remove(lab)
                        t1, t2 = _twist(genus, sets[k1], pos1), _twist(genus, sets[k2], pos2)
                        hits[lab] = (block_base + pos1 * n2 + pos2, f"{t1.label} & {t2.label}")
                    live ^= low
                    b ^= low
    return span, hits, n_pairs, n_distinct


def image_rank_report(
    genus: int,
    max_support: int,
    sp_closure: bool = True,
) -> dict:
    """Fold all enumerated cycle images into a span and report coverage.

    With `sp_closure` (the default) the span is saturated under the
    transvection action before coverage is judged; the raw pre-closure rank
    stays visible in the counts.  The report's `missing` list holds the
    non-index-matched basis elements outside the achieved span; an empty
    list certifies that the span covers the whole subspace W at this genus.
    The span holds only machine-verified cycle images and their translates,
    so `include_families`, `family_elements`, `family_added_rank`,
    `family_warnings` and `machine_verified_only` are constants kept for
    report compatibility.
    """
    g = check_genus(genus)
    if max_support < 1:
        raise ValueError("max_support must be >= 1")
    t0 = perf_counter()
    basis = b2_basis(g)
    d = basis.size
    dm = dims(g)
    labels = _slot_labels(g)

    span, hits, n_pairs, n_distinct = _search_shard(g, max_support)
    cycle_rank = span.rank

    closure_added = 0
    if sp_closure:
        closure_added = saturate_span(g, span, handle_invariant=True)

    missing = [
        {"slot": slot, "element": render_slot(g, slot), "class": labels[slot]}
        for slot in range(wedge_dim(d))
        if labels[slot] is not None and not span.contains_bits(1 << slot)
    ]
    incomplete = {m["class"] for m in missing}
    sizes = _class_sizes(g)
    class_coverage = {
        lab: "incomplete" if lab in incomplete else "stream" if lab in hits else "sp-closure"
        for lab in ROMAN
        if sizes[lab]
    }

    return {
        "genus": g,
        "parameters": {
            "max_support": max_support,
            "include_families": False,
            "sp_closure": sp_closure,
        },
        "rank": span.rank,
        "dims": dm,
        "codim": dm["dim_wedge"] - span.rank,
        "missing": missing,
        "coverage_complete": not missing,
        "orbit_hits": {
            lab: {"index": idx, "cycle": lbl}
            for lab, (idx, lbl) in sorted(hits.items())
        },
        "class_coverage": class_coverage,
        "counts": {
            "cycles": n_pairs,
            "distinct_images": n_distinct,
            "cycle_rank": cycle_rank,
            "closure_added_rank": closure_added,
            "family_elements": 0,
            "family_added_rank": 0,
        },
        "family_warnings": [],
        "machine_verified_only": True,
        "elapsed": perf_counter() - t0,
    }
