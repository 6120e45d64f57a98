"""Wedge square of the degree-<=2 piece and the abelian-cycle image search.

A commuting pair of twists f, g maps to sigma(f) ^ sigma(g) in the wedge
square; commutation is certified by machine-checked handle-support
disjointness.  The search folds the images of all enumerated cycles into a
GF(2) span and reports which non-index-matched basis elements (the subspace
W) are still missing.

The wedge is bilinear over GF(2), so the images of one block of the stream
(every descriptor on one support set against every descriptor on a disjoint
one) span exactly the products b ^ c of a basis b of the first set's sigma
values with a basis c of the second's.  The search inserts those products
at genus min(g, 4) only, where they span unit rows only, and carries the
unit slots onto genus g by handle pattern (`_fold_stream` shows why that
is the genus-g span).  It counts pairs and distinct images by block shape
(|S1|, |S2|) in closed form; images themselves are computed, by distinct
sigma pair, only in the first block of each shape and only for each
class's first hit.

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
and the per-class first hits are named `sep(x,y)` from the relabelled packed
spine (`_spine_label`), so the search builds no twist object.

Support-disjoint cycles alone cannot span W: each of their image slots pairs
two monomials on disjoint handle sets, so the slots whose monomials share a
handle (orbit classes IV and VI) are unreachable by construction.  The
first-hit scan therefore waits only for the classes on the raw span's
slots, exactly the classes the stream hits.  The image of the induced map
is however closed under the symplectic action - acting on a cycle's curves
by a mapping class yields another commuting pair whose image is the matrix
translate of the original - so the search saturates its span under
substitution by the four matrices of `closure_generators` (two at genus
1): T_{a_1}, T_{b_1}, the handle cycle and T_{a_1 + a_2}.  They generate
Sp(2g, 2), since the powers of the cycle conjugate the three transvections
onto all of Humphries' generators.  Every vector added this way is the
image of a conjugated cycle, or a sum of such images; soundness rests on
the equivariance of the twist formulas (Johnson), which its own test suite
verifies.  For v already in the span, Mv is in the span iff (M - I)v is,
so saturation inserts that delta.  It is sparse, and it is computed bit by
bit from M's monomial images: slot (i, j) moves only if M moves monomial i
or j, and then its delta is the slot bits of Mi ^ Mj less the slot itself.
No table of slot deltas is stored.

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

from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import lru_cache
from itertools import combinations, repeat
from math import comb

from .bcjmap import Descriptor, is_index_matched, sigma, sigma_masks
from .boolring import (
    BoolMonomial,
    BoolPoly,
    b2_basis,
    monomial_image,
    require_degree,
    sp_variable_images,
)
from .errors import DisjointnessError, GenusMismatchError
from .gf2core import F2Matrix, SpanBasis, bit_indices
from .surface import (
    HClass,
    check_genus,
    class_name,
    handle_bits,
    paired_handles,
    same_genus,
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
    if not 0 <= slot < wedge_dim(d):
        raise ValueError(f"bad slot {slot} for basis size {d}: slots are 0..{wedge_dim(d) - 1}")
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
        return WedgeElem(same_genus(self, other), self.bits ^ other.bits)

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
    g = same_genus(p, q)
    require_degree(p, 2)
    require_degree(q, 2)
    basis = b2_basis(g)
    d = basis.size
    index = basis.index_of_mask
    bits = _slot_bits(
        _row_offsets(d), [index[m] for m in p.masks], [index[m] for m in q.masks]
    )
    return WedgeElem(g, bits)


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
        same_genus(self.first, self.second)
        overlap = self.first.support() & self.second.support()
        if overlap:
            raise DisjointnessError(f"descriptors share handles {sorted(overlap)}")


def cycle_image(c: AbelianCycle) -> WedgeElem:
    """sigma(first) ^ sigma(second); both factors must have degree <= 2, as
    `wedge` requires: a bounding pair's degree-3 sigma raises FiltrationError."""
    c.validate_certificate()
    return wedge(sigma(c.first), sigma(c.second))


# -- spine and cycle enumeration ---------------------------------------------


@lru_cache(maxsize=None)
def _local_spines(s: int) -> tuple[tuple[int, int], ...]:
    """Ordered pairs (x, y) on s handles, x.y = 1, using all s handles.

    Local packing: bits 0..s-1 are a-coordinates, bits s..2s-1 are
    b-coordinates.  The two tests, `pairing` and `handle_bits`, are taken
    for all y at once, on bitsets over the 4^s values of y (bit y of
    `has[v]` is bit v of y): x.y is the parity of y's bits at the partners
    of x's variables, an xor of their bitsets, and each handle x misses
    needs an a- or b-bit of y, an and of ors.  Each x's valid y are read
    off in ascending order, so the pairs come ordered by x, then y.
    """
    full, n = (1 << s) - 1, 1 << (2 * s)
    has = [sum(1 << y for y in range(n) if y >> v & 1) for v in range(2 * s)]
    spines = []
    for x in range(n):
        odd = 0
        for v in bit_indices((x >> s) | (x & full) << s):
            odd ^= has[v]
        for h in bit_indices(full & ~(x | x >> s)):
            odd &= has[h] | has[h + s]
        spines.extend(zip(repeat(x), bit_indices(odd)))
    return tuple(spines)


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
    variable map; slot images follow through `pair_index`.

    Read off `b2_basis`'s order, with no mask: the constant is index 0,
    variable v is 1 + v, and the monomial of variables a < b is 1 + 2g plus
    the rank of (a, b) among the pairs of the 2g variables, the triangular
    flattening again; the domain's pairs come in that order too."""
    offs = _row_offsets(2 * genus)
    to = [0, *(1 + w for w in var_map)]
    for a, b in combinations(var_map, 2):
        to.append(2 * genus + (offs[a] + b - a if a < b else offs[b] + a - b))
    return to


def _spine_label(genus: int, handles: tuple[int, ...], pos: int) -> str:
    """`sep(x,y)`: the label of the separating twist of local spine `pos`
    relabelled onto `handles`, rendered from the packed spine."""
    var_map = _handle_map(genus, handles)
    x, y = (class_name(genus, _map_bits(var_map, v)) for v in _local_spines(len(handles))[pos])
    return f"sep({x},{y})"


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
    basis = tuple(tuple(index[m] for m in span.row_slots(p)) for p in span.pivots)
    return len(spines), groups, basis


def _descriptors_for_set(genus: int, handles: tuple[int, ...]) -> tuple[int, list, list]:
    """The template of size len(handles) relabelled onto `handles`: the
    spine count, the (position, sigma basis indices) of each distinct sigma
    value and a basis of their span, rows given by basis indices.

    Relabelling handles commutes with sigma, so the relabelled values are
    the sigma values of the relabelled spines, still distinct, and a basis
    stays a basis.
    """
    n, groups, basis = _template(len(handles))
    to = _basis_map(genus, _handle_map(genus, handles))
    groups = [(pos, [to[i] for i in sig]) for pos, sig in groups]
    return n, groups, [[to[i] for i in row] for row in basis]


def _support_sets(genus: int, max_support: int) -> list[tuple[int, ...]]:
    # by size, and combinations yields each size in lexicographic order
    sizes = range(1, min(max_support, genus) + 1)
    return [S for size in sizes for S in combinations(range(1, genus + 1), size)]


def _disjoint_set_pairs(sets: Sequence[tuple[int, ...]]) -> Iterator[tuple[int, int]]:
    """Positions (k1 < k2) of each pair of disjoint support sets, in stream
    order.  Only pairs of distinct sets are combined, so the swap-symmetric
    duplicate never appears."""
    masks = [sum(1 << h for h in S) for S in sets]
    for k1, m1 in enumerate(masks):
        for k2 in range(k1 + 1, len(masks)):
            if not m1 & masks[k2]:
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


def _slot_labeller(genus: int) -> Callable[[int], str | None]:
    """slot -> its class label, None if index-matched, computed per call: the
    search labels only the slots it reads, not all C(d, 2)."""
    facts = [_monomial_facts(genus, m.mask) for m in b2_basis(genus).monomials]
    pairs = _slot_pairs(len(facts))

    def label(slot: int) -> str | None:
        i, j = pairs[slot]
        return _pair_label(genus, facts[i], facts[j])

    return label


@lru_cache(maxsize=None)
def _slot_labels(genus: int) -> tuple[str | None, ...]:
    """Class label per wedge slot; None marks index-matched slots.  The
    program builds it at genus <= 4 only: for the census, `orbit_classes`
    and the search's genus-h span."""
    return tuple(map(_slot_labeller(genus), range(wedge_dim(b2_basis(genus).size))))


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


def orbit_classes(genus: int) -> dict:
    """Connected components of the non-matched wedge basis under handle
    swaps and transpositions, labelled by their index pattern: the genus,
    the class count, per label its slot count and its first slot, rendered
    ("size", "representative"), in order of first slots, and any partition
    errors.  `cli` adds the manifest.

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
    classes, errors = {}, []
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
        classes[lab] = {"size": sizes[lab], "representative": render_slot(h, slots[0])}
    return {"genus": g, "n_classes": len(classes), "classes": classes, "errors": errors}


# -- the symplectic action on the wedge square ---------------------------------


@lru_cache(maxsize=None)
def closure_generators(genus: int) -> tuple:
    """T_{a_1}, T_{b_1}, the handle cycle P_(1 2 ... g) and T_{a_1 + a_2}, in
    this order; genus 1 keeps only the two transvections.

    A handle permutation P is symplectic and a mapping class (it permutes
    the handles of the surface), and P T_v P^-1 = T_{Pv}.  So the powers of
    the cycle conjugate T_{a_1}, T_{b_1} and T_{a_1 + a_2} onto T_{a_i},
    T_{b_i} and T_{a_i + a_{i+1}} for every i (indices mod g), which hold
    all 2g + 1 of Humphries' twist generators: the four generate Sp(2g, 2),
    and saturating under them gives the same subspace as under the whole
    group.  Any symplectic matrices give a sound saturation (translates of
    images are images of conjugated cycles); a generating set makes it
    complete.

    T_{a_1 + a_2} is the only one that mixes handles without permuting
    them, so it comes last, and `saturate_span` with `handle_invariant`
    applies only it to the rows it starts with.
    """
    g = check_genus(genus)
    t_a1, t_b1 = (transvection(HClass(g, v)) for v in (1, 1 << g))
    if g == 1:
        return t_a1, t_b1
    # handle k + 1 goes to handle k + 2, and handle g to handle 1
    cycle = F2Matrix(2 * g, tuple(1 << v for v in _handle_map(g, (*range(2, g + 1), 1))))
    return t_a1, t_b1, cycle, transvection(HClass(g, 0b11))


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
    moved_vars = sum(1 << v for v, img in enumerate(images) if img != {1 << v})
    index = basis.index_of_mask
    mon_images = tuple(
        tuple(index[m] for m in monomial_image(images, mono.mask))
        if mono.mask & moved_vars
        else (k,)
        for k, mono in enumerate(basis.monomials)
    )
    moved = sum(1 << k for k, img in enumerate(mon_images) if img != (k,))
    return mon_images, moved


def _action_deltas(
    actions: Sequence[tuple[tuple, int]],
) -> Callable[[Iterable[int], int], list[int]]:
    """The map (slots, gens) -> [(M - I)v for each action (images, moved)
    of `_wedge_action_table`], v the sum of the unit vectors of `slots`,
    for the actions whose bit is set in the mask `gens` (0 for the others).

    The delta of slot (i, j) under M is the slot bits of
    images[i] ^ images[j] less the slot itself.  It is computed only for
    the actions in `gens` that move i or j (movers[i] is the mask of the
    actions that move monomial i); every other action fixes the slot.
    """
    d = len(actions[0][0])
    offs, pairs = _row_offsets(d), _slot_pairs(d)
    movers = [
        sum(1 << k for k, (_, moved) in enumerate(actions) if (moved >> i) & 1)
        for i in range(d)
    ]

    def deltas(slots: Iterable[int], gens: int) -> list[int]:
        out = [0] * len(actions)
        for s in slots:
            i, j = pairs[s]
            act = (movers[i] | movers[j]) & gens
            while act:
                k = (act & -act).bit_length() - 1
                images = actions[k][0]
                out[k] ^= _slot_bits(offs, images[i], images[j]) ^ 1 << s
                act &= act - 1
        return out

    return deltas


def wedge_translate(M, w: WedgeElem) -> WedgeElem:
    """Image of a wedge vector under the symplectic substitution action."""
    (delta,) = _action_deltas([_wedge_action_table(w.genus, M)])(w.slots(), 1)
    return WedgeElem(w.genus, w.bits ^ delta)


def saturate_span(genus: int, span: SpanBasis, *, handle_invariant: bool = False) -> int:
    """Close a span under the action of `closure_generators`; returns the
    added rank.

    One loop walks the span's pivots in insertion order while the list
    grows.  At each pivot q it reads the slots of q's row as it is at that
    moment, fully reduced against every pivot found so far, so it has few
    bits (a unit row's one slot is read without building the row).  That
    row v is in the span, so Mv is in the span iff (M - I)v is; the sparse
    delta of each generator in the row's generator mask is inserted, in
    generator order, each bit's delta computed only for the generators of
    the mask that move one of the slot's monomials.

    Every pivot gets visited, the ones the loop itself adds too, and each
    visited row lies in the final span with its own distinct lowest bit (a
    row's lowest bit is its pivot, since back-substitution adds to it only
    rows whose pivot is a higher bit of it).  So the visited rows, one per
    pivot, form a basis of the final span, and every generator's delta was
    inserted for each of them: the final span is closed under the
    generators.  It holds nothing outside the closure, since each insert is
    (M - I)v for a v already in it.

    `handle_invariant` asserts that the starting span S0 is invariant under
    the first three generators, T_{a_1}, T_{b_1} and the handle cycle, as
    the span of the stream images is (README, "What the search verifies").
    Then the rows present at the start get the mask of T_{a_1 + a_2} only
    (none at genus 1, which has no such generator), and every later pivot
    the mask of all of them.  The final span is S0 plus the span of the
    later visited rows, whose lowest bits are new pivots, and the first
    three generators map S0 into itself, so closure still holds.  A
    starting unit row whose slot's two monomials T_{a_1 + a_2} both fixes
    then costs one mask test.
    """
    actions = [_wedge_action_table(genus, M) for M in closure_generators(genus)]
    deltas = _action_deltas(actions)
    every = (1 << len(actions)) - 1
    start = every
    if handle_invariant:
        start = 1 << (len(actions) - 1) if genus >= 2 else 0
    before = span.rank
    for i, q in enumerate(span.insertion_order):
        for delta in deltas(span.row_slots(q), start if i < before else every):
            if delta:
                span.insert_bits(delta)
    return span.rank - before


# -- the image search ---------------------------------------------------------


def _disjoint_slots(genus: int) -> int:
    """D_g: the mask of the slots whose two monomials have disjoint handle
    sets.  The constant uses no handle, so its slots are all in it."""
    hb = [handle_bits(genus, m.mask) for m in b2_basis(genus).monomials]
    return sum(1 << s for s, (i, j) in enumerate(_slot_pairs(len(hb))) if not hb[i] & hb[j])


def _carry_slots(units: int, h: int, genus: int) -> list[int]:
    """The slots at `genus` of the slots `units` at genus h, carried by
    handle pattern: a slot on exactly the handles T, |T| = k, is one iff the
    order-keeping map 1..k -> T sends a slot of `units` to it, so each is
    made once; `units` must be invariant under permuting handles.  Slots
    come 4-handle ones first, then by handle set from the highest handles
    down: saturation visits them in this order, which keeps its transient
    rows short (237 MB at genus 16, against 256 MB in ascending order).

    An order-keeping handle map keeps the order of variables, and so of
    basis indices (`b2_basis` orders them by degree, then by variables), so
    slot (i < j) goes to (to[i] < to[j]) and its number is read off the
    offsets as in `_slot_bits`, unchecked and unsorted."""
    offs_h, offs = _row_offsets(b2_basis(h).size), _row_offsets(b2_basis(genus).size)
    slots = []
    for k in range(h, 0, -1):
        up = _basis_map(h, _handle_map(h, range(1, k + 1)))  # genus k -> genus h
        hb = [handle_bits(k, m.mask) for m in b2_basis(k).monomials]
        on_all = [(i, j) for i, j in _slot_pairs(len(hb)) if hb[i] | hb[j] == (1 << k) - 1]
        pattern = [(i, j) for i, j in on_all if units >> (offs_h[up[i]] + up[j] - up[i] - 1) & 1]
        for handles in combinations(range(genus, 0, -1), k):
            to = _basis_map(genus, _handle_map(genus, handles[::-1]))
            slots.extend(offs[to[i]] + to[j] - to[i] - 1 for i, j in pattern)
    return slots


def _fold_stream(
    genus: int, max_support: int
) -> tuple[SpanBasis, dict[str, tuple[int, str]], int, int]:
    """Fold the whole descriptor-pair stream (one block per pair of disjoint
    support sets) into a span; returns the span, the per-class first hits
    keyed by stream index, the pair count and the distinct-image count.

    The wedge is bilinear, so a block's images span the same space as the
    products of a basis of each set's sigma values.  Those are inserted at
    genus h = min(g, 4), where the span must hold unit rows only, and its
    unit slots carried onto genus g (`_carry_slots`) are the span: sound,
    as a genus-h block relabelled onto h of the g handles is a genus-g
    block and the genus-h span is invariant under permuting handles, as its
    set of blocks is; complete with `max_support` <= 2, as every block then uses at
    most 4 handles, and with `max_support` >= 3 once the genus-4 mask is
    D_4 (`_disjoint_slots`, checked), as every image pairs monomials on
    disjoint supports, so the span lies in D_g, which is D_4 carried.

    Descriptors with equal sigma have equal images, so a block's distinct
    images pair the sigma groups of its two sets: a group pair stands for
    |G1|.|G2| stream pairs and first appears at the stream position of its
    two first descriptors.  The variables of sigma(sep(x, y)) = x-bar y-bar
    are exactly supp(x) | supp(y) (its derivative along a variable of x only
    is y-bar, of y only x-bar, of both x-bar + y-bar + 1, none of them 0), so
    a sigma value determines its support set; blocks pair distinct sets, so
    no group pair occurs in two blocks and the distinct-image count is the
    sum of the block products.  Both counts depend on a block's shape
    (|S1|, |S2|) alone, so they are summed by shape in closed form, over
    the shapes that have a block (a shape with |S1| + |S2| > g builds no
    template).

    The same loop over shapes (a, b), a <= b, finds the first hits.  Its
    lexicographic order is the stream order of each shape's first block,
    (1..a) against (a+1..a+b): sets come by size, then lexicographically,
    and a block puts its earlier set first.  Class labels do not change when
    handles are relabelled, and two blocks of one shape are relabellings of
    each other with the same group positions, so only that first block is
    scanned, and only its two sets have their sigma groups relabelled.  Its
    first pair's stream index is closed-form: the pairs of every block whose
    first set has fewer than a handles, then n(a).n(d) for each of the
    C(g - a, d) d-sets disjoint from (1..a), a <= d < b.  The scan labels
    only the live slots it meets, each once (`_slot_labeller`), and stops
    once every label on the span's slots (the union of the supports of the
    stream images) is hit; relabelling keeps a slot's label, so those are
    the labels of the genus-h unit slots.  No support set above genus h is
    enumerated.
    """
    h = min(genus, CENSUS_GENUS)
    sets = _support_sets(h, max_support)
    set_pairs = list(_disjoint_set_pairs(sets))
    bases = {}  # basis rows only, of the sets in some block (with a disjoint partner)
    for k in sorted({k for pair in set_pairs for k in pair}):
        to = _basis_map(h, _handle_map(h, sets[k]))
        bases[k] = [[to[i] for i in row] for row in _template(len(sets[k]))[2]]
    offs = _row_offsets(b2_basis(h).size)
    local = SpanBasis(wedge_dim(b2_basis(h).size))
    for k1, k2 in set_pairs:
        for row1 in bases[k1]:
            for row2 in bases[k2]:
                local.insert_bits(_slot_bits(offs, row1, row2))
    if local.rank != local.units.bit_count():
        raise RuntimeError(f"the genus-{h} stream span has a row that is not a unit row")
    if genus > h and max_support >= 3 and local.units != _disjoint_slots(h):
        raise RuntimeError(f"the genus-{h} stream span is not D_{h}, so it may not carry")
    span = SpanBasis(wedge_dim(b2_basis(genus).size))
    span.insert_units(_carry_slots(local.units, h, genus))

    offs = _row_offsets(b2_basis(genus).size)
    label = _slot_labeller(genus)
    live = span.units  # slots still worth testing: the span's, less the ones seen
    unhit = {_slot_labels(h)[s] for s in bit_indices(local.units)} - {None}
    hits: dict[str, tuple[int, str]] = {}
    # by shape (a, b), a <= b: C(g, a).C(g - a, b) blocks, half as many when
    # a = b, each of n(a).n(b) pairs and G(a).G(b) group pairs
    n_pairs = n_distinct = 0
    top = min(max_support, genus)
    for a in range(1, top + 1):
        base = n_pairs  # stream index of the first pair on the set (1..a)
        for b in range(a, min(top, genus - a) + 1):  # a + b > g: no blocks, no templates
            (n1, groups1, _), (n2, groups2, _) = _template(a), _template(b)
            blocks = comb(genus, a) * comb(genus - a, b) // (2 if a == b else 1)
            n_pairs += blocks * n1 * n2
            n_distinct += blocks * len(groups1) * len(groups2)
            if unhit:  # scan the shape's first block: (1..a) against (a+1..a+b)
                set1, set2 = tuple(range(1, a + 1)), tuple(range(a + 1, a + b + 1))
                groups1, groups2 = (_descriptors_for_set(genus, S)[1] for S in (set1, set2))
                # Group pairs are visited in increasing stream index, so the
                # first hit of a class is final.
                for pos1, sig1 in groups1:
                    for pos2, sig2 in groups2:
                        if not unhit:
                            break
                        bits = _slot_bits(offs, sig1, sig2) & live
                        while bits:
                            low = bits & -bits
                            lab = label(low.bit_length() - 1)
                            if lab in unhit:
                                unhit.remove(lab)
                                l1, l2 = _spine_label(genus, set1, pos1), _spine_label(genus, set2, pos2)
                                hits[lab] = (base + pos1 * n2 + pos2, f"{l1} & {l2}")
                            live ^= low
                            bits ^= low
            base += comb(genus - a, b) * n1 * n2  # the blocks of (1..a) and a b-set
    return span, hits, n_pairs, n_distinct


def image_rank_report(
    genus: int,
    max_support: int,
    sp_closure: bool = True,
) -> dict:
    """Fold all enumerated cycle images into a span and report coverage.

    With `sp_closure` (the default) the span is saturated under the
    symplectic action before coverage is judged; the raw pre-closure rank
    stays visible in the counts.  The report's `missing` list holds the
    non-index-matched basis elements outside the achieved span; an empty
    list certifies that the span covers the whole subspace W at this genus.
    The result holds the search's findings only; `cli` adds the report
    envelope (parameters, manifest and run metadata).
    """
    g = check_genus(genus)
    if max_support < 1:
        raise ValueError("max_support must be >= 1")
    d = b2_basis(g).size
    dm = dims(g)

    span, hits, n_pairs, n_distinct = _fold_stream(g, max_support)
    cycle_rank = span.rank

    closure_added = 0
    if sp_closure:
        closure_added = saturate_span(g, span, handle_invariant=True)

    # e_s is in the span iff s is a unit pivot: the rows are fully reduced,
    # so a sum of rows has a set bit at each of their pivots
    label = _slot_labeller(g)
    missing = []
    for slot in bit_indices(~span.units & (1 << wedge_dim(d)) - 1):
        lab = label(slot)
        if lab is not None:
            missing.append({"slot": slot, "element": render_slot(g, slot), "class": lab})
    incomplete = {m["class"] for m in missing}
    sizes = _class_sizes(g)
    class_coverage = {
        lab: "incomplete" if lab in incomplete else "stream" if lab in hits else "sp-closure"
        for lab in ROMAN
        if sizes[lab]
    }

    return {
        "genus": g,
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
        },
    }
