"""Square-free polynomial algebra over GF(2) on the 2g bar-variables.

The variables abar_1..abar_g, bbar_1..bbar_g are indexed 0..2g-1 with the
same position convention as the surface coordinates.  A monomial is a subset
of variables (bit mask; the empty mask is the constant 1), so squares never
arise by representation.  A polynomial is a set of monomials, presence
meaning coefficient 1.

The bar map sends a homology class c to the function "evaluate a self-linking
form at c".  It is not additive; its defect is exactly the intersection form:

    bar(u + v) = bar(u) + bar(v) + (u.v) * 1

Iterating that relation over a support S gives the closed form used here:
bar(sum_{k in S} e_k) = sum_{k in S} ebar_k + #{k < l in S : e_k.e_l = 1},
and in the fixed basis the pair count is just the number of handles whose
a- and b-variable both occur in S (``surface.paired_handles``).  The closed
form has no ordering ambiguity and costs O(|S|) with bit tricks.

Substitution by a symplectic matrix M is the algebra endomorphism with
ebar_k -> bar(M e_k).  Under this pinned convention the composition law is

    substitute_sp(M2, substitute_sp(M1, p)) == substitute_sp(M2 @ M1, p)

i.e. variables travel through matrices in product order.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import combinations

from .errors import DimensionError, FiltrationError, MatrixError
from .gf2core import F2Matrix, bit_indices
from .surface import (
    HClass,
    check_genus,
    coordinate_name,
    is_symplectic,
    paired_handles,
    same_genus,
)
from .value import Value


class BoolMonomial(Value):
    """Square-free monomial: a subset of the 2g variables."""

    __slots__ = ("genus", "mask")

    def __init__(self, genus: int, mask: int):
        check_genus(genus)
        if mask < 0 or mask >> (2 * genus):
            raise DimensionError("monomial mask uses variables beyond 2g")
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "mask", mask)

    @property
    def degree(self) -> int:
        return self.mask.bit_count()

    def variables(self) -> tuple[int, ...]:
        return bit_indices(self.mask)

    def sort_key(self) -> tuple:
        return (self.degree, self.variables())

    def __str__(self) -> str:
        if self.mask == 0:
            return "1"
        return "*".join(coordinate_name(self.genus, v) for v in self.variables())


class BoolPoly(Value):
    """Element of the square-free algebra; immutable set of monomial masks."""

    __slots__ = ("genus", "masks")

    def __init__(self, genus: int, masks: Iterable[int] = ()):
        check_genus(genus)
        fs = frozenset(masks)
        top = 1 << (2 * genus)
        for m in fs:
            if m < 0 or m >= top:
                raise DimensionError("monomial mask uses variables beyond 2g")
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "masks", fs)

    @classmethod
    def zero(cls, genus: int) -> "BoolPoly":
        return cls(genus)

    @classmethod
    def one(cls, genus: int) -> "BoolPoly":
        return cls(genus, (0,))

    @classmethod
    def variable(cls, genus: int, v: int) -> "BoolPoly":
        if not 0 <= v < 2 * genus:
            raise DimensionError(f"variable index {v} out of range")
        return cls(genus, (1 << v,))

    def monomials(self) -> tuple[BoolMonomial, ...]:
        mons = [BoolMonomial(self.genus, m) for m in self.masks]
        mons.sort(key=BoolMonomial.sort_key)
        return tuple(mons)

    def degree(self) -> int:
        """Largest monomial degree; -1 for the zero polynomial."""
        if not self.masks:
            return -1
        return max(m.bit_count() for m in self.masks)

    def __bool__(self) -> bool:
        return bool(self.masks)

    def __add__(self, other: "BoolPoly") -> "BoolPoly":
        return BoolPoly(same_genus(self, other), self.masks ^ other.masks)

    def __mul__(self, other: "BoolPoly") -> "BoolPoly":
        return BoolPoly(same_genus(self, other), _mask_product(self.masks, other.masks))

    def __str__(self) -> str:
        if not self.masks:
            return "0"
        return " + ".join(str(m) for m in self.monomials())

    def __repr__(self) -> str:
        return f"BoolPoly({self.genus}, {self})"


def require_degree(p: BoolPoly, cap: int) -> BoolPoly:
    """Pass p through unchanged, raising if its degree exceeds the cap."""
    if p.degree() > cap:
        raise FiltrationError(f"degree {p.degree()} exceeds cap {cap}")
    return p


def bar(c: HClass) -> BoolPoly:
    """The class-to-function map; linear part plus the pair-count constant."""
    g = c.genus
    masks = [1 << v for v in bit_indices(c.bits)]
    if paired_handles(g, c.bits).bit_count() & 1:
        masks.append(0)
    return BoolPoly(g, masks)


class SelfLinkingForm(Value):
    """Quadratic refinement of the intersection form, determined by its
    values on the 2g basis classes (bit k holds omega(e_k))."""

    __slots__ = ("genus", "values")

    def __init__(self, genus: int, values: int = 0):
        check_genus(genus)
        if values < 0 or values >> (2 * genus):
            raise DimensionError("form values do not fit 2g bits")
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "values", values)

    def omega(self, u: HClass) -> int:
        """Extend to all of H by omega(u+v) = omega(u) + omega(v) + u.v."""
        g = same_genus(self, u)
        linear = (u.bits & self.values).bit_count()
        return (linear + paired_handles(g, u.bits).bit_count()) & 1


def evaluate(p: BoolPoly, form: SelfLinkingForm) -> int:
    """Evaluate p at a form: ebar_k -> omega(e_k), an algebra map to GF(2)."""
    same_genus(p, form)
    acc = 0
    vals = form.values
    for m in p.masks:
        # monomial value is 1 iff every variable in it evaluates to 1
        if m & ~vals == 0:
            acc ^= 1
    return acc


def sp_variable_images(M: F2Matrix, genus: int) -> tuple[BoolPoly, ...]:
    """The images bar(M e_k) of the 2g variables under substitution by M.

    Raises MatrixError unless M is a symplectic 2g x 2g matrix; build these
    once per matrix and reuse them for every polynomial substituted by it.
    """
    if M.n != 2 * genus:
        raise MatrixError(f"matrix size {M.n} does not match 2g = {2 * genus}")
    if not is_symplectic(M, genus):
        raise MatrixError("substitution matrix does not preserve the pairing")
    return tuple(bar(HClass(genus, M.cols[v])) for v in range(2 * genus))


def _mask_product(p: Iterable[int], q: Iterable[int]) -> set[int]:
    """The monomial masks of the product of two polynomials' masks: x^2 = x,
    so a product of monomials is the union of their masks, and a mask that
    arises an even number of times cancels."""
    acc: set[int] = set()
    for m1 in p:
        for m2 in q:
            m = m1 | m2
            if m in acc:
                acc.remove(m)
            else:
                acc.add(m)
    return acc


def monomial_image(genus: int, images: Sequence[BoolPoly], mask: int) -> BoolPoly:
    """Product of the variable images of the monomial with this mask, taken
    on mask sets; one polynomial is built, for the result."""
    term: Iterable[int] = (0,)
    m = mask
    while m:
        v = m.bit_length() - 1
        term = _mask_product(term, images[v].masks)
        m ^= 1 << v
    return BoolPoly(genus, term)


def substitute_sp(M: F2Matrix, p: BoolPoly) -> BoolPoly:
    """Algebra endomorphism ebar_k -> bar(M e_k), M symplectic (checked)."""
    g = p.genus
    images = sp_variable_images(M, g)
    acc = BoolPoly.zero(g)
    for m in p.masks:
        acc = acc + monomial_image(g, images, m)
    return acc


# -- the canonical degree-<=2 basis -----------------------------------------


class B2Basis(Value):
    """Ordered basis of the degree-<=2 filtration piece.

    Order: the constant 1 first, then the 2g variables in index order
    (abar_1..abar_g, bbar_1..bbar_g), then all two-variable monomials in
    lexicographic order of their sorted variable-index pairs.  Size is
    2g^2 + g + 1.  Unhashable, since it holds its mask-to-index dict.
    """

    __slots__ = ("genus", "monomials", "index_of_mask")

    def __init__(self, genus: int, monomials: tuple[BoolMonomial, ...], index_of_mask: dict):
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "monomials", monomials)
        object.__setattr__(self, "index_of_mask", index_of_mask)

    @property
    def size(self) -> int:
        return len(self.monomials)

    def index(self, m: BoolMonomial) -> int:
        same_genus(self, m)
        if m.degree > 2:
            raise FiltrationError(f"degree {m.degree} monomial is outside B2")
        return self.index_of_mask[m.mask]

    def monomial(self, i: int) -> BoolMonomial:
        return self.monomials[i]


@lru_cache(maxsize=None)
def b2_basis(genus: int) -> B2Basis:
    g = check_genus(genus)
    n = 2 * g
    mons = [BoolMonomial(g, 0)]
    mons += [BoolMonomial(g, 1 << v) for v in range(n)]
    mons += [
        BoolMonomial(g, (1 << v1) | (1 << v2)) for v1, v2 in combinations(range(n), 2)
    ]
    index = {m.mask: i for i, m in enumerate(mons)}
    basis = B2Basis(g, tuple(mons), index)
    assert basis.size == 2 * g * g + g + 1
    return basis
