"""Johnson's explicit formulas for the Birman-Craggs-Johnson homomorphism.

Everything here is computed from curve data, never from group elements: a
separating twist is presented by a symplectic basis of the subsurface it
bounds, a bounding-pair map by such a basis together with the class C of one
of its curves.  On that data

    sigma(separating twist)  = sum_i bar(A_i) bar(B_i)
    sigma(bounding-pair map) = (sum_i bar(A_i) bar(B_i)) (bar(C) + 1)

The first value has degree <= 2 and is independent of the choice of
symplectic basis for the subsurface; the second has degree <= 3.

A wedge-basis pair {m1, m2} is "index-matched" when some handle i has its
a-variable dividing one monomial and its b-variable dividing the other; the
span of the non-matched pairs is the target subspace of the image search.
"""

from __future__ import annotations

import random

from .boolring import BoolMonomial, BoolPoly, bar, substitute_sp
from .errors import FiltrationError, GeometryError
from .gf2core import F2Matrix
from .surface import (
    HClass,
    SubsurfaceBasis,
    intersect,
    random_symplectic_rebase,
    same_genus,
    support,
    transform_basis,
)
from .value import Value


class SeparatingTwist(Value):
    """Twist about a separating curve, presented by a subsurface basis."""

    __slots__ = ("basis", "label")

    def __init__(self, basis: SubsurfaceBasis, label: str = ""):
        basis.validate()
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "label", label)

    @property
    def genus(self) -> int:
        return self.basis.genus

    def support(self) -> frozenset[int]:
        return self.basis.support()


class BPMap(Value):
    """Bounding-pair map: subsurface basis plus the class C of one curve.

    C must be orthogonal to the basis span; that is what disjointness of the
    pair from the subsurface interior forces on homology.
    """

    __slots__ = ("basis", "C", "label")

    def __init__(self, basis: SubsurfaceBasis, C: HClass, label: str = ""):
        basis.validate()
        same_genus(basis, C)
        for k, (A, B) in enumerate(basis.pairs):
            if intersect(C, A) or intersect(C, B):
                raise GeometryError(
                    f"C is not orthogonal to basis pair {k + 1}"
                )
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "label", label)

    @property
    def genus(self) -> int:
        return self.basis.genus

    def support(self) -> frozenset[int]:
        return self.basis.support() | support(self.C)


Descriptor = SeparatingTwist | BPMap


def sigma_masks(g: int, pairs) -> frozenset[int]:
    """Masks of sum_i bar(A_i) bar(B_i) from unchecked pairs (A.bits, B.bits), in
    one pass derived in the README: with c(X) the constant of bar(X), bar(A)
    bar(B) = sum_{k in A, l in B} ebar_k ebar_l + c(B) A + c(A) B + c(A) c(B).
    Set bits are walked as one-bit masks, each its variable's monomial."""
    rows: dict[int, int] = {}  # 1 << k -> XOR of the B_i over the i with k in A_i
    linear = const = 0
    for x, y in pairs:
        cx = (x & (x >> g)).bit_count() & 1  # `paired_handles` parity
        cy = (y & (y >> g)).bit_count() & 1
        if cy:
            linear ^= x
        if cx:
            linear ^= y
        const ^= cx & cy
        while x:
            k = x & -x
            rows[k] = rows.get(k, 0) ^ y
            x ^= k
    masks: set[int] = set()
    for k, row in rows.items():
        if row & k:  # ebar_k^2 = ebar_k
            linear ^= k
            row ^= k
        while row:
            l = row & -row
            if (m := k | l) in masks:  # {k, l} can come from row k and from row l
                masks.remove(m)
            else:
                masks.add(m)
            row ^= l
    while linear:
        k = linear & -linear
        masks.add(k)
        linear ^= k
    if const:
        masks.add(0)
    return frozenset(masks)


def sigma_separating(t: Descriptor | SubsurfaceBasis) -> BoolPoly:
    """sum_i bar(A_i) bar(B_i) of a basis or of a descriptor's basis; degree
    <= 2, basis-choice independent, evaluated by `sigma_masks`, the search's
    kernel.  Only a bare basis is validated: a descriptor's constructor
    validated its basis, and a descriptor is immutable."""
    if isinstance(t, SubsurfaceBasis):
        t.validate()
    else:
        t = t.basis
    return BoolPoly(t.genus, sigma_masks(t.genus, [(A.bits, B.bits) for A, B in t.pairs]))


def sigma_bp(m: BPMap) -> BoolPoly:
    """(sum_i bar(A_i) bar(B_i)) * (bar(C) + 1); degree <= 3."""
    return sigma_separating(m) * (bar(m.C) + BoolPoly.one(m.genus))


def sigma(d: Descriptor) -> BoolPoly:
    if isinstance(d, SeparatingTwist):
        return sigma_separating(d)
    if isinstance(d, BPMap):
        return sigma_bp(d)
    raise TypeError(f"not a curve descriptor: {d!r}")


def is_index_matched(m1: BoolMonomial, m2: BoolMonomial) -> bool:
    """True iff some handle's a-variable divides one monomial and its
    b-variable the other.  Arguments must be distinct monomials of degree
    <= 2; the constant divides nothing and is never matched."""
    g = same_genus(m1, m2)
    if m1.mask == m2.mask:
        raise ValueError("index-matching is defined on distinct monomials")
    if m1.degree > 2 or m2.degree > 2:
        raise FiltrationError("index-matching is defined on the degree-<=2 basis")
    x, y = m1.mask, m2.mask
    return bool((x & (y >> g)) | (y & (x >> g)))


# -- randomized property suites (shared by tests and the verify command) ----


def basis_independence_failures(genus: int, trials: int, seed: int) -> list[str]:
    """Random symplectic rebases must not change sigma; returns witnesses.

    Exactly `trials` rebases are compared, taken in turn from the starts:
    for each h = 1..min(3, genus) the standard basis on h handles and a
    non-standard one."""
    rng = random.Random(seed)
    starts = []
    for h in range(1, min(3, genus) + 1):
        base = SubsurfaceBasis.standard(genus, range(1, h + 1))
        starts += [base, random_symplectic_rebase(base, seed ^ 0x5EED ^ h)]
    references = [sigma_separating(start) for start in starts]
    failures = []
    for t in range(trials):
        k = t % len(starts)
        rebased = random_symplectic_rebase(starts[k], rng.randrange(1 << 30))
        if sigma_separating(rebased) != references[k]:
            failures.append(f"h={starts[k].h} rebase changed sigma: {rebased.pairs}")
    return failures


def equivariance_failures(genus: int, matrices: list[F2Matrix], seed: int = 0) -> list[str]:
    """Check substitute_sp(M, sigma(basis)) == sigma(M . basis) per matrix,
    with the basis the standard one on min(2, genus) handles or a rebase."""
    rng = random.Random(seed)
    failures = []
    base = SubsurfaceBasis.standard(genus, range(1, min(2, genus) + 1))
    variants = [base, random_symplectic_rebase(base, seed ^ 0xE9)]
    for M in matrices:
        basis = variants[rng.randrange(len(variants))]
        lhs = substitute_sp(M, sigma_separating(basis))
        rhs = sigma_separating(transform_basis(M, basis))
        if lhs != rhs:
            failures.append(f"matrix cols {M.cols} on h={basis.h}")
    return failures
