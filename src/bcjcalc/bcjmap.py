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
from .errors import CatalogError, FiltrationError, GeometryError, GenusMismatchError
from .gf2core import F2Matrix, bit_indices
from .surface import (
    HClass,
    SubsurfaceBasis,
    ZHClass,
    ZSubsurfaceBasis,
    check_genus,
    intersect,
    paired_handles,
    random_symplectic_rebase,
    random_sp_word,
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
        if C.genus != basis.genus:
            raise GenusMismatchError("C has wrong genus")
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
    bar(B) = sum_{k in A, l in B} ebar_k ebar_l + c(B) A + c(A) B + c(A) c(B)."""
    rows: dict[int, int] = {}  # k -> XOR of the B_i over the i with k in A_i
    linear = const = 0
    for x, y in pairs:
        cx = paired_handles(g, x).bit_count() & 1
        cy = paired_handles(g, y).bit_count() & 1
        for k in bit_indices(x):
            rows[k] = rows.get(k, 0) ^ y
        if cy:
            linear ^= x
        if cx:
            linear ^= y
        const ^= cx & cy
    masks: set[int] = set()
    for k, row in rows.items():
        diagonal = 1 << k
        linear ^= row & diagonal  # ebar_k^2 = ebar_k
        for l in bit_indices(row & ~diagonal):
            masks ^= {diagonal | 1 << l}
    masks.update(1 << k for k in bit_indices(linear))
    if const:
        masks.add(0)
    return frozenset(masks)


def sigma_separating(t: SeparatingTwist | SubsurfaceBasis) -> BoolPoly:
    """sum_i bar(A_i) bar(B_i); degree <= 2, basis-choice independent.  The
    basis is validated, then evaluated by `sigma_masks`, the search's kernel."""
    b = t.basis if isinstance(t, SeparatingTwist) else t
    b.validate()
    return BoolPoly(b.genus, sigma_masks(b.genus, [(A.bits, B.bits) for A, B in b.pairs]))


def sigma_bp(m: BPMap) -> BoolPoly:
    """(sum_i bar(A_i) bar(B_i)) * (bar(C) + 1); degree <= 3."""
    core = sigma_separating(m.basis)
    return core * (bar(m.C) + BoolPoly.one(m.genus))


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
    if m1.genus != m2.genus:
        raise GenusMismatchError("monomials have different genus")
    if m1.mask == m2.mask:
        raise ValueError("index-matching is defined on distinct monomials")
    if m1.degree > 2 or m2.degree > 2:
        raise FiltrationError("index-matching is defined on the degree-<=2 basis")
    g, x, y = m1.genus, m1.mask, m2.mask
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


def random_sp_matrices(genus: int, count: int, seed: int):
    """`count` random symplectic matrices, each a word of 8 transvections."""
    rng = random.Random(seed)
    return [random_sp_word(genus, rng) for _ in range(count)]


# -- curve-catalog JSON -------------------------------------------------------


def _check_list(value, n: int | None, want: str) -> None:
    """Raise the CatalogError `want`, saying what value is, unless it is a
    list (of n items, if n is given)."""
    if not isinstance(value, list) or n is not None and len(value) != n:
        got = f"a list of {len(value)}" if isinstance(value, list) else type(value).__name__
        raise CatalogError(f"{want}, got {got}")


def _entry_from_json(
    genus: int, data: dict, where: str
) -> tuple[Descriptor, ZSubsurfaceBasis | None]:
    """A catalog entry's descriptor and, if it is marked "integral", its
    integral basis.  Any schema violation is a CatalogError led by where."""
    if not isinstance(data, dict):
        raise CatalogError(f"{where}: entry must be an object")
    kind = data.get("type")
    if kind not in ("separating", "bp"):
        raise CatalogError(f"{where}: unknown type {kind!r}")
    label = data.get("label", "")
    if not isinstance(label, str):
        raise CatalogError(f"{where}: label must be a string, got {type(label).__name__}")
    integral = data.get("integral", False)
    if not isinstance(integral, bool):
        raise CatalogError(
            f"{where}: integral must be a boolean, got {type(integral).__name__}"
        )
    if "basis" not in data:
        raise CatalogError(f"{where}: missing field 'basis'")
    _check_list(data["basis"], None, f"{where}: basis must be a list of [A, B] coordinate pairs")
    if kind == "bp" and "C" not in data:
        raise CatalogError(f"{where}: bp entry is missing C")
    if kind == "bp" and integral:
        raise CatalogError(f"{where}: integral evaluation needs a separating entry")
    n = 2 * genus
    for k, pair in enumerate(data["basis"]):
        _check_list(pair, 2, f"{where}: basis[{k}] must be an [A, B] pair")
        for i, coords in enumerate(pair):
            _check_list(coords, n, f"{where}: basis[{k}][{i}] must be a list of {n} coordinates")
    if kind == "bp":
        _check_list(data["C"], n, f"{where}: C must be a list of {n} coordinates")
    try:
        pairs = tuple(tuple(HClass.from_coords(genus, c) for c in pair) for pair in data["basis"])
        basis = SubsurfaceBasis(genus, pairs)
        if kind == "separating":
            descriptor = SeparatingTwist(basis, label)
        else:
            descriptor = BPMap(basis, HClass.from_coords(genus, data["C"]), label)
        zbasis = None
        if integral:
            zbasis = ZSubsurfaceBasis(
                genus,
                tuple(tuple(ZHClass.from_coords(genus, c) for c in pair) for pair in data["basis"]),
            )
            zbasis.validate()
        return descriptor, zbasis
    except (KeyError, TypeError, ValueError) as exc:
        raise CatalogError(f"{where}: {exc}") from exc


def catalog_from_json(
    data, max_genus: int
) -> tuple[int, list[tuple[Descriptor, ZSubsurfaceBasis | None]]]:
    """The genus of a curve catalog, checked before any entry is read, and
    per entry its descriptor and integral basis (None unless "integral")."""
    if not isinstance(data, dict) or "genus" not in data:
        raise CatalogError("catalog must be an object with a genus field")
    try:
        g = check_genus(data["genus"])
    except ValueError as exc:
        raise CatalogError(str(exc)) from exc
    if g > max_genus:
        raise CatalogError(f"genus {g} is above the maximum {max_genus}")
    if "entries" not in data:
        raise CatalogError("catalog must have an entries list")
    entries = data["entries"]
    if not isinstance(entries, list):
        raise CatalogError(f"entries must be a list, not {type(entries).__name__}")
    parsed = []
    for k, entry in enumerate(entries):
        label = entry.get("label") if isinstance(entry, dict) else None
        where = f"entry {k}" + (f" ({label})" if isinstance(label, str) and label else "")
        parsed.append(_entry_from_json(g, entry, where))
    return g, parsed
