"""Fixed homology model of the genus-g surface with one boundary component.

Coordinates follow one convention everywhere: positions 0..g-1 hold the
a_1..a_g coefficients and positions g..2g-1 hold b_1..b_g.  Handles are
numbered 1..g.  ``HClass`` carries a mod-2 class, ``ZHClass`` an integral
one; the intersection form is the standard symplectic pairing a_i.b_i = 1
(antisymmetric over Z, symmetric mod 2).

Two modeling axioms are assumed, not checked: any mod-2 pair (x, y) with
x.y = 1 is realizable by a genus-1 spine on the standard surface, and spines
with disjoint handle supports admit disjoint representatives.  Handle-support
disjointness is therefore a sufficient, conservative criterion for disjoint
realization; cycles that would need overlapping supports are not
enumerated.  A spine is represented by a genus-1 ``SubsurfaceBasis``.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from .errors import BasisError, DimensionError, GenusMismatchError
from .gf2core import F2Matrix, bit_indices
from .value import Value


def check_genus(g: int) -> int:
    """g itself if it is a positive int; a bool (JSON true) is not."""
    if type(g) is not int or g < 1:
        raise ValueError(f"genus must be a positive integer, got {g!r}")
    return g


def check_int(x, what: str = "coordinate") -> int:
    """x itself if it is an int; a bool (JSON true/false) or a float is not."""
    if type(x) is bool or not isinstance(x, int):
        raise TypeError(f"{what} must be an integer, got {x!r}")
    return x


def coordinate_name(genus: int, p: int) -> str:
    """Name of coordinate position p: a1..ag, then b1..bg."""
    return f"a{p + 1}" if p < genus else f"b{p - genus + 1}"


def pairing(genus: int, x: int, y: int) -> int:
    """Mod-2 intersection x.y of two packed classes: the parity of the
    handles i with x_{a_i} y_{b_i} = 1, plus those with x_{b_i} y_{a_i} = 1."""
    return ((x & (y >> genus)) ^ (y & (x >> genus))).bit_count() & 1


def handle_bits(genus: int, bits: int) -> int:
    """Bit i - 1 is set iff a packed class (or monomial) has a coordinate on handle i."""
    return (bits & ((1 << genus) - 1)) | (bits >> genus)


def _check_same_genus(u, v) -> None:
    if u.genus != v.genus:
        raise GenusMismatchError(f"genus mismatch: {u.genus} vs {v.genus}")


class HClass(Value):
    """Mod-2 first-homology class, packed into a length-2g bit vector."""

    __slots__ = ("genus", "bits")

    def __init__(self, genus: int, bits: int = 0):
        check_genus(genus)
        if bits < 0 or bits >> (2 * genus):
            raise DimensionError("coordinates do not fit length 2g")
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "bits", bits)

    @classmethod
    def from_coords(cls, genus: int, coords: Sequence[int]) -> "HClass":
        if not isinstance(coords, (list, tuple)):
            raise TypeError(f"coordinates must be a list, got {type(coords).__name__}")
        if len(coords) != 2 * genus:
            raise DimensionError(f"expected {2 * genus} coordinates")
        bits = 0
        for i, c in enumerate(coords):
            if check_int(c) & 1:
                bits |= 1 << i
        return cls(genus, bits)

    def coords(self) -> list[int]:
        return [(self.bits >> i) & 1 for i in range(2 * self.genus)]

    def __add__(self, other: "HClass") -> "HClass":
        _check_same_genus(self, other)
        return HClass(self.genus, self.bits ^ other.bits)

    def __bool__(self) -> bool:
        return self.bits != 0

    def __str__(self) -> str:
        g = self.genus
        terms = [coordinate_name(g, i) for i in bit_indices(self.bits)]
        return "+".join(terms) if terms else "0"


class ZHClass(Value):
    """Integral first-homology class (same position convention)."""

    __slots__ = ("genus", "coords")

    def __init__(self, genus: int, coords: tuple[int, ...] = ()):
        check_genus(genus)
        if len(coords) != 2 * genus:
            raise DimensionError(f"expected {2 * genus} coordinates")
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "coords", coords)

    @classmethod
    def from_coords(cls, genus: int, coords: Sequence[int]) -> "ZHClass":
        return cls(genus, tuple(check_int(c) for c in coords))

    def __add__(self, other: "ZHClass") -> "ZHClass":
        _check_same_genus(self, other)
        return ZHClass(self.genus, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "ZHClass":
        return ZHClass(self.genus, tuple(-c for c in self.coords))

    def scale(self, n: int) -> "ZHClass":
        return ZHClass(self.genus, tuple(n * c for c in self.coords))

    def mod2(self) -> HClass:
        bits = 0
        for i, c in enumerate(self.coords):
            if c & 1:
                bits |= 1 << i
        return HClass(self.genus, bits)

    def __bool__(self) -> bool:
        return any(self.coords)


def a(genus: int, i: int) -> HClass:
    """The basis class a_i (1-based handle index)."""
    check_genus(genus)
    if not 1 <= i <= genus:
        raise ValueError(f"handle index {i} out of range 1..{genus}")
    return HClass(genus, 1 << (i - 1))


def b(genus: int, i: int) -> HClass:
    """The basis class b_i (1-based handle index)."""
    check_genus(genus)
    if not 1 <= i <= genus:
        raise ValueError(f"handle index {i} out of range 1..{genus}")
    return HClass(genus, 1 << (genus + i - 1))


def za(genus: int, i: int) -> ZHClass:
    return ZHClass(genus, tuple(1 if k == i - 1 else 0 for k in range(2 * genus)))


def zb(genus: int, i: int) -> ZHClass:
    return ZHClass(genus, tuple(1 if k == genus + i - 1 else 0 for k in range(2 * genus)))


def intersect(u: HClass | ZHClass, v: HClass | ZHClass) -> int:
    """Symplectic intersection u.v; mod 2 for HClass, signed for ZHClass.

    The pairing is a_i.b_i = 1 for every handle, all other basis products 0;
    over Z it is antisymmetric (b_i.a_i = -1).
    """
    if isinstance(u, HClass) and isinstance(v, HClass):
        _check_same_genus(u, v)
        return pairing(u.genus, u.bits, v.bits)
    if isinstance(u, ZHClass) and isinstance(v, ZHClass):
        _check_same_genus(u, v)
        g = u.genus
        total = 0
        for i in range(g):
            total += u.coords[i] * v.coords[g + i] - u.coords[g + i] * v.coords[i]
        return total
    raise TypeError("intersect needs two HClass or two ZHClass arguments")


def support(u: HClass | ZHClass) -> frozenset[int]:
    """Handles (1-based) on which u has a nonzero a- or b-coordinate."""
    g = u.genus
    if isinstance(u, HClass):
        return frozenset(i + 1 for i in bit_indices(handle_bits(g, u.bits)))
    return frozenset(
        i + 1 for i in range(g) if u.coords[i] != 0 or u.coords[g + i] != 0
    )


class SubsurfaceBasis(Value):
    """Mod-2 symplectic basis (A_i, B_i) of a bounded subsurface."""

    __slots__ = ("genus", "pairs")

    def __init__(self, genus: int, pairs: tuple[tuple[HClass, HClass], ...] = ()):
        for A, B in pairs:
            if A.genus != genus or B.genus != genus:
                raise GenusMismatchError("basis entry has wrong genus")
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "pairs", pairs)

    @property
    def h(self) -> int:
        """Genus of the subsurface the basis spans."""
        return len(self.pairs)

    def support(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for A, B in self.pairs:
            out |= support(A) | support(B)
        return out

    def rows(self) -> list[HClass]:
        return [c for pair in self.pairs for c in pair]

    def validate(self) -> None:
        msg = symplectic_violation(self)
        if msg is not None:
            raise BasisError(msg)

    @classmethod
    def standard(cls, genus: int, handles: Sequence[int]) -> "SubsurfaceBasis":
        return cls(genus, tuple((a(genus, i), b(genus, i)) for i in handles))


class ZSubsurfaceBasis(Value):
    """Integral symplectic basis of a bounded subsurface."""

    __slots__ = ("genus", "pairs")

    def __init__(self, genus: int, pairs: tuple[tuple[ZHClass, ZHClass], ...] = ()):
        for A, B in pairs:
            if A.genus != genus or B.genus != genus:
                raise GenusMismatchError("basis entry has wrong genus")
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "pairs", pairs)

    @property
    def h(self) -> int:
        return len(self.pairs)

    def mod2(self) -> SubsurfaceBasis:
        return SubsurfaceBasis(
            self.genus, tuple((A.mod2(), B.mod2()) for A, B in self.pairs)
        )

    def validate(self) -> None:
        msg = symplectic_violation(self)
        if msg is not None:
            raise BasisError(msg)

    @classmethod
    def standard(cls, genus: int, handles: Sequence[int]) -> "ZSubsurfaceBasis":
        return cls(genus, tuple((za(genus, i), zb(genus, i)) for i in handles))


def symplectic_violation(
    basis: SubsurfaceBasis | ZSubsurfaceBasis,
) -> str | None:
    """First violated intersection condition, or None if the basis is valid."""
    pairs = basis.pairs
    for i, (Ai, Bi) in enumerate(pairs):
        for j, (Aj, Bj) in enumerate(pairs):
            want = 1 if i == j else 0
            if intersect(Ai, Bj) != want:
                return f"A{i + 1}.B{j + 1} = {intersect(Ai, Bj)}, expected {want}"
            if j > i:
                if intersect(Ai, Aj) != 0:
                    return f"A{i + 1}.A{j + 1} = {intersect(Ai, Aj)}, expected 0"
                if intersect(Bi, Bj) != 0:
                    return f"B{i + 1}.B{j + 1} = {intersect(Bi, Bj)}, expected 0"
    return None


def is_symplectic_basis(basis: SubsurfaceBasis | ZSubsurfaceBasis) -> bool:
    return symplectic_violation(basis) is None


def random_symplectic_rebase(basis: SubsurfaceBasis, seed: int) -> SubsurfaceBasis:
    """New symplectic basis of the same mod-2 subspace, deterministic per seed.

    Applies a random sequence of elementary moves: swap A_i <-> B_i (sign-free
    mod 2), shear A_i <- A_i + B_i, the cross-pair move A_i <- A_i + A_j with
    its dual correction B_j <- B_j + B_i, and pair permutation.  Each move
    preserves both the symplectic conditions and the row span.
    """
    basis.validate()
    rng = random.Random(seed)
    pairs = [list(p) for p in basis.pairs]
    h = len(pairs)
    if h == 0:
        return basis
    n_moves = rng.randint(3 * h, 6 * h)
    for _ in range(n_moves):
        kind = rng.choice(("swap", "shear", "mix", "permute") if h > 1 else ("swap", "shear"))
        if kind == "swap":
            i = rng.randrange(h)
            pairs[i][0], pairs[i][1] = pairs[i][1], pairs[i][0]
        elif kind == "shear":
            i = rng.randrange(h)
            pairs[i][0] = pairs[i][0] + pairs[i][1]
        elif kind == "mix":
            i, j = rng.sample(range(h), 2)
            pairs[i][0] = pairs[i][0] + pairs[j][0]
            pairs[j][1] = pairs[j][1] + pairs[i][1]
        else:
            rng.shuffle(pairs)
    out = SubsurfaceBasis(basis.genus, tuple((p[0], p[1]) for p in pairs))
    out.validate()
    return out


# -- the symplectic group mod 2 --------------------------------------------


def is_symplectic(M: F2Matrix, genus: int) -> bool:
    """M^T J M = J over GF(2): M keeps the pairing of every two basis
    vectors.  (Mod 2 the pairing is symmetric and x.x = 0, so the pairs
    i < j suffice.)"""
    n = 2 * genus
    if M.n != n:
        return False
    c = M.cols
    return all(
        pairing(genus, c[i], c[j]) == pairing(genus, 1 << i, 1 << j)
        for i in range(n)
        for j in range(i + 1, n)
    )


def transvection(v: HClass) -> F2Matrix:
    """The symplectic transvection x -> x + (x.v) v."""
    g = v.genus
    cols = [(1 << k) ^ (v.bits if pairing(g, 1 << k, v.bits) else 0) for k in range(2 * g)]
    return F2Matrix(2 * g, tuple(cols))


def random_sp_word(genus: int, rng: random.Random, length: int = 8) -> F2Matrix:
    """Product of `length` random nonzero transvections."""
    g = check_genus(genus)
    M = F2Matrix.identity(2 * g)
    for _ in range(length):
        v = HClass(g, rng.randrange(1, 1 << (2 * g)))
        M = transvection(v) @ M
    return M


def apply_matrix(M: F2Matrix, u: HClass) -> HClass:
    if M.n != 2 * u.genus:
        raise DimensionError("matrix size does not match class genus")
    return HClass(u.genus, M.mul_vec(u.bits))


def transform_basis(M: F2Matrix, basis: SubsurfaceBasis) -> SubsurfaceBasis:
    return SubsurfaceBasis(
        basis.genus,
        tuple((apply_matrix(M, A), apply_matrix(M, B)) for A, B in basis.pairs),
    )


# -- integral symplectic data ------------------------------------------------


def random_z_symplectic_basis(
    genus: int,
    h: int,
    rng: random.Random,
    handles: Sequence[int] | None = None,
    n_moves: int = 6,
    coeff_bound: int = 1,
) -> ZSubsurfaceBasis:
    """Random integrally symplectic basis of subsurface genus h.

    Built by applying random integral transvections to the standard basis on
    the chosen handles; transvection directions are supported on those same
    handles, so the result's handle support stays inside them.
    """
    g = check_genus(genus)
    if handles is None:
        handles = list(range(1, h + 1))
    if len(handles) != h or len(set(handles)) != h or not all(1 <= i <= g for i in handles):
        raise ValueError(f"need exactly h distinct handles in 1..{g}")
    rows = [[0] * (2 * g) for _ in range(2 * h)]
    for k, i in enumerate(handles):
        rows[2 * k][i - 1] = rows[2 * k + 1][g + i - 1] = 1
    positions = [k - 1 for k in handles] + [g + k - 1 for k in handles]
    for _ in range(n_moves):
        v = [0] * (2 * g)
        for p in positions:
            v[p] = rng.randint(-coeff_bound, coeff_bound)
        if not any(v):
            continue
        # the transvection x -> x + (x.v) v, with the pairing read on the
        # support handles only, since v vanishes elsewhere
        for x in rows:
            n = sum(x[i - 1] * v[g + i - 1] - x[g + i - 1] * v[i - 1] for i in handles)
            if n:
                for p in positions:
                    x[p] += n * v[p]
    classes = [ZHClass(g, tuple(x)) for x in rows]
    out = ZSubsurfaceBasis(g, tuple(zip(classes[0::2], classes[1::2])))
    out.validate()
    return out


# -- JSON decoding -----------------------------------------------------------


def zbasis_from_json(data: dict) -> ZSubsurfaceBasis:
    g = check_genus(data["genus"])
    return ZSubsurfaceBasis(
        g,
        tuple(
            (ZHClass.from_coords(g, A), ZHClass.from_coords(g, B))
            for A, B in data["pairs"]
        ),
    )
