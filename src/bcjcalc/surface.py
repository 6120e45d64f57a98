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
enumerated.  The search represents a spine as a packed pair (x, y) of
``wedgespan._local_spines`` and names its first hits from it with
``class_name``; a genus-1 ``SubsurfaceBasis`` holds one only where a twist
object is built: ``eval`` and tests.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from functools import partial
from math import ceil, log

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


def class_name(genus: int, bits: int) -> str:
    """Text form of a packed class: its coordinate names joined by "+", "0" for 0."""
    return "+".join(coordinate_name(genus, p) for p in bit_indices(bits)) or "0"


def pairing(genus: int, x: int, y: int) -> int:
    """Mod-2 intersection x.y of two packed classes: the parity of the
    handles i with x_{a_i} y_{b_i} = 1, plus those with x_{b_i} y_{a_i} = 1."""
    return ((x & (y >> genus)) ^ (y & (x >> genus))).bit_count() & 1


def z_pairing(genus: int, x: Sequence[int], y: Sequence[int]) -> int:
    """Integral intersection x.y of two coordinate vectors (a_1..a_g, then
    b_1..b_g): the sum over handles i of x_{a_i} y_{b_i} - x_{b_i} y_{a_i}."""
    total = 0
    for i in range(genus):
        total += x[i] * y[genus + i] - x[genus + i] * y[i]
    return total


def handle_bits(genus: int, bits: int) -> int:
    """Bit i - 1 is set iff a packed class (or monomial) has a coordinate on handle i."""
    return (bits & ((1 << genus) - 1)) | (bits >> genus)


def paired_handles(genus: int, bits: int) -> int:
    """Bit i - 1 is set iff a packed class (or monomial) has both coordinates
    on handle i; the count of these handles is the constant of bar."""
    return bits & (bits >> genus)


def parity_bits(coords: Sequence[int]) -> int:
    """The packed mod-2 reduction of integer coordinates: bit i is coords[i] mod 2."""
    bits = 0
    for c in reversed(coords):
        bits = bits << 1 | c & 1
    return bits


def same_genus(first, *rest) -> int:
    """The genus every operand shares; an int stands for a declared genus.
    Raises GenusMismatchError naming the first genus and the first other one."""
    g = first if isinstance(first, int) else first.genus
    for x in rest:
        h = x if isinstance(x, int) else x.genus
        if h != g:
            raise GenusMismatchError(f"genus mismatch: {g} vs {h}")
    return g


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
        """The mod-2 reduction of integer coordinates, checked as by
        `ZHClass.from_coords`."""
        return ZHClass.from_coords(genus, coords).mod2()

    def coords(self) -> list[int]:
        return [(self.bits >> i) & 1 for i in range(2 * self.genus)]

    def __add__(self, other: "HClass") -> "HClass":
        return HClass(same_genus(self, other), self.bits ^ other.bits)

    def __bool__(self) -> bool:
        return self.bits != 0

    def __str__(self) -> str:
        return class_name(self.genus, self.bits)


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
        """The class of a list (or tuple) of 2g integers; the type is checked
        first, then the length, then each entry."""
        if not isinstance(coords, (list, tuple)):
            raise TypeError(f"coordinates must be a list, got {type(coords).__name__}")
        if len(coords) != 2 * genus:
            raise DimensionError(f"expected {2 * genus} coordinates")
        return cls(genus, tuple(check_int(c) for c in coords))

    def __add__(self, other: "ZHClass") -> "ZHClass":
        return ZHClass(same_genus(self, other), tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "ZHClass":
        return ZHClass(self.genus, tuple(-c for c in self.coords))

    def scale(self, n: int) -> "ZHClass":
        return ZHClass(self.genus, tuple(n * c for c in self.coords))

    def mod2(self) -> HClass:
        return HClass(self.genus, parity_bits(self.coords))

    def __bool__(self) -> bool:
        return any(self.coords)


def _a_position(genus: int, i: int) -> int:
    """The coordinate position of a_i (1-based handle index); b_i's is g further."""
    check_genus(genus)
    if not 1 <= i <= genus:
        raise ValueError(f"handle index {i} out of range 1..{genus}")
    return i - 1


def a(genus: int, i: int) -> HClass:
    """The basis class a_i (1-based handle index)."""
    return HClass(genus, 1 << _a_position(genus, i))


def b(genus: int, i: int) -> HClass:
    """The basis class b_i (1-based handle index)."""
    return HClass(genus, 1 << (genus + _a_position(genus, i)))


def _unit(genus: int, k: int) -> ZHClass:
    return ZHClass(genus, tuple(int(j == k) for j in range(2 * genus)))


def za(genus: int, i: int) -> ZHClass:
    """The integral basis class a_i (1-based handle index)."""
    return _unit(genus, _a_position(genus, i))


def zb(genus: int, i: int) -> ZHClass:
    """The integral basis class b_i (1-based handle index)."""
    return _unit(genus, genus + _a_position(genus, i))


def intersect(u: HClass | ZHClass, v: HClass | ZHClass) -> int:
    """Symplectic intersection u.v; mod 2 for HClass, signed for ZHClass.

    The pairing is a_i.b_i = 1 for every handle, all other basis products 0;
    over Z it is antisymmetric (b_i.a_i = -1).
    """
    if isinstance(u, HClass) and isinstance(v, HClass):
        return pairing(same_genus(u, v), u.bits, v.bits)
    if isinstance(u, ZHClass) and isinstance(v, ZHClass):
        return z_pairing(same_genus(u, v), u.coords, v.coords)
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
            same_genus(genus, A, B)
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
            same_genus(genus, A, B)
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

    @classmethod
    def from_rows(cls, genus: int, rows: Sequence[Sequence[int]]) -> "ZSubsurfaceBasis":
        """The basis with A_i and B_i the coordinate rows rows[2i - 2], rows[2i - 1]."""
        classes = [ZHClass(genus, tuple(x)) for x in rows]
        return cls(genus, tuple(zip(classes[0::2], classes[1::2])))


def symplectic_violation(
    basis: SubsurfaceBasis | ZSubsurfaceBasis,
) -> str | None:
    """First violated intersection condition, or None if the basis is valid.

    The pairing is chosen once per basis: ``pairing`` on the packed bits mod
    2, ``z_pairing`` on the coordinates over Z."""
    g = basis.genus
    if isinstance(basis, SubsurfaceBasis):
        rows = [(A.bits, B.bits) for A, B in basis.pairs]
        dot = partial(pairing, g)
    else:
        rows = [(A.coords, B.coords) for A, B in basis.pairs]
        dot = partial(z_pairing, g)

    for i, (Ai, Bi) in enumerate(rows):
        for j, (Aj, Bj) in enumerate(rows):
            want = 1 if i == j else 0
            if (n := dot(Ai, Bj)) != want:
                return f"A{i + 1}.B{j + 1} = {n}, expected {want}"
            if j > i:
                if n := dot(Ai, Aj):
                    return f"A{i + 1}.A{j + 1} = {n}, expected 0"
                if n := dot(Bi, Bj):
                    return f"B{i + 1}.B{j + 1} = {n}, expected 0"
    return None


def is_symplectic_basis(basis: SubsurfaceBasis | ZSubsurfaceBasis) -> bool:
    return symplectic_violation(basis) is None


def random_symplectic_rebase(basis: SubsurfaceBasis, seed: int) -> SubsurfaceBasis:
    """New symplectic basis of the same mod-2 subspace, deterministic per seed.

    Applies a random sequence of elementary moves: swap A_i <-> B_i (sign-free
    mod 2), shear A_i <- A_i + B_i, the cross-pair move A_i <- A_i + A_j with
    its dual correction B_j <- B_j + B_i, and pair permutation.  Each move
    preserves both the symplectic conditions and the row span, so only the
    input is validated; sigma validates every basis it is given.
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
    return SubsurfaceBasis(basis.genus, tuple((p[0], p[1]) for p in pairs))


# -- the symplectic group mod 2 --------------------------------------------


def is_symplectic(M: F2Matrix, genus: int) -> bool:
    """M^T J M = J over GF(2): M keeps the pairing of every two basis
    vectors.  (Mod 2 the pairing is symmetric and x.x = 0, so the pairs
    i < j suffice; J pairs e_i with e_j there iff j = i + g.)"""
    n = 2 * genus
    if M.n != n:
        return False
    c = M.cols
    return all(
        pairing(genus, c[i], c[j]) == (j == i + genus)
        for i in range(n)
        for j in range(i + 1, n)
    )


def transvection(v: HClass) -> F2Matrix:
    """The symplectic transvection x -> x + (x.v) v."""
    g = v.genus
    cols = [(1 << k) ^ (v.bits if pairing(g, 1 << k, v.bits) else 0) for k in range(2 * g)]
    return F2Matrix(2 * g, tuple(cols))


def random_sp_word(genus: int, rng: random.Random, length: int = 8) -> F2Matrix:
    """Product of `length` random nonzero transvections, the later ones on
    the left.  Each is applied to the columns of the product so far: the
    transvection by v maps a column c to c + v when c.v = 1."""
    g = check_genus(genus)
    cols = [1 << k for k in range(2 * g)]
    for _ in range(length):
        v = rng.randrange(1, 1 << (2 * g))
        cols = [c ^ v if pairing(g, c, v) else c for c in cols]
    return F2Matrix(2 * g, tuple(cols))


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


def randint_draws(rng: random.Random, low: int, high: int, count: int) -> list[int]:
    """The list of what `count` calls of ``rng.randint(low, high)`` would
    return, leaving ``rng`` in the same state; one value is
    ``randint_draws(rng, low, high, 1)[0]``.

    It runs CPython's own rejection loop on ``rng.getrandbits`` (3.10 to
    3.13): with n = high - low + 1 and k = n.bit_length(), draw k bits until
    the value r is below n, and take low + r.  k is n's bit length, not
    n - 1's, so a power of two n takes one bit more than it needs and is
    redrawn about half the time; ``randint`` does the same.  What it saves is
    ``randint``'s three Python frames (``randint``, ``randrange`` and
    ``_randbelow``) and their argument checks for every value, all of which
    share this one frame.  An empty range raises only when a value is drawn
    from it, as ``randint`` would.
    """
    n = high - low + 1
    if n < 1 and count > 0:
        raise ValueError(f"empty range for randint_draws({low}, {high})")
    getrandbits = rng.getrandbits
    k = n.bit_length()
    out = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        out.append(low + r)
    return out


def sample_draws(rng: random.Random, n: int, k: int) -> list[int]:
    """What ``rng.sample(range(1, n + 1), k)`` returns, n >= 0, leaving ``rng``
    in the same state.

    It runs CPython's two algorithms on ``rng.getrandbits`` (3.10 to 3.13),
    each index drawn by `randint_draws`'s rejection loop.  Up to a set's size
    (n <= 21 when k <= 5) it picks from a pool of the n values, moving the
    last unpicked value into each picked place; above that it draws indices
    below n and redraws those already picked.  What it saves is ``sample``'s
    argument checks and one ``_randbelow`` frame per value.
    """
    if not 0 <= k <= n:
        raise ValueError("Sample larger than population or is negative")
    getrandbits = rng.getrandbits
    out = []
    if n <= (21 if k <= 5 else 21 + 4 ** ceil(log(k * 3, 4))):
        pool = list(range(1, n + 1))
        for m in range(n, n - k, -1):  # m values left unpicked
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            out.append(pool[j])
            pool[j] = pool[m - 1]
    else:
        bits = n.bit_length()
        picked = set()
        for _ in range(k):
            j = getrandbits(bits)
            while j >= n or j in picked:
                j = getrandbits(bits)
            picked.add(j)
            out.append(j + 1)
    return out


def random_z_symplectic_rows(
    g: int, handles: Sequence[int], rng: random.Random, n_moves: int = 6, coeff_bound: int = 1
) -> list[list[int]]:
    """The coordinate rows A_1, B_1, ..., A_h, B_h of a random integrally
    symplectic basis on h distinct handles in 1..g, which are not checked.

    The standard basis on the handles is moved by `n_moves` random integral
    transvections x -> x + (x.v) v, each v with one entry in [-coeff_bound,
    coeff_bound] per position of the handles, a positions before b positions
    (v = 0 is skipped).  All the entries come from one `randint_draws` call.
    A move reads and writes only v's nonzero entries: x.v is the sum of
    x[partner(p)] * (+-v_p) over them.  The rows are not validated here;
    ``cassonmorita.rho_rows`` validates them on every `verify` trial.
    """
    rows = [[0] * (2 * g) for _ in range(2 * len(handles))]
    for k, i in enumerate(handles):
        rows[2 * k][i - 1] = rows[2 * k + 1][g + i - 1] = 1
    positions = [k - 1 for k in handles] + [g + k - 1 for k in handles]
    entries = iter(randint_draws(rng, -coeff_bound, coeff_bound, n_moves * len(positions)))
    for _ in range(n_moves):
        # zip stops at the end of positions, before taking an entry too many
        v = [(p, c) for p, c in zip(positions, entries) if c]
        if not v:
            continue
        # x.v = sum over i of x[a_i] v[b_i] - x[b_i] v[a_i]: a nonzero v_p
        # at b_i pairs with x[a_i] and sign +, at a_i with x[b_i] and sign -
        dual = [(p - g, c) if p >= g else (p + g, -c) for p, c in v]
        for x in rows:
            n = 0
            for q, c in dual:
                n += x[q] * c
            if n:
                for p, c in v:
                    x[p] += n * c
    return rows


def random_z_symplectic_basis(
    genus: int, h: int, rng: random.Random, handles: Sequence[int] | None = None,
    n_moves: int = 6, coeff_bound: int = 1,
) -> ZSubsurfaceBasis:
    """The basis of `random_z_symplectic_rows` on h checked handles, 1..h by default."""
    g = check_genus(genus)
    handles = list(range(1, h + 1)) if handles is None else handles
    if len(handles) != h or len(set(handles)) != h or not all(1 <= i <= g for i in handles):
        raise ValueError(f"need exactly h distinct handles in 1..{g}")
    return ZSubsurfaceBasis.from_rows(g, random_z_symplectic_rows(g, handles, rng, n_moves, coeff_bound))
