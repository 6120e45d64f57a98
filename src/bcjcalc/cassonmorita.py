"""The integral algebra of linking symbols and its reduction to the
square-free algebra.

The algebra is the commutative Z-algebra on symbols l(u, v), u and v
integral homology classes, subject to

    l(v, u) = l(u, v) + u.v          (swap relation, Z-intersection form)
    l(n1 u1 + n2 u2, v) = n1 l(u1, v) + n2 l(u2, v)   (bilinearity)

Elements are kept in normal form: every generator symbol l(e_p, e_q) has
p <= q in the coordinate order a_1..a_g, b_1..b_g, swaps being rewritten
through the first relation, and no zero coefficients are stored.  There are
2g^2 + g distinct ordered symbols.  Coefficients are plain Python integers,
so products of linking numbers can grow without overflow.

Morita's value on a separating twist presented by an integrally symplectic
basis (A_i, B_i) is the quadratic expression

    rho(T_c) = - sum_i [ l(A_i,A_i) l(B_i,B_i) - l(A_i,B_i) l(B_i,A_i) ]
               - 2 sum_{i<j} [ l(A_i,A_j) l(B_i,B_j) - l(A_i,B_j) l(A_j,B_i) ]

rho_separating sums these products exactly in one packed kernel.  The
unordered symbol pairs {p <= q} over the n coordinate positions the basis
uses get local indices t = 1, 2, ... in lexicographic order (cached per n);
t = 0 is the constant.  Each form l(x, y) is built once as (t, coeff) terms
and packed into one integer, a signed W-bit field per t.  A product f x y
adds f c Y to row t for each term (t, c) of x and f c X for each term of y,
so field t2 of row t1 ends as Q[t1][t2] + Q[t2][t1], Q[t1][t2] being the
sum of f x_t1 y_t2: the result's coefficient above the diagonal, twice it
on it.  Each row is read from its diagonal up, one nonzero field at a time.
A form coefficient is at most L^2, L the largest l1 norm of a basis vector,
and the |f| sum to 2h^2, so |field| <= 4 h^2 L^4 < 2^(W-1) for
W = bit_length(4 h^2 L^4) + 1: no field reaches into the next, and Python
integers are exact, so the result is exact over Z at any coefficient size.

The reduction mu to the square-free algebra sends the diagonal symbol
l(e_k, e_k) to the variable ebar_k and every other ordered symbol to 0;
the classical table value mu(l(b_i, a_i)) = 1 is realized by normalization,
since l(b_i, a_i) = l(a_i, b_i) + 1 and mu(l(a_i, b_i)) = 0.  Coefficients
reduce mod 2.  On these conventions mu . rho = sigma holds exactly.

An evaluation homomorphism substitutes a linking matrix L (constraint
L^T - L = J over Z) for the symbols; its mod-2 diagonal is a self-linking
form, giving the evaluation on the square-free side.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence
from functools import lru_cache

from .bcjmap import SeparatingTwist, sigma_separating
from .boolring import BoolPoly, SelfLinkingForm, bar, evaluate
from .errors import ConsistencyError, GenusMismatchError
from .surface import (
    ZHClass,
    ZSubsurfaceBasis,
    check_genus,
    check_int,
    coordinate_name,
    parity_bits,
    random_z_symplectic_basis,
)
from .value import Value
from .wedgespan import wedge


def n_symbols(genus: int) -> int:
    """Distinct ordered symbols: all pairs p <= q over 2g coordinates."""
    return 2 * genus * genus + genus


Monomial = tuple[tuple[int, int], ...]  # sorted tuple of (p, q) index pairs


class CMPoly(Value):
    """Integer polynomial in ordered linking symbols, in normal form."""

    __slots__ = ("genus", "terms")

    def __init__(self, genus: int, terms: Mapping[Monomial, int] | None = None):
        check_genus(genus)
        clean: dict[Monomial, int] = {}
        if terms:
            for mon, coeff in terms.items():
                if coeff == 0:
                    continue
                mon = tuple(sorted(tuple(sym) for sym in mon))
                for p, q in mon:
                    if not 0 <= p <= q < 2 * genus:
                        raise ValueError(f"symbol ({p},{q}) is not in normal form")
                clean[mon] = clean.get(mon, 0) + coeff
                if clean[mon] == 0:
                    del clean[mon]
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, genus: int, terms: dict[Monomial, int]) -> "CMPoly":
        """Wrap ``terms`` as they are, without validation.

        The caller guarantees normal form: every monomial is a sorted tuple
        of symbols (p, q) with 0 <= p <= q < 2g, no coefficient is zero, and
        the dict is not shared with anything that later mutates it.  The
        arithmetic below keeps these invariants, so its results skip the
        per-term re-sorting and re-checking of ``__init__``.
        """
        obj = object.__new__(cls)
        object.__setattr__(obj, "genus", genus)
        object.__setattr__(obj, "terms", terms)
        return obj

    @classmethod
    def zero(cls, genus: int) -> "CMPoly":
        return cls(genus)

    @classmethod
    def const(cls, genus: int, n: int) -> "CMPoly":
        return cls(genus, {(): n})

    @classmethod
    def one(cls, genus: int) -> "CMPoly":
        return cls.const(genus, 1)

    @classmethod
    def symbol(cls, genus: int, p: int, q: int, coeff: int = 1) -> "CMPoly":
        if not 0 <= p <= q < 2 * genus:
            raise ValueError(f"symbol ({p},{q}) is not in normal form")
        return cls(genus, {((p, q),): coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __hash__(self):
        # Value's hash of the field tuple would fail on the dict `terms`
        return hash((self.genus, frozenset(self.terms.items())))

    def _check(self, other: "CMPoly") -> None:
        if self.genus != other.genus:
            raise GenusMismatchError("cannot combine across genera")

    def __add__(self, other: "CMPoly") -> "CMPoly":
        self._check(other)
        acc = dict(self.terms)
        for mon, c in other.terms.items():
            c += acc.get(mon, 0)
            if c:
                acc[mon] = c
            else:
                del acc[mon]
        return CMPoly._trusted(self.genus, acc)

    def __neg__(self) -> "CMPoly":
        return CMPoly._trusted(self.genus, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "CMPoly") -> "CMPoly":
        return self + (-other)

    def __mul__(self, other: "CMPoly") -> "CMPoly":
        self._check(other)
        acc: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mon = tuple(sorted(m1 + m2))
                acc[mon] = acc.get(mon, 0) + c1 * c2
        return CMPoly._trusted(self.genus, {m: c for m, c in acc.items() if c})

    def scale(self, n: int) -> "CMPoly":
        if n == 0:
            return CMPoly._trusted(self.genus, {})
        return CMPoly._trusted(self.genus, {m: n * c for m, c in self.terms.items()})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        g = self.genus
        chunks = []
        for mon in sorted(self.terms, key=lambda m: (len(m), m)):
            coeff = self.terms[mon]
            factors = []
            k = 0
            while k < len(mon):
                run = 1
                while k + run < len(mon) and mon[k + run] == mon[k]:
                    run += 1
                p, q = mon[k]
                name = f"l({coordinate_name(g, p)},{coordinate_name(g, q)})"
                factors.append(name if run == 1 else f"{name}^{run}")
                k += run
            body = "*".join(factors) if factors else ""
            if not body:
                chunk = str(coeff)
            elif coeff == 1:
                chunk = body
            elif coeff == -1:
                chunk = f"-{body}"
            else:
                chunk = f"{coeff}*{body}"
            chunks.append(chunk)
        out = chunks[0]
        for c in chunks[1:]:
            out += f" - {c[1:]}" if c.startswith("-") else f" + {c}"
        return out

    def __repr__(self) -> str:
        return f"CMPoly({self.genus}, {self})"


@lru_cache(maxsize=None)
def _pair_table(n: int):
    """Local index of the unordered pairs {p <= q} over n support
    positions, in lexicographic order from t = 1 (t = 0 is the constant):
    the pairs, the (t, p, q) with p < q and the (t, p) with p = q."""
    pairs = tuple((p, q) for p in range(n) for q in range(p, n))
    off = tuple((t, p, q) for t, (p, q) in enumerate(pairs, 1) if p < q)
    diag = tuple((t, p) for t, (p, q) in enumerate(pairs, 1) if p == q)
    return pairs, off, diag


def _linear_form(u, v, table, swaps) -> list[tuple[int, int]]:
    """l(u, v) as its nonzero (t, coeff) terms over local coordinates u, v.

    Each raw l(e_q, e_p) with q > p is rewritten through the swap relation
    as l(e_p, e_q) + e_p.e_q, so the constant (t = 0) picks up +1 exactly
    when a (b_i, a_i) pair is swapped into order: it is the sum of
    u_b v_a over the local (a, b) positions of each handle in ``swaps``.
    """
    _, off, diag = table
    terms = [(t, c) for t, p, q in off if (c := u[p] * v[q] + u[q] * v[p])]
    terms += [(t, c) for t, p in diag if (c := u[p] * v[p])]
    const = sum(u[b] * v[a] for a, b in swaps)
    if const:
        terms.append((0, const))
    return terms


def cm_generator(u: ZHClass, v: ZHClass) -> CMPoly:
    """l(u, v) expanded bilinearly over the fixed basis and normalized."""
    if u.genus != v.genus:
        raise GenusMismatchError("classes have different genus")
    g = u.genus
    table = _pair_table(2 * g)
    terms = _linear_form(u.coords, v.coords, table, [(i, g + i) for i in range(g)])
    return CMPoly._trusted(g, {(table[0][t - 1],) if t else (): c for t, c in terms})


def _field_width(h: int, L: int) -> int:
    """Bits per packed field in rho_separating: the least W with
    2^(W-1) > 4 h^2 L^4, the bound on every field (module docstring)."""
    return (4 * h * h * L**4).bit_length() + 1


def rho_separating(basis: ZSubsurfaceBasis | SeparatingTwist) -> CMPoly:
    """Morita's value on a separating twist, from an integral basis.

    Computed exactly over Z by the packed kernel of the module docstring.
    """
    if isinstance(basis, SeparatingTwist):
        raise TypeError("rho needs the integral basis, not the mod-2 twist")
    basis.validate()
    g = check_genus(basis.genus)
    pairs = basis.pairs
    h = len(pairs)
    if not h:
        return CMPoly._trusted(g, {})
    vectors = [c.coords for pair in pairs for c in pair]
    support = [p for p in range(2 * g) if any(vec[p] for vec in vectors)]
    local = {p: k for k, p in enumerate(support)}
    swaps = [(local[i], local[g + i]) for i in range(g) if i in local and g + i in local]
    table = _pair_table(len(support))
    A = [[vec[p] for p in support] for vec in vectors[0::2]]
    B = [[vec[p] for p in support] for vec in vectors[1::2]]
    W = _field_width(h, max(sum(map(abs, vec)) for vec in vectors))
    products = []
    for i in range(h):
        products += [(A[i], A[i], B[i], B[i], -1), (A[i], B[i], B[i], A[i], 1)]
        for j in range(i + 1, h):
            products += [(A[i], A[j], B[i], B[j], -2), (A[i], B[j], A[j], B[i], 2)]
    rows = [0] * (len(table[0]) + 1)
    shift = [W * t for t in range(len(rows))]
    for x1, x2, y1, y2, f in products:
        x = _linear_form(x1, x2, table, swaps)
        y = _linear_form(y1, y2, table, swaps)
        fX = f * sum([c << shift[t] for t, c in x])
        fY = f * sum([c << shift[t] for t, c in y])
        for t, c in x:
            rows[t] += c * fY
        for t, c in y:
            rows[t] += c * fX
    # Field t2 of row t1 now holds Q[t1][t2] + Q[t2][t1].  Read each row
    # from its diagonal up: the rounded shift drops the mirror fields
    # t2 < t1, whose sum is below half a unit of field t1.
    mons = [()] + [((support[p], support[q]),) for p, q in table[0]]
    mask, top = (1 << W) - 1, 1 << (W - 1)
    terms: dict[Monomial, int] = {}
    for t1, R in enumerate(rows):
        if t1 and R:
            R = (R + (1 << (W * t1 - 1))) >> (W * t1)
        while R:
            k = ((R & -R).bit_length() - 1) // W
            c = (R >> (W * k)) & mask
            if c >= top:
                c -= 1 << W
            R -= c << (W * k)
            terms[mons[t1] + mons[t1 + k]] = c >> 1 if k == 0 else c
    return CMPoly._trusted(g, terms)


def mu(x: CMPoly) -> BoolPoly:
    """Reduction to the square-free algebra.

    Diagonal symbols become variables, all other ordered symbols die, and
    coefficients reduce mod 2.  This respects both defining relations and
    satisfies mu(l(u, u)) = bar(u mod 2) for every integral class u.
    """
    masks: set[int] = set()
    for mon, coeff in x.terms.items():
        if coeff % 2 == 0:
            continue
        mask = 0
        dead = False
        for p, q in mon:
            if p == q:
                mask |= 1 << p
            else:
                dead = True
                break
        if dead:
            continue
        masks ^= {mask}
    return BoolPoly(x.genus, masks)


# -- evaluation ---------------------------------------------------------------


def _z_pairing(genus: int, p: int, q: int) -> int:
    """e_p.e_q over Z: +1 for (a_i, b_i), -1 for (b_i, a_i), else 0."""
    if q == p + genus:
        return 1
    if p == q + genus:
        return -1
    return 0


class LinkingMatrix(Value):
    """Integer matrix of linking numbers L[p][q] = lk(e_p, e_q^+).

    The swap relation forces L^T - L = J, where J is the antisymmetric
    intersection matrix; validated on construction, naming the first
    violated entry.
    """

    __slots__ = ("genus", "entries")

    def __init__(self, genus: int, entries: tuple[tuple[int, ...], ...]):
        g = check_genus(genus)
        n = 2 * g
        if len(entries) != n or any(len(row) != n for row in entries):
            raise ConsistencyError(f"linking matrix must be {n}x{n}")
        for p in range(n):
            for q in range(n):
                got = entries[q][p] - entries[p][q]
                want = _z_pairing(g, p, q)
                if got != want:
                    raise ConsistencyError(
                        f"L[{q}][{p}] - L[{p}][{q}] = {got}, expected {want} "
                        f"(pair {coordinate_name(g, p)},{coordinate_name(g, q)})"
                    )
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, genus: int, rows: Sequence[Sequence[int]]) -> "LinkingMatrix":
        if not isinstance(rows, (list, tuple)):
            raise TypeError(f"matrix must be a list of rows, got {type(rows).__name__}")
        for p, row in enumerate(rows):
            if not isinstance(row, (list, tuple)):
                raise TypeError(f"matrix row {p} must be a list, got {type(row).__name__}")
        return cls(
            genus, tuple(tuple(check_int(e, "linking number") for e in row) for row in rows)
        )

    @classmethod
    def standard_model(cls, genus: int) -> "LinkingMatrix":
        """Zero diagonal, L[b_i][a_i] = 1, all else 0."""
        g = check_genus(genus)
        n = 2 * g
        rows = [[0] * n for _ in range(n)]
        for i in range(g):
            rows[g + i][i] = 1
        return cls.from_rows(g, rows)

    @classmethod
    def random_valid(cls, genus: int, rng: random.Random, bound: int = 3) -> "LinkingMatrix":
        """Random matrix satisfying the constraint: free diagonal and upper
        triangle, lower triangle forced."""
        g = check_genus(genus)
        n = 2 * g
        rows = [[0] * n for _ in range(n)]
        for p in range(n):
            rows[p][p] = rng.randint(-bound, bound)
            for q in range(p + 1, n):
                rows[p][q] = rng.randint(-bound, bound)
                rows[q][p] = rows[p][q] + _z_pairing(g, p, q)
        return cls.from_rows(g, rows)

    def entry(self, p: int, q: int) -> int:
        return self.entries[p][q]

    def omega(self) -> SelfLinkingForm:
        """Mod-2 diagonal; the self-linking form u -> u^T L u mod 2."""
        diagonal = [self.entries[k][k] for k in range(2 * self.genus)]
        return SelfLinkingForm(self.genus, parity_bits(diagonal))

    def to_json(self) -> dict:
        return {"genus": self.genus, "matrix": [list(r) for r in self.entries]}

    @classmethod
    def from_json(cls, data: dict) -> "LinkingMatrix":
        """The matrix of a linking-matrix document; a missing or malformed
        field is a ConsistencyError, like a violated constraint."""
        if not isinstance(data, dict):
            raise ConsistencyError("linking matrix must be a JSON object")
        try:
            return cls.from_rows(check_genus(data["genus"]), data["matrix"])
        except KeyError as exc:
            raise ConsistencyError(f"missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConsistencyError(str(exc)) from exc


def epsilon(L: LinkingMatrix, x: CMPoly) -> int:
    """Evaluation homomorphism: substitute L for the symbols, over Z."""
    if L.genus != x.genus:
        raise GenusMismatchError("matrix and polynomial have different genus")
    total = 0
    for mon, coeff in x.terms.items():
        val = coeff
        for p, q in mon:
            val *= L.entries[p][q]
        total += val
    return total


def selflink_eval(L: LinkingMatrix, p: BoolPoly) -> int:
    """Evaluate a square-free polynomial at the form induced by L."""
    if L.genus != p.genus:
        raise GenusMismatchError("matrix and polynomial have different genus")
    return evaluate(p, L.omega())


# -- diagram verification -----------------------------------------------------


def _random_integral_class(
    genus: int, rng: random.Random, bound: int = 2
) -> ZHClass:
    return ZHClass(genus, tuple(rng.randint(-bound, bound) for _ in range(2 * genus)))


def check_record(failures: list[str], trials: int) -> dict:
    """One check of a verify report; a check that ran no trial never passes."""
    return {
        "trials": trials,
        "failures": len(failures),
        "witnesses": failures[:5],
        "passed": trials > 0 and not failures,
    }


def right_square_failures(
    genus: int, num_trials: int, rng: random.Random, L: LinkingMatrix | None = None
) -> list[str]:
    """epsilon(L, rho(T_c)) mod 2 == selflink_eval(L, sigma(T_c)) on random
    integral bases, against L when given, else a fresh random valid L per
    trial."""
    failures = []
    for t in range(num_trials):
        h = rng.randint(1, min(genus, 3))
        handles = sorted(rng.sample(range(1, genus + 1), h))
        zbasis = random_z_symplectic_basis(genus, h, rng, handles)
        M = L if L is not None else LinkingMatrix.random_valid(genus, rng)
        lhs = epsilon(M, rho_separating(zbasis)) & 1
        rhs = selflink_eval(M, sigma_separating(zbasis.mod2()))
        if lhs != rhs:
            failures.append(f"trial {t}: basis {zbasis.pairs}")
    return failures


def verify_diagrams(genus: int, num_trials: int, seed: int) -> dict:
    """Randomized verification of the commuting-diagram identities.

    (a) triangle: mu(rho(T_c)) == sigma(T_c) on random integral bases;
    (b) mu(l(u, u)) == bar(u mod 2) on random integral classes;
    (c) right square on the image of rho: epsilon(L, rho(T_c)) mod 2 ==
        selflink_eval(L, sigma(T_c)) for random valid L;
    (d) wedge lift: mu(rho(f)) ^ mu(rho(g)) == sigma(f) ^ sigma(g) for
        support-disjoint pairs.

    Failures are report content, not exceptions.
    """
    g = check_genus(genus)
    rng = random.Random(seed)
    report: dict = {"genus": g, "trials": num_trials, "seed": seed, "checks": {}}
    checks = report["checks"]

    failures = []
    for t in range(num_trials):
        h = rng.randint(0, min(g, 3))
        if h == 0:
            zbasis = ZSubsurfaceBasis(g, ())
        else:
            handles = sorted(rng.sample(range(1, g + 1), h))
            zbasis = random_z_symplectic_basis(g, h, rng, handles)
        lhs = mu(rho_separating(zbasis))
        rhs = sigma_separating(zbasis.mod2())
        if lhs != rhs:
            failures.append(f"trial {t}: basis {zbasis.pairs}")
    checks["triangle"] = check_record(failures, num_trials)

    failures = []
    for t in range(num_trials):
        u = _random_integral_class(g, rng)
        if mu(cm_generator(u, u)) != bar(u.mod2()):
            failures.append(f"trial {t}: u = {u.coords}")
    checks["mu_quadratic"] = check_record(failures, num_trials)

    failures = right_square_failures(g, num_trials, rng)
    checks["right_square"] = check_record(failures, num_trials)

    if g >= 2:
        failures = []
        n_lift = max(1, num_trials // 4)
        for t in range(n_lift):
            handles = list(range(1, g + 1))
            rng.shuffle(handles)
            h1 = rng.randint(1, min(g - 1, 2))
            h2 = rng.randint(1, min(g - h1, 2))
            set1, set2 = sorted(handles[:h1]), sorted(handles[h1 : h1 + h2])
            zb1 = random_z_symplectic_basis(g, h1, rng, set1)
            zb2 = random_z_symplectic_basis(g, h2, rng, set2)
            lhs = wedge(mu(rho_separating(zb1)), mu(rho_separating(zb2)))
            rhs = wedge(sigma_separating(zb1.mod2()), sigma_separating(zb2.mod2()))
            if lhs != rhs:
                failures.append(f"trial {t}: handles {set1} / {set2}")
        checks["wedge_lift"] = check_record(failures, n_lift)

    report["all_passed"] = all(c["passed"] for c in checks.values())
    return report


def mu_quadratic_exhaustive(genus: int) -> list[str]:
    """mu(l(u, u)) == bar(u) for every 0/1 lift of a mod-2 class."""
    g = check_genus(genus)
    failures = []
    for bits in range(1 << (2 * g)):
        u = ZHClass(g, tuple((bits >> k) & 1 for k in range(2 * g)))
        if mu(cm_generator(u, u)) != bar(u.mod2()):
            failures.append(f"u bits {bits:0{2 * g}b}")
    return failures


# -- JSON ----------------------------------------------------------------------


def cmpoly_to_json(x: CMPoly) -> list[dict]:
    out = []
    for mon in sorted(x.terms, key=lambda m: (len(m), m)):
        out.append({"coeff": x.terms[mon], "monomial": [list(s) for s in mon]})
    return out
