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

rho_separating evaluates it in closed form.  Let Lam_pq = l(e_p, e_q) =
s_pq + [p = q + g], s_pq the normal-form symbol of {p, q}, so l(x, y) =
x^T Lam y and Lam^T = Lam + J, where x.y = x^T J y.  Let P = sum_i A_i B_i^T
and N = P - P^T, the integer antisymmetric matrix of the basis.  Entries
commute, so tr(XY) = tr(YX) = tr(Y^T X^T); write <X, Y> = tr(X^T Y).

1. A_i.A_j = B_i.B_j = 0, so each i<j bracket equals its j<i mirror, and
   l(B_i,A_i) = l(A_i,B_i) + 1: rho = sum_i l(A_i,B_i)
   - sum_{i,j} [ l(A_i,A_j) l(B_i,B_j) - l(A_i,B_j) l(A_j,B_i) ].
2. By bilinearity, rho = - <Lam, P Lam P^T> + <Lam, P Lam^T P> + <P, Lam>.
3. rho = 1/2 tr(Lam N Lam^T N).  With a, b the h x 2g matrices of the A_i
   and B_i, P = a^T b and a J a^T = b J b^T = 0, a J b^T = I, so
   P J P = -P and P J P^T = P^T J P = 0.  Put T1 = tr(Lam P Lam^T P) and
   T2 = tr(Lam P Lam^T P^T).  Replacing Lam^T by Lam + J or Lam by Lam^T - J,
     <Lam, P Lam^T P> = T1 + tr(Lam^T P J P) = T1 - <P, Lam>,
     <Lam, P Lam P^T> = tr(Lam P Lam P^T) + tr(P^T J P Lam)
                      = T2 - tr(Lam P J P^T) = T2,
   so rho = T1 - T2.  Transposing and cycling, tr(Lam P^T Lam^T P^T) = T1
   and tr(Lam P^T Lam^T P) = T2, so expanding N = P - P^T gives
   tr(Lam N Lam^T N) = 2 T1 - 2 T2 = 2 rho: the symmetric part of P drops out.
4. N is antisymmetric, so in tr(Lam N Lam^T N) = sum Lam_pq N_qr Lam_sr N_sp
   the terms with q > r fold onto q < r and those with s > p onto s < p,
   each fold doubling the bracket:
     rho = sum over q<r with x = N_qr != 0 and s<p with y = N_sp != 0 of
           x y [ l(e_p,e_q) l(e_s,e_r) - l(e_p,e_r) l(e_s,e_q) ].

So rho depends on the basis only through N, which every symplectic basis
of the same subspace shares.  The code splits Lam = S + C, S the symmetric
symbols and C_pq = [p = q + g], into 1/2 tr(SNSN) + tr(SNCN) +
1/2 tr(CNC^T N): step 4's sum with s for l over unordered pairs of
nonzeros (its bracket is symmetric under (q, r) <-> (s, p)), N_{p,b_i}
N_{a_i,r} on s_pr for each handle i, and sum_{i<j} N_{a_i,a_j} N_{b_j,b_i}.
Building N over the n support positions costs O(h n^2) and the sum
O(nnz(N)^2), in exact integer arithmetic.

The reduction mu to the square-free algebra sends the diagonal symbol
l(e_k, e_k) to the variable ebar_k and every other ordered symbol to 0;
the classical table value mu(l(b_i, a_i)) = 1 is realized by normalization,
since l(b_i, a_i) = l(a_i, b_i) + 1 and mu(l(a_i, b_i)) = 0.  Coefficients
reduce mod 2.  mu is a ring map onto the Boolean ring (f^2 = f), with
mu(l(u, u)) = bar(u mod 2) and, by the swap relation, mu(l(v, u)) =
mu(l(u, v)) + u.v.

Corollary (the triangle): mu . rho = sigma for every integral basis at
every genus.  Put f = mu(l(A_i, B_i)); as A_i.B_i = 1, handle i's term
l(A_i,A_i) l(B_i,B_i) - l(A_i,B_i) l(B_i,A_i) maps to Abar_i Bbar_i -
f(f + 1) = Abar_i Bbar_i, and the sum over i<j carries a factor 2, so
mu(rho(T_c)) = sum_i Abar_i Bbar_i, Johnson's sigma(T_c).  `verify`'s
triangle check therefore tests this code, not the identity.

An evaluation homomorphism substitutes a linking matrix L (constraint
L^T - L = J over Z) for the symbols; its mod-2 diagonal is a self-linking
form, giving the evaluation on the square-free side.
"""

from __future__ import annotations

import random
from collections import defaultdict
from collections.abc import Mapping, Sequence
from functools import lru_cache
from operator import mul

from .bcjmap import SeparatingTwist, sigma_masks
from .boolring import BoolPoly, SelfLinkingForm, bar, evaluate
from .errors import ConsistencyError
from .surface import (
    ZHClass,
    ZSubsurfaceBasis,
    check_genus,
    check_int,
    coordinate_name,
    parity_bits,
    randint_draws,
    random_z_symplectic_basis,
    same_genus,
)
from .value import Value
from .wedgespan import wedge


Monomial = tuple[tuple[int, int], ...]  # sorted tuple of (p, q) index pairs


class CMPoly(Value):
    """Integer polynomial in ordered linking symbols, in normal form."""

    __slots__ = ("genus", "terms")

    def __init__(self, genus: int, terms: Mapping[Monomial, int] | None = None):
        check_genus(genus)
        clean: dict[Monomial, int] = {}
        if terms:
            for mon, coeff in terms.items():
                mon = tuple(sorted(tuple(sym) for sym in mon))
                for p, q in mon:  # a zero coefficient does not excuse a bad symbol
                    if not 0 <= p <= q < 2 * genus:
                        raise ValueError(f"symbol ({p},{q}) is not in normal form")
                if coeff == 0:
                    continue
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
        return cls(genus, {((p, q),): coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __hash__(self):
        # Value's hash of the field tuple would fail on the dict `terms`
        return hash((self.genus, frozenset(self.terms.items())))

    def __add__(self, other: "CMPoly") -> "CMPoly":
        g = same_genus(self, other)
        acc = dict(self.terms)
        for mon, c in other.terms.items():
            c += acc.get(mon, 0)
            if c:
                acc[mon] = c
            else:
                del acc[mon]
        return CMPoly._trusted(g, acc)

    def __neg__(self) -> "CMPoly":
        return CMPoly._trusted(self.genus, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "CMPoly") -> "CMPoly":
        return self + (-other)

    def __mul__(self, other: "CMPoly") -> "CMPoly":
        g = same_genus(self, other)
        acc: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mon = tuple(sorted(m1 + m2))
                acc[mon] = acc.get(mon, 0) + c1 * c2
        return CMPoly._trusted(g, {m: c for m, c in acc.items() if c})

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
            for p, q in dict.fromkeys(mon):
                name = f"l({coordinate_name(g, p)},{coordinate_name(g, q)})"
                run = mon.count((p, q))
                factors.append(name if run == 1 else f"{name}^{run}")
            body = "*".join(factors)
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


def cm_generator(u: ZHClass, v: ZHClass) -> CMPoly:
    """l(u, v) expanded bilinearly over the fixed basis and normalized: a
    raw l(e_q, e_p) with q > p is l(e_p, e_q) + e_p.e_q, so the constant is
    the sum of u_{b_i} v_{a_i}."""
    g = same_genus(u, v)
    x, y = u.coords, v.coords
    support = [p for p in range(2 * g) if x[p] or y[p]]
    terms: dict[Monomial, int] = {}
    for k, p in enumerate(support):
        xp, yp = x[p], y[p]
        if c := xp * yp:
            terms[((p, p),)] = c
        for q in support[k + 1 :]:
            if c := xp * y[q] + x[q] * yp:
                terms[((p, q),)] = c
    if c := sum(x[g + i] * y[i] for i in range(g)):
        terms[()] = c
    return CMPoly._trusted(g, terms)


@lru_cache(maxsize=None)
def _symbols(genus: int):
    """The monomials of degree <= 1, () then the symbols in lexicographic
    order, and index[p][q] = index[q][p], the index of the symbol of {p, q}."""
    n = 2 * genus
    symbols = [(p, q) for p in range(n) for q in range(p, n)]
    index = [[0] * n for _ in range(n)]
    for t, (p, q) in enumerate(symbols, 1):
        index[p][q] = index[q][p] = t
    return [()] + [(pq,) for pq in symbols], index


def rho_separating(basis: ZSubsurfaceBasis | SeparatingTwist) -> CMPoly:
    """Morita's value on a separating twist, from an integral basis.

    Computed exactly over Z from the basis's antisymmetric matrix N by the
    closed form of the module docstring.
    """
    if isinstance(basis, SeparatingTwist):
        raise TypeError("rho needs the integral basis, not the mod-2 twist")
    basis.validate()
    g = check_genus(basis.genus)
    A = list(zip(*[a.coords for a, _ in basis.pairs]))  # A[p] = (A_1p, ..., A_hp)
    B = list(zip(*[b.coords for _, b in basis.pairs]))
    support = [p for p, (a, b) in enumerate(zip(A, B)) if any(a) or any(b)]
    nz = []  # (q, r, N_qr) for q < r and N_qr != 0
    rows: dict[int, dict[int, int]] = {p: {} for p in support}
    for k, q in enumerate(support):
        aq, bq = A[q], B[q]
        for r in support[k + 1 :]:
            if x := sum(map(mul, aq, B[r])) - sum(map(mul, bq, A[r])):
                nz.append((q, r, x))
                rows[q][r] = x
                rows[r][q] = -x
    mons, index = _symbols(g)
    W = len(mons)
    acc = defaultdict(int)  # key u * W + v, u <= v: coefficient of mons[u] + mons[v]
    # quadratic part, over unordered pairs of nonzeros
    for k, (q, r, x) in enumerate(nz):
        iq, ir = index[q], index[r]
        f = x * x
        acc[iq[r] * (W + 1)] += f
        acc[iq[q] * W + ir[r]] -= f
        x2 = 2 * x
        for s, p, y in nz[k + 1 :]:
            f = x2 * y
            u, v = iq[p], ir[s]
            acc[u * W + v if u <= v else v * W + u] += f
            u, v = ir[p], iq[s]
            acc[u * W + v if u <= v else v * W + u] -= f
    # linear part: N_{p,b_i} N_{a_i,r} on the symbol of {p, r}; constant:
    # N_{a_k,a_i} N_{b_i,b_k} for handles k < i
    handles = [i for i in range(g) if i in rows and g + i in rows]
    for j, i in enumerate(handles):
        for p, x in rows[g + i].items():  # x = N_{b_i,p} = -N_{p,b_i}
            ip = index[p]
            for r, y in rows[i].items():
                acc[ip[r]] -= x * y
        for k in handles[:j]:
            acc[0] -= rows[k].get(i, 0) * rows[g + k].get(g + i, 0)
    terms = {mons[key // W] + mons[key % W]: c for key, c in acc.items() if c}
    return CMPoly._trusted(g, terms)


def mu(x: CMPoly) -> BoolPoly:
    """Reduction to the square-free algebra.

    Diagonal symbols become variables, all other ordered symbols die, and
    coefficients reduce mod 2.  This respects both defining relations and
    satisfies mu(l(u, u)) = bar(u mod 2) for every integral class u.
    """
    masks: set[int] = set()
    for mon, coeff in x.terms.items():
        if coeff % 2:
            mask = 0
            for p, q in mon:
                if p != q:
                    break
                mask |= 1 << p
            else:
                masks ^= {mask}
    return BoolPoly(x.genus, masks)


# -- evaluation ---------------------------------------------------------------


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
        # J_pq = e_p.e_q is +1 at (a_i, b_i), -1 at (b_i, a_i), else 0.  The
        # diagonal always holds, and a violation at (q, p) below it mirrors
        # one at (p, q) in an earlier row, so the pairs p < q meet the first.
        for p in range(n):
            row = entries[p]
            for q in range(p + 1, n):
                got = entries[q][p] - row[q]
                want = 1 if q == p + g else 0
                if got != want:
                    raise ConsistencyError(
                        f"L[{q}][{p}] - L[{p}][{q}] = {got}, expected {want} "
                        f"(pair {coordinate_name(g, p)},{coordinate_name(g, q)})"
                    )
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, genus: int, rows: Sequence[Sequence[int]]) -> "LinkingMatrix":
        return cls(genus, tuple(tuple(check_int(e, "linking number") for e in row) for row in rows))

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
        triangle, drawn row by row in one `randint_draws` call, lower
        triangle forced."""
        g = check_genus(genus)
        n = 2 * g
        entries = randint_draws(rng, -bound, bound, n * (n + 1) // 2)
        rows = [[0] * n for _ in range(n)]
        k = 0
        for p in range(n):
            row = rows[p]
            row[p:] = entries[k : k + n - p]  # the diagonal, then right of it
            k += n - p
            for q in range(p + 1, n):
                rows[q][p] = row[q]
            if p < g:
                rows[p + g][p] += 1
        return cls(g, tuple(map(tuple, rows)))

    def entry(self, p: int, q: int) -> int:
        return self.entries[p][q]

    def omega(self) -> SelfLinkingForm:
        """Mod-2 diagonal; the self-linking form u -> u^T L u mod 2."""
        diagonal = [self.entries[k][k] for k in range(2 * self.genus)]
        return SelfLinkingForm(self.genus, parity_bits(diagonal))


def epsilon(L: LinkingMatrix, x: CMPoly) -> int:
    """Evaluation homomorphism: substitute L for the symbols, over Z."""
    same_genus(L, x)
    total = 0
    for mon, coeff in x.terms.items():
        val = coeff
        for p, q in mon:
            val *= L.entries[p][q]
        total += val
    return total


def selflink_eval(L: LinkingMatrix, p: BoolPoly) -> int:
    """Evaluate a square-free polynomial at the form induced by L."""
    same_genus(L, p)
    return evaluate(p, L.omega())


# -- diagram verification -----------------------------------------------------


def _random_integral_class(
    genus: int, rng: random.Random, bound: int = 2
) -> ZHClass:
    return ZHClass(genus, tuple(randint_draws(rng, -bound, bound, 2 * genus)))


def _random_zbasis(genus: int, rng: random.Random, low: int) -> ZSubsurfaceBasis:
    """A random integral basis on h sorted random handles, h drawn from
    low..min(genus, 3); h = 0 draws nothing more and gives the empty basis."""
    h = randint_draws(rng, low, min(genus, 3), 1)[0]
    handles = sorted(rng.sample(range(1, genus + 1), h))
    return random_z_symplectic_basis(genus, h, rng, handles)


def _rho_sigma(basis: ZSubsurfaceBasis) -> tuple[CMPoly, BoolPoly]:
    """rho and sigma of one integral basis.  rho validates it over Z first,
    so it is symplectic mod 2 and sigma reads its parity bits unchecked."""
    rho = rho_separating(basis)
    g = basis.genus
    pairs = [(parity_bits(A.coords), parity_bits(B.coords)) for A, B in basis.pairs]
    return rho, BoolPoly(g, sigma_masks(g, pairs))


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
        zbasis = _random_zbasis(genus, rng, 1)
        M = L if L is not None else LinkingMatrix.random_valid(genus, rng)
        rho, sig = _rho_sigma(zbasis)
        lhs = epsilon(M, rho) & 1
        rhs = selflink_eval(M, sig)
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

    Returns the check records by check name; failures are report content,
    not exceptions.
    """
    g = check_genus(genus)
    rng = random.Random(seed)
    checks = {}

    failures = []
    for t in range(num_trials):
        zbasis = _random_zbasis(g, rng, 0)
        rho, sig = _rho_sigma(zbasis)
        if mu(rho) != sig:
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
            h1 = randint_draws(rng, 1, min(g - 1, 2), 1)[0]
            h2 = randint_draws(rng, 1, min(g - h1, 2), 1)[0]
            set1, set2 = sorted(handles[:h1]), sorted(handles[h1 : h1 + h2])
            zb1 = random_z_symplectic_basis(g, h1, rng, set1)
            zb2 = random_z_symplectic_basis(g, h2, rng, set2)
            (rho1, sig1), (rho2, sig2) = _rho_sigma(zb1), _rho_sigma(zb2)
            if wedge(mu(rho1), mu(rho2)) != wedge(sig1, sig2):
                failures.append(f"trial {t}: handles {set1} / {set2}")
        checks["wedge_lift"] = check_record(failures, n_lift)
    return checks


def mu_quadratic_exhaustive(genus: int) -> list[str]:
    """mu(l(u, u)) == bar(u) for every 0/1 lift of a mod-2 class."""
    g = check_genus(genus)
    failures = []
    for bits in range(1 << (2 * g)):
        u = ZHClass(g, tuple((bits >> k) & 1 for k in range(2 * g)))
        if mu(cm_generator(u, u)) != bar(u.mod2()):
            failures.append(f"u bits {bits:0{2 * g}b}")
    return failures
