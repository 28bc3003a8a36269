r"""The finite basic affine space $X = (G/U)(\mathbb{F}_{q^k})$ for
$G = SL_{n+1}$, with symplectic Fourier convolution operators and the
Yokonuma-Hecke algebra acting on $\mathbb{C}[X]$, all in exact cyclotomic
arithmetic.

Points of $X$ are cosets $gU$ with $U$ upper unitriangular, indexed in
the increasing order of their lexicographically least members.  They are
enumerated from the Bruhat cells: $G$ is the disjoint union of the double
cosets $U t n_w U$, $w \in W$, $t \in T$, so the cosets $u t n_w U$ are
all of $X$, and the points of one cell form one left $U$-orbit.  The
build keeps each cell's $t n_w$ and asserts that it has $q^{k\,l(w)}$
points, sizes that sum to $|X|$; `cell_of(s)` reads off the cells whose
$t n_w n_s^{-1}$ is diagonal.  The operators realized here:

- `op_ks(s)`: the symplectic Fourier transform
  $(\mathsf{k}_s f)(x) = q^{-k} \sum_{y \in xQ_s} \psi(\langle x, y
  \rangle) f(y)$, where $Q_s = [P_s, P_s]$ and $\langle x, y \rangle$ is
  the symplectic pairing of the rank-2 bundle $G/U \to G/Q_s$, extracted
  as the lower-left entry of the Levi $SL_2$ block of $g^{-1}g'$.
- `op_es(s)`: the tie operator $f \mapsto \sum_{t \in T_s} f(xt)$ over
  the coroot subtorus $T_s$; its normalization by $q^k - 1$ is a
  projection.
- the Yokonuma standard basis: $R_t : \delta_g \mapsto \delta_{gt}$,
  $R_s : \delta_g \mapsto \sum_{x \in gUsU/U} \delta_x$,
  $H_s(r) = R_{h_s(r)}$ for $h_s(r)$ the coroot one-parameter subgroup,
  and from them $E_s = \sum_r H_s(r)$,
  $\Psi_s = \sum_r \psi(r^{-1}) H_s(r)$, and the Juyumaya generator
  $L_s = q^{-k}(E_s + R_s\Psi_s)$.
- $E_\theta = \sum_{t \in T} \theta(t) R_t$ per character $\theta$ of
  $T$, so that $E_\theta\delta_{x_0} = \varepsilon_\theta$, and
  `pi_s_projector`, $|T|^{-1}$ times their sum over the circle of $s$.

Each of them commutes with left translation by $G$, so it is an element
of the convolution algebra $H(G, U, 1)$ (Juyumaya, J. Algebra 204
(1998); Thiem, J. Algebra 284 (2005)).  $G$ is transitive on $X$, so such
an $A$ is fixed by its row at the base point $x_0 = U$: $A[x, z] =
A[x_0, h_x^{-1} z]$, $h_x$ the representative of $x$, and that row is
constant on the $|W||T|$ left $U$-orbits.  A `SparseOperator` holds one
entry per orbit.  A product is $(AB)[x_0, z] = \sum_y A[x_0, y]
B[x_0, h_y^{-1} z]$ at one $z$ per orbit, through `_product_plan`, which
counts the orbits of the $h_y^{-1} z$ (`_column`); sums, scalings and
equality act on rows, so equal rows are equal operators; and the product
with the permutation operator of a right translation by an element of
$B$ moves the row (`perm_then_op`, `op_then_perm`).  $B \mapsto
B\delta_{x_0}$ is injective, with $(B\delta_{x_0})(x) = B[x_0,
h_x^{-1}x_0]$ read at the inverse of the orbit of $x$ (`base_column`), so
$A\varepsilon_\theta$ is read off $AE_\theta$ and no operator is applied
to a function.

Equivariance is asserted, never assumed.  Each generator is built by its
definition as rows by point, and all of them read one table,
`translation_perm(g)`: the map $x \mapsto xg$ on the indices of the
canonical representatives, for any $g$.  A gather $(Af)(x) = \sum c\,
f(xg)$ puts $c$ at $(x, xg)$ and builds `op_ks` (over $Q_s/U$) and
`op_es` (over $h_s(r)$); a scatter $\sum c\, R_g$ puts $c$ at $(xg, x)$
and builds $H_s(r)$, $E_s$, `E_reflection`, $\Psi_s$ and $E_\theta$, so
"op_es equals E_s" compares two constructions.  $R_s$ reads the tables
for $u_\alpha(a) n_s^{-1}$, $u_\alpha(a)$ in the root subgroup of $s$,
as $q^k$ targets per point, since $Us^{-1}U = U_\alpha s^{-1}U$.
`_element` keeps only the base row, once it has checked that the row is
constant on every $U$-orbit and that row $x$ is the base row moved by
$h_x$ (rows moved by `x_reps` would pass that by construction, so every
row is built from translations); otherwise it raises ArithmeticError,
which the CLI reports with exit code 3.  Products and sums of elements
are elements.  A permutation serves as a right translation only once
`_right_translation_point` has checked that it is one, and
`verify_left_translation` checks the commutation itself, on the rows of
`op_ks`.  Every table and operator of a model is built once, in its one
cache (`_cached`).

The central identity, verified entrywise over $\mathbb{Q}(\zeta_N)$, is
$\mathsf{k}_s = L_s$, together with the Yokonuma presentation
($R_s^2 = q^k H_s(-1) + R_sE_s$, braid, torus relations), the Juyumaya
presentation ($L_s^2 = 1 - q^{-k}(E_s - L_sE_s)$, braid), the cubic
$(L_s^2 - 1)(L_s + q^{-k}) = 0$, and the specialization dictionary
$g_s \mapsto -L_s$, $e_s \mapsto E_s/(q^k-1)$ at $v^2 = q^{-k}$ with its
bar-twisted dual $g_s \mapsto -L_s^{-1}$ at $v^2 = q^k$.

Convention calibration (fixed once, then every identity must pass with
it).  All standard-basis operators are defined on deltas and realized on
function values by transposition: $R_t : \delta_g \mapsto \delta_{gt}$
reads $(R_t f)(x) = f(xt^{-1})$, and $R_s : \delta_g \mapsto \sum_{x \in
gUsU/U} \delta_x$ gathers along the inverse representative, $(R_s f)(x)
= \sum_{y \in xUs^{-1}U/U} f(y)$; in odd characteristic $Us^{-1}U$ and
$UsU$ differ by the $h_s(-1)$ translate, so the distinction is invisible
over $\mathbb{F}_2$ and $\mathbb{F}_4$ but breaks $\mathsf{k}_s = L_s$
over $\mathbb{F}_3$ if ignored.  The additive character enters $\Psi_s$
through $r \mapsto \psi(r^{-1})$: since $H_s(r)\,\varepsilon_\theta =
\theta(h_s(r))^{-1}\varepsilon_\theta$, this is the orientation that
makes $\Psi_s$ scale $\varepsilon_\theta$ by the Gauss sum $G(\theta) =
\sum_r \theta(h_s(r))\psi(r)$ appearing in the direct evaluation of
$\mathsf{k}_s \varepsilon_\theta$; it is likewise invisible where
inversion is a power of Frobenius ($\mathbb{F}_2, \mathbb{F}_4$) but
required over $\mathbb{F}_8$.  The global sign of the symplectic
coordinate is $+1$, pinned by the odd-characteristic configurations
where $\psi(-r) \neq \psi(r)$.

>>> model = build_model(1, 2, 1)
>>> len(model.x_reps)
3
>>> model.size_x
3
>>> all(ok for _, ok in verify_yokonuma_relations(model))
True
>>> op_ks_equals_L(model)
True
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from . import monodromic
from .coxeter import (Perm, all_perms, identity_perm, left_action,
                      perm_length, simple_perm)
from .linalg import SparseVector, _acc, _axpy, solve
from .monodromic import TorusCharacter, torus_character
from .scalars import Cyclotomic

SIZE_CEILING = 1000  # largest |X| a model is built for
DEGREE_CEILING = 64  # largest degree phi(N) of its scalars Q(zeta_N)


# ---------------------------------------------------------------------------
# small finite fields with dense tables
# ---------------------------------------------------------------------------

def _factor_prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise ValueError("q must be a prime power >= 2")
    p = next(d for d in range(2, q + 1) if q % d == 0)
    a = 0
    m = q
    while m % p == 0:
        m //= p
        a += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, a


class SmallField:
    """GF(p^m): elements are integers 0..p^m-1 encoding polynomial
    coefficients base p; dense add/mul tables; a fixed multiplicative
    generator with discrete-log table; trace to the prime field.

    >>> F = SmallField(2, 2)
    >>> F.mul_t[F.gen][F.gen] == F.add_t[F.gen][1]
    True
    >>> sorted(F.log[a] for a in range(1, 4))
    [0, 1, 2]
    >>> F8 = SmallField(2, 3)
    >>> any(F8.trace[F8.inv_t[a]] != F8.trace[a] for a in range(1, 8))
    True
    """

    def __init__(self, p: int, m: int):
        self.p, self.m, self.size = p, m, p ** m
        digits = [self._digits(e) for e in range(self.size)]
        mod = self._find_irreducible()
        add = [[self._undigits([(x + y) % p for x, y in zip(da, db)])
                for db in digits] for da in digits]
        mul = [[self._undigits(self._pmulmod(da, db, mod))
                for db in digits] for da in digits]
        self.add_t, self.mul_t = add, mul
        self.neg_t = [add[a].index(0) for a in range(self.size)]
        self.inv_t = [None] + [mul[a].index(1) for a in range(1, self.size)]
        self.gen = next(a for a in range(1, self.size)
                        if self._mult_order(a) == self.size - 1)
        self.log = [None] * self.size
        x = 1
        for j in range(self.size - 1):
            self.log[x] = j
            x = mul[x][self.gen]
        self.trace = []
        for a in range(self.size):
            acc, t = a, a
            for _ in range(m - 1):
                t = self._fpow(t, p)
                acc = add[acc][t]
            if acc >= p:
                raise ArithmeticError("trace left the prime field")
            self.trace.append(acc)

    def _digits(self, e: int) -> list[int]:
        out = []
        for _ in range(self.m):
            out.append(e % self.p)
            e //= self.p
        return out

    def _undigits(self, ds) -> int:
        e = 0
        for d in reversed(ds[: self.m]):
            e = e * self.p + (d % self.p)
        return e

    def _pmulmod(self, da, db, mod) -> list[int]:
        p = self.p
        conv = [0] * (len(da) + len(db) - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    conv[i + j] = (conv[i + j] + x * y) % p
        for top in range(len(conv) - 1, self.m - 1, -1):
            c = conv[top]
            if c:
                conv[top] = 0
                for i in range(self.m):
                    conv[top - self.m + i] = (conv[top - self.m + i]
                                              - c * mod[i]) % p
        return conv[: self.m]

    def _find_irreducible(self) -> list[int]:
        # monic x^m + ... ; returned as the list of lower coefficients
        p, m = self.p, self.m
        for tail in itertools.product(range(p), repeat=m):
            poly = list(tail)
            if self._is_irreducible(poly):
                return poly
        raise ArithmeticError("no irreducible polynomial found")

    def _is_irreducible(self, poly: list[int]) -> bool:
        p, m = self.p, self.m
        if poly[0] == 0:
            return False
        full = poly + [1]
        for d in range(1, m // 2 + 1):
            for tail in itertools.product(range(p), repeat=d):
                div = list(tail) + [1]
                if self._pdivisible(full, div):
                    return False
        return True

    def _pdivisible(self, num, den) -> bool:
        p = self.p
        num = list(num)
        while len(num) >= len(den):
            c = num[-1]
            if c:
                off = len(num) - len(den)
                for i, d in enumerate(den):
                    num[off + i] = (num[off + i] - c * d) % p
            num.pop()
        return not any(num)

    def _fpow(self, a: int, e: int) -> int:
        out = 1
        while e:
            if e & 1:
                out = self.mul_t[out][a]
            a = self.mul_t[a][a]
            e >>= 1
        return out

    def _mult_order(self, a: int) -> int:
        x, n = a, 1
        while x != 1:
            x = self.mul_t[x][a]
            n += 1
            if n > self.size:
                return 0
        return n


# ---------------------------------------------------------------------------
# matrices over a small field
# ---------------------------------------------------------------------------

def mat_identity(m: int):
    return tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m))


def mat_mul(F: SmallField, A, B):
    m = len(A)
    mul, add = F.mul_t, F.add_t
    out = []
    for i in range(m):
        row = []
        Ai = A[i]
        for j in range(m):
            acc = 0
            for l in range(m):
                x = Ai[l]
                if x:
                    acc = add[acc][mul[x][B[l][j]]]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _diag(entries):
    m = len(entries)
    return tuple(tuple(entries[i] if i == j else 0 for j in range(m))
                 for i in range(m))


def _weyl_rep(F: SmallField, w: tuple[int, ...]):
    """A monomial matrix of determinant one with pattern w: the
    permutation matrix, its first entry negated when w is odd."""
    m = len(w)
    M = [[0] * m for _ in range(m)]
    for i, j in enumerate(w):
        M[i][j] = 1
    if perm_length(w) % 2:
        M[0][w[0]] = F.neg_t[1]
    return tuple(map(tuple, M))


# ---------------------------------------------------------------------------
# operators: elements of H(G, U, 1), held as their base-point row
# ---------------------------------------------------------------------------

class SparseOperator(SparseVector):
    """An operator on C[X] that commutes with left translation by G, that
    is an element of the convolution algebra H(G, U, 1), held as its row at
    the base point x0: one nonzero cyclotomic entry per left U-orbit of
    X, keyed by the orbit's index in its model."""

    __slots__ = ("model",)
    _ambient = "model"

    def scale(self, a) -> "SparseOperator":
        """The operator times a rational a."""
        if not a:
            return self._like({})
        return self._like({o: c.scale(a) for o, c in self.terms.items()})

    def __mul__(self, other: "SparseOperator") -> "SparseOperator":
        """(AB)[x0, z] = sum over y of A[x0, y] B[x0, h_y^-1 z], on one z
        per orbit, through the model's product plan."""
        if other.model is not self.model:
            raise ValueError("operators of different models")
        return self._like(_bilinear(self.model.N, self.terms, other.terms,
                                    self.model._product_plan()))


def _bilinear(N: int, a: dict, b: dict, plan: list[dict]) -> dict:
    """{o: the sum of a[p] * c * b[r] over p, fan in plan[o].items() and
    (r, c) in fan}, keeping the nonzero sums.

    All of a, and all of b, are brought to one denominator (the lcm of
    their entries'), so that an output entry is a plain sum of integer
    convolutions of numerator vectors, reduced mod Phi_N and
    gcd-normalized once."""
    if not a or not b:
        return {}
    width = 2 * len(Cyclotomic.one(N).num) - 1
    den_a = math.lcm(*(c.den for c in a.values()))
    den_b = math.lcm(*(c.den for c in b.values()))
    num_a = {p: [(i, n * (den_a // c.den)) for i, n in enumerate(c.num) if n]
             for p, c in a.items()}
    num_b = {r: [n * (den_b // c.den) for n in c.num] for r, c in b.items()}
    out = {}
    for o, groups in enumerate(plan):
        conv = None
        for p in groups.keys() & num_a.keys():
            acc = None
            for r, c in groups[p]:
                nb = num_b.get(r)
                if nb is not None:
                    acc = ([c * y for y in nb] if acc is None
                           else [x + c * y for x, y in zip(acc, nb)])
            if acc is None:
                continue
            if conv is None:
                conv = [0] * width
            for i, x in num_a[p]:
                for j, y in enumerate(acc, i):
                    conv[j] += x * y
        if conv is not None:
            c = Cyclotomic.from_convolution(N, conv, den_a * den_b)
            if c:
                out[o] = c
    return out


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

def expected_size_x(n: int, qk: int) -> int:
    out = 1
    for i in range(2, n + 2):
        out *= qk ** i - 1
    return out


def _cyclotomic_order(p: int, qk: int) -> int:
    """N with Q(zeta_N) holding every character value of SL_{n+1}(F_qk):
    the multiplicative characters, and psi, which needs zeta_p for p odd."""
    return (qk - 1) * (p if p % 2 else 1)


def _refuse_oversized(n: int, q: int, k: int) -> None:
    """Refuse, from n, q and k alone, |X| = prod_{i=2}^{n+1} (q^{ki} - 1)
    > SIZE_CEILING (2^{b/4} <= |X| <= 2^b for the b below), and scalars
    Q(zeta_N) of degree phi(N) > DEGREE_CEILING: a product of scalars costs
    about phi(N)^2, an inverse phi(N)^3."""
    bits = k * q.bit_length() * ((n + 1) * (n + 2) // 2 - 1)
    if bits > 4096:
        raise ValueError(f"size ceiling exceeded: |X| > {SIZE_CEILING}")
    size = expected_size_x(n, q ** k)
    if size > SIZE_CEILING:
        raise ValueError(
            f"size ceiling exceeded: |X| = {size} > {SIZE_CEILING}")
    N = _cyclotomic_order(_factor_prime_power(q)[0], q ** k)
    degree = sum(math.gcd(j, N) == 1 for j in range(N))
    if degree > DEGREE_CEILING:
        raise ValueError(f"degree ceiling exceeded: Q(zeta_{N}) has "
                         f"degree {degree} > {DEGREE_CEILING}")


class FiniteModel:
    """SL_{n+1} over F_{q^k} acting on functions on G/U."""

    def __init__(self, n: int, q: int, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        _refuse_oversized(n, q, k)
        p, a = _factor_prime_power(q)
        self.n, self.q, self.k = n, q, k
        self.m = n + 1
        self.F = SmallField(p, a * k)
        F = self.F
        self.qk = F.size
        self.size_x = expected_size_x(n, self.qk)
        self.N = _cyclotomic_order(p, self.qk)
        m = self.m
        # U and T in the lexicographic order of their flattened matrices
        above = [(i, j) for i in range(m) for j in range(i + 1, m)]
        self.U_list = []
        for entries in itertools.product(range(F.size), repeat=len(above)):
            M = [list(row) for row in mat_identity(m)]
            for (i, j), x in zip(above, entries):
                M[i][j] = x
            self.U_list.append(tuple(map(tuple, M)))
        # T: the diagonals whose entries multiply to 1, by their logarithms
        self.T_list = [_diag(d) for d in itertools.product(
            range(1, F.size), repeat=m)
            if sum(F.log[e] for e in d) % (F.size - 1) == 0]
        # G/U from the Bruhat cells U t n_w U: the cosets u t n_w U, each
        # found whole, indexed in the order of their lexicographically least
        # members, the order in which a scan of all matrices meets them.
        # The group is held once, as the keys of coset_index, and the cell
        # (w, t) is the left U-orbit of the point t n_w U.
        self.coset_index: dict = {}
        reps, cells, orbit_mats, cell_sizes = [], [], [], []
        for w in itertools.permutations(range(m)):
            nw = _weyl_rep(F, w)
            size = self.qk ** perm_length(w)
            for t in self.T_list:
                tn = mat_mul(F, t, nw)
                for u in self.U_list:
                    g = mat_mul(F, u, tn)
                    if g not in self.coset_index:
                        coset = [mat_mul(F, g, v) for v in self.U_list]
                        for member in coset:
                            self.coset_index[member] = len(reps)
                        reps.append(min(coset))
                        cells.append(len(orbit_mats))
                orbit_mats.append(tn)
                cell_sizes.append(size)
        if len(reps) != self.size_x:
            raise ArithmeticError("coset enumeration does not match |X|")
        order = sorted(range(len(reps)), key=reps.__getitem__)
        index = [0] * len(order)
        for idx, found in enumerate(order):
            index[found] = idx
        for g, found in self.coset_index.items():
            self.coset_index[g] = index[found]
        self.x_reps: list = [reps[found] for found in order]
        self.orbit_of: list[int] = [cells[found] for found in order]
        self.x0 = self.coset_index[mat_identity(m)]
        # one matrix t n_w and one point t n_w U per orbit, and its
        # q^{k l(w)} points: the sizes sum to |X|, so this checks them all
        self.orbit_mats = orbit_mats
        self.orbit_reps = [self.coset_index[g] for g in orbit_mats]
        self.orbit_members: list[list[int]] = [[] for _ in orbit_mats]
        for x, orbit in enumerate(self.orbit_of):
            self.orbit_members[orbit].append(x)
        if list(map(len, self.orbit_members)) != cell_sizes:
            raise ArithmeticError("Bruhat cell sizes do not match q^(k l(w))")
        self.torus_of: dict[int, tuple] = {}
        for t in self.T_list:
            self.torus_of[self.coset_index[t]] = t
        self._tables: dict = {}

    # -- group-element constructors ------------------------------------

    def simple_n(self, i: int):
        """The Weyl representative n_s for the simple reflection s_i."""
        F = self.F
        M = [list(row) for row in mat_identity(self.m)]
        M[i - 1][i - 1] = 0
        M[i][i] = 0
        M[i - 1][i] = 1
        M[i][i - 1] = F.neg_t[1]
        return tuple(tuple(row) for row in M)

    def coroot_torus(self, i: int, j: int, r: int):
        """diag with r at position i, r^{-1} at position j: the coroot
        one-parameter subgroup of the reflection (i, j)."""
        entries = [1] * self.m
        entries[i - 1] = r
        entries[j - 1] = self.F.inv_t[r]
        return _diag(entries)

    def h_s(self, i: int, r: int):
        return self.coroot_torus(i, i + 1, r)

    def root_element(self, i: int, a: int):
        """u_alpha(a), the identity with a at (i, i+1): the root subgroup
        of the simple reflection s_i."""
        M = [list(row) for row in mat_identity(self.m)]
        M[i - 1][i] = a
        return tuple(map(tuple, M))

    # -- scalar helpers --------------------------------------------------

    def _root(self, j: int) -> Cyclotomic:
        return Cyclotomic.root(self.N, j % self.N)

    def psi(self, a: int) -> Cyclotomic:
        """Additive character of the field through the trace."""
        def build():
            F = self.F
            if F.p == 2:
                return [Cyclotomic.from_rational(self.N, (-1) ** tr)
                        for tr in F.trace]
            return [self._root(self.N // F.p * tr) for tr in F.trace]
        return self._cached(("psi",), build)[a]

    def chi(self, a: int, power: int = 1) -> Cyclotomic:
        """Multiplicative character: the fixed generator of the dual of
        the multiplicative group, raised to the given power."""
        if a == 0:
            raise ValueError("chi at zero")
        step = self.N // (self.qk - 1)
        return self._root(step * power * self.F.log[a])

    def theta_value(self, theta: TorusCharacter, t) -> Cyclotomic:
        if theta.modulus != self.qk - 1:
            raise ValueError("character modulus does not match the field")
        out = Cyclotomic.one(self.N)
        for i, b in enumerate(theta.exponents):
            if b:
                out = out * self.chi(t[i][i], b)
        return out

    def all_characters(self) -> tuple[TorusCharacter, ...]:
        return monodromic.all_characters(self.m, self.qk - 1)

    # -- cells ----------------------------------------------------------

    def cell_of(self, i: int) -> dict[int, tuple]:
        """The s_i Bruhat cell of X: index -> the torus part t of tus.  It
        is the cells of the build whose t n_w n_s^-1 is diagonal, that
        product being their torus part."""
        def build():
            nsi = self.group_inverse(self.simple_n(i))
            found: dict[int, tuple] = {}
            for tn, members in zip(self.orbit_mats, self.orbit_members):
                t = mat_mul(self.F, tn, nsi)
                if t == _diag([t[j][j] for j in range(self.m)]):
                    found.update(dict.fromkeys(members, t))
            return found
        return self._cached(("cell_of", i), build)

    def qs_reps(self, i: int) -> list[tuple[tuple, int]]:
        """Coset representatives of Q_s/U = SL_2/U_2 with their symplectic
        coordinate: one Levi SL_2 block per nonzero first column (a, c),
        whose lower-left entry c is the coordinate."""
        def build():
            F = self.F
            reps = []
            for a, c in itertools.product(range(F.size), repeat=2):
                if not (a or c):
                    continue
                # the block [[a, b], [c, d]] with ad - bc = 1
                b, d = (0, F.inv_t[a]) if a else (F.neg_t[F.inv_t[c]], 0)
                M = [list(row) for row in mat_identity(self.m)]
                M[i - 1][i - 1:i + 1] = a, b
                M[i][i - 1:i + 1] = c, d
                reps.append((tuple(map(tuple, M)), c))
            return reps
        return self._cached(("qs_reps", i), build)

    # -- tables ----------------------------------------------------------

    def _cached(self, key, build):
        """The model's one cache: every table and operator, built once."""
        if key not in self._tables:
            self._tables[key] = build()
        return self._tables[key]

    def group_inverse(self, g):
        """g^(ord(g) - 1), by powers of g."""
        ident = mat_identity(self.m)
        h = g
        while (gh := mat_mul(self.F, g, h)) != ident:
            h = gh
        return h

    def translation_perm(self, g) -> tuple[int, ...]:
        """The map x -> xg on point indices, for any g in the group: the
        one table every translation operator and cell reads.  For g a
        representative of the point z it is x -> h_x z, h_x = x_reps[x]."""
        return self._cached(("perm", g), lambda: tuple(
            self.coset_index[mat_mul(self.F, rep, g)] for rep in self.x_reps))

    def left_translation_perm(self, g) -> tuple[int, ...]:
        gi = self.group_inverse(g)
        return tuple(self.coset_index[mat_mul(self.F, gi, rep)]
                     for rep in self.x_reps)

    def s_cell_targets(self, i: int) -> tuple:
        """For each x, the set of the q^k points of xUs^{-1}U/U (xUsU/U
        differs from it by the h_s(-1) translate in odd characteristic):
        as U s^{-1} U = U_alpha s^{-1} U, the points x u_alpha(a) s^{-1},
        one per element of the root subgroup of s."""
        def build():
            nsi = self.group_inverse(self.simple_n(i))
            perms = [self.translation_perm(
                mat_mul(self.F, self.root_element(i, a), nsi))
                for a in range(self.F.size)]
            out = tuple(frozenset(perm[x] for perm in perms)
                        for x in range(self.size_x))
            if any(len(targets) != self.qk for targets in out):
                raise ArithmeticError("unexpected s-cell fiber size")
            return out
        return self._cached(("cell_targets", i), build)

    # -- H(G, U, 1) -------------------------------------------------------

    def _column(self, z: int) -> tuple[int, ...]:
        """For each point y, the orbit of h_y^-1 z: column z of an element
        A is A[y, z] = A[x0, h_y^-1 z].  The double coset of h_y^-1 g, g
        representing z, is the inverse of that of the point g^-1 y."""
        def build():
            inverse = self._inverse_orbit()
            return tuple(inverse[self.orbit_of[y]] for y in
                         self.left_translation_perm(self.x_reps[z]))
        return self._cached(("column", z), build)

    def _inverse_orbit(self) -> list[int]:
        """The orbit UgU -> the orbit U g^-1 U."""
        return self._cached(("inverse_orbit",), lambda: [
            self.orbit_of[self.coset_index[self.group_inverse(
                self.x_reps[z])]] for z in self.orbit_reps])

    def _product_plan(self) -> list[dict]:
        """Per orbit o, (AB)[x0, z_o] = sum over y of a[orbit of y]
        b[column(z_o)[y]]: {p: ((r, count), ...)} counting the points y of
        orbit p whose column entry is r."""
        def build():
            plan = []
            for z in self.orbit_reps:
                groups: dict[int, dict] = {}
                for p, r in zip(self.orbit_of, self._column(z)):
                    fan = groups.setdefault(p, {})
                    fan[r] = fan.get(r, 0) + 1
                plan.append({p: tuple(fan.items())
                             for p, fan in groups.items()})
            return plan
        return self._cached(("plan",), build)

    def _element(self, rows: list[dict]) -> SparseOperator:
        """The element of H(G, U, 1) with these rows by point, once its
        left-translation invariance is asserted: the base row is constant
        on every U-orbit, and every row x is the base row moved by h_x."""
        base = rows[self.x0]
        coeffs = {}
        for z, c in base.items():
            coeffs.setdefault(self.orbit_of[z], c)
        ok = (all(base.get(z) == c for o, c in coeffs.items()
                  for z in self.orbit_members[o])
              and all(len(row) == len(base) for row in rows)
              and all(row.get(y) == c for z, c in base.items()
                      for row, y in zip(rows, self.translation_perm(
                          self.x_reps[z]))))
        if not ok:
            raise ArithmeticError("operator does not commute with left "
                                  "translations")
        return SparseOperator(self, coeffs)

    def _right_translation_point(self, perm) -> int:
        """The point p0 = perm[x0] of a permutation x -> x b of X, b in B,
        after asserting that perm is one: p0 is a one-point U-orbit and
        perm[x] = h_x p0 for every x."""
        p0 = perm[self.x0]
        if (len(self.orbit_members[self.orbit_of[p0]]) != 1
                or tuple(perm) != self.translation_perm(self.x_reps[p0])):
            raise ArithmeticError("permutation is not a right translation")
        return p0

    # -- operators -------------------------------------------------------
    # Each generator is built by its definition, as rows by point (a
    # gather, a scatter, or the s-cell sets), and kept as an element.

    def _gather(self, terms) -> list[dict]:
        """The rows of (A f)(x) = sum of c f(xg) over the pairs (g, c)."""
        rows: list[dict] = [{} for _ in range(self.size_x)]
        for g, c in terms:
            for row, y in zip(rows, self.translation_perm(g)):
                _acc(row, y, c)
        return rows

    def _scatter(self, terms) -> list[dict]:
        """The rows of the sum of c R_g over the pairs (g, c) of terms."""
        rows: list[dict] = [{} for _ in range(self.size_x)]
        for g, c in terms:
            for x, y in enumerate(self.translation_perm(g)):
                _acc(rows[y], x, c)
        return rows

    def identity_op(self) -> SparseOperator:
        one = Cyclotomic.one(self.N)
        return self._cached(("id",), lambda: self._element(
            [{x: one} for x in range(self.size_x)]))

    def R_s(self, i: int) -> SparseOperator:
        """The operator delta_g -> sum of delta_x over x in gUsU/U; on
        function values this gathers along the inverse representative:
        (R_s f)(x) = sum of f(y) over y in xUs^{-1}U/U."""
        def build():
            one = Cyclotomic.one(self.N)
            return self._element([{y: one for y in targets}
                                 for targets in self.s_cell_targets(i)])
        return self._cached(("R_s", i), build)

    def H_s(self, i: int, r: int) -> SparseOperator:
        return self._cached(("H_s", i, r), lambda: self._element(self._scatter(
            [(self.h_s(i, r), Cyclotomic.one(self.N))])))

    def E_s(self, i: int) -> SparseOperator:
        return self.E_reflection(i, i + 1)

    def Psi_s(self, i: int) -> SparseOperator:
        return self._cached(("Psi_s", i), lambda: self._element(self._scatter(
            [(self.h_s(i, r), self.psi(self.F.inv_t[r]))
             for r in range(1, self.F.size)])))

    def L_s(self, i: int) -> SparseOperator:
        def build():
            x = self.E_s(i) + self.R_s(i) * self.Psi_s(i)
            return x.scale(Fraction(1, self.qk))
        return self._cached(("L_s", i), build)

    def L_s_inv(self, i: int) -> SparseOperator:
        def build():
            L = self.L_s(i)
            x = L * L + L.scale(Fraction(1, self.qk)) \
                - self.identity_op()
            return x.scale(self.qk)
        return self._cached(("L_s_inv", i), build)

    def op_ks_rows(self, i: int) -> list[dict]:
        """The rows by point of op_ks(i), a gather over Q_s/U."""
        w = Fraction(1, self.qk)
        return self._cached(("op_ks_rows", i), lambda: self._gather(
            [(g, self.psi(c).scale(w)) for g, c in self.qs_reps(i)]))

    def op_ks(self, i: int) -> SparseOperator:
        return self._cached(("op_ks", i),
                            lambda: self._element(self.op_ks_rows(i)))

    def op_es(self, i: int) -> SparseOperator:
        one = Cyclotomic.one(self.N)
        return self._cached(("op_es", i), lambda: self._element(self._gather(
            [(self.h_s(i, r), one) for r in range(1, self.F.size)])))

    def E_reflection(self, i: int, j: int) -> SparseOperator:
        """Tie operator of a general reflection (i, j): the sum of R_t
        over the coroot subtorus through coordinates i and j."""
        one = Cyclotomic.one(self.N)
        return self._cached(("E_refl", i, j), lambda: self._element(
            self._scatter([(self.coroot_torus(i, j, r), one)
                           for r in range(1, self.F.size)])))

    def E_theta(self, theta: TorusCharacter) -> SparseOperator:
        """The sum of theta(t) R_t over t in T; E_theta delta_x0 is
        eps_theta, theta(t) at the point t and zero elsewhere."""
        return self._cached(("E_theta", theta), lambda: self._element(
            self._scatter([(t, self.theta_value(theta, t))
                           for t in self.T_list])))

    def base_column(self, B: SparseOperator) -> dict[int, Cyclotomic]:
        """The function B delta_x0 by its nonzero values: (B delta_x0)(x)
        = B[x0, h_x^-1 x0], the entry at the inverse of the orbit of x."""
        inverse = self._inverse_orbit()
        return {x: c for x, o in enumerate(self.orbit_of)
                if (c := B.terms.get(inverse[o]))}

    def pi_s_projector(self, i: int) -> SparseOperator:
        """Projection onto the isotypic pieces whose character kills the
        coroot torus of s_i: |T|^{-1} times the sum of E_theta over those
        characters."""
        def build():
            total = SparseOperator.zero(self)
            for theta in self.all_characters():
                if monodromic.simple_in_circle(i, theta):
                    total = total + self.E_theta(theta)
            return total.scale(Fraction(1, len(self.T_list)))
        return self._cached(("pi_s", i), build)

    def gauss_sum(self, i: int, theta: TorusCharacter) -> Cyclotomic:
        """Sum of theta(h_s(r)) psi(r) over the coroot torus of s_i."""
        out = Cyclotomic.zero(self.N)
        for r in range(1, self.F.size):
            out = out + self.theta_value(theta, self.h_s(i, r)) * self.psi(r)
        return out


@lru_cache(maxsize=None)
def build_model(n: int, q: int, k: int) -> FiniteModel:
    return FiniteModel(n, q, k)


def perm_then_op(perm, A: SparseOperator) -> SparseOperator:
    """The product P A, for the permutation operator P[x, perm[x]] = 1 of
    a right translation (asserted): row x0 of P A is row perm[x0] of A,
    (PA)[x0, z] = A[x0, h_p0^-1 z]."""
    model = A.model
    p0 = model._right_translation_point(perm)
    return A._like({o: c for o, z in enumerate(model.orbit_reps)
                    if (c := A.terms.get(model._column(z)[p0]))})


def op_then_perm(A: SparseOperator, perm) -> SparseOperator:
    """The product A P, for the permutation operator P[x, perm[x]] = 1 of
    a right translation (asserted): column y of A becomes column perm[y],
    (AP)[x0, z] = A[x0, perm^-1 z]."""
    model = A.model
    model._right_translation_point(perm)
    return A._like({o: c for o, z in enumerate(model.orbit_reps)
                    if (c := A.terms.get(model.orbit_of[perm.index(z)]))})


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def op_ks_equals_L(model: FiniteModel) -> bool:
    return all(model.op_ks(i) == model.L_s(i) for i in range(1, model.m))


def op_es_equals_E(model: FiniteModel) -> bool:
    return all(model.op_es(i) == model.E_s(i) for i in range(1, model.m))


def _torus_conjugation_perms(model: FiniteModel, i: int) -> list:
    """The pairs of maps x -> xt and x -> x t' over t in T, with
    t' = n_s t n_s^{-1} for the simple reflection s_i."""
    F, ns = model.F, model.simple_n(i)
    nsi = model.group_inverse(ns)
    return [(model.translation_perm(t),
             model.translation_perm(mat_mul(F, mat_mul(F, ns, t), nsi)))
            for t in model.T_list]


def verify_yokonuma_relations(model: FiniteModel) -> list:
    F = model.F
    checks = []
    ok = True
    for t1, t2 in itertools.product(model.T_list, model.T_list):
        p1 = model.translation_perm(t1)
        p2 = model.translation_perm(t2)
        p12 = model.translation_perm(mat_mul(F, t1, t2))
        if any(p2[p1[x]] != p12[x] for x in range(model.size_x)):
            ok = False
    checks.append(("torus multiplicativity R_t1 R_t2 = R_t1t2", ok))
    ok = True
    for i in range(1, model.m):
        sources = model.s_cell_targets(i)
        for pt, ptp in _torus_conjugation_perms(model, i):
            if any(sources[pt[x]] != frozenset(ptp[y] for y in sources[x])
                   for x in range(model.size_x)):
                ok = False
    checks.append(("torus conjugation R_t R_s = R_s R_t'", ok))
    ok = True
    for i in range(1, model.m):
        lhs = model.R_s(i) * model.R_s(i)
        rhs = model.H_s(i, F.neg_t[1]).scale(model.qk) \
            + model.R_s(i) * model.E_s(i)
        if lhs != rhs:
            ok = False
    checks.append(("quadratic R_s^2 = q^k H_s(-1) + R_s E_s", ok))
    if model.m >= 3:
        ok = True
        for i in range(1, model.m - 1):
            a, b = model.R_s(i), model.R_s(i + 1)
            if a * b * a != b * a * b:
                ok = False
        checks.append(("braid relation for R_s", ok))
    return checks


def verify_juyumaya_relations(model: FiniteModel) -> list:
    checks = []
    ok = True
    one = model.identity_op()
    qinv = Fraction(1, model.qk)
    for i in range(1, model.m):
        L, E = model.L_s(i), model.E_s(i)
        if L * L != one - (E - L * E).scale(qinv):
            ok = False
    checks.append(("quadratic L_s^2 = 1 - q^-k(E_s - L_s E_s)", ok))
    if model.m >= 3:
        ok = True
        for i in range(1, model.m - 1):
            a, b = model.L_s(i), model.L_s(i + 1)
            if a * b * a != b * a * b:
                ok = False
        checks.append(("braid relation for L_s", ok))
    ok = True
    for i in range(1, model.m):
        L = model.L_s(i)
        for pt, ptp in _torus_conjugation_perms(model, i):
            if perm_then_op(pt, L) != op_then_perm(L, ptp):
                ok = False
    checks.append(("torus conjugation R_t L_s = L_s R_t'", ok))
    ok = True
    for i in range(1, model.m):
        L = model.L_s(i)
        cubic = (L * L - one) * (L + one.scale(qinv))
        if cubic:
            ok = False
        if model.L_s_inv(i) * L != one or L * model.L_s_inv(i) != one:
            ok = False
    checks.append(("cubic (L_s^2-1)(L_s+q^-k) = 0 and invertibility", ok))
    return checks


def verify_tie_dictionary(model: FiniteModel) -> list:
    """The braids-and-ties relations under g_s -> -L_s,
    e_s -> E_s/(q^k-1) at v^2 = q^-k, and the bar-twisted dual
    g_s -> -L_s^{-1} at v^2 = q^k."""
    checks = []
    one = model.identity_op()
    qk = model.qk
    norm = Fraction(1, qk - 1)

    def tie(i):
        return model.E_s(i).scale(norm)

    for label, g_of, v2 in (
            ("primary dictionary at v^2 = q^-k",
             lambda i: -model.L_s(i), Fraction(1, qk)),
            ("dual dictionary at v^2 = q^k",
             lambda i: -model.L_s_inv(i), Fraction(qk))):
        ok = True
        for i in range(1, model.m):
            g, e = g_of(i), tie(i)
            if e * e != e:
                ok = False
            if g * e != e * g:
                ok = False
            rhs = one + (e + e * g).scale(v2 - 1)
            if g * g != rhs:
                ok = False
        for i in range(1, model.m - 1):
            a, b = g_of(i), g_of(i + 1)
            if a * b * a != b * a * b:
                ok = False
            if tie(i) * tie(i + 1) != tie(i + 1) * tie(i):
                ok = False
            lhs = a * tie(i + 1)
            rhs = model.E_reflection(i, i + 2).scale(norm) * a
            if lhs != rhs:
                ok = False
        checks.append((label, ok))
    return checks


def verify_epsilon_eigenvectors(model: FiniteModel) -> list:
    checks = []
    ok = True
    circle_ok = True
    for theta in model.all_characters():
        E = model.E_theta(theta)
        for i in range(1, model.m):
            inside = monodromic.simple_in_circle(i, theta)
            if model.op_es(i) * E != E.scale(
                    Fraction(model.qk - 1) if inside else 0):
                ok = False
            finite_inside = all(
                model.theta_value(theta, model.h_s(i, r))
                == Cyclotomic.one(model.N) for r in range(1, model.F.size))
            if finite_inside != inside:
                circle_ok = False
    checks.append(("op_es eigenvalues on every eps_theta", ok))
    checks.append(("adjacent-exponent rule matches torus sums", circle_ok))
    if model.m == 3:
        ok = True
        for theta in model.all_characters():
            finite_inside = all(
                model.theta_value(theta, model.coroot_torus(1, 3, r))
                == Cyclotomic.one(model.N) for r in range(1, model.F.size))
            if finite_inside != ((1, 3) in monodromic.w_circle(theta)):
                ok = False
        checks.append(("long-reflection circle rule matches torus sums", ok))
    return checks


def verify_case_values(model: FiniteModel) -> tuple[list, dict]:
    """Direct values of op_ks on every eps_theta: at a torus point t the
    value is (1-q^-k) theta(t) inside the circle and 0 outside; on the
    s-cell point tus it is -q^-k theta(t) inside and q^-k G theta(t)
    outside, with G the Gauss sum; zero elsewhere.  Returns the checks
    and, per character theta, the base columns of op_ks(i) E_theta for
    i = 1..m-1, which `monodromic_crosscheck` reads."""
    checks = []
    qk = model.qk
    one = Cyclotomic.one(model.N)
    ok_torus = ok_cell = ok_support = ok_gauss = True
    columns = {}
    for theta in model.all_characters():
        E = model.E_theta(theta)
        columns[theta] = [model.base_column(model.op_ks(i) * E)
                          for i in range(1, model.m)]
        for i, out in enumerate(columns[theta], 1):
            inside = monodromic.simple_in_circle(i, theta)
            alpha = (one.scale(Fraction(qk - 1, qk)) if inside
                     else Cyclotomic.zero(model.N))
            G = model.gauss_sum(i, theta)
            beta = (one.scale(Fraction(-1, qk)) if inside
                    else G.scale(Fraction(1, qk)))
            if not inside:
                conj = model.gauss_sum(
                    i, torus_character(theta.modulus,
                                       tuple(-b for b in theta.exponents)))
                sign = model.theta_value(theta,
                                         model.h_s(i, model.F.neg_t[1]))
                if G * conj != sign.scale(Fraction(qk)):
                    ok_gauss = False
            cell = model.cell_of(i)
            for x in range(model.size_x):
                val = out.get(x, Cyclotomic.zero(model.N))
                if x in model.torus_of:
                    want = alpha * model.theta_value(theta, model.torus_of[x])
                    if val != want:
                        ok_torus = False
                elif x in cell:
                    want = beta * model.theta_value(theta, cell[x])
                    if val != want:
                        ok_cell = False
                elif val:
                    ok_support = False
    checks.append(("torus values of op_ks on eps_theta", ok_torus))
    checks.append(("cell values of op_ks on eps_theta", ok_cell))
    checks.append(("op_ks eps_theta supported on torus and s-cell",
                   ok_support))
    checks.append(("Gauss sum times conjugate equals q^k", ok_gauss))
    return checks, columns


def verify_projection_lemma(model: FiniteModel) -> list:
    ok = True
    for i in range(1, model.m):
        lhs = model.E_s(i)
        rhs = model.pi_s_projector(i).scale(Fraction(model.qk - 1))
        if lhs != rhs:
            ok = False
        norm = model.op_es(i).scale(Fraction(1, model.qk - 1))
        if norm * norm != norm:
            ok = False
    return [("tie operator is (q^k-1) times an exact projection", ok)]


def verify_left_translation(model: FiniteModel) -> list:
    gens = []
    for i in range(1, model.m):
        gens += [model.simple_n(i), model.h_s(i, model.F.gen),
                 model.root_element(i, 1)]
    ok = True
    for g in gens:
        perm = model.left_translation_perm(g)
        for i in range(1, model.m):
            # P K = K P for P[x, perm[x]] = 1: row perm[x] of K is row x
            # with its columns moved by perm
            K = model.op_ks_rows(i)
            if any(K[perm[x]] != {perm[y]: c for y, c in row.items()}
                   for x, row in enumerate(K)):
                ok = False
    return [("op_ks commutes with left translations", ok)]


def verify_word_independence(model: FiniteModel) -> list:
    if model.m < 3:
        return []
    ok = True
    for w in all_perms(model.m):
        words = _all_reduced_words(w)
        if len(words) < 2:
            continue
        base = _word_op(model, words[0])
        for word in words[1:]:
            if _word_op(model, word) != base:
                ok = False
    return [("op_ks products independent of the reduced word", ok)]


def _all_reduced_words(w: Perm) -> list[tuple[int, ...]]:
    if perm_length(w) == 0:
        return [()]
    out = []
    m = len(w)
    for i in range(1, m):
        sw, down = left_action(m, i)[w]
        if down:
            out.extend((i,) + rest for rest in _all_reduced_words(sw))
    return out


def _word_op(model: FiniteModel, word) -> SparseOperator:
    out = model.identity_op()
    for i in word:
        out = out * model.op_ks(i)
    return out


def verify_main_identity(n: int, q: int, k: int) -> dict:
    """Full verification report for one configuration: the convolution
    operator equals the Juyumaya generator entrywise, both presentations
    hold, the tie dictionary specializes, and the explicit values on
    every eps_theta come out as computed in closed form.  The report
    carries the base columns of `verify_case_values` as "columns"."""
    model = build_model(n, q, k)
    checks = [("op_ks equals L_s entrywise", op_ks_equals_L(model)),
              ("op_es equals E_s entrywise", op_es_equals_E(model))]
    checks += verify_yokonuma_relations(model)
    checks += verify_juyumaya_relations(model)
    checks += verify_tie_dictionary(model)
    checks += verify_epsilon_eigenvectors(model)
    case_checks, columns = verify_case_values(model)
    checks += case_checks
    checks += verify_projection_lemma(model)
    checks += verify_left_translation(model)
    checks += verify_word_independence(model)
    return {"config": {"n": n, "q": q, "k": k, "qk": model.qk,
                       "size_x": model.size_x},
            "checks": checks, "columns": columns,
            "ok": all(ok for _, ok in checks)}


def delta_in_epsilon_span(n: int, q: int, k: int) -> dict:
    """Express the indicator of the base point as a combination of the
    eps_theta = E_theta delta_x0, by an exact linear solve of
    sum c_theta E_theta = 1 on base rows over the cyclotomic field.

    >>> rep = delta_in_epsilon_span(1, 2, 1)
    >>> rep["solved"], rep["coefficients"]
    (True, [Fraction(1, 1)])
    """
    model = build_model(n, q, k)
    one = Cyclotomic.one(model.N)
    delta = model.identity_op().terms
    rows = [model.E_theta(theta).terms for theta in model.all_characters()]
    coeffs = solve(rows, delta, one)
    acc: dict[int, Cyclotomic] = {}
    for c, v in zip(coeffs, rows):
        if c:
            _axpy(acc, v, c)
    out = [c.rational_value() if c.is_rational() else c for c in coeffs]
    return {"solved": acc == delta, "coefficients": out,
            "count": len(rows)}


def perfect_square_root(a: int) -> int | None:
    """The nonnegative r with r*r = a, or None when a is not a square.

    >>> perfect_square_root(16), perfect_square_root(8)
    (4, None)
    """
    r = math.isqrt(a)
    return r if r * r == a else None


def monodromic_crosscheck(n: int, q: int, k: int, exponents: tuple[int, ...],
                          columns: list[dict]) -> dict:
    """Match the values of op_ks on eps_theta, given as the base columns
    of op_ks(i) E_theta for i = 1..m-1 (see `verify_case_values`), against
    the one-letter images of the orbit-algebra surjection pi_L.

    The comparison dictionary: specialize the coefficient of A_w 1_L at
    v_0 = q^{-k/2} (equivalently, apply the bar involution and evaluate
    at v = q^{k/2}), weight it by (-q^{-k})^{l(w)}, and read A_w 1_L as
    the theta-twisted cell sum of the w-cell.  Outside the circle the
    cell constant additionally carries the per-corner Gauss factor
    kappa = -G/q^{k/2}, whose modulus is one since G times its conjugate
    is q^k.
    """
    model = build_model(n, q, k)
    qk = model.qk
    root = perfect_square_root(qk)
    if root is None:
        raise ValueError("crosscheck requires q^k to be a perfect square")
    v0 = Fraction(1, root)
    theta = torus_character(qk - 1, exponents)
    per_letter = []
    ok = True
    for i, out in enumerate(columns, 1):
        inside = monodromic.simple_in_circle(i, theta)
        x = monodromic.pi_L((i,), theta)
        e_key = (identity_perm(model.m), theta)
        s_key = (simple_perm(i, model.m), theta)
        alpha_pi = Cyclotomic.from_rational(
            model.N, x.coeff(e_key)(v0))
        beta_pi = Cyclotomic.from_rational(
            model.N,
            x.coeff(s_key)(v0) * Fraction(-1, qk))
        if inside:
            kappa = Cyclotomic.one(model.N)
        else:
            kappa = model.gauss_sum(i, theta).scale(Fraction(-1, root))
        beta_pi = beta_pi * kappa
        alpha_ok = beta_ok = True
        for x_pt, t in model.torus_of.items():
            want = alpha_pi * model.theta_value(theta, t)
            if out.get(x_pt, Cyclotomic.zero(model.N)) != want:
                alpha_ok = False
        for x_pt, t in model.cell_of(i).items():
            want = beta_pi * model.theta_value(theta, t)
            if out.get(x_pt, Cyclotomic.zero(model.N)) != want:
                beta_ok = False
        per_letter.append({"s": i, "inside_circle": inside,
                           "torus_match": alpha_ok, "cell_match": beta_ok,
                           "kappa": repr(kappa)})
        ok = ok and alpha_ok and beta_ok
    return {"config": {"n": n, "q": q, "k": k},
            "exponents": tuple(theta.exponents),
            "specialization": f"bar then v = {root} (equals v = 1/{root})",
            "letters": per_letter, "ok": ok}


if __name__ == "__main__":
    import doctest
    doctest.testmod()
