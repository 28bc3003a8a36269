r"""The rational function field Q(v), and the reference oracles that divide
in it.

No command computes in Q(v): the algebra of braids and ties, the Hecke
algebra and the monodromic algebra take Laurent coefficients
(`braidties.scalars.LaurentPoly`), and the basis of the braid-generated
subalgebra C(v) is certified with integers (`braidties.closure.certificate`).
The references here still eliminate over Q(v) proper, so they keep its
arithmetic:

- `qv_closure(n)`: the exact echelon basis of C(v) over Q(v), the closure
  of span{1} under the g_s walked on raw candidates;
- `jr_span` and `jr_decomposition`: independent elements spanning the
  summands J_R e_R of the direct-sum decomposition of C(v), and the check
  that the sum is direct and fills C(v);
- `word_oracle._word_closure`, the tagged closure, whose scalar this is.

`qv(terms)` reads Laurent coefficients as elements of Q(v), so that an
`Echelon` over them can divide.

The canonical form of a rational function: the denominator is a monic
ordinary polynomial in $v$ with nonzero constant term; any Laurent unit
$v^k$ is absorbed into the numerator; numerator and denominator share no
polynomial factor. `RationalFunctionScalar.make` reaches it through
primitive integer polynomials with a positive leading coefficient: a
polynomial gcd over $\mathbb{Z}[x]$ (the heuristic GCDHEU of Char, Geddes
and Gonnet, with a primitive remainder sequence as fallback) runs only
when both parts have more than one term. A sum or product of Laurent
polynomials, a Laurent polynomial plus a fraction, and a quotient by a
monomial never reach it.  A Laurent polynomial, an int or a Fraction
operand is read as an element of Q(v).

>>> v = RationalFunctionScalar.V
>>> (v*v - 1) / (v - v**3)
-v^-1
>>> ((v*v - 1) / (v - v**3)).specialize(Fraction(2))
Fraction(-1, 2)
>>> RationalFunctionScalar.ONE / (LaurentPoly.V + 1)
1/(v + 1)
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as int_gcd, isqrt

from braidties.btalg import (BTElement, _g_word, bt_mul, e_element,
                             g_element, lmul_g, lmul_g_word)
from braidties.coxeter import (Perm, SetPartition, all_perms,
                               all_set_partitions, partition_from_blocks,
                               perm_length, reduced_word, transposition_perm,
                               w_action)
from braidties.linalg import Echelon
from braidties.scalars import _LP_ONE, _LP_ZERO, LaurentPoly, _lp, _zdiv


# ---------------------------------------------------------------------------
# polynomial gcd over Z[x]: tuples of ints, low degree first
# ---------------------------------------------------------------------------

def _zeval(a: tuple[int, ...], x: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _zprimitive(a: tuple[int, ...]) -> tuple[int, ...]:
    """a divided by its content, signed so that the leading coefficient
    is positive."""
    g = int_gcd(*a)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else tuple(x // g for x in a)


def _zprem(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Pseudo-remainder of a by b: the remainder of lc(b)^k * a over Z."""
    rem = list(a)
    lb = len(b)
    top = b[-1]
    while len(rem) >= lb:
        t = rem[-1]
        if t:
            rem = [x * top for x in rem]
            for j, y in enumerate(b, len(rem) - lb):
                rem[j] -= t * y
        rem.pop()
    while rem and not rem[-1]:
        rem.pop()
    return tuple(rem)


def _zgcd_prs(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """gcd of nonzero a, b in Z[x] by the primitive remainder sequence;
    primitive with a positive leading coefficient."""
    a, b = _zprimitive(a), _zprimitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _zprem(a, b)
        if not r:
            return b
        a, b = b, _zprimitive(r)
    return (1,)


@lru_cache(maxsize=1 << 14)
def _zgcd(a: tuple[int, ...], b: tuple[int, ...]
          ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(g, a/g, b/g) for primitive a, b in Z[x], with g their gcd,
    primitive with a positive leading coefficient.

    Memoized, with room for every distinct pair one job meets: kl-lift
    --n 3 asks about 197 000 times for about 10 400 pairs.

    GCDHEU: evaluate at an integer xi, take the integer gcd, read its
    balanced base-xi digits back as a polynomial H, and accept pp(H) if it
    divides a and b. With xi >= 2 min(|a|, |b|) + 2 (max norms) an accepted
    pp(H) is the gcd: if gcd = pp(H) k with k nonconstant, every root of k
    is a root of a (or b), so |k(xi)| > (xi/2)^deg k >= xi/2, while k(xi)
    must divide the content of H, which is at most xi/2. Six growing
    points are tried before the remainder sequence.

    >>> _zgcd((-1, 0, 1), (1, 2, 1))
    ((1, 1), (-1, 1), (1, 1))
    """
    if len(a) == 1 or len(b) == 1:
        return (1,), a, b
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    for _ in range(6):
        h = int_gcd(_zeval(a, xi), _zeval(b, xi))
        half = xi // 2
        digits = []
        while h:
            r = h % xi
            if r > half:
                r -= xi
            digits.append(r)
            h = (h - r) // xi
        if len(digits) == 1:
            return (1,), a, b
        g = _zprimitive(tuple(digits))
        qa = _zdiv(a, g)
        if qa is not None:
            qb = _zdiv(b, g)
            if qb is not None:
                return g, qa, qb
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011
    g = _zgcd_prs(a, b)
    return g, _zdiv(a, g), _zdiv(b, g)


# ---------------------------------------------------------------------------
# the field Q(v)
# ---------------------------------------------------------------------------

def _lp_scaled(lo: int, co: tuple[int, ...], m: int, d: int) -> "LaurentPoly":
    """The canonical form of v^lo * m * (co[0] + co[1] v + ...) / d, for
    co without zeros at either end, m != 0 and d > 0."""
    if m != 1:
        co = tuple([x * m for x in co])
    if d != 1:
        g = int_gcd(d, *co)
        if g != 1:
            co = tuple([x // g for x in co])
            d //= g
    return _lp(lo, co, d)


def _rf(num: LaurentPoly, den: LaurentPoly) -> "RationalFunctionScalar":
    out = object.__new__(RationalFunctionScalar)
    out.num = num
    out.den = den
    return out


class RationalFunctionScalar:
    """Element of Q(v) in canonical form.

    num/den with den a monic ordinary polynomial with nonzero constant
    term, gcd(num, den) = 1 as polynomials, and any unit v^k carried by
    the numerator. Canonical means `==` on representations decides
    equality of values.

    Inside, den is a primitive integer polynomial D with a positive
    leading coefficient l, stored as D / l, and `make` computes on the
    primitive parts of both sides, so every polynomial gcd runs over Z[x].
    A Laurent value (den = 1) is the common case: sums and products of two
    of them are Laurent operations, and a Laurent polynomial plus n/D is
    (L D + n)/D, already in lowest terms.

    >>> v = RationalFunctionScalar.V
    >>> x = (v**2 - RationalFunctionScalar.ONE) / (v - v**3)
    >>> x
    -v^-1
    >>> x * v == -RationalFunctionScalar.ONE
    True
    >>> (RationalFunctionScalar.ONE / (v + RationalFunctionScalar.ONE)).den
    v + 1
    >>> (v + 1) / (2 * v + 3)
    (1/2*v + 1/2)/(v + 3/2)
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        made = RationalFunctionScalar.make(num, den)
        self.num = made.num
        self.den = made.den

    @staticmethod
    def make(num: LaurentPoly, den: LaurentPoly) -> "RationalFunctionScalar":
        dco = den._co
        if not dco:
            raise ZeroDivisionError("rational function with zero denominator")
        nco = num._co
        if not nco:
            return RF_ZERO
        shift = num._lo - den._lo
        if len(dco) == 1:
            # a monomial or a constant: the quotient is a Laurent polynomial
            c = dco[0]
            return _rf(_lp_scaled(shift, nco, den._d if c > 0 else -den._d,
                                  num._d * abs(c)), _LP_ONE)
        gn = int_gcd(*nco)
        n = nco if gn == 1 else tuple([x // gn for x in nco])
        gd = int_gcd(*dco)
        if dco[-1] < 0:
            gd = -gd
        d = dco if gd == 1 else tuple([x // gd for x in dco])
        if len(n) > 1:
            _, n, d = _zgcd(n, d)
        # num/den = v^shift * (gn den._d) / (gd num._d) * n/d, with n, d
        # coprime and d primitive; the canonical denominator is d / lead
        lead = d[-1]
        cn, cd = gn * den._d, gd * num._d * lead
        if cd < 0:
            cn, cd = -cn, -cd
        return _rf(_lp_scaled(shift, n, cn, cd),
                   _LP_ONE if len(d) == 1 else _lp(0, d, lead))

    @classmethod
    def from_laurent(cls, p: LaurentPoly) -> "RationalFunctionScalar":
        return _rf(p, _LP_ONE)

    @classmethod
    def const(cls, a: Fraction | int) -> "RationalFunctionScalar":
        return _rf(LaurentPoly.const(a), _LP_ONE)

    def __bool__(self) -> bool:
        return bool(self.num._co)

    def as_laurent(self) -> LaurentPoly:
        if len(self.den._co) != 1:
            raise ValueError(f"not a Laurent polynomial: {self!r}")
        return self.num

    @staticmethod
    def _coerce(x: "RationalFunctionScalar | LaurentPoly | int | Fraction"
                ) -> "RationalFunctionScalar":
        if isinstance(x, RationalFunctionScalar):
            return x
        if isinstance(x, LaurentPoly):
            return RationalFunctionScalar.from_laurent(x)
        if isinstance(x, (int, Fraction)):
            return RationalFunctionScalar.const(x)
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (LaurentPoly, int, Fraction)):
            other = RationalFunctionScalar._coerce(other)
        return (isinstance(other, RationalFunctionScalar)
                and self.num == other.num and self.den == other.den)

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other) -> "RationalFunctionScalar":
        other = RationalFunctionScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.num, other.num
        if not a._co:
            return other
        if not b._co:
            return self
        da, db = self.den, other.den
        # L + n/D = (L D + n)/D is in lowest terms, since gcd(n, D) = 1
        if len(da._co) == 1:
            if len(db._co) == 1:
                return _rf(a + b, _LP_ONE)
            return _rf(a * db + b, db)
        if len(db._co) == 1:
            return _rf(a + b * da, da)
        if da == db:
            return RationalFunctionScalar.make(a + b, da)
        num = a * db + b * da
        if len(_zgcd(da._co, db._co)[0]) == 1:
            # coprime denominators: num shares no factor with either
            return _rf(num, da * db)
        return RationalFunctionScalar.make(num, da * db)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunctionScalar":
        return _rf(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunctionScalar":
        other = RationalFunctionScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RationalFunctionScalar":
        return (-self) + other

    def __mul__(self, other) -> "RationalFunctionScalar":
        other = RationalFunctionScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.num, other.num
        if not a._co or not b._co:
            return RF_ZERO
        da, db = self.den, other.den
        # cross-reduce num against the other den; what is left is coprime
        # across as well, so the product needs no further gcd
        if len(da._co) == 1:
            if len(db._co) == 1:
                return _rf(a * b, _LP_ONE)
            x = RationalFunctionScalar.make(a, db)
            return _rf(x.num * b, x.den)
        y = RationalFunctionScalar.make(b, da)
        if len(db._co) == 1:
            return _rf(a * y.num, y.den)
        x = RationalFunctionScalar.make(a, db)
        return _rf(x.num * y.num, x.den * y.den)

    __rmul__ = __mul__

    def inv(self) -> "RationalFunctionScalar":
        if not self.num._co:
            raise ZeroDivisionError("inverting zero")
        return RationalFunctionScalar.make(self.den, self.num)

    def __truediv__(self, other) -> "RationalFunctionScalar":
        other = RationalFunctionScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other) -> "RationalFunctionScalar":
        return RationalFunctionScalar._coerce(other) * self.inv()

    def __pow__(self, k: int) -> "RationalFunctionScalar":
        if k < 0:
            return self.inv() ** (-k)
        out = RationalFunctionScalar.ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def bar(self) -> "RationalFunctionScalar":
        """The involution v -> v^{-1}, extended to Q(v)."""
        return RationalFunctionScalar.make(self.num.bar(), self.den.bar())

    def specialize(self, v0: Fraction) -> Fraction:
        v0 = Fraction(v0)
        if v0 == 0:
            raise ZeroDivisionError("specialization at v = 0 is not defined")
        d = self.den(v0)
        if not d:
            raise ZeroDivisionError(f"pole at v = {v0}")
        return self.num(v0) / d

    def __repr__(self) -> str:
        if len(self.den._co) == 1:
            return repr(self.num)
        num = repr(self.num)
        co = self.num._co
        if len(co) - co.count(0) > 1:
            num = f"({num})"
        return f"{num}/({self.den!r})"


RF = RationalFunctionScalar
RF_ZERO = _rf(_LP_ZERO, _LP_ONE)
RF.ZERO = RF_ZERO
RF.ONE = RF.from_laurent(_LP_ONE)
RF.V = RF.from_laurent(LaurentPoly.V)
RF.VI = RF.from_laurent(LaurentPoly.monomial(-1))


def qv(terms: dict) -> dict:
    """The terms with every coefficient read as an element of Q(v)."""
    return {k: RF._coerce(c) for k, c in terms.items()}


# ---------------------------------------------------------------------------
# the exact closure over Q(v)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def qv_closure(n: int) -> Echelon:
    """Exact echelon basis of C(v) over Q(v): span{1} closed under left
    multiplication by the g_s, breadth first, with the frontier keeping
    every raw candidate g_s x that gains a pivot."""
    if n > 3:
        raise ValueError("exact closure bounded at n <= 3")
    m = n + 1
    unit = BTElement.unit(m)
    ech = Echelon()
    ech.insert(qv(unit.terms))
    frontier = [unit]
    while frontier:
        new = []
        for x in frontier:
            for i in range(1, m):
                y = lmul_g(i, x)
                if ech.insert(qv(y.terms)) is not None:
                    new.append(y)
        frontier = new
    return ech


# ---------------------------------------------------------------------------
# the J_R e_R decomposition
# ---------------------------------------------------------------------------

def _is_interval_partition(R: SetPartition) -> bool:
    return all(b[-1] - b[0] + 1 == len(b) for b in R)


def _canonical_interval_partition(R: SetPartition, m: int) -> SetPartition:
    """Interval partition with the same block sizes, largest first."""
    blocks, start = [], 1
    for size in sorted((len(b) for b in R if len(b) > 1), reverse=True):
        blocks.append(tuple(range(start, start + size)))
        start += size
    blocks.extend((i,) for i in range(start, m + 1))
    return partition_from_blocks(blocks)


@lru_cache(maxsize=None)
def _canonical_conjugator(P0: SetPartition, R: SetPartition, m: int) -> Perm:
    """Minimal (length, one-line) permutation y with y(P0) = R."""
    best = None
    for y in all_perms(m):
        if w_action(y, P0) == R:
            key = (perm_length(y), y)
            if best is None or key < best:
                best = key
    if best is None:
        raise ValueError(f"{R} is not a relabelling of {P0}")
    return best[1]


def _partition_products(P: SetPartition, m: int) -> list[BTElement]:
    """The elements (1+g_{r_1})...(1+g_{r_l}) e_P, one reflection r_j from
    each nontrivial block of P, over all such choices."""
    blocks = [b for b in P if len(b) > 1]
    choice_sets = [[(b[i], b[j]) for i in range(len(b))
                    for j in range(i + 1, len(b))] for b in blocks]
    choices = [()]
    for cs in choice_sets:
        choices = [got + (r,) for got in choices for r in cs]
    out = []
    for choice in choices:
        x = e_element(P)
        for (a, b) in reversed(choice):
            gr = g_element(transposition_perm(a, b, m))
            x = bt_mul(gr, x) + x
        out.append(x)
    return out


def _jr_spanning_elements(n: int, R: SetPartition) -> list[BTElement]:
    m = n + 1
    if _is_interval_partition(R):
        P0, y = R, None
    else:
        P0 = _canonical_interval_partition(R, m)
        y = _canonical_conjugator(P0, R, m)
    pre = () if y is None else reduced_word(y)
    # g_y^{-1}: the g_s^{-1} along the reversed reduced word of y
    post = None if y is None else _g_word(tuple(-i for i in reversed(pre)), m)
    out = []
    for x in _partition_products(P0, m):
        for w in all_perms(m):
            t = lmul_g_word(pre + reduced_word(w), x)
            if post is not None:
                t = bt_mul(t, post)
            out.append(t)
    return out


def jr_span(n: int, R: SetPartition) -> list[BTElement]:
    """Linearly independent elements spanning the summand J_R e_R of C(v).

    For an interval partition this is the span of the literal products
    g_w (1+g_{r_1})...(1+g_{r_l}) e_R with one reflection r_j inside each
    nontrivial block of R.  For any other partition that literal span is
    strictly larger than the common dimension of the conjugacy class (6
    against 3 for the blocks {1,3},{2}), so the summand is transported
    instead:
    g_y X g_y^{-1} over the interval-partition spanning set X, with y the
    minimal-length relabelling onto R.  Transport preserves dimension, and
    `jr_decomposition` checks the resulting sum is direct.
    """
    if n > 3:
        raise ValueError("exact span bounded at n <= 3")
    ech = Echelon()
    return [x for x in _jr_spanning_elements(n, R)
            if ech.insert(qv(x.terms)) is not None]


def jr_decomposition(n: int) -> dict:
    """Exact direct-sum check: dims of every J_R e_R, their sum, the rank of
    the concatenation (sum == rank means the sum is direct), and agreement
    with the closure dimension (n <= 3)."""
    m = n + 1
    spans = {R: jr_span(n, R) for R in all_set_partitions(m)}
    total = Echelon()
    inserted = 0
    for R in sorted(spans):
        for x in spans[R]:
            if total.insert(qv(x.terms)) is not None:
                inserted += 1
    dims = {R: len(sp) for R, sp in spans.items()}
    dim_sum = sum(dims.values())
    closure_rank = qv_closure(n).rank
    return {
        "n": n,
        "dims": dims,
        "sum": dim_sum,
        "concatenated_rank": total.rank,
        "direct": total.rank == dim_sum == inserted,
        "closure_dimension": closure_rank,
        "spans_closure": total.rank == closure_rank,
    }
