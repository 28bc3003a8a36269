r"""Exact scalar arithmetic for the whole workbench.

Three coefficient domains, all exact and all stored as Python integers:

- rationals: `fractions.Fraction` from the standard library, used as-is;
- Laurent polynomials $\mathbb{Q}[v, v^{-1}]$: `LaurentPoly`, the one
  scalar of the algebra of braids and ties, the Hecke algebra and the
  monodromic algebra.  Every element a command forms there has Laurent
  coefficients, and the only inverses taken are those of monomials;
- cyclotomic fields $\mathbb{Q}(\zeta_N)$: `Cyclotomic`, with coordinates
  reduced modulo the $N$-th cyclotomic polynomial $\Phi_N$ (a field, unlike
  $\mathbb{Q}[x]/(x^N-1)$), stored as integer numerators over one positive
  common denominator.

The prime fields $\mathbb{F}_p$ of the mod-p rank certificate need no
class here: they are plain Python ints in $[0, p)$, reduced by
`linalg.Echelon` given the prime modulus.  No command divides by a
Laurent polynomial that is not a monomial, so no polynomial gcd runs.

Both types split a value into a rational content and an integer part. A
Laurent polynomial is $v^{lo} (c_0 + c_1 v + \dots + c_k v^k) / d$ with
integers $c_i$, $c_0 \ne 0 \ne c_k$, $d > 0$ and
$\gcd(c_0, \dots, c_k, d) = 1$, so its representation is unique. Sums and
products are integer additions and convolutions followed by one integer
gcd, and none when $d = 1$, which is the common case.  An int or a
Fraction is read as a constant when it is the right operand of a sum,
a difference or a product, or the left operand of a product.

The canonical form of a cyclotomic number: the gcd of its numerators and
its denominator is 1. Since $\Phi_N$ is monic with integer coefficients,
a product is an integer convolution followed by a reduction with integer
rows, and the only division left is the final gcd. A sum of many
products can add up their raw convolutions over a common denominator and
reduce and normalize once (`Cyclotomic.from_convolution`), which is how
the finite-model operator products compute each entry.

>>> v = LaurentPoly.V
>>> (v*v - 1) * (v - v**3) ** -1
Traceback (most recent call last):
ArithmeticError: not a unit of Q[v, v^-1]: -v^3 + v
>>> (v*v - 1) * (-v) ** -3
-v^-1 + v^-3
>>> (v*v - 1)(Fraction(2))
Fraction(3, 1)
>>> cyclotomic_poly(6)
(1, -1, 1)
>>> z = Cyclotomic.root(6, 1)
>>> z**6 == Cyclotomic.one(6)
True
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from math import gcd as int_gcd, lcm

ZERO_F = Fraction(0)


# ---------------------------------------------------------------------------
# integer polynomials: tuples of ints, low degree first, no trailing zero
# ---------------------------------------------------------------------------

def _zdiv(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...] | None:
    """a / b in Z[x] when b divides a there, else None."""
    lb = len(b)
    n = len(a) - lb
    if n < 0:
        return None
    rem = list(a)
    top = b[-1]
    quo = [0] * (n + 1)
    for k in range(n, -1, -1):
        t = rem[k + lb - 1]
        if t:
            c, r = divmod(t, top)
            if r:
                return None
            quo[k] = c
            for j, y in enumerate(b, k):
                if y:
                    rem[j] -= c * y
    if any(rem[:lb - 1]):
        return None
    return tuple(quo)


# ---------------------------------------------------------------------------
# Laurent polynomials in v
# ---------------------------------------------------------------------------

def _lp(lo: int, co: tuple[int, ...], d: int = 1) -> "LaurentPoly":
    """v^lo * (co[0] + co[1] v + ...) / d from a representation that is
    already canonical."""
    out = object.__new__(LaurentPoly)
    out._lo = lo
    out._co = co
    out._d = d
    return out


def _lp_norm(lo: int, co: list[int], d: int) -> "LaurentPoly":
    """The canonical form of v^lo * (co[0] + co[1] v + ...) / d, d > 0:
    zeros stripped at both ends and gcd(co..., d) divided out."""
    hi = len(co)
    while hi and not co[hi - 1]:
        hi -= 1
    if not hi:
        return _LP_ZERO
    start = 0
    while not co[start]:
        start += 1
    if start or hi < len(co):
        co = co[start:hi]
    if d != 1:
        g = int_gcd(d, *co)
        if g != 1:
            co = [x // g for x in co]
            d //= g
    return _lp(lo + start, tuple(co), d)


class LaurentPoly:
    """Laurent polynomial in v over Q, immutable and hashable.

    Stored as integers: the value is v^lo * (c_0 + c_1 v + ... + c_k v^k)
    / d with c_0 and c_k nonzero, d > 0 and gcd(c_0, ..., c_k, d) = 1, so
    equal values have equal representations. Build one from an exponent ->
    coefficient map with the constructor, and read that map back with
    `coeffs`; no other code depends on the storage.

    >>> p = LaurentPoly.monomial(2) - LaurentPoly.one()
    >>> p
    v^2 - 1
    >>> p.bar()
    -1 + v^-2
    >>> p(Fraction(3))
    Fraction(8, 1)
    >>> 2 * p - 1
    2*v^2 - 3
    >>> LaurentPoly({-1: Fraction(1, 2), 1: 3}).coeffs()
    {-1: Fraction(1, 2), 1: Fraction(3, 1)}
    """

    __slots__ = ("_lo", "_co", "_d")

    def __init__(self, coeffs: dict[int, Fraction | int] | None = None):
        terms = [(e, Fraction(x)) for e, x in (coeffs or {}).items() if x]
        if not terms:
            self._lo, self._co, self._d = 0, (), 1
            return
        # over the lcm of reduced denominators, the numerators share no
        # prime with it: each p^e dividing it exactly divides one denominator
        d = lcm(*(x.denominator for _, x in terms))
        lo = min(e for e, _ in terms)
        co = [0] * (max(e for e, _ in terms) - lo + 1)
        for e, x in terms:
            co[e - lo] = x.numerator * (d // x.denominator)
        self._lo, self._co, self._d = lo, tuple(co), d

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _LP_ZERO

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _LP_ONE

    @classmethod
    def monomial(cls, exp: int, coeff: Fraction | int = 1) -> "LaurentPoly":
        coeff = Fraction(coeff)
        if not coeff:
            return _LP_ZERO
        return _lp(exp, (coeff.numerator,), coeff.denominator)

    @classmethod
    def const(cls, a: Fraction | int) -> "LaurentPoly":
        return cls.monomial(0, a)

    def coeffs(self) -> dict[int, Fraction]:
        """The nonzero coefficients, exponent -> Fraction, by increasing
        exponent."""
        lo, d = self._lo, self._d
        return {lo + i: Fraction(x, d) for i, x in enumerate(self._co) if x}

    def __bool__(self) -> bool:
        return bool(self._co)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not LaurentPoly:
            return NotImplemented
        return (self._lo == other._lo and self._d == other._d
                and self._co == other._co)

    def __hash__(self) -> int:
        return hash(tuple(self.coeffs().items()))

    def __add__(self, other: "LaurentPoly | int | Fraction") -> "LaurentPoly":
        if other.__class__ is not LaurentPoly:
            other = _as_laurent(other)
            if other is NotImplemented:
                return NotImplemented
        ca, cb = self._co, other._co
        if not ca:
            return other
        if not cb:
            return self
        d = self._d
        if d != other._d:
            g = int_gcd(d, other._d)
            ma, mb = other._d // g, d // g
            ca = [x * ma for x in ca]
            cb = [x * mb for x in cb]
            d *= ma
        la, lb = self._lo, other._lo
        if la > lb:
            la, lb, ca, cb = lb, la, cb, ca
        out = list(ca)
        off = lb - la
        if off + len(cb) > len(out):
            out.extend([0] * (off + len(cb) - len(out)))
        for j, y in enumerate(cb, off):
            out[j] += y
        return _lp_norm(la, out, d)

    def __neg__(self) -> "LaurentPoly":
        return _lp(self._lo, tuple([-x for x in self._co]), self._d)

    def __sub__(self, other: "LaurentPoly | int | Fraction") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly | int | Fraction") -> "LaurentPoly":
        if other.__class__ is not LaurentPoly:
            other = _as_laurent(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self._co, other._co
        if not a or not b:
            return _LP_ZERO
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            x = a[0]
            co = b if x == 1 else tuple([x * y for y in b])
        else:
            # integer convolution: no zero divisors, so the ends stay nonzero
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b, i):
                        if y:
                            out[j] += x * y
            co = tuple(out)
        d = self._d * other._d
        if d != 1:
            g = int_gcd(d, *co)
            if g != 1:
                co = tuple([x // g for x in co])
                d //= g
        return _lp(self._lo + other._lo, co, d)

    __rmul__ = __mul__

    def inv(self) -> "LaurentPoly":
        """The inverse of a monomial c v^e, which is c^{-1} v^{-e}; any
        other element is not a unit of the Laurent ring, and raises
        (ZeroDivisionError for zero).

        >>> LaurentPoly.monomial(-2, Fraction(-3, 4)).inv()
        -4/3*v^2
        """
        co = self._co
        if len(co) != 1:
            if not co:
                raise ZeroDivisionError("inverting zero")
            raise ArithmeticError(f"not a unit of Q[v, v^-1]: {self!r}")
        c = co[0]
        return _lp(-self._lo, (self._d if c > 0 else -self._d,), abs(c))

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            return self.inv() ** -k
        out = _LP_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def bar(self) -> "LaurentPoly":
        """The involution v -> v^{-1}."""
        co = self._co
        if not co:
            return self
        return _lp(-(self._lo + len(co) - 1), co[::-1], self._d)

    def __call__(self, v0: Fraction) -> Fraction:
        v0 = Fraction(v0)
        co = self._co
        if not co:
            return ZERO_F
        lo = self._lo
        p, q = v0.numerator, v0.denominator
        if not p and lo < 0:
            raise ZeroDivisionError("evaluating negative powers at v=0")
        # acc = sum co[i] p^i q^(k-i), so the ordinary part is acc / q^k
        acc, qk = 0, 1
        for c in reversed(co):
            acc = acc * p + c * qk
            qk *= q
        den = qk // q * self._d
        if lo >= 0:
            return Fraction(acc * p ** lo, den * q ** lo)
        return Fraction(acc * q ** -lo, den * p ** -lo)

    def __repr__(self) -> str:
        co = self._co
        if not co:
            return "0"
        lo, d = self._lo, self._d
        parts = []
        for i in range(len(co) - 1, -1, -1):
            x = co[i]
            if not x:
                continue
            if d != 1:
                x = Fraction(x, d)
            e = lo + i
            if e == 0:
                body = str(x)
            else:
                ve = "v" if e == 1 else f"v^{e}"
                if x == 1:
                    body = ve
                elif x == -1:
                    body = "-" + ve
                else:
                    body = f"{x}*{ve}"
            parts.append(body)
        out = parts[0]
        for body in parts[1:]:
            out += " - " + body[1:] if body.startswith("-") else " + " + body
        return out


_LP_ZERO = _lp(0, ())
_LP_ONE = _lp(0, (1,))
LaurentPoly.V = _lp(1, (1,))


def _as_laurent(x) -> "LaurentPoly":
    """x as a LaurentPoly: itself, or an int or a Fraction as a constant;
    NotImplemented for any other type, so that its own reflected
    operator is tried."""
    if x.__class__ is LaurentPoly:
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentPoly.const(x)
    return NotImplemented


# ---------------------------------------------------------------------------
# cyclotomic fields Q(zeta_N)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def cyclotomic_poly(N: int) -> tuple[int, ...]:
    """Integer coefficients of the N-th cyclotomic polynomial, low degree
    first, computed by Phi_N = (x^N - 1) / prod_{d | N, d < N} Phi_d.

    >>> cyclotomic_poly(1)
    (-1, 1)
    >>> cyclotomic_poly(4)
    (1, 0, 1)
    >>> cyclotomic_poly(12)
    (1, 0, -1, 0, 1)
    """
    if N < 1:
        raise ValueError("N must be positive")
    out = (-1,) + (0,) * (N - 1) + (1,)
    for d in range(1, N):
        if N % d == 0:
            out = _zdiv(out, cyclotomic_poly(d))
    return out


class _CycField:
    """Per-N integer data: phi(N), the coefficients of Phi_N, and the
    coordinates of zeta^k for every k below max(N, 2 phi - 1); those with
    k >= phi are the rows that reduce a raw product mod Phi_N."""

    __slots__ = ("order", "phi", "poly", "powers", "red_rows")

    def __init__(self, N: int):
        self.order = N
        poly = cyclotomic_poly(N)
        phi = len(poly) - 1
        self.phi = phi
        self.poly = poly
        # multiply by x and rewrite x^phi = -(poly[0] + ... + poly[phi-1] x^{phi-1})
        powers = [(1,) + (0,) * (phi - 1)]
        for _ in range(max(N, 2 * phi - 1) - 1):
            prev = powers[-1]
            carry = prev[phi - 1]
            powers.append(tuple((prev[i - 1] if i else 0) - carry * poly[i]
                                for i in range(phi)))
        self.powers = powers
        self.red_rows = powers[phi:2 * phi - 1]


_cyc_field = lru_cache(maxsize=None)(_CycField)


def _cyc(order: int, num, den: int) -> "Cyclotomic":
    """The canonical element num/den: divides out gcd(num..., den)."""
    g = int_gcd(den, *num)
    if g != 1:
        num = [x // g for x in num]
        den //= g
    out = object.__new__(Cyclotomic)
    out.order = order
    out.num = tuple(num)
    out.den = den
    return out


def _from_conv(f: _CycField, conv: list[int], den: int) -> "Cyclotomic":
    """(sum of conv[k] zeta^k) / den, reduced mod Phi_N and normalized;
    conv has at least phi entries and is not modified."""
    phi = f.phi
    out = conv[:phi]
    for row, c in zip(f.red_rows, conv[phi:]):
        if c:
            for i, r in enumerate(row):
                if r:
                    out[i] += c * r
    return _cyc(f.order, out, den)


class Cyclotomic:
    """Element of Q(zeta_N) on the basis 1, zeta, ..., zeta^{phi(N)-1}.

    Stored as integer numerators `num` over one positive denominator
    `den` with gcd(num..., den) = 1, so equal values have equal
    representations. A product is an integer convolution reduced mod
    Phi_N. A sum of many products can add up the raw convolutions of the
    numerators over a common denominator and reduce and normalize once,
    through `from_convolution`.

    >>> a = Cyclotomic.root(6, 1)
    >>> a * a == Cyclotomic.root(6, 2)
    True
    >>> sum((Cyclotomic.root(5, j) for j in range(5)), Cyclotomic.zero(5)).is_zero()
    True
    >>> (a / a).rational_value()
    Fraction(1, 1)
    >>> x = Cyclotomic(6, [Fraction(1, 2), Fraction(-3, 4)])
    >>> x.num, x.den
    ((2, -3), 4)
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coords: Iterable[Fraction]):
        phi = _cyc_field(order).phi
        coords = [Fraction(c) for c in coords]
        if len(coords) != phi:
            raise ValueError(f"need {phi} coordinates for order {order}")
        # over the lcm of reduced denominators, the numerators share no
        # prime with it: each p^e dividing it exactly divides one denominator
        den = lcm(*(c.denominator for c in coords))
        self.order = order
        self.num = tuple(c.numerator * (den // c.denominator) for c in coords)
        self.den = den

    @classmethod
    def zero(cls, N: int) -> "Cyclotomic":
        return _cyc(N, (0,) * _cyc_field(N).phi, 1)

    @classmethod
    def one(cls, N: int) -> "Cyclotomic":
        return _cyc(N, _cyc_field(N).powers[0], 1)

    @classmethod
    def from_rational(cls, N: int, a: Fraction | int) -> "Cyclotomic":
        a = Fraction(a)
        return _cyc(N, (a.numerator,) + (0,) * (_cyc_field(N).phi - 1),
                    a.denominator)

    @classmethod
    def root(cls, N: int, j: int = 1) -> "Cyclotomic":
        """zeta_N^j."""
        return _cyc(N, _cyc_field(N).powers[j % N], 1)

    @classmethod
    def from_convolution(cls, N: int, conv: list[int], den: int) -> "Cyclotomic":
        """The element (conv[0] + conv[1] zeta + ... ) / den, for integer
        coefficients of degree below 2 phi(N) - 1 (a sum of raw products of
        numerator vectors) and a positive denominator."""
        f = _cyc_field(N)
        if len(conv) > 2 * f.phi - 1 or den < 1:
            raise ValueError("convolution too long or denominator not positive")
        if len(conv) < f.phi:
            conv = list(conv) + [0] * (f.phi - len(conv))
        return _from_conv(f, conv, den)

    def _chk(self, other: "Cyclotomic") -> None:
        if self.order != other.order:
            raise ValueError("mixing cyclotomic fields of different orders")

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not rational: {self!r}")
        return Fraction(self.num[0], self.den)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Cyclotomic) and self.order == other.order
                and self.den == other.den and self.num == other.num)

    def __hash__(self) -> int:
        return hash((self.order, self.num, self.den))

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._chk(other)
        da, db = self.den, other.den
        if da == db:
            return _cyc(self.order, [x + y for x, y in zip(self.num, other.num)],
                        da)
        g = int_gcd(da, db)
        ma, mb = db // g, da // g
        return _cyc(self.order, [x * ma + y * mb
                                 for x, y in zip(self.num, other.num)], da * ma)

    def __neg__(self) -> "Cyclotomic":
        return _cyc(self.order, [-x for x in self.num], self.den)

    def __sub__(self, other: "Cyclotomic") -> "Cyclotomic":
        return self + (-other)

    def scale(self, a: Fraction) -> "Cyclotomic":
        a = Fraction(a)
        return _cyc(self.order, [x * a.numerator for x in self.num],
                    self.den * a.denominator)

    def __mul__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._chk(other)
        f = _cyc_field(self.order)
        conv = [0] * (2 * f.phi - 1)
        nb = other.num
        for i, x in enumerate(self.num):
            if x:
                for j, y in enumerate(nb, i):
                    if y:
                        conv[j] += x * y
        return _from_conv(f, conv, self.den * other.den)

    def inv(self) -> "Cyclotomic":
        """a^-1 = (product of the other Galois conjugates of a) / N(a),
        with the norm N(a), the product of all conjugates, rational."""
        if self.is_zero():
            raise ZeroDivisionError("inverting zero cyclotomic")
        N = self.order
        rest = Cyclotomic.one(N)
        for j in range(2, N):
            if int_gcd(j, N) == 1:
                rest = rest * self.galois(j)
        return rest.scale(1 / (self * rest).rational_value())

    def __truediv__(self, other: "Cyclotomic") -> "Cyclotomic":
        return self * other.inv()

    def __pow__(self, k: int) -> "Cyclotomic":
        if k < 0:
            return self.inv() ** (-k)
        out = Cyclotomic.one(self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def galois(self, j: int) -> "Cyclotomic":
        """The automorphism zeta -> zeta^j for gcd(j, N) = 1."""
        N = self.order
        if int_gcd(j % N, N) != 1:
            raise ValueError("galois exponent must be coprime to the order")
        powers = _cyc_field(N).powers
        out = [0] * len(self.num)
        for i, x in enumerate(self.num):
            if x:
                for k, r in enumerate(powers[i * j % N]):
                    out[k] += x * r
        return _cyc(N, out, self.den)

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, n in enumerate(self.num):
            if not n:
                continue
            x = Fraction(n, self.den)
            if i == 0:
                parts.append(str(x))
            else:
                z = f"z{self.order}" if i == 1 else f"z{self.order}^{i}"
                if x == 1:
                    parts.append(z)
                elif x == -1:
                    parts.append("-" + z)
                else:
                    parts.append(f"{x}*{z}")
        out = parts[0]
        for body in parts[1:]:
            out += " - " + body[1:] if body.startswith("-") else " + " + body
        return out


if __name__ == "__main__":
    import doctest
    doctest.testmod()
