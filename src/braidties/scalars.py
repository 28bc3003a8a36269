r"""Exact scalar arithmetic for the whole workbench.

Four coefficient domains, all exact:

- rationals: `fractions.Fraction` from the standard library, used as-is;
- Laurent polynomials $\mathbb{Q}[v, v^{-1}]$: `LaurentPoly`;
- the rational function field $\mathbb{Q}(v)$: `RationalFunctionScalar`,
  kept in a canonical form so that equality of values is equality of
  representations;
- cyclotomic fields $\mathbb{Q}(\zeta_N)$: `Cyclotomic`, with coordinates
  reduced modulo the $N$-th cyclotomic polynomial $\Phi_N$ (a field, unlike
  $\mathbb{Q}[x]/(x^N-1)$), stored as integer numerators over one positive
  common denominator.

The canonical form of a cyclotomic number: the gcd of its numerators and
its denominator is 1 (the split of a polynomial into content and primitive
part). Since $\Phi_N$ is monic with integer coefficients, a product is an
integer convolution followed by a reduction with integer rows, and the
only division left is the final gcd. A sum of many products can add up
their raw convolutions over a common denominator and reduce and normalize
once (`Cyclotomic.from_convolution`), which is how the finite-model
operator products compute each entry.

The canonical form of a rational function: the denominator is a monic
ordinary polynomial in $v$ with nonzero constant term; any Laurent unit
$v^k$ is absorbed into the numerator; numerator and denominator share no
polynomial factor.

>>> v = RationalFunctionScalar.V
>>> (v*v - 1) / (v - v**3)
-v^-1
>>> ((v*v - 1) / (v - v**3)).specialize(Fraction(2))
Fraction(-1, 2)
>>> cyclotomic_poly(6)
(1, -1, 1)
>>> z = Cyclotomic.root(6, 1)
>>> z**6 == Cyclotomic.one(6)
True
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, lcm
from typing import Iterable

ZERO_F = Fraction(0)
ONE_F = Fraction(1)


# ---------------------------------------------------------------------------
# ordinary polynomials: tuples of Fractions, low degree first, no trailing zero
# ---------------------------------------------------------------------------

def _ptrim(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _pmul(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    if not a or not b:
        return ()
    out = [ZERO_F] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return _ptrim(out)


def _pdivmod(a: tuple[Fraction, ...], b: tuple[Fraction, ...]
             ) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Euclidean division in Q[x]: a = q*b + r with deg r < deg b."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    if len(rem) < len(b):
        return (), _ptrim(rem)
    quo = [ZERO_F] * (len(rem) - len(b) + 1)
    lead = b[-1]
    for k in range(len(quo) - 1, -1, -1):
        top = rem[k + len(b) - 1]
        if top:
            f = top / lead
            quo[k] = f
            for j, cb in enumerate(b):
                if cb:
                    rem[k + j] -= f * cb
    return _ptrim(quo), _ptrim(rem)


def _pdivexact(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    q, r = _pdivmod(a, b)
    if r:
        raise ArithmeticError("division not exact")
    return q


def _pmonic(a: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    if not a or a[-1] == 1:
        return a
    lead = a[-1]
    return tuple(c / lead for c in a)


def _pgcd(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Monic gcd in Q[x]; gcd(0, a) = monic(a)."""
    while b:
        a, b = b, _pdivmod(a, b)[1]
        b = _pmonic(b)
    return _pmonic(a)


def _psub(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    n = max(len(a), len(b))
    return _ptrim([(a[i] if i < len(a) else ZERO_F) - (b[i] if i < len(b) else ZERO_F)
                   for i in range(n)])


def _pxgcd(a: tuple[Fraction, ...], b: tuple[Fraction, ...]
           ) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """(g, s) with s*a = g mod b and g the monic gcd of a and b."""
    r0, r1 = a, b
    s0: tuple[Fraction, ...] = (ONE_F,)
    s1: tuple[Fraction, ...] = ()
    while r1:
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1))
    if not r0:
        raise ZeroDivisionError("xgcd of zero polynomials")
    lead = r0[-1]
    return tuple(c / lead for c in r0), tuple(c / lead for c in s0)


# ---------------------------------------------------------------------------
# Laurent polynomials in v
# ---------------------------------------------------------------------------

class LaurentPoly:
    """Finitely supported map exponent -> Fraction, exponents may be negative.

    Immutable and hashable; no zero coefficients are stored.

    >>> p = LaurentPoly.monomial(2) - LaurentPoly.one()
    >>> p
    v^2 - 1
    >>> p.bar()
    -1 + v^-2
    >>> p(Fraction(3))
    Fraction(8, 1)
    """

    __slots__ = ("c", "_key")

    def __init__(self, coeffs: dict[int, Fraction] | None = None):
        c = {}
        if coeffs:
            for e, x in coeffs.items():
                if x:
                    c[e] = x if type(x) is Fraction else Fraction(x)
        self.c = c
        self._key = tuple(sorted(c.items()))

    @classmethod
    def _raw(cls, c: dict[int, Fraction]) -> "LaurentPoly":
        out = object.__new__(cls)
        out.c = c
        out._key = tuple(sorted(c.items()))
        return out

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._raw({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._raw({0: ONE_F})

    @classmethod
    def monomial(cls, exp: int, coeff: Fraction | int = 1) -> "LaurentPoly":
        coeff = Fraction(coeff)
        return cls._raw({exp: coeff} if coeff else {})

    @classmethod
    def const(cls, a: Fraction | int) -> "LaurentPoly":
        return cls.monomial(0, a)

    @classmethod
    def from_ordinary(cls, shift: int, coeffs: Iterable[Fraction]) -> "LaurentPoly":
        return cls._raw({shift + i: x for i, x in enumerate(coeffs) if x})

    def __bool__(self) -> bool:
        return bool(self.c)

    def is_one(self) -> bool:
        return self.c == {0: ONE_F}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPoly) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        c = dict(self.c)
        for e, x in other.c.items():
            y = c.get(e)
            if y is None:
                c[e] = x
            else:
                y = y + x
                if y:
                    c[e] = y
                else:
                    del c[e]
        return LaurentPoly._raw(c)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw({e: -x for e, x in self.c.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        a, b = self.c, other.c
        if not a or not b:
            return LaurentPoly._raw({})
        if len(a) > len(b):
            a, b = b, a
        c: dict[int, Fraction] = {}
        for ea, xa in a.items():
            for eb, xb in b.items():
                e = ea + eb
                y = c.get(e)
                if y is None:
                    c[e] = xa * xb
                else:
                    y = y + xa * xb
                    if y:
                        c[e] = y
                    else:
                        del c[e]
        return LaurentPoly._raw(c)

    def scale(self, a: Fraction) -> "LaurentPoly":
        if not a:
            return LaurentPoly._raw({})
        return LaurentPoly._raw({e: x * a for e, x in self.c.items()})

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative power of a Laurent polynomial")
        out = LaurentPoly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def bar(self) -> "LaurentPoly":
        """The involution v -> v^{-1}."""
        return LaurentPoly._raw({-e: x for e, x in self.c.items()})

    def valuation(self) -> int:
        if not self.c:
            raise ValueError("valuation of zero")
        return min(self.c)

    def degree(self) -> int:
        if not self.c:
            raise ValueError("degree of zero")
        return max(self.c)

    def to_ordinary(self) -> tuple[int, tuple[Fraction, ...]]:
        """Split off the Laurent unit: self = v^shift * (ordinary poly p),
        with p(0) != 0. Zero maps to (0, ())."""
        if not self.c:
            return 0, ()
        shift = min(self.c)
        top = max(self.c)
        return shift, tuple(self.c.get(shift + i, ZERO_F) for i in range(top - shift + 1))

    def __call__(self, v0: Fraction) -> Fraction:
        if not self.c:
            return ZERO_F
        if v0 == 0 and min(self.c) < 0:
            raise ZeroDivisionError("evaluating negative powers at v=0")
        return sum((x * v0 ** e for e, x in self.c.items()), ZERO_F)

    def __repr__(self) -> str:
        if not self.c:
            return "0"
        parts = []
        for e in sorted(self.c, reverse=True):
            x = self.c[e]
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


LaurentPoly.ZERO = LaurentPoly.zero()
LaurentPoly.ONE = LaurentPoly.one()
LaurentPoly.V = LaurentPoly.monomial(1)


# ---------------------------------------------------------------------------
# the field Q(v)
# ---------------------------------------------------------------------------

class RationalFunctionScalar:
    """Element of Q(v) in canonical form.

    num/den with den a monic ordinary polynomial with nonzero constant
    term, gcd(num, den) = 1 as polynomials, and any unit v^k carried by
    the numerator. Canonical means `==` on representations decides
    equality of values.

    >>> v = RationalFunctionScalar.V
    >>> x = (v**2 - RationalFunctionScalar.ONE) / (v - v**3)
    >>> x
    -v^-1
    >>> x * v == -RationalFunctionScalar.ONE
    True
    >>> (RationalFunctionScalar.ONE / (v + RationalFunctionScalar.ONE)).den
    v + 1
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly, _canonical: bool = False):
        if _canonical:
            self.num = num
            self.den = den
            return
        made = RationalFunctionScalar.make(num, den)
        self.num = made.num
        self.den = made.den

    @staticmethod
    def make(num: LaurentPoly, den: LaurentPoly) -> "RationalFunctionScalar":
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            return RF_ZERO
        if den.is_one():
            return RationalFunctionScalar(num, LaurentPoly.ONE, _canonical=True)
        a, pn = num.to_ordinary()
        b, pd = den.to_ordinary()
        g = _pgcd(pn, pd)
        if len(g) > 1:
            pn = _pdivexact(pn, g)
            pd = _pdivexact(pd, g)
        lead = pd[-1]
        if lead != 1:
            pn = tuple(x / lead for x in pn)
            pd = tuple(x / lead for x in pd)
        return RationalFunctionScalar(
            LaurentPoly.from_ordinary(a - b, pn),
            LaurentPoly.from_ordinary(0, pd),
            _canonical=True,
        )

    @classmethod
    def from_laurent(cls, p: LaurentPoly) -> "RationalFunctionScalar":
        return cls(p, LaurentPoly.ONE, _canonical=True)

    @classmethod
    def const(cls, a: Fraction | int) -> "RationalFunctionScalar":
        return cls.from_laurent(LaurentPoly.const(a))

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_laurent(self) -> bool:
        return self.den.is_one()

    def as_laurent(self) -> LaurentPoly:
        if not self.den.is_one():
            raise ValueError(f"not a Laurent polynomial: {self!r}")
        return self.num

    @staticmethod
    def _coerce(x: "RationalFunctionScalar | int | Fraction"
                ) -> "RationalFunctionScalar":
        if isinstance(x, RationalFunctionScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return RationalFunctionScalar.const(x)
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalFunctionScalar.const(other)
        return (isinstance(other, RationalFunctionScalar)
                and self.num == other.num and self.den == other.den)

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other) -> "RationalFunctionScalar":
        other = RationalFunctionScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return RationalFunctionScalar.make(self.num + other.num, self.den)
        return RationalFunctionScalar.make(
            self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunctionScalar":
        return RationalFunctionScalar(-self.num, self.den, _canonical=True)

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
        if self.den.is_one() and other.den.is_one():
            return RationalFunctionScalar(self.num * other.num, LaurentPoly.ONE,
                                          _canonical=True)
        # cross-reduce before multiplying to keep degrees down
        a = RationalFunctionScalar.make(self.num, other.den)
        b = RationalFunctionScalar.make(other.num, self.den)
        return RationalFunctionScalar.make(a.num * b.num, a.den * b.den)

    __rmul__ = __mul__

    def inv(self) -> "RationalFunctionScalar":
        if not self.num:
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
        if self.den.is_one():
            return repr(self.num)
        num = repr(self.num)
        if len(self.num.c) > 1:
            num = f"({num})"
        return f"{num}/({self.den!r})"


RF = RationalFunctionScalar
RF_ZERO = RF(LaurentPoly.ZERO, LaurentPoly.ONE, _canonical=True)
RF.ZERO = RF_ZERO
RF.ONE = RF.from_laurent(LaurentPoly.ONE)
RF.V = RF.from_laurent(LaurentPoly.V)
RF.VI = RF.from_laurent(LaurentPoly.monomial(-1))


def rf_arith(a: RF, b: RF, op: str) -> RF:
    """Field arithmetic dispatch; op in {add, sub, mul, div}."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown op {op!r}")


def rf_specialize(a: RF, v0: Fraction) -> Fraction:
    """Evaluate at a nonzero rational v0; poles raise."""
    return a.specialize(v0)


# ---------------------------------------------------------------------------
# cyclotomic fields Q(zeta_N)
# ---------------------------------------------------------------------------

_CYC_POLY_CACHE: dict[int, tuple[int, ...]] = {}


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
    got = _CYC_POLY_CACHE.get(N)
    if got is not None:
        return got
    num = [ZERO_F] * (N + 1)
    num[0] = Fraction(-1)
    num[N] = ONE_F
    rem = _ptrim(num)
    for d in range(1, N):
        if N % d == 0:
            rem = _pdivexact(rem, tuple(Fraction(c) for c in cyclotomic_poly(d)))
    out = tuple(int(c) for c in rem)
    _CYC_POLY_CACHE[N] = out
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


_CYC_FIELD_CACHE: dict[int, _CycField] = {}


def _cyc_field(N: int) -> _CycField:
    f = _CYC_FIELD_CACHE.get(N)
    if f is None:
        f = _CycField(N)
        _CYC_FIELD_CACHE[N] = f
    return f


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
        if self.is_zero():
            raise ZeroDivisionError("inverting zero cyclotomic")
        f = _cyc_field(self.order)
        # (num/den)^-1 = den * num^-1, with num^-1 from the extended gcd in Q[x]
        g, s = _pxgcd(_ptrim([Fraction(x) for x in self.num]),
                      tuple(Fraction(c) for c in f.poly))
        if len(g) != 1:
            raise ArithmeticError("cyclotomic inverse failed (non-unit gcd)")
        factor = self.den / g[0]
        return Cyclotomic(self.order, [x * factor for x in s]
                          + [ZERO_F] * (f.phi - len(s)))

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

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation zeta -> zeta^{-1}."""
        return self.galois(self.order - 1) if self.order > 1 else self

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
