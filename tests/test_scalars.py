"""Exact-scalar layer: canonical forms, field axioms, cyclotomics, and
differential tests against Fraction-coefficient references; the Q(v) of
the reference oracles (`qv_oracle`); and the prime fields F_p, plain
ints that `linalg.Echelon` reduces given the prime modulus."""

import random
from fractions import Fraction
from math import gcd

import pytest

from braidties.linalg import Echelon
from braidties.scalars import Cyclotomic, LaurentPoly, cyclotomic_poly
from qv_oracle import RF, _zgcd, _zgcd_prs

V = RF.V
ONE = RF.ONE


def rand_laurent(rng, max_exp=3, zero_ok=True):
    c = {e: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
         for e in range(-max_exp, max_exp + 1) if rng.random() < 0.4}
    p = LaurentPoly(c)
    if not p and not zero_ok:
        return LaurentPoly.monomial(rng.randint(-2, 2), rng.randint(1, 3))
    return p


def rand_rf(rng, zero_ok=True):
    num = rand_laurent(rng, zero_ok=zero_ok)
    den = rand_laurent(rng, max_exp=2, zero_ok=False)
    return RF(num, den)


def test_laurent_basics():
    p = LaurentPoly.monomial(2) - LaurentPoly.one()
    assert p.coeffs() == {2: Fraction(1), 0: Fraction(-1)}
    assert p.bar().coeffs() == {-2: Fraction(1), 0: Fraction(-1)}
    assert p(Fraction(3)) == 8
    shifted = p * LaurentPoly.monomial(-5)
    assert shifted.coeffs() == {-5: Fraction(-1), -3: Fraction(1)}
    assert LaurentPoly(shifted.coeffs()) == shifted


def test_rf_arith_examples():
    # multiplicative identity
    assert (V * V - 1) * ONE == V * V - 1
    # monomial cancellation
    assert (V - V ** 3) / V == 1 - V * V
    # canonicalization collapses (v^2-1)/(v-v^3) to -v^{-1}
    x = (V * V - 1) / (V - V ** 3)
    assert x == -(V ** -1)
    assert x.den == LaurentPoly.one()
    for v0 in (Fraction(2), Fraction(3)):
        assert x.specialize(v0) == (v0 * v0 - 1) / (v0 - v0 ** 3)


def test_rf_canonical_denominator():
    x = ONE / (V + 1)
    # monic, ordinary, nonzero constant term
    den = x.den.coeffs()
    assert min(den) == 0 and den[max(den)] == 1 and den.get(0)
    y = (V ** -1) / (V + 1)  # unit absorbed into numerator
    assert min(y.den.coeffs()) == 0 and y.num == LaurentPoly.monomial(-1)


def test_rf_specialize_examples():
    assert (V * V - 1).specialize(Fraction(2)) == 3
    with pytest.raises(ZeroDivisionError):
        (ONE / (V - 1)).specialize(Fraction(1))
    assert ((V * V - 1) / (V - V ** 3)).specialize(Fraction(2)) == Fraction(-1, 2)
    with pytest.raises(ZeroDivisionError):
        (V ** -1).specialize(Fraction(0))


def test_rf_field_axioms_sampled():
    rng = random.Random(20260816)
    for _ in range(200):
        a, b, c = rand_rf(rng), rand_rf(rng), rand_rf(rng)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * a.inv() == ONE


def test_rf_association_orders_bit_identical():
    rng = random.Random(5)
    for _ in range(50):
        xs = [rand_rf(rng) for _ in range(4)]
        left = ((xs[0] + xs[1]) + xs[2]) + xs[3]
        right = xs[0] + (xs[1] + (xs[2] + xs[3]))
        assert (left.num, left.den) == (right.num, right.den)
        assert repr(left) == repr(right) and hash(left) == hash(right)
        lp = (xs[0] * xs[1]) * (xs[2] * xs[3])
        rp = xs[0] * ((xs[1] * xs[2]) * xs[3])
        assert (lp.num, lp.den) == (rp.num, rp.den)
        assert repr(lp) == repr(rp) and hash(lp) == hash(rp)


def test_rf_bar_involution():
    rng = random.Random(7)
    assert V.bar() == V ** -1
    for _ in range(50):
        a = rand_rf(rng)
        assert a.bar().bar() == a
        b = rand_rf(rng)
        assert (a * b).bar() == a.bar() * b.bar()
        assert (a + b).bar() == a.bar() + b.bar()


def test_rf_specialize_is_ring_hom():
    rng = random.Random(99)
    done = 0
    while done < 100:
        a, b = rand_rf(rng), rand_rf(rng)
        v0 = Fraction(rng.randint(2, 9), rng.randint(1, 5))
        try:
            av, bv = a.specialize(v0), b.specialize(v0)
            sv = (a + b).specialize(v0)
            pv = (a * b).specialize(v0)
        except ZeroDivisionError:
            continue
        assert sv == av + bv and pv == av * bv
        done += 1


# ---------------------------------------------------------------------------
# differential test of Q(v) against a Fraction-coefficient reference
# ---------------------------------------------------------------------------

def _rtrim(coeffs):
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _rdivmod(a, b):
    """Euclidean division in Q[x] on Fraction tuples, low degree first."""
    rem = list(a)
    if len(rem) < len(b):
        return (), _rtrim(rem)
    quo = [Fraction(0)] * (len(rem) - len(b) + 1)
    for k in range(len(quo) - 1, -1, -1):
        f = rem[k + len(b) - 1] / b[-1]
        quo[k] = f
        for j, cb in enumerate(b):
            rem[k + j] -= f * cb
    return _rtrim(quo), _rtrim(rem)


def _rmonic(a):
    return tuple(c / a[-1] for c in a) if a else a


def _rgcd(a, b):
    """Monic gcd in Q[x] by the Euclidean algorithm."""
    while b:
        a, b = b, _rmonic(_rdivmod(a, b)[1])
    return _rmonic(a)


class RefLaurent:
    """Q[v, v^-1] as a dict exponent -> nonzero Fraction."""

    def __init__(self, c):
        self.c = {e: Fraction(x) for e, x in c.items() if x}
        self.key = tuple(sorted(self.c.items()))

    def __eq__(self, other):
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __bool__(self):
        return bool(self.c)

    def __add__(self, other):
        c = dict(self.c)
        for e, x in other.c.items():
            c[e] = c.get(e, 0) + x
        return RefLaurent(c)

    def __neg__(self):
        return RefLaurent({e: -x for e, x in self.c.items()})

    def __mul__(self, other):
        c = {}
        for ea, xa in self.c.items():
            for eb, xb in other.c.items():
                c[ea + eb] = c.get(ea + eb, 0) + xa * xb
        return RefLaurent(c)

    def bar(self):
        return RefLaurent({-e: x for e, x in self.c.items()})

    def __call__(self, v0):
        return sum((x * v0 ** e for e, x in self.c.items()), Fraction(0))

    def split(self):
        """(shift, ordinary Fraction tuple) with self = v^shift * poly."""
        lo, hi = min(self.c), max(self.c)
        return lo, tuple(self.c.get(lo + i, Fraction(0)) for i in range(hi - lo + 1))

    def __repr__(self):
        if not self.c:
            return "0"
        parts = []
        for e in sorted(self.c, reverse=True):
            x = self.c[e]
            if e == 0:
                parts.append(str(x))
                continue
            ve = "v" if e == 1 else f"v^{e}"
            parts.append(ve if x == 1 else "-" + ve if x == -1 else f"{x}*{ve}")
        out = parts[0]
        for body in parts[1:]:
            out += " - " + body[1:] if body.startswith("-") else " + " + body
        return out


REF_ONE = RefLaurent({0: 1})


class RefRF:
    """Q(v) as num/den with den monic with nonzero constant term, coprime
    to num, reduced by the Euclidean gcd in Q[x] after every operation."""

    def __init__(self, num, den):
        if not num:
            self.num, self.den = num, REF_ONE
            return
        a, pn = num.split()
        b, pd = den.split()
        g = _rgcd(pn, pd)
        pn, pd = _rdivmod(pn, g)[0], _rdivmod(pd, g)[0]
        pn, pd = tuple(x / pd[-1] for x in pn), _rmonic(pd)
        self.num = RefLaurent({a - b + i: x for i, x in enumerate(pn)})
        self.den = RefLaurent(dict(enumerate(pd)))

    def __eq__(self, other):
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        return RefRF(self.num * other.den + other.num * self.den,
                     self.den * other.den)

    def __neg__(self):
        return RefRF(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RefRF(self.num * other.num, self.den * other.den)

    def inv(self):
        return RefRF(self.den, self.num)

    def __truediv__(self, other):
        return self * other.inv()

    def __pow__(self, k):
        base = self.inv() if k < 0 else self
        out = RefRF(REF_ONE, REF_ONE)
        for _ in range(abs(k)):
            out = out * base
        return out

    def bar(self):
        return RefRF(self.num.bar(), self.den.bar())

    def specialize(self, v0):
        return self.num(v0) / self.den(v0)

    def __repr__(self):
        if self.den == REF_ONE:
            return repr(self.num)
        num = repr(self.num)
        if len(self.num.c) > 1:
            num = f"({num})"
        return f"{num}/({self.den!r})"


def _rand_coeffs(rng, lo, hi, share, integral):
    c = {}
    for e in range(lo, hi + 1):
        if rng.random() < share:
            c[e] = (Fraction(rng.randint(-9, 9)) if integral
                    else Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
    return c


def _mul_coeffs(a, b):
    out = {}
    for ea, xa in a.items():
        for eb, xb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + xa * xb
    return out


def _rand_pair(rng, zero_ok=True):
    """The same random element of Q(v) as (RF, RefRF). Contents are
    integral or not; the denominator is a monomial or constant, or a
    polynomial scaled by a random integer (non-primitive, non-monic); a
    shared factor is planted in numerator and denominator half the time."""
    integral = rng.random() < 0.5
    num = _rand_coeffs(rng, -3, 3, 0.5, integral)
    if not any(num.values()) and not zero_ok:
        num = {rng.randint(-3, 3): Fraction(rng.randint(1, 5), rng.randint(1, 4))}
    kind = rng.random()
    if kind < 0.3:
        den = {rng.randint(-3, 3): Fraction(rng.choice([1, -1, 2, -3, 6]),
                                            rng.randint(1, 4))}
    else:
        den = {}
        while not any(den.values()):
            den = _rand_coeffs(rng, -2, 2, 0.6, integral)
        m = rng.choice([1, 2, -3, 6])
        den = {e: x * m for e, x in den.items()}
        if kind < 0.65:
            common = {}
            while not any(common.values()):
                common = _rand_coeffs(rng, 0, 2, 0.7, True)
            num, den = _mul_coeffs(num, common), _mul_coeffs(den, common)
    new = RF(LaurentPoly(num), LaurentPoly(den))
    ref = RefRF(RefLaurent(num), RefLaurent(den))
    return new, ref


def assert_rf_matches(x, ref):
    assert x.num.coeffs() == ref.num.c and x.den.coeffs() == ref.den.c
    assert repr(x) == repr(ref)
    assert hash(x) == hash(ref)
    twin = RF(LaurentPoly(ref.num.c), LaurentPoly(ref.den.c))
    assert x == twin and hash(x) == hash(twin)


@pytest.mark.parametrize("seed", range(4))
def test_rf_matches_fraction_reference(seed):
    rng = random.Random(3000 + seed)
    for _ in range(120):
        (a, ra), (b, rb) = _rand_pair(rng), _rand_pair(rng)
        assert_rf_matches(a, ra)
        assert_rf_matches(a + b, ra + rb)
        assert_rf_matches(a - b, ra - rb)
        assert_rf_matches(-a, -ra)
        assert_rf_matches(a * b, ra * rb)
        assert_rf_matches(a.bar(), ra.bar())
        k = rng.randint(0, 3)
        assert_rf_matches(a ** k, ra ** k)
        assert (a == b) == (ra == rb)
        assert (a + b == b + a) and (a - a == RF.ZERO)
        if b:
            assert_rf_matches(b.inv(), rb.inv())
            assert_rf_matches(a / b, ra / rb)
            assert_rf_matches(b ** -2, rb ** -2)
        v0 = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
        try:
            expected = ra.specialize(v0)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                a.specialize(v0)
        else:
            got = a.specialize(v0)
            assert type(got) is Fraction and got == expected
        q = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        assert_rf_matches(a * q, ra * RefRF(RefLaurent({0: q}), REF_ONE))
        assert_rf_matches(q + a, ra + RefRF(RefLaurent({0: q}), REF_ONE))


def test_laurent_matches_fraction_reference():
    rng = random.Random(4000)
    for _ in range(300):
        ca, cb = (_rand_coeffs(rng, -4, 4, 0.4, rng.random() < 0.5)
                  for _ in range(2))
        a, b = LaurentPoly(ca), LaurentPoly(cb)
        ra, rb = RefLaurent(ca), RefLaurent(cb)
        for x, rx in ((a, ra), (a + b, ra + rb), (a - b, ra + (-rb)),
                      (a * b, ra * rb), (a.bar(), ra.bar()), (a ** 2, ra * ra)):
            assert x.coeffs() == rx.c
            assert repr(x) == repr(rx) and hash(x) == hash(rx)
            assert LaurentPoly(rx.c) == x
        v0 = Fraction(rng.choice([-2, 1, 3]), rng.randint(1, 3))
        assert a(v0) == ra(v0) and type(a(v0)) is Fraction
    assert LaurentPoly.zero()(Fraction(0)) == 0
    with pytest.raises(ZeroDivisionError):
        LaurentPoly.monomial(-1)(Fraction(0))


def test_laurent_monomial_inverse_and_int_operands():
    """The one inverse of the Laurent ring, of monomials, also through
    negative powers; anything else raises.  An int or a Fraction on the
    right of +, - and *, or on the left of *, is read as a constant."""
    rng = random.Random(4100)
    one = LaurentPoly.one()
    for _ in range(200):
        e = rng.randint(-5, 5)
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))
        x = LaurentPoly.monomial(e, c)
        assert x.inv().coeffs() == {-e: 1 / c}
        assert x * x.inv() == one
        k = rng.randint(1, 4)
        assert (x ** -k).coeffs() == RefLaurent({-k * e: c ** -k}).c
        assert x ** -k * x ** k == one
        a = LaurentPoly(_rand_coeffs(rng, -3, 3, 0.5, rng.random() < 0.5))
        q = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        n = rng.randint(-5, 5)
        for y, want in ((a + n, a + LaurentPoly.const(n)),
                        (a - q, a - LaurentPoly.const(q)),
                        (a * q, a * LaurentPoly.const(q)),
                        (n * a, LaurentPoly.const(n) * a)):
            assert y == want
    with pytest.raises(ZeroDivisionError):
        LaurentPoly.zero().inv()
    for bad in (LaurentPoly.V + 1, LaurentPoly({-1: 1, 2: Fraction(1, 3)})):
        with pytest.raises(ArithmeticError, match="not a unit"):
            bad.inv()
        with pytest.raises(ArithmeticError, match="not a unit"):
            bad ** -1
    assert (LaurentPoly.one() == 1) is False


def test_integer_gcd_matches_fraction_gcd():
    rng = random.Random(5000)
    for _ in range(300):
        polys = []
        for deg in (rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 3)):
            p = [rng.randint(-20, 20) for _ in range(deg)] + [rng.choice([1, -1, 2, 7, -30])]
            p[0] = p[0] or 1
            polys.append(p)
        f, g, common = polys
        a = _mul_coeffs(dict(enumerate(f)), dict(enumerate(common)))
        b = _mul_coeffs(dict(enumerate(g)), dict(enumerate(common)))
        a = tuple(a[i] for i in range(len(a)))
        b = tuple(b[i] for i in range(len(b)))
        ca, cb = gcd(*a), gcd(*b)
        a, b = tuple(x // ca for x in a), tuple(x // cb for x in b)
        expected = _rgcd(tuple(map(Fraction, a)), tuple(map(Fraction, b)))
        for h in (_zgcd(a, b)[0], _zgcd_prs(a, b)):
            assert gcd(*h) == 1 and h[-1] > 0
            assert _rmonic(tuple(map(Fraction, h))) == expected
        h, qa, qb = _zgcd(a, b)
        assert _mul_coeffs(dict(enumerate(h)), dict(enumerate(qa))) \
            == {i: x for i, x in enumerate(a)}
        assert _mul_coeffs(dict(enumerate(h)), dict(enumerate(qb))) \
            == {i: x for i, x in enumerate(b)}


def test_rf_repr_pinned():
    half = RF.const(Fraction(1, 2))
    assert repr((V + 1) / (2 * V + 3)) == "(1/2*v + 1/2)/(v + 3/2)"
    assert repr(RF.const(3) / (3 * V * V + V)) == "v^-1/(v + 1/3)"
    assert repr((V ** -2 - half) * (V - 1) / (4 * V ** 3 - 4)) \
        == '(-1/8 + 1/4*v^-2)/(v^2 + v + 1)'
    assert repr((6 * V ** 2 + 4) / (9 * V ** 4 - 4)) == '2/3/(v^2 - 2/3)'
    assert repr(((V + 2) / (3 * V - 1)).bar()) == '(-2*v - 1)/(v - 3)'
    assert repr((half * V ** -3 - 2 * V) / (-4 * V ** 2)) == '1/2*v^-1 - 1/8*v^-5'
    assert repr(RF.ZERO) == "0" and repr(-V ** -1) == "-v^-1"


def test_cyclotomic_poly_examples():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(14) == (1, -1, 1, -1, 1, -1, 1)
    # degree is Euler phi
    assert len(cyclotomic_poly(12)) - 1 == 4


@pytest.mark.parametrize("N", [2, 3, 5, 6, 7, 12, 14])
def test_roots_of_unity(N):
    z = Cyclotomic.root(N, 1)
    assert z ** N == Cyclotomic.one(N)
    total = Cyclotomic.zero(N)
    for j in range(N):
        total = total + Cyclotomic.root(N, j)
    assert total.is_zero()


def test_cyclotomic_field_axioms_sampled():
    rng = random.Random(123)
    N = 12
    phi = len(cyclotomic_poly(N)) - 1

    def rand_cyc():
        return Cyclotomic(N, [Fraction(rng.randint(-3, 3)) for _ in range(phi)])

    for _ in range(200):
        a, b, c = rand_cyc(), rand_cyc(), rand_cyc()
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inv() == Cyclotomic.one(N)


def test_cyclotomic_galois_and_conjugate():
    N = 7
    z = Cyclotomic.root(N, 1)
    assert z.galois(N - 1) == Cyclotomic.root(N, N - 1)
    a = z + Cyclotomic.root(N, 3).scale(Fraction(2))
    assert a.galois(2) == Cyclotomic.root(N, 2) + Cyclotomic.root(N, 6).scale(Fraction(2))
    # conjugation is an automorphism of order two
    assert a.galois(N - 1).galois(N - 1) == a


def test_cyclotomic_rational_detection():
    a = Cyclotomic.from_rational(6, Fraction(5, 3))
    assert a.is_rational() and a.rational_value() == Fraction(5, 3)
    z = Cyclotomic.root(6, 1)
    assert not z.is_rational()
    # z6 satisfies z^2 = z - 1, so z + z^5 = z + conj(z) = 1
    assert (z + z.galois(5)).rational_value() == 1


# ---------------------------------------------------------------------------
# differential test of Cyclotomic against a Fraction-coordinate reference
# ---------------------------------------------------------------------------

# Phi_N, low degree first, written out independently of cyclotomic_poly
PHI = {1: (-1, 1), 2: (1, 1), 3: (1, 1, 1), 4: (1, 0, 1), 5: (1, 1, 1, 1, 1),
       6: (1, -1, 1), 8: (1, 0, 0, 0, 1), 12: (1, 0, -1, 0, 1),
       20: (1, 0, -1, 0, 1, 0, -1, 0, 1)}


class RefCyc:
    """Q(zeta_N) on Fraction coordinates: naive polynomial products
    reduced by long division by the monic Phi_N."""

    def __init__(self, N, coords):
        self.N = N
        self.coords = tuple(Fraction(c) for c in coords)

    @staticmethod
    def reduce(N, poly):
        phi_poly = PHI[N]
        d = len(phi_poly) - 1
        rem = [Fraction(c) for c in poly] + [Fraction(0)] * d
        for top in range(len(rem) - 1, d - 1, -1):
            c = rem[top]
            if c:
                for i, p in enumerate(phi_poly):
                    rem[top - d + i] -= c * p
        return RefCyc(N, rem[:d])

    @staticmethod
    def monomial(N, e):
        return RefCyc.reduce(N, [0] * e + [1])

    def __add__(self, other):
        return RefCyc(self.N, [a + b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return RefCyc(self.N, [-a for a in self.coords])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, a):
        return RefCyc(self.N, [x * a for x in self.coords])

    def __mul__(self, other):
        prod = [Fraction(0)] * (2 * len(self.coords) - 1)
        for i, a in enumerate(self.coords):
            for j, b in enumerate(other.coords):
                prod[i + j] += a * b
        return RefCyc.reduce(self.N, prod)

    def inv(self):
        # solve (multiplication by self) s = 1 by Gauss-Jordan elimination
        d = len(self.coords)
        cols = [(self * RefCyc.monomial(self.N, j)).coords for j in range(d)]
        M = [[cols[j][i] for j in range(d)] + [Fraction(int(i == 0))]
             for i in range(d)]
        for c in range(d):
            p = next(r for r in range(c, d) if M[r][c])
            M[c], M[p] = M[p], M[c]
            M[c] = [x / M[c][c] for x in M[c]]
            for r in range(d):
                if r != c and M[r][c]:
                    M[r] = [x - M[r][c] * y for x, y in zip(M[r], M[c])]
        return RefCyc(self.N, [row[d] for row in M])

    def __pow__(self, k):
        base = self.inv() if k < 0 else self
        out = RefCyc.monomial(self.N, 0)
        for _ in range(abs(k)):
            out = out * base
        return out

    def galois(self, j):
        out = RefCyc(self.N, [0] * len(self.coords))
        for i, x in enumerate(self.coords):
            out = out + RefCyc.monomial(self.N, i * j % self.N).scale(x)
        return out

    def canonical(self):
        """(integer numerators, positive denominator) with no common factor."""
        den = 1
        for c in self.coords:
            den = den * c.denominator // gcd(den, c.denominator)
        return tuple(int(c * den) for c in self.coords), den


def assert_matches(x, ref):
    assert x.order == ref.N
    assert (x.num, x.den) == ref.canonical()
    twin = Cyclotomic(ref.N, ref.coords)
    assert x == twin and hash(x) == hash(twin)


def rand_pair(rng, N, zero_share=0.3):
    coords = [Fraction(0) if rng.random() < zero_share
              else Fraction(rng.randint(-9, 9), rng.randint(1, 12))
              for _ in range(len(PHI[N]) - 1)]
    return Cyclotomic(N, coords), RefCyc(N, coords)


CYC_ORDERS = sorted(PHI)


@pytest.mark.parametrize("N", CYC_ORDERS)
def test_cyclotomic_poly_matches_reference(N):
    assert cyclotomic_poly(N) == PHI[N]


@pytest.mark.parametrize("N", CYC_ORDERS)
def test_cyclotomic_matches_fraction_reference(N):
    rng = random.Random(1000 + N)
    units = [j for j in range(1, N + 1) if gcd(j, N) == 1]
    for _ in range(60):
        (a, ra), (b, rb) = rand_pair(rng, N), rand_pair(rng, N)
        assert_matches(a, ra)
        assert_matches(a + b, ra + rb)
        assert_matches(a - b, ra - rb)
        assert_matches(-a, -ra)
        assert_matches(a * b, ra * rb)
        q = Fraction(rng.randint(-7, 7), rng.randint(1, 9))
        assert_matches(a.scale(q), ra.scale(q))
        k = rng.randint(0, 5)
        assert_matches(a ** k, ra ** k)
        j = rng.choice(units)
        assert_matches(a.galois(j), ra.galois(j))
        assert_matches(a.galois(N - 1), ra.galois(N - 1))
        if not b.is_zero():
            assert_matches(b.inv(), rb.inv())
            assert_matches(a / b, ra * rb.inv())
            assert_matches(b ** -2, rb ** -2)
        phi = len(PHI[N]) - 1
        conv = [rng.randint(-50, 50) for _ in range(rng.randint(1, 2 * phi - 1))]
        den = rng.randint(1, 60)
        assert_matches(Cyclotomic.from_convolution(N, conv, den),
                       RefCyc.reduce(N, [Fraction(c, den) for c in conv]))
    for j in range(-N, 2 * N):
        assert_matches(Cyclotomic.root(N, j), RefCyc.monomial(N, j % N))


@pytest.mark.parametrize("N", CYC_ORDERS)
def test_cyclotomic_canonical_form(N):
    rng = random.Random(2000 + N)
    zero = Cyclotomic.zero(N)
    for _ in range(40):
        a, b, c = (rand_pair(rng, N)[0] for _ in range(3))
        s = a + b
        conv = [0] * (2 * len(s.num) - 1)
        for i, x in enumerate(s.num):
            for j, y in enumerate(c.num):
                conv[i + j] += x * y
        routes = [(a + b) * c, a * c + b * c, c * b + c * a,
                  Cyclotomic.from_convolution(N, conv, s.den * c.den)]
        if not c.is_zero():
            routes.append((a + b) * c * c / c)
        for other in routes[1:]:
            assert other == routes[0] and hash(other) == hash(routes[0])
            assert (other.num, other.den) == (routes[0].num, routes[0].den)
        assert a - a == zero and hash(a - a) == hash(zero)
        assert (a - a).den == 1
        assert a.scale(Fraction(3, 2)).scale(Fraction(2, 3)) == a
        assert a.galois(N - 1).galois(N - 1) == a
    assert Cyclotomic.root(N, N + 1) == Cyclotomic.root(N, 1)
    assert Cyclotomic.from_rational(N, Fraction(6, 4)) \
        == Cyclotomic.one(N).scale(Fraction(3, 2))
    with pytest.raises(ValueError):
        Cyclotomic.from_convolution(N, [1] * (2 * len(PHI[N]) - 2), 1)
    with pytest.raises(ValueError):
        Cyclotomic.from_convolution(N, [1], 0)


def test_cyclotomic_repr_pinned():
    h, q = Fraction(1, 2), Fraction(3, 4)
    assert repr(Cyclotomic(12, [h, -1, 0, q])) == "1/2 - z12 + 3/4*z12^3"
    assert repr(Cyclotomic(5, [0, Fraction(-2, 3), 0, 1])) == "-2/3*z5 + z5^3"
    assert repr(Cyclotomic(20, [0] * 7 + [Fraction(-5, 6)])) == "-5/6*z20^7"
    assert repr(Cyclotomic.root(6, 2)) == "-1 + z6"
    assert repr(Cyclotomic.root(6, 5)) == "1 - z6"
    assert repr(Cyclotomic.root(2, 1)) == "-1"
    assert repr(Cyclotomic.from_rational(4, Fraction(-7, 3))) == "-7/3"
    assert repr(Cyclotomic.zero(8)) == "0"


def test_constructor_annotations_resolve():
    from collections.abc import Iterable
    from typing import get_type_hints

    assert get_type_hints(Cyclotomic.__init__)["coords"] == Iterable[Fraction]
    assert get_type_hints(RF.__init__) == {"num": LaurentPoly,
                                           "den": LaurentPoly}


def _type_checking_namespace(module):
    """The module's globals plus what it imports under `if TYPE_CHECKING:`
    (names that annotations may use without a runtime import)."""
    import ast
    import inspect

    ns = dict(vars(module))
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            exec(compile(ast.Module(node.body, []), module.__file__, "exec"), ns)
    return ns


def test_every_annotation_resolves():
    """typing.get_type_hints on every function and method defined in the
    nine library modules and in the two test oracles, which hold the Q(v)
    arithmetic that left the library, classes included, with their
    TYPE_CHECKING imports."""
    import importlib
    import inspect
    from typing import get_type_hints

    names = [f"braidties.{name}" for name in (
        "btalg", "cli", "closure", "coxeter", "finite_model", "hecke",
        "linalg", "monodromic", "scalars")] + ["qv_oracle", "word_oracle"]
    checked = 0
    for name in names:
        module = importlib.import_module(name)
        ns = _type_checking_namespace(module)
        objs = [obj for obj in vars(module).values()
                if getattr(obj, "__module__", None) == module.__name__]
        for cls in [obj for obj in objs if inspect.isclass(obj)]:
            for attr in vars(cls).values():
                objs.append(getattr(attr, "fget", None)
                            or getattr(attr, "__func__", attr))
        for obj in objs:
            fn = inspect.unwrap(obj) if callable(obj) else None
            if inspect.isfunction(fn):
                get_type_hints(fn, globalns=ns)
                checked += 1
    assert checked > 300


# ---------------------------------------------------------------------------
# prime fields F_p: plain ints, reduced by `linalg.Echelon` with a modulus
# ---------------------------------------------------------------------------

# the three specialization primes of the mod-p rank certificate, and 7
_MODP_PRIMES = (7, 786433, 999983, 1048573)


def _modp_inputs(rng, p):
    """Integers around 0, p and 2p (and their negatives), and random ones
    far past p."""
    edges = [k * p + d for k in (0, 1, 2) for d in (-1, 0, 1)]
    vals = edges + [-x for x in edges]
    return vals + [rng.randint(-p ** 3, p ** 3) for _ in range(200)]


@pytest.mark.parametrize("p", _MODP_PRIMES)
def test_modp_values_stay_reduced(p):
    """Whatever ints the inserts carry, every entry `Echelon(p)` stores
    after every insert is an int in [0, p), nonzero in a row, and each
    tag names the combination of inserted vectors, mod p, that its row
    is (pivot entry 1 included); `combination` answers in [0, p) too."""
    rng = random.Random(p)
    vals = _modp_inputs(rng, p)
    for trial in range(12):
        ncols = rng.randint(2, 8)
        ech, vecs = Echelon(p), []
        for k in range(rng.randint(2, 12)):
            vecs.append({j: rng.choice(vals) for j in range(ncols)})
            ech.insert(vecs[-1], {k: 1})
            rows = [x for row in ech.rows.values() for x in row.values()]
            tags = [x for tag in ech.tags.values() for x in tag.values()]
            assert all(type(x) is int and 0 < x < p for x in rows), trial
            assert all(type(x) is int and 0 <= x < p for x in tags), trial
        for c, tag in ech.tags.items():
            total = {j: sum(a * vecs[k].get(j, 0) for k, a in tag.items()) % p
                     for j in range(ncols)}
            assert total == {j: 1 if j == c else ech.rows[c].get(j, 0)
                             for j in range(ncols)}, trial
        for vec in vecs:
            combo = ech.combination(vec)
            assert all(type(x) is int and 0 <= x < p
                       for x in combo.values()), trial
            assert all(sum(a * vecs[k].get(j, 0) for k, a in combo.items())
                       % p == vec[j] % p for j in range(ncols)), trial


@pytest.mark.parametrize("p", _MODP_PRIMES)
def test_modp_inverse(p):
    """A new row is divided by its pivot value mod p: inserting (a, b)
    stores b / a, which times a is b again, for every unit a (shifted by
    multiples of p)."""
    rng = random.Random(p)
    units = range(1, p) if p < 100 else [1, 2, p - 2, p - 1, *(
        rng.randrange(1, p) for _ in range(200))]
    for a in units:
        for shift in (0, p, -3 * p):
            ech = Echelon(p)
            assert ech.insert({0: a + shift, 1: 3, 2: a}) == 0
            row = ech.rows[0]
            assert row[1] * a % p == 3 and row[2] == 1
            assert ech.contains({0: 2 * a - p, 1: 6, 2: 2 * a})
            assert not ech.contains({0: a, 1: 4, 2: a})


@pytest.mark.parametrize("p", _MODP_PRIMES)
def test_modp_zero_test(p):
    """The zero test sees the residue, not the int: multiples of p are
    zero entries, and entries that cancel mod p leave the row."""
    for k in (-2, -1, 0, 1, 5):
        ech = Echelon(p)
        assert ech.insert({0: k * p}) is None
        assert ech.insert({0: k * p, 1: k * p + 1}) == 1
        assert ech.rows == {1: {}}
        assert ech.contains({0: p, 1: 1 - p})
    assert Echelon(p).insert({0: (p - 1) * (p - 1) - 1}) is None
    ech = Echelon(p)
    assert ech.insert({0: 1, 1: 1}) == 0
    assert ech.insert({0: p - 1, 1: -1}) is None
    assert ech.insert({0: 1, 1: p - 1}) == 1   # p - 1 is not 1
    assert ech.rows == {0: {}, 1: {}}
    assert ech.holders == {}


def test_modp_modulus_must_be_prime():
    for p in (2, 3, *_MODP_PRIMES):
        assert Echelon(p).p == p
    assert Echelon().p is None
    for bad in (-7, 0, 1, 4, 9, 786431 * 3):
        with pytest.raises(ValueError, match="not prime"):
            Echelon(bad)
