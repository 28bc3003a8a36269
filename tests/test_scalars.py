"""Exact-scalar layer: canonical forms, field axioms, cyclotomics."""

import random
from fractions import Fraction
from math import gcd

import pytest

from braidties.scalars import (
    Cyclotomic,
    LaurentPoly,
    RationalFunctionScalar as RF,
    cyclotomic_poly,
    rf_arith,
    rf_specialize,
)

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
    assert p.c == {2: Fraction(1), 0: Fraction(-1)}
    assert p.bar().c == {-2: Fraction(1), 0: Fraction(-1)}
    assert p(Fraction(3)) == 8
    shift, coeffs = (p * LaurentPoly.monomial(-5)).to_ordinary()
    assert shift == -5 and coeffs == (Fraction(-1), Fraction(0), Fraction(1))
    assert LaurentPoly.from_ordinary(shift, coeffs) == p * LaurentPoly.monomial(-5)


def test_rf_arith_examples():
    # multiplicative identity
    assert rf_arith(V * V - 1, ONE, "mul") == V * V - 1
    # monomial cancellation
    assert rf_arith(V - V ** 3, V, "div") == 1 - V * V
    # canonicalization collapses (v^2-1)/(v-v^3) to -v^{-1}
    x = rf_arith(V * V - 1, V - V ** 3, "div")
    assert x == -(V ** -1)
    assert x.den.is_one()
    for v0 in (Fraction(2), Fraction(3)):
        assert x.specialize(v0) == (v0 * v0 - 1) / (v0 - v0 ** 3)


def test_rf_canonical_denominator():
    x = ONE / (V + 1)
    # monic, ordinary, nonzero constant term
    assert min(x.den.c) == 0 and x.den.c[max(x.den.c)] == 1 and x.den.c.get(0)
    y = (V ** -1) / (V + 1)  # unit absorbed into numerator
    assert min(y.den.c) == 0 and y.num == LaurentPoly.monomial(-1)


def test_rf_specialize_examples():
    assert rf_specialize(V * V - 1, Fraction(2)) == 3
    with pytest.raises(ZeroDivisionError):
        rf_specialize(ONE / (V - 1), Fraction(1))
    assert rf_specialize((V * V - 1) / (V - V ** 3), Fraction(2)) == Fraction(-1, 2)
    with pytest.raises(ZeroDivisionError):
        rf_specialize(V ** -1, Fraction(0))


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
        assert left.num._key == right.num._key and left.den._key == right.den._key
        lp = (xs[0] * xs[1]) * (xs[2] * xs[3])
        rp = xs[0] * ((xs[1] * xs[2]) * xs[3])
        assert lp.num._key == rp.num._key and lp.den._key == rp.den._key


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
    assert z.conjugate() == Cyclotomic.root(N, N - 1)
    a = z + Cyclotomic.root(N, 3).scale(Fraction(2))
    assert a.galois(2) == Cyclotomic.root(N, 2) + Cyclotomic.root(N, 6).scale(Fraction(2))
    # conjugation is an automorphism of order two
    assert a.conjugate().conjugate() == a


def test_cyclotomic_rational_detection():
    a = Cyclotomic.from_rational(6, Fraction(5, 3))
    assert a.is_rational() and a.rational_value() == Fraction(5, 3)
    z = Cyclotomic.root(6, 1)
    assert not z.is_rational()
    # z6 satisfies z^2 = z - 1, so z + z^5 = z + conj(z) = 1
    assert (z + z.conjugate()).rational_value() == 1


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
        assert_matches(a.conjugate(), ra.galois(N - 1))
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
        assert a.conjugate().conjugate() == a
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
