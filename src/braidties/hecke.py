r"""The Iwahori-Hecke algebra of type $A_n$ and its Kazhdan-Lusztig basis.

Standard basis $\{A_w\}_{w \in S_m}$ with coefficients in the Laurent ring
$\mathbb{Q}[v, v^{-1}]$ (`scalars.LaurentPoly`), with
$A_s^2 = (v^2-1)A_s + v^2$ and $A_sA_w = A_{sw}$ when lengths add.
The normalized basis is $\tilde{A}_w = v^{-l(w)}A_w$, with
$(\tilde{A}_s - v)(\tilde{A}_s + v^{-1}) = 0$, so
$\tilde{A}_s^{-1} = \tilde{A}_s - v + v^{-1}$.

The bar involution is the semilinear ring automorphism with
$\overline{v} = v^{-1}$ and $\overline{A_w} = A_{w^{-1}}^{-1}$.

Kazhdan-Lusztig polynomials $P_{x,w} \in \mathbb{Z}[q]$, $q = v^2$, are
computed two independent ways:

- `kl_polynomials`: the classical recursion.  Fix a right descent $s$ of
  $w$ and put $w' = ws$; then with $c = 1$ if $xs < x$ else $0$,
  $P_{x,w} = q^{1-c} P_{xs,w'} + q^c P_{x,w'}
  - \sum_{z} \mu(z,w')\, q^{(l(w)-l(z))/2} P_{x,z}$,
  the sum over $x \le z < w'$ with $zs < z$, where $\mu(z,w')$ is the
  coefficient of $q^{(l(w')-l(z)-1)/2}$ in $P_{z,w'}$.

- `canonical_by_bar`: a recursion-free oracle.  The element
  $C_w = \sum_{x \le w} (-1)^{l(w)-l(x)} v^{l(x)-l(w)} P_{x,w}(v^2)\,
  \tilde{A}_{x^{-1}}^{-1}$
  is the unique bar-invariant element equal to $\tilde{A}_w$ plus a
  $v\mathbb{Z}[v]$-combination of lower $\tilde{A}_y$; the oracle builds
  the product $C_{s_{i_1}} \cdots C_{s_{i_k}}$ along a reduced word (which
  is bar-invariant) and strips off bar-invariant corrections $g\,C_y$
  until the lower coefficients land in $v\mathbb{Z}[v]$.

Expanding $C_w$ in the $\tilde{A}$ basis, the coefficient of
$\tilde{A}_x$ is $(-1)^{l(w)-l(x)} v^{l(w)-l(x)} P_{x,w}(v^{-2})$, which
is how the tests read polynomials back off the oracle.

The algebra of braids and ties maps onto this algebra by
$e_P \mapsto 1$, $g_s \mapsto v^2 - 1 - A_s$ (`quotient_image`); on its
braid-generated subalgebra that is the trivial-character surjection.

>>> from braidties.coxeter import simple_perm
>>> s1 = simple_perm(1, 3)
>>> hecke_mul(HeckeElement.basis(s1), HeckeElement.basis(s1)).terms[s1]
v^2 - 1
>>> canonical_basis((2, 1, 3))
(v^-1)*A[2,1,3] + (-v)*A[1,2,3]
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from .coxeter import (
    Perm,
    all_perms,
    bruhat_leq,
    identity_perm,
    left_action,
    perm_inv,
    perm_length,
    perm_mul,
    reduced_word,
    right_descents,
    simple_perm,
)
from .linalg import SparseVector, _acc, _addmul, _axpy
from .scalars import LaurentPoly

if TYPE_CHECKING:
    from . import btalg

V = LaurentPoly.V
_ONE = LaurentPoly.one()
_Q = V * V
_QM1 = _Q - 1
QPoly = dict[int, int]  # polynomial in q = v^2, exponent -> integer coefficient


class HeckeElement(SparseVector):
    """Finitely supported map Perm -> LaurentPoly over a fixed S_m."""

    __slots__ = ("m",)
    _ambient = "m"
    ZERO = LaurentPoly.zero()

    @classmethod
    def unit(cls, m: int) -> "HeckeElement":
        return cls(m, {identity_perm(m): _ONE})

    @classmethod
    def basis(cls, w: Perm, coeff: LaurentPoly = _ONE) -> "HeckeElement":
        return cls(len(w), {w: coeff})

    def coeff_tilde(self, w: Perm) -> LaurentPoly:
        """Coefficient in the normalized basis: of Ã_w, i.e. A_w * v^{l(w)}."""
        return self.coeff(w) * LaurentPoly.monomial(perm_length(w))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=lambda u: (perm_length(u), u), reverse=True):
            c = self.terms[w]
            bits.append(f"({c!r})*A[{','.join(map(str, w))}]")
        return " + ".join(bits)


# Left multiplication of a term A_w by A_s, or by v^2 - 1 - A_s (the image
# of g_s under `quotient_image`), gives a A_{sw} + b A_w with weights (a, b)
# keyed by l(sw) < l(w); b is None where no A_w term arises.  By the
# quadratic relation A_s A_w is A_{sw} when the length goes up, and
# v^2 A_{sw} + (v^2 - 1) A_w when it goes down.
_A_S = {False: (_ONE, None), True: (_Q, _QM1)}
_G_S = {False: (-_ONE, _QM1), True: (-_Q, None)}


def _lmul(weights: dict, i: int, x: HeckeElement) -> HeckeElement:
    """Left multiplication by A_{s_i} or by v^2 - 1 - A_{s_i}, per
    `weights`."""
    left = left_action(x.m, i)
    out: dict[Perm, LaurentPoly] = {}
    for w, c in x.terms.items():
        sw, down = left[w]
        a, b = weights[down]
        _acc(out, sw, c if a is _ONE else c * a)
        if b is not None:
            _acc(out, w, c * b)
    return x._like(out)


def hecke_mul(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """Bilinear product; A_w * A_u computed by peeling a reduced word of w."""
    if a.m != b.m:
        raise ValueError("mixing Hecke algebras")
    out: dict[Perm, LaurentPoly] = {}
    for w, c in a.terms.items():
        x = b.scale(c)
        for i in reversed(reduced_word(w)):
            x = _lmul(_A_S, i, x)
        _axpy(out, x.terms)
    return a._like(out)


def a_tilde(w: Perm) -> HeckeElement:
    return HeckeElement.basis(w, LaurentPoly.monomial(-perm_length(w)))


@lru_cache(maxsize=None)
def _simple_inverse(i: int, m: int) -> HeckeElement:
    """A_{s_i}^{-1} = v^{-2} A_{s_i} - (1 - v^{-2}) A_e."""
    vi2 = LaurentPoly.monomial(-2)
    return HeckeElement(m, {simple_perm(i, m): vi2,
                            identity_perm(m): vi2 - 1})


@lru_cache(maxsize=None)
def basis_inverse(w: Perm) -> HeckeElement:
    """A_w^{-1}, as the product of simple inverses along the reversed word."""
    m = len(w)
    out = HeckeElement.unit(m)
    for i in reversed(reduced_word(w)):
        out = hecke_mul(out, _simple_inverse(i, m))
    return out


@lru_cache(maxsize=None)
def tilde_inverse(w: Perm) -> HeckeElement:
    """Ã_w^{-1} = v^{l(w)} A_w^{-1}, built once per w."""
    return basis_inverse(w).scale(LaurentPoly.monomial(perm_length(w)))


def bar_involution(a: HeckeElement) -> HeckeElement:
    """Semilinear extension of A_w -> A_{w^{-1}}^{-1}, v -> v^{-1}."""
    out: dict[Perm, LaurentPoly] = {}
    for w, c in a.terms.items():
        _addmul(out, basis_inverse(perm_inv(w)).terms, c.bar())
    return a._like(out)


# ---------------------------------------------------------------------------
# Kazhdan-Lusztig polynomials
# ---------------------------------------------------------------------------

class KLTable:
    """P_{x,w} for all x <= w in S_{n+1}, stored as integer polynomials
    in q; absent keys mean x is not below w (P = 0)."""

    __slots__ = ("m", "entries", "_mu_lists")

    def __init__(self, m: int):
        self.m = m
        self.entries: dict[tuple[Perm, Perm], QPoly] = {}
        self._mu_lists: dict[Perm, list[tuple[Perm, int]]] = {}

    def poly(self, x: Perm, w: Perm) -> QPoly:
        return self.entries.get((x, w), {})

    def mu(self, z: Perm, w: Perm) -> int:
        """Coefficient of q^{(l(w)-l(z)-1)/2} in P_{z,w} (0 if even gap)."""
        gap = perm_length(w) - perm_length(z)
        if gap <= 0 or gap % 2 == 0:
            return 0
        return self.poly(z, w).get((gap - 1) // 2, 0)


def _qp_add(a: QPoly, b: QPoly, factor: int = 1, shift: int = 0) -> QPoly:
    out = dict(a)
    for e, c in b.items():
        e2 = e + shift
        y = out.get(e2, 0) + factor * c
        if y:
            out[e2] = y
        else:
            out.pop(e2, None)
    return out


def kl_polynomials(n: int) -> KLTable:
    """Full Kazhdan-Lusztig table for S_{n+1} by the classical recursion.

    Every computed polynomial is checked against the degree bound
    deg P_{x,w} <= (l(w)-l(x)-1)/2 for x < w, and P_{x,x} = 1.

    >>> t = kl_polynomials(2)
    >>> all(p == {0: 1} for p in t.entries.values())
    True
    """
    if n > 6:
        raise ValueError("table bounded at n <= 6")
    m = n + 1
    table = KLTable(m)
    perms = sorted(all_perms(m), key=perm_length)
    for w in perms:
        lw = perm_length(w)
        if lw == 0:
            table.entries[(w, w)] = {0: 1}
            table._mu_lists[w] = []
            continue
        s = min(right_descents(w))
        sp = simple_perm(s, m)
        w1 = perm_mul(w, sp)
        mu_w1 = [(z, mu) for z, mu in table._mu_lists[w1]
                 if s in right_descents(z)]
        for x in perms:
            if perm_length(x) > lw:
                break
            if not bruhat_leq(x, w):
                continue
            xs = perm_mul(x, sp)
            c = 1 if perm_length(xs) < perm_length(x) else 0
            p = _qp_add({}, table.poly(xs, w1), shift=1 - c)
            p = _qp_add(p, table.poly(x, w1), shift=c)
            for z, mu in mu_w1:
                if bruhat_leq(x, z):
                    p = _qp_add(p, table.poly(x, z), factor=-mu,
                                shift=(lw - perm_length(z)) // 2)
            if p:
                table.entries[(x, w)] = p
                if x != w:
                    if not max(p) <= (lw - perm_length(x) - 1) // 2:
                        raise ArithmeticError(f"P_{{x,w}} = {p} breaks the "
                                              f"degree bound at x = {x}, "
                                              f"w = {w}")
                elif not p == {0: 1}:
                    raise ArithmeticError(f"P_{{w,w}} = {p} at w = {w}")
        if not table.entries[(w, w)] == {0: 1}:
            raise ArithmeticError(f"P_{{w,w}} = {table.entries[(w, w)]} "
                                  f"at w = {w}")
        table._mu_lists[w] = [(z, table.mu(z, w)) for z in perms
                              if perm_length(z) < lw and table.mu(z, w)
                              and bruhat_leq(z, w)]
    return table


@lru_cache(maxsize=None)
def kl_table(m: int) -> KLTable:
    return kl_polynomials(m - 1)


def _qpoly_to_laurent(p: QPoly) -> LaurentPoly:
    """Evaluate an integer polynomial in q at q = v^2."""
    return LaurentPoly({2 * e: c for e, c in p.items()})


@lru_cache(maxsize=None)
def canonical_basis(w: Perm) -> HeckeElement:
    """C_w = sum_{x<=w} (-1)^{l(w)-l(x)} v^{l(x)-l(w)} P_{x,w}(v^2)
    Ã_{x^{-1}}^{-1}; bar-invariant with leading coefficient 1.  Built
    once per w, like `canonical_by_bar`.

    >>> canonical_basis(simple_perm(1, 2))
    (v^-1)*A[2,1] + (-v)*A[1,2]
    """
    m = len(w)
    table = kl_table(m)
    lw = perm_length(w)
    out: dict[Perm, LaurentPoly] = {}
    for x in all_perms(m):
        p = table.poly(x, w)
        if not p:
            continue
        lx = perm_length(x)
        sign = -1 if (lw - lx) % 2 else 1
        coeff = _qpoly_to_laurent(p) * LaurentPoly.monomial(lx - lw, sign)
        _addmul(out, tilde_inverse(perm_inv(x)).terms, coeff)
    return HeckeElement(m, out)


def c_simple(i: int, m: int) -> HeckeElement:
    """C_s = Ã_s - v."""
    return a_tilde(simple_perm(i, m)) - HeckeElement.unit(m).scale(V)


# --- independent oracle -----------------------------------------------------

@lru_cache(maxsize=None)
def canonical_by_bar(w: Perm) -> HeckeElement:
    """Recursion-free construction of C_w from bar-invariance alone: build
    the bar-invariant product of C_s along a reduced word, then subtract
    bar-invariant multiples g * C_y until every coefficient below the top
    lies in v*Z[v].  Never consults the KL recursion."""
    m = len(w)
    elem = HeckeElement.unit(m)
    for i in reduced_word(w):
        elem = hecke_mul(elem, c_simple(i, m))
    while True:
        defect_y = None
        defect_g = None
        best = (-1,)
        for y in elem.terms:
            if y == w:
                continue
            f = elem.coeff_tilde(y)
            low = {e: c for e, c in f.coeffs().items() if e <= 0}
            if not low:
                continue
            key = (perm_length(y), y)
            if key > best:
                best = key
                defect_y = y
                g = dict(low)
                for e, c in low.items():
                    if e < 0:
                        g[-e] = g.get(-e, 0) + c
                defect_g = LaurentPoly(g)
        if defect_y is None:
            break
        elem = elem - canonical_by_bar(defect_y).scale(defect_g)
    if not elem.coeff_tilde(w) == _ONE:
        raise ArithmeticError(f"the bar-invariance solve leaves the top "
                              f"coefficient {elem.coeff_tilde(w)} at w = {w}")
    return elem


class NonIntegralCoefficient(ArithmeticError):
    """A coefficient of C_s C_u in the C basis that is not an integer
    constant."""


def c_expansion(s: int, u: Perm) -> dict[Perm, int]:
    """Integer coefficients of C_s C_u = sum_y gamma_y C_y (gamma_{su} = 1).

    Requires l(s u) > l(u).  Raises `NonIntegralCoefficient` if a
    coefficient fails to be an integer constant, which would violate the
    span property of the C basis, and a plain ArithmeticError if
    gamma_{su} is not 1.

    >>> c_expansion(1, (1, 3, 2))
    {(2, 3, 1): 1}
    """
    m = len(u)
    su, down = left_action(m, s)[u]
    if down:
        raise ValueError("need l(su) > l(u)")
    rem = hecke_mul(c_simple(s, m), canonical_basis(u))
    out: dict[Perm, int] = {}
    while rem:
        y = max(rem.terms, key=lambda t: (perm_length(t), t))
        gamma = rem.coeff_tilde(y)
        cs = gamma.coeffs()
        if set(cs) - {0}:
            raise NonIntegralCoefficient(f"non-constant C-basis coefficient "
                                         f"at {y}: {gamma}")
        ci = cs.get(0, 0)
        if ci.denominator != 1:
            raise NonIntegralCoefficient(f"non-integer C-basis coefficient "
                                         f"at {y}: {ci}")
        out[y] = int(ci)
        rem = rem - canonical_basis(y).scale(gamma)
    if not out.get(su) == 1:
        raise ArithmeticError(f"the coefficient of C_{{su}} is "
                              f"{out.get(su)}, not 1, at s = {s}, u = {u}")
    return out


# ---------------------------------------------------------------------------
# the quotient map E(v) -> H
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _quotient_g(w: Perm) -> HeckeElement:
    """The image of g_w under `quotient_image`: the product of
    v^2 - 1 - A_s along a reduced word of w, one factor on the image of
    the shorter element."""
    m = len(w)
    word = reduced_word(w)
    if not word:
        return HeckeElement.unit(m)
    return _lmul(_G_S, word[0], _quotient_g(left_action(m, word[0])[w][0]))


def quotient_image(x: btalg.BTElement) -> HeckeElement:
    """Image of an element of the algebra of braids and ties under the
    algebra map E(v) -> H(S_m) with e_P -> 1 and g_s -> v^2 - 1 - A_s.

    It is an algebra map: e_P -> 1 respects every tie relation, and
    (v^2 - 1 - A_s)^2 = 1 + (v^2 - 1)(v^2 - A_s) is the image of the
    quadratic relation g_s^2 = 1 + (v^2 - 1) e_s (1 + g_s).  On the g_s,
    and so on the braid-generated subalgebra C(v), it agrees with the
    trivial-character surjection `monodromic.pi_L`, whose letter
    a_s = -g_s acts there by A_s + 1 - v^2.  The image of e_P g_w is the
    image of g_w, built once per w, with w read off each basis index by
    `closure.basis_pair`.

    >>> from braidties.btalg import c_simple_bt
    >>> quotient_image(c_simple_bt(1, 2)) == c_simple(1, 2)
    True
    """
    from .closure import basis_pair

    by_w: dict[Perm, LaurentPoly] = {}
    for k, c in x.terms.items():
        _acc(by_w, basis_pair(x.m, k)[1], c)
    out: dict[Perm, LaurentPoly] = {}
    for w, c in by_w.items():
        _addmul(out, _quotient_g(w).terms, c)
    return HeckeElement(x.m, out)


if __name__ == "__main__":
    import doctest
    doctest.testmod()
