r"""The Iwahori-Hecke algebra of type $A_n$ and its Kazhdan-Lusztig basis.

Standard basis $\{A_w\}_{w \in S_m}$ over $\mathbb{Q}(v)$ with
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
is how the oracle reads polynomials back off.

>>> from braidties.coxeter import simple_perm
>>> s1 = simple_perm(1, 3)
>>> hecke_mul(HeckeElement.basis(s1), HeckeElement.basis(s1)).terms[s1]
v^2 - 1
>>> canonical_basis((2, 1, 3))
(v^-1)*A[2,1,3] + (-v)*A[1,2,3]
"""

from __future__ import annotations

from functools import lru_cache

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
from .linalg import SparseVector, _acc
from .scalars import LaurentPoly, RationalFunctionScalar as RF

V = RF.V
_Q = V * V
_QM1 = _Q - 1
QPoly = dict[int, int]  # polynomial in q = v^2, exponent -> integer coefficient


class HeckeElement(SparseVector):
    """Finitely supported map Perm -> RF over a fixed S_m."""

    __slots__ = ("m",)
    _ambient = "m"
    ZERO = RF.ZERO

    @classmethod
    def unit(cls, m: int) -> "HeckeElement":
        return cls(m, {identity_perm(m): RF.ONE})

    @classmethod
    def basis(cls, w: Perm, coeff: RF = RF.ONE) -> "HeckeElement":
        return cls(len(w), {w: coeff})

    def coeff_tilde(self, w: Perm) -> RF:
        """Coefficient in the normalized basis: of Ã_w, i.e. A_w * v^{l(w)}."""
        return self.coeff(w) * RF.from_laurent(LaurentPoly.monomial(perm_length(w)))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=lambda u: (perm_length(u), u), reverse=True):
            c = self.terms[w]
            bits.append(f"({c!r})*A[{','.join(map(str, w))}]")
        return " + ".join(bits)


def _lmul_simple(i: int, x: HeckeElement) -> HeckeElement:
    """A_{s_i} * x via the quadratic relation."""
    left = left_action(x.m, i)
    out: dict[Perm, RF] = {}
    for w, c in x.terms.items():
        sw, down = left[w]
        if down:
            _acc(out, w, c * _QM1)
            _acc(out, sw, c * _Q)
        else:
            _acc(out, sw, c)
    return x._like(out)


def hecke_mul(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """Bilinear product; A_w * A_u computed by peeling a reduced word of w."""
    if a.m != b.m:
        raise ValueError("mixing Hecke algebras")
    out = HeckeElement.zero(a.m)
    for w, c in a.terms.items():
        x = b.scale(c)
        for i in reversed(reduced_word(w)):
            x = _lmul_simple(i, x)
        out = out + x
    return out


def a_tilde(w: Perm) -> HeckeElement:
    return HeckeElement.basis(w, RF.from_laurent(LaurentPoly.monomial(-perm_length(w))))


@lru_cache(maxsize=None)
def _simple_inverse(i: int, m: int) -> HeckeElement:
    """A_{s_i}^{-1} = v^{-2} A_{s_i} - (1 - v^{-2}) A_e."""
    vi2 = RF.from_laurent(LaurentPoly.monomial(-2))
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


def tilde_inverse(w: Perm) -> HeckeElement:
    """Ã_w^{-1} = v^{l(w)} A_w^{-1}."""
    return basis_inverse(w).scale(RF.from_laurent(LaurentPoly.monomial(perm_length(w))))


def bar_involution(a: HeckeElement) -> HeckeElement:
    """Semilinear extension of A_w -> A_{w^{-1}}^{-1}, v -> v^{-1}."""
    out = HeckeElement.zero(a.m)
    for w, c in a.terms.items():
        out = out + basis_inverse(perm_inv(w)).scale(c.bar())
    return out


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
                    assert max(p) <= (lw - perm_length(x) - 1) // 2, (x, w, p)
                else:
                    assert p == {0: 1}
        assert table.entries[(w, w)] == {0: 1}
        table._mu_lists[w] = [(z, table.mu(z, w)) for z in perms
                              if perm_length(z) < lw and table.mu(z, w)
                              and bruhat_leq(z, w)]
    return table


@lru_cache(maxsize=None)
def kl_table(m: int) -> KLTable:
    return kl_polynomials(m - 1)


def _qpoly_to_rf(p: QPoly) -> RF:
    """Evaluate an integer polynomial in q at q = v^2."""
    return RF.from_laurent(LaurentPoly({2 * e: c for e, c in p.items()}))


def canonical_basis(w: Perm, table: KLTable | None = None) -> HeckeElement:
    """C_w = sum_{x<=w} (-1)^{l(w)-l(x)} v^{l(x)-l(w)} P_{x,w}(v^2)
    Ã_{x^{-1}}^{-1}; bar-invariant with leading coefficient 1.

    >>> canonical_basis(simple_perm(1, 2))
    (v^-1)*A[2,1] + (-v)*A[1,2]
    """
    m = len(w)
    if table is None:
        table = kl_table(m)
    lw = perm_length(w)
    out = HeckeElement.zero(m)
    for x in all_perms(m):
        p = table.poly(x, w)
        if not p:
            continue
        lx = perm_length(x)
        sign = -1 if (lw - lx) % 2 else 1
        coeff = _qpoly_to_rf(p) * RF.from_laurent(
            LaurentPoly.monomial(lx - lw, sign))
        out = out + tilde_inverse(perm_inv(x)).scale(coeff)
    return out


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
            f = elem.coeff_tilde(y).as_laurent()
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
        elem = elem - canonical_by_bar(defect_y).scale(RF.from_laurent(defect_g))
    assert elem.coeff_tilde(w) == RF.ONE, w
    return elem


def kl_from_bar_oracle(x: Perm, w: Perm) -> QPoly:
    """Read P_{x,w} off the oracle element: the Ã_x-coefficient of C_w is
    (-1)^{l(w)-l(x)} v^{l(w)-l(x)} P_{x,w}(v^{-2})."""
    f = canonical_by_bar(w).coeff_tilde(x).as_laurent()
    gap = perm_length(w) - perm_length(x)
    sign = -1 if gap % 2 else 1
    out: QPoly = {}
    for e, c in f.coeffs().items():
        # e = gap - 2k for the q^k term
        k2 = gap - e
        assert k2 >= 0 and k2 % 2 == 0, (x, w, f)
        assert c.denominator == 1
        out[k2 // 2] = sign * int(c)
    return out


def c_expansion(s: int, u: Perm, table: KLTable | None = None
                ) -> dict[Perm, int]:
    """Integer coefficients of C_s C_u = sum_y gamma_y C_y (gamma_{su} = 1).

    Requires l(s u) > l(u); raises if a coefficient fails to be an integer
    constant, which would violate the span property of the C basis.

    >>> from braidties.coxeter import perm_from_word
    >>> c_expansion(1, perm_from_word((2,), 3))
    {(2, 3, 1): 1}
    """
    m = len(u)
    su, down = left_action(m, s)[u]
    if down:
        raise ValueError("need l(su) > l(u)")
    table = table or kl_table(m)
    rem = hecke_mul(c_simple(s, m), canonical_basis(u, table))
    out: dict[Perm, int] = {}
    while rem:
        y = max(rem.terms, key=lambda t: (perm_length(t), t))
        gamma = rem.coeff_tilde(y)
        lp = gamma.as_laurent()
        cs = lp.coeffs()
        if set(cs) - {0}:
            raise ArithmeticError(f"non-constant C-basis coefficient at {y}: {lp}")
        ci = cs.get(0, 0)
        if ci.denominator != 1:
            raise ArithmeticError(f"non-integer C-basis coefficient at {y}: {ci}")
        out[y] = int(ci)
        rem = rem - canonical_basis(y, table).scale(gamma)
    assert out.get(su) == 1, (s, u, out)
    return out


if __name__ == "__main__":
    import doctest
    doctest.testmod()
