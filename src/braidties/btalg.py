r"""The generalized algebra of braids and ties $\mathcal{E}(v)$ in type $A_n$.

Working model: the free module on pairs $(P, w)$ with $P$ a set partition
of $\{1, \dots, n+1\}$ and $w \in S_{n+1}$, realizing the basis
$\{e_P\, g_w\}$, with coefficients in the Laurent ring
$\mathbb{Q}[v, v^{-1}]$ (`scalars.LaurentPoly`): every structure constant
lies there, and every element a command forms has Laurent coefficients.
Generators: $g_s$ for simple $s$, $e_r$ for each reflection $r$ (with
$e_P$ the product of $e_r$ over transpositions inside the blocks of
$P$).  The defining relations,

- braid relations among the $g_s$,
- $e_r^2 = e_r$, $e_{r_1}e_{r_2} = e_{r_2}e_{r_1} = e_{r_1}e_{r_1r_2r_1}$,
- $g_s e_r = e_{srs} g_s$,
- $g_s^2 = 1 + (v^2-1)\,e_s(1 + g_s)$,

all hold in the model (`verify_presentation` evaluates every one), and
multiplication is computed from them by peeling reduced words:
$g_s\,g_u = g_{su}$ when $l(su) > l(u)$, else
$g_s\,g_u = g_{su} + (v^2-1)e_s g_{su} + (v^2-1)e_s g_u$.
An element is keyed by basis indices: $e_P\, g_w$ is
$\mathrm{rank}(P) \cdot m! + \mathrm{rank}(w)$, each rank taken in its
sorted list (`closure.sorted_basis`), so an element is also a row for
`linalg.Echelon`.  `lmul_g` (for $g_s$ and, with the $v^{-2}-1$ weight
on length-up terms, $g_s^{-1}$) is one call to `closure.g_action`, the
loop that the closure walk runs too; it reads the rule's partition half
$s(P)$, $s(P) \vee \{i, i+1\}$ and its permutation half $sw$,
$l(sw) < l(w)$ on ranks.  `lmul_e` reads a cached join of partition
ranks.  Words of $g_s^{\pm 1}$ are built once per suffix (`_g_word`);
$\overline{g_w}$ is the word of the $g_s^{-1}$ along a reduced word of
$w$.

The braid-image subalgebra $\mathcal{C}(v)$ is generated by the $g_s$
alone.  Its dimension, and the certified basis that decides membership
in it, are computed in `closure`, which needs neither this module nor
`scalars`.

Signed generators: $\mathsf{a}_s = -g_s$ satisfies the cubic
$(\mathsf{a}_s^2 - 1)(\mathsf{a}_s + v^2) = 0$, and
$\mathsf{c}_s = (\mathsf{a}_s^2 - 1)/(v - v^3) = -e_s(1+g_s)/v$ is
bar-invariant.  `kl_lift` extends $s \mapsto \mathsf{c}_s$ to a
bar-invariant lift of the whole Kazhdan-Lusztig basis by the closed form
$\mathsf{c}_w = (-1)^{l(w)} v^{-l(w)} e_{P(w)} \sum_{x \le w}
P_{x,w}(v^2)\, g_x$, the classical KL element placed in the tie-block of
the support of $w$.  The one-step recursion
$\mathsf{c}_s \mathsf{c}_{sw} - \sum_y \gamma_y \mathsf{c}_y$ (exposed as
`kl_lift_via`) is descent-dependent in this algebra and only recovers
$\mathsf{c}_w$ up to a bar-invariant kernel element of the
trivial-character surjection.  That surjection is read on
$\mathcal{C}(v)$ through the algebra map `hecke.quotient_image`
($e_P \mapsto 1$, $g_s \mapsto v^2 - 1 - A_s$), with no generator words.

>>> from braidties.coxeter import simple_perm
>>> m = 2
>>> g = g_element(simple_perm(1, m))
>>> bt_mul(g, g) - BTElement.unit(m)   # (v^2-1) e_s (1 + g_s)
(v^2 - 1)*e[12]g[1,2] + (v^2 - 1)*e[12]g[2,1]
>>> bt_mul(g, g_inverse(1, m)) == BTElement.unit(m)
True
"""

from __future__ import annotations

import random
from functools import lru_cache

from .coxeter import (
    Perm,
    SetPartition,
    all_perms,
    all_reflections,
    all_set_partitions,
    discrete_partition,
    identity_perm,
    left_action,
    pair_partition,
    partition_join,
    perm_length,
    perm_mul,
    reduced_word,
    simple_perm,
    support_partition,
    transposition_perm,
)
from .closure import basis_index, basis_pair, g_action, sorted_basis
from .linalg import SparseVector, _acc, _addmul
from .scalars import LaurentPoly

V = LaurentPoly.V
_ONE = LaurentPoly.one()
_QM1 = V * V - 1  # v^2 - 1
_QIM1 = V ** -2 - 1  # v^{-2} - 1

# signed letters: +i = a_i, -i = a_i^{-1}
WordCombo = dict[tuple[int, ...], LaurentPoly]


class BTElement(SparseVector):
    """Finitely supported map from basis index to LaurentPoly: e_P g_w is
    index rank(P)·m! + rank(w) (`closure.basis_pair` decodes it)."""

    __slots__ = ("m",)
    _ambient = "m"
    ZERO = LaurentPoly.zero()

    @classmethod
    def unit(cls, m: int) -> "BTElement":
        return cls(m, {0: _ONE})

    @classmethod
    def basis(cls, P: SetPartition, w: Perm) -> "BTElement":
        return cls(len(w), {basis_index(P, w): _ONE})

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for k, c in sorted(self.terms.items()):
            P, w = basis_pair(self.m, k)
            pp = "|".join("".join(map(str, b)) for b in P)
            bits.append(f"({c!r})*e[{pp}]g[{','.join(map(str, w))}]")
        return " + ".join(bits)


def g_element(w: Perm) -> BTElement:
    return BTElement.basis(discrete_partition(len(w)), w)


def e_element(P: SetPartition) -> BTElement:
    m = sum(len(b) for b in P)
    return BTElement.basis(P, identity_perm(m))


@lru_cache(maxsize=None)
def _join_rank(m: int, p: int, q: int) -> int:
    """The rank of the join of the set partitions of ranks p and q."""
    parts, _, rank = sorted_basis(m)
    return rank[partition_join(parts[p], parts[q])]


def lmul_e(p: int, x: BTElement) -> BTElement:
    """e_P * x for the set partition P of rank p."""
    f = len(sorted_basis(x.m)[1])
    out: dict[int, LaurentPoly] = {}
    for k, c in x.terms.items():
        q, w = divmod(k, f)
        _acc(out, _join_rank(x.m, p, q) * f + w, c)
    return x._like(out)


def lmul_g(i: int, x: BTElement, inverse: bool = False) -> BTElement:
    """g_{s_i} * x, or g_{s_i}^{-1} * x when inverse: `closure.g_action`
    with weight v^2 - 1, resp. v^{-2} - 1."""
    return BTElement(x.m, g_action(x.m, i, x.terms,
                                   _QIM1 if inverse else _QM1, inverse))


def lmul_g_word(word, x: BTElement) -> BTElement:
    """(g_{s_{i_1}} ... g_{s_{i_k}}) * x for word = (i_1, ..., i_k)."""
    for i in reversed(word):
        x = lmul_g(i, x)
    return x


def bt_mul(a: BTElement, b: BTElement) -> BTElement:
    """Bilinear product; e_P g_w acts by e_P (g_w b) with g_w peeled, and
    g_w b is formed once for each w of a, whatever the partitions on it."""
    if a.m != b.m:
        raise ValueError("mixing ambient ranks")
    _, perms, _ = sorted_basis(a.m)
    gb: dict[int, BTElement] = {}
    out: dict[int, LaurentPoly] = {}
    for k, c in a.terms.items():
        p, w = divmod(k, len(perms))
        x = gb.get(w)
        if x is None:
            x = gb[w] = lmul_g_word(reduced_word(perms[w]), b)
        _addmul(out, lmul_e(p, x).terms, c)
    return a._like(out)


def g_inverse(i: int, m: int) -> BTElement:
    """g_s^{-1} = g_s + (v^{-2}-1)(e_s g_s + e_s), from the quadratic
    relation and idempotency of e_s."""
    s = simple_perm(i, m)
    pair = pair_partition(i, i + 1, m)
    return BTElement(m, {
        basis_index(discrete_partition(m), s): _ONE,
        basis_index(pair, s): _QIM1,
        basis_index(pair, identity_perm(m)): _QIM1,
    })


def bar(x: BTElement) -> BTElement:
    """The v-semilinear ring automorphism: v -> v^{-1}, g_s -> g_s^{-1},
    e_r -> e_r; bar(g_w) is the product of the g_s^{-1} along a reduced
    word of w."""
    _, perms, _ = sorted_basis(x.m)
    out: dict[int, LaurentPoly] = {}
    for k, c in x.terms.items():
        p, w = divmod(k, len(perms))
        bar_g = _g_word(tuple(-i for i in reduced_word(perms[w])), x.m)
        _addmul(out, lmul_e(p, bar_g).terms, c.bar())
    return x._like(out)


# ---------------------------------------------------------------------------
# presentation check
# ---------------------------------------------------------------------------

def verify_presentation(n: int) -> list[tuple[str, bool]]:
    """Evaluate every defining relation (plus the cubic, invertibility, and
    bar involutivity) in the model over S_{n+1}; returns (label, ok) pairs.

    >>> all(ok for _, ok in verify_presentation(2))
    True
    """
    if n > 4:
        raise ValueError("presentation check bounded at n <= 4")
    m = n + 1
    one = BTElement.unit(m)
    checks: list[tuple[str, bool]] = []
    simples = range(1, m)
    reflections = all_reflections(m)

    def E(r):
        return e_element(pair_partition(r[0], r[1], m))

    def G(i):
        return g_element(simple_perm(i, m))

    for i in simples:
        for j in simples:
            if i >= j:
                continue
            gi, gj = G(i), G(j)
            if j == i + 1:
                lhs = bt_mul(bt_mul(gi, gj), gi)
                rhs = bt_mul(bt_mul(gj, gi), gj)
                checks.append((f"braid g{i} g{j} g{i} = g{j} g{i} g{j}",
                               lhs == rhs))
            else:
                checks.append((f"commute g{i} g{j} = g{j} g{i}",
                               bt_mul(gi, gj) == bt_mul(gj, gi)))

    for r in reflections:
        checks.append((f"e{r} idempotent", bt_mul(E(r), E(r)) == E(r)))

    for r1 in reflections:
        for r2 in reflections:
            t1 = transposition_perm(r1[0], r1[1], m)
            conj = perm_mul(perm_mul(t1, transposition_perm(r2[0], r2[1], m)),
                            t1)
            r3 = tuple(sorted(i + 1 for i in range(m) if conj[i] != i + 1))
            ok = (bt_mul(E(r1), E(r2)) == bt_mul(E(r2), E(r1))
                  == bt_mul(E(r1), E(r3)))
            checks.append((f"e{r1} e{r2} commute and conjugate", ok))

    for i in simples:
        for r in reflections:
            s = simple_perm(i, m)
            conj = perm_mul(perm_mul(s, transposition_perm(r[0], r[1], m)), s)
            r2 = tuple(sorted(j + 1 for j in range(m) if conj[j] != j + 1))
            checks.append((f"g{i} e{r} = e{r2} g{i}",
                           bt_mul(G(i), E(r)) == bt_mul(E(r2), G(i))))

    for i in simples:
        gi, ei = G(i), E((i, i + 1))
        quad = bt_mul(gi, gi) - one - bt_mul(ei, one + gi).scale(_QM1)
        checks.append((f"quadratic g{i}^2", not quad))
        a = gi.scale(-_ONE)
        a2 = bt_mul(a, a)
        cubic = bt_mul(a2 - one, a + one.scale(V * V))
        checks.append((f"cubic a{i}", not cubic))
        checks.append((f"g{i} invertible",
                       bt_mul(gi, g_inverse(i, m)) == one
                       and bt_mul(g_inverse(i, m), gi) == one))
        checks.append((f"bar(g{i}) = g{i}^-1", bar(gi) == g_inverse(i, m)))

    rng = random.Random(2)
    perms = all_perms(m)
    parts = all_set_partitions(m)
    samples = []
    for _ in range(6):
        samples.append(BTElement(m, {
            basis_index(rng.choice(parts), rng.choice(perms)):
                _ONE + V ** rng.randint(-2, 2)
            for _ in range(3)}))
    inv_ok = all(bar(bar(x)) == x for x in samples)
    checks.append(("bar involutive on samples", inv_ok))
    hom_ok = all(bar(bt_mul(x, y)) == bt_mul(bar(x), bar(y))
                 for x, y in zip(samples[:3], samples[3:]))
    checks.append(("bar multiplicative on samples", hom_ok))
    return checks


# ---------------------------------------------------------------------------
# word evaluation and the Kazhdan-Lusztig lift
# ---------------------------------------------------------------------------

def word_element(word: tuple[int, ...], m: int) -> BTElement:
    """Image of a signed word in the a_s = -g_s generators: letter +i is
    a_i, letter -i is a_i^{-1} = -g_i^{-1}.  The word of g's comes from
    `_g_word`, and the sign (-1)^len(word) is applied once."""
    x = _g_word(word, m)
    return -x if len(word) % 2 else x


@lru_cache(maxsize=None)
def _g_word(word: tuple[int, ...], m: int) -> BTElement:
    """The product along word of g_i (letter i) and g_i^{-1} (letter -i),
    peeled from the right, so each suffix of each word is built once."""
    if not word:
        return BTElement.unit(m)
    return lmul_g(abs(word[0]), _g_word(word[1:], m), inverse=word[0] < 0)


def combo_element(combo: WordCombo, m: int) -> BTElement:
    out: dict[int, LaurentPoly] = {}
    for word, c in combo.items():
        _addmul(out, word_element(word, m).terms, c)
    return BTElement(m, out)


def c_simple_bt(i: int, m: int) -> BTElement:
    """c_s = (a_s^2 - 1)/(v - v^3) = -e_s(1 + g_s)/v."""
    pair = pair_partition(i, i + 1, m)
    c = -V.inv()
    return BTElement(m, {basis_index(pair, identity_perm(m)): c,
                         basis_index(pair, simple_perm(i, m)): c})


@lru_cache(maxsize=None)
def kl_lift(w: Perm) -> BTElement:
    """The bar-invariant lift c_w of the Kazhdan-Lusztig basis element:

        c_w = (-1)^{l(w)} v^{-l(w)} e_{P(w)} sum_{x <= w} P_{x,w}(v^2) g_x

    with P(w) the interval partition spanned by the support of w.  All
    terms live in the single tie-block of P(w), where the g_x multiply
    exactly like Hecke basis elements, so this is the classical
    Kazhdan-Lusztig element transported into that block: bar-invariant,
    descent-free, and mapped to C_w by the trivial-character surjection.

    The sharper-looking recursion c_w = c_s c_{sw} - sum_y gamma_y c_y
    (see `kl_lift_via`) does NOT define this element: its output depends
    on the chosen descent s, because products c_s c_u pick up bar-invariant
    corrections from the kernel of pi that lie outside span{c_y}.

    >>> kl_lift((2, 1))
    (-v^-1)*e[12]g[1,2] + (-v^-1)*e[12]g[2,1]
    >>> kl_lift((2, 1)) == c_simple_bt(1, 2)
    True
    """
    from . import hecke

    m = len(w)
    table = hecke.kl_table(m)
    P = support_partition(w)
    lw = perm_length(w)
    sign = _ONE if lw % 2 == 0 else -_ONE
    x = BTElement.zero(m)
    for y in all_perms(m):
        p = table.poly(y, w)
        if p:
            x = x + BTElement.basis(P, y).scale(hecke._qpoly_to_laurent(p))
    return x.scale(sign * V ** (-lw))


def kl_lift_via(w: Perm, s: int) -> BTElement:
    """The one-step recursion c_s c_{sw} - sum_y gamma_y c_y for a chosen
    left descent s, with the gamma_y supplied by `hecke.c_expansion` and
    the lower-length inputs taken from `kl_lift`.

    In the Hecke algebra the same recursion reproduces C_w for every
    descent; here its output is descent-dependent — it equals
    `kl_lift(w)` plus a bar-invariant element of ker pi that varies with
    s (and vanishes whenever l(w) <= 2, where no correction can arise).
    """
    from . import hecke

    m = len(w)
    sw, down = left_action(m, s)[w]
    if not down:
        raise ValueError(f"{s} is not a left descent")
    if perm_length(w) <= 1:
        return kl_lift(w)
    elem = bt_mul(c_simple_bt(s, m), kl_lift(sw))
    for y, gamma in hecke.c_expansion(s, sw).items():
        if y == w or not gamma:
            continue
        elem = elem - kl_lift(y).scale(LaurentPoly.const(gamma))
    return elem


if __name__ == "__main__":
    import doctest
    doctest.testmod()
