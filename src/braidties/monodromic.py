r"""The monodromic Hecke algebra $\mathbf{H}_{\mathfrak{o}}$ on a Weyl-group
orbit of torus characters, and the surjections $\pi_{\mathcal{L}}$ out of
the braid-image subalgebra.

A character of the torus of $SL_{n+1}$ over a field with $q^k$ elements is
recorded by exponents $(b_1, \dots, b_{n+1})$ modulo $N = q^k - 1$, read
against a fixed generator of the dual of the multiplicative group and
normalized by $b_{n+1} = 0$ (the diagonal entries multiply to one, so only
differences matter).  The Weyl group permutes coordinates,
$(w\theta)_j = b_{w^{-1}(j)}$, and the reflection subgroup
$W_\theta^\circ$ consists of the transpositions $(i\,j)$ with
$b_i \equiv b_j$: exactly the coroots on which $\theta$ is trivial.

$\mathbf{H}_{\mathfrak{o}}$ has basis $A_w 1_{\mathcal{L}}$ over
$\mathbb{Q}(v)$, with the defining relations

- $1_{\mathcal{L}} 1_{\mathcal{L}'} = \delta_{\mathcal{L},\mathcal{L}'}
  1_{\mathcal{L}}$,
- $A_w A_{w'} = A_{ww'}$ when lengths add,
- $A_w 1_{\mathcal{L}} = 1_{w\mathcal{L}} A_w$,
- $A_s^2 = v^2 + (v^2-1)\sum_{\mathcal{L} :\, s \in W^\circ_{\mathcal{L}}}
  A_s 1_{\mathcal{L}}$,

all of which `verify_ho_relations` evaluates on the normal form computed
by `ho_mul`.  A one-character orbit with $N = 1$ is the plain Hecke
algebra, and `ho_mul` then agrees with `hecke.hecke_mul`.

Left multiplication by $A_s$, and by the images of the letters below, is
one loop, `_lmul`, over `coxeter.left_action`, weighted from three
constant tables keyed by ($s \in W^\circ_{w\mathcal{L}}$, $l(sw) < l(w)$).

The map $\pi_{\mathcal{L}}$ is defined on signed generator words (letter
$i$ is $\mathsf{a}_{s_i}$, letter $-i$ its inverse), one corner at a time:
at a corner whose character $\theta$ has $s \in W^\circ_\theta$ the letter
acts by $v\tilde{A}_s^{-1} = A_s + (1 - v^2)$, otherwise by
$\tilde{A}_s = v^{-1}A_s$.  This sign of the first branch makes the image
satisfy the cubic $(\mathsf{a}_s^2-1)(\mathsf{a}_s+v^2) = 0$ identically,
which is what `pi_consistency` certifies on rewrite-equivalent word pairs.
At the trivial character every $s$ is in $W^\circ$ and $\pi$ lands in the
Hecke algebra, where it sends the lifts of `btalg.kl_lift` to the
Kazhdan-Lusztig basis.

>>> theta = torus_character(3, (1, 0))
>>> w_circle(theta)
frozenset()
>>> sorted(w_circle(torus_character(3, (2, 2))))
[(1, 2)]
>>> x = pi_L((1, -1), torus_character(3, (1, 0)))
>>> x == corner_unit(torus_character(3, (1, 0)))
True
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import TYPE_CHECKING

from .coxeter import (
    Perm,
    all_perms,
    identity_perm,
    left_action,
    perm_inv,
    perm_length,
    perm_mul,
    reduced_word,
    simple_perm,
)
from .linalg import SparseVector, _acc
from .scalars import RationalFunctionScalar as RF

if TYPE_CHECKING:
    from . import hecke

V = RF.V
_ONE = RF.ONE
_Q = V * V
_QM1 = _Q - _ONE
_VI2 = RF.VI * RF.VI


# ---------------------------------------------------------------------------
# torus characters and their Weyl orbit
# ---------------------------------------------------------------------------

class TorusCharacter:
    """Character of the diagonal torus, as exponents mod q^k - 1 with the
    last coordinate normalized to zero.  Equal, and hashed, as the pair
    (modulus, exponents)."""

    __slots__ = ("modulus", "exponents")

    def __init__(self, modulus: int, exponents: tuple[int, ...]):
        self.modulus = modulus
        self.exponents = exponents

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.modulus, self.exponents) == (other.modulus,
                                                  other.exponents)

    def __hash__(self) -> int:
        return hash((self.modulus, self.exponents))

    def __repr__(self):
        body = ",".join(str(b) for b in self.exponents)
        return f"L({body}|{self.modulus})"


def torus_character(modulus: int, exponents) -> TorusCharacter:
    """Build a character from any exponent tuple (length n+1), reducing
    mod the modulus and normalizing the last coordinate to zero."""
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    exps = tuple(int(b) % modulus for b in exponents)
    last = exps[-1]
    return TorusCharacter(modulus, tuple((b - last) % modulus for b in exps))


def trivial_character(m: int) -> TorusCharacter:
    return torus_character(1, (0,) * m)


@lru_cache(maxsize=None)
def w_act(w: Perm, theta: TorusCharacter) -> TorusCharacter:
    """(w theta)_j = b_{w^{-1}(j)}: the torus coordinates move by w."""
    wi = perm_inv(w)
    return torus_character(theta.modulus,
                           tuple(theta.exponents[wi[j - 1] - 1]
                                 for j in range(1, len(theta.exponents) + 1)))


def w_circle(theta: TorusCharacter) -> frozenset[tuple[int, int]]:
    """Reflections (i, j) with equal exponents: the coroot through
    coordinates i and j maps into the kernel of theta."""
    b = theta.exponents
    m = len(b)
    return frozenset((i, j) for i in range(1, m + 1)
                     for j in range(i + 1, m + 1) if b[i - 1] == b[j - 1])


def simple_in_circle(i: int, theta: TorusCharacter) -> bool:
    """Whether s_i is in W_theta^circ: adjacent exponents agree."""
    return theta.exponents[i - 1] == theta.exponents[i]


def orbit_of(theta: TorusCharacter) -> tuple[TorusCharacter, ...]:
    """The W-orbit of theta, sorted by exponent tuple for determinism."""
    m = len(theta.exponents)
    seen = {theta}
    frontier = [theta]
    while frontier:
        new = []
        for t in frontier:
            for i in range(1, m):
                u = w_act(simple_perm(i, m), t)
                if u not in seen:
                    seen.add(u)
                    new.append(u)
        frontier = new
    return tuple(sorted(seen, key=lambda t: t.exponents))


def all_characters(m: int, modulus: int) -> tuple[TorusCharacter, ...]:
    """Every character of the torus (normalized last coordinate)."""
    out = []

    def rec(prefix):
        if len(prefix) == m - 1:
            out.append(TorusCharacter(modulus, tuple(prefix) + (0,)))
            return
        for b in range(modulus):
            rec(prefix + [b])

    rec([])
    return tuple(sorted(out, key=lambda t: t.exponents))


def all_orbits(m: int, modulus: int) -> list[tuple[TorusCharacter, ...]]:
    """The W-orbits of all characters, in the order of their first member."""
    seen: set[TorusCharacter] = set()
    orbits = []
    for t in all_characters(m, modulus):
        if t not in seen:
            orb = orbit_of(t)
            orbits.append(orb)
            seen.update(orb)
    return orbits


# ---------------------------------------------------------------------------
# elements of the orbit algebra
# ---------------------------------------------------------------------------

class MonodromicElement(SparseVector):
    """Q(v)-combination of basis terms A_w 1_L."""

    __slots__ = ("m",)
    _ambient = "m"
    ZERO = RF.ZERO

    def __repr__(self):
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda k: (-perm_length(k[0]), k[0],
                                                 k[1].exponents))
        bits = []
        for w, L in keys:
            wstr = ",".join(str(x) for x in w)
            bits.append(f"({self.terms[(w, L)]})*A[{wstr}]1{L!r}")
        return " + ".join(bits)


def corner_unit(L: TorusCharacter) -> MonodromicElement:
    """The idempotent 1_L as an element."""
    m = len(L.exponents)
    return MonodromicElement(m, {(identity_perm(m), L): RF.ONE})


def standard_element(w: Perm, L: TorusCharacter) -> MonodromicElement:
    """The basis element A_w 1_L."""
    return MonodromicElement(len(w), {(w, L): RF.ONE})


def ho_unit(orbit) -> MonodromicElement:
    """The unit of the orbit algebra: the sum of all corner idempotents."""
    m = len(orbit[0].exponents)
    return MonodromicElement(m, {(identity_perm(m), L): RF.ONE for L in orbit})


def full_element(w: Perm, orbit) -> MonodromicElement:
    """A_w spread over the whole orbit: sum of A_w 1_L."""
    return MonodromicElement(len(w), {(w, L): RF.ONE for L in orbit})


# Left multiplication of a term A_w 1_L by A_s, or by the pi-image of the
# letter a_s or a_s^{-1}, gives a A_{sw} 1_L + b A_w 1_L.  The weights
# (a, b) depend only on (s in W^circ_theta for the left character
# theta = w L, l(sw) < l(w)); b is None where no A_w 1_L term arises.
# Per corner:
# - A_s: A_{sw} when the length goes up; when it goes down the quadratic
#   relation gives v^2 A_{sw}, plus (v^2-1) A_w inside W^circ;
# - a_s: inside W^circ it acts by v Atilde_s^{-1} = A_s + (1 - v^2) (the
#   two A_w terms cancel when the length goes down), outside by
#   Atilde_s = v^{-1} A_s;
# - a_s^{-1}: inside by v^{-2} A_s, outside by v^{-1} A_s (there
#   Atilde_s^2 1_theta = 1_theta).
_A_S = {(False, False): (_ONE, None), (False, True): (_Q, None),
        (True, False): (_ONE, None), (True, True): (_Q, _QM1)}
_LETTER = {(False, False): (RF.VI, None), (False, True): (V, None),
           (True, False): (_ONE, _ONE - _Q), (True, True): (_Q, None)}
_LETTER_INV = {(False, False): (RF.VI, None), (False, True): (V, None),
               (True, False): (_VI2, None), (True, True): (_ONE, _ONE - _VI2)}


def _lmul(weights: dict, i: int,
          x: MonodromicElement) -> MonodromicElement:
    """Left multiplication by A_{s_i} or by one letter, per `weights`."""
    left = left_action(x.m, i)
    out: dict[tuple[Perm, TorusCharacter], RF] = {}
    for (w, L), c in x.terms.items():
        sw, down = left[w]
        a, b = weights[simple_in_circle(i, w_act(w, L)), down]
        _acc(out, (sw, L), c if a is _ONE else c * a)
        if b is not None:
            _acc(out, (w, L), c * b)
    return x._like(out)


def lmul_As(i: int, x: MonodromicElement) -> MonodromicElement:
    """Left multiplication by A_{s_i}."""
    return _lmul(_A_S, i, x)


def lmul_Aw(w: Perm, x: MonodromicElement) -> MonodromicElement:
    for i in reversed(reduced_word(w)):
        x = lmul_As(i, x)
    return x


def ho_mul(a: MonodromicElement, b: MonodromicElement) -> MonodromicElement:
    """Product in the orbit algebra, in normal form on the A_w 1_L basis.

    A_w 1_L · A_u 1_M = A_w A_u 1_M gated by L = u M (else the idempotents
    annihilate), with A_w peeled letter by letter through `lmul_As`.

    >>> L = torus_character(3, (1, 0)); M = torus_character(3, (2, 0))
    >>> ho_mul(corner_unit(L), corner_unit(M)).terms
    {}
    >>> s = simple_perm(1, 2)
    >>> ho_mul(standard_element(s, M), corner_unit(w_act(s, M)))
    0
    """
    out = MonodromicElement.zero(a.m)
    for (w, L), c in a.terms.items():
        for (u, M), d in b.terms.items():
            if w_act(u, M) != L:
                continue
            out = out + lmul_Aw(w, standard_element(u, M)).scale(c * d)
    return out


# ---------------------------------------------------------------------------
# the surjections pi_L on signed generator words
# ---------------------------------------------------------------------------

def pi_L(word: tuple[int, ...], L: TorusCharacter) -> MonodromicElement:
    """Image of a signed generator word under pi_L, as an element of the
    L-corner column of the orbit algebra: the word is read left to right
    as a product of a_{s_i} (letter i) and a_{s_i}^{-1} (letter -i)
    applied to 1_L.

    >>> pi_L((), torus_character(1, (0, 0)))
    (1)*A[1,2]1L(0,0|1)
    """
    x = corner_unit(L)
    for letter in reversed(word):
        x = _lmul(_LETTER_INV if letter < 0 else _LETTER, abs(letter), x)
    return x


def pi_of_combo(combo, L: TorusCharacter) -> MonodromicElement:
    """pi_L extended linearly to Q(v)-combinations of words."""
    m = len(L.exponents)
    out = MonodromicElement.zero(m)
    for word, c in combo.items():
        out = out + pi_L(word, L).scale(c)
    return out


def hecke_image(x: MonodromicElement) -> hecke.HeckeElement:
    """Read an element over a one-character orbit as a Hecke element."""
    from . import hecke

    out = hecke.HeckeElement.zero(x.m)
    for (w, L), c in x.terms.items():
        out = out + hecke.HeckeElement.basis(w, c)
    return out


# ---------------------------------------------------------------------------
# verification: relations, Hecke comparison, well-definedness on words
# ---------------------------------------------------------------------------

def verify_ho_relations(n: int, modulus: int) -> list[tuple[str, bool]]:
    """Evaluate every defining relation of the orbit algebra over all
    orbits of characters with the given modulus, for W = S_{n+1}."""
    m = n + 1
    checks: list[tuple[str, bool]] = []
    for orb in all_orbits(m, modulus):
        tag = f"orbit{orb[0].exponents}"
        unit = ho_unit(orb)
        ok = True
        for L in orb:
            for M in orb:
                want = corner_unit(L) if L == M else MonodromicElement.zero(m)
                ok = ok and ho_mul(corner_unit(L), corner_unit(M)) == want
        checks.append((f"{tag}: idempotent orthogonality", ok))
        ok = True
        for w in all_perms(m):
            for u in all_perms(m):
                wu = perm_mul(w, u)
                if perm_length(wu) == perm_length(w) + perm_length(u):
                    lhs = ho_mul(full_element(w, orb), full_element(u, orb))
                    ok = ok and lhs == full_element(wu, orb)
        checks.append((f"{tag}: lengths-add products", ok))
        ok = True
        for i in range(1, m):
            for L in orb:
                s = simple_perm(i, m)
                lhs = ho_mul(full_element(s, orb), corner_unit(L))
                rhs = ho_mul(corner_unit(w_act(s, L)), full_element(s, orb))
                ok = ok and lhs == rhs
        checks.append((f"{tag}: character transport", ok))
        ok = True
        for i in range(1, m):
            s = simple_perm(i, m)
            As = full_element(s, orb)
            lhs = ho_mul(As, As)
            rhs = unit.scale(_Q)
            for L in orb:
                if simple_in_circle(i, L):
                    rhs = rhs + standard_element(s, L).scale(_QM1)
            ok = ok and lhs == rhs
        checks.append((f"{tag}: quadratic relation", ok))
        ok = True
        for i in range(1, m):
            x = full_element(simple_perm(i, m), orb)
            ok = ok and ho_mul(unit, x) == x and ho_mul(x, unit) == x
        checks.append((f"{tag}: unit", ok))
    return checks


def verify_hecke_comparison(n: int) -> bool:
    """Over the one-character trivial orbit, A_w 1 -> A_w intertwines
    ho_mul with hecke.hecke_mul on all products in S_{n+1}."""
    from . import hecke

    m = n + 1
    triv = trivial_character(m)
    orb = (triv,)
    for w in all_perms(m):
        for u in all_perms(m):
            lhs = hecke_image(ho_mul(full_element(w, orb), full_element(u, orb)))
            rhs = hecke.hecke_mul(hecke.HeckeElement.basis(w),
                                  hecke.HeckeElement.basis(u))
            if lhs != rhs:
                return False
    return True


def _random_word(rng: random.Random, n: int, length: int) -> tuple[int, ...]:
    return tuple(rng.choice([1, -1]) * rng.randint(1, n)
                 for _ in range(length))


def _apply_move(rng: random.Random, word: tuple[int, ...], n: int):
    """One random rewrite that fixes the image in E(v): returns a combo
    {word: coefficient}.  Moves: braid (i j i) -> (j i j) on same-sign
    adjacent letters; commutation of distant letters; insertion or
    deletion of a cancelling pair; the cubic rewrite
    (i,i,i) -> {(i): 1, (): v^2, (i,i): -v^2}."""
    moves = []
    for p in range(len(word) - 2):
        a, b, c = word[p:p + 3]
        if a == c and abs(abs(a) - abs(b)) == 1 and (a > 0) == (b > 0):
            moves.append(("braid", p))
        if a == b == c and a > 0:
            moves.append(("cubic", p))
    for p in range(len(word) - 1):
        if abs(abs(word[p]) - abs(word[p + 1])) >= 2:
            moves.append(("commute", p))
        if word[p] == -word[p + 1]:
            moves.append(("delete", p))
    moves.append(("insert", rng.randrange(len(word) + 1)))
    kind, p = rng.choice(moves)
    if kind == "braid":
        a, b = word[p], word[p + 1]
        return {word[:p] + (b, a, b) + word[p + 3:]: RF.ONE}
    if kind == "cubic":
        i = word[p]
        pre, post = word[:p], word[p + 3:]
        return {pre + (i,) + post: RF.ONE,
                pre + post: _Q,
                pre + (i, i) + post: -_Q}
    if kind == "commute":
        return {word[:p] + (word[p + 1], word[p]) + word[p + 2:]: RF.ONE}
    if kind == "delete":
        return {word[:p] + word[p + 2:]: RF.ONE}
    i = rng.choice([1, -1]) * rng.randint(1, n)
    return {word[:p] + (i, -i) + word[p:]: RF.ONE}


def pi_consistency(n: int, trials: int, seed: int = 0,
                   modulus: int = 3) -> dict:
    """Sample word pairs equal in E(v) (one rewrite move apart), and check
    their pi_L images agree for every character in the orbit of a sampled
    character.  Returns a report; zero failures certifies that pi_L is
    well-defined on the relations exercised.

    >>> pi_consistency(1, 10)["failures"]
    0
    """
    from .btalg import combo_element, word_element

    rng = random.Random(seed)
    m = n + 1
    failures = 0
    move_counts: dict[str, int] = {}
    for _ in range(trials):
        word = _random_word(rng, n, rng.randint(2, 6))
        combo = _apply_move(rng, word, n)
        lhs_bt = word_element(word, m)
        rhs_bt = combo_element(combo, m)
        if lhs_bt != rhs_bt:
            failures += 1
            continue
        theta = torus_character(modulus,
                                tuple(rng.randrange(modulus) for _ in range(m)))
        for L in orbit_of(theta):
            lhs = pi_L(word, L)
            rhs = pi_of_combo(combo, L)
            if lhs != rhs:
                failures += 1
    return {"n": n, "trials": trials, "failures": failures,
            "modulus": modulus, "seed": seed}


if __name__ == "__main__":
    import doctest
    doctest.testmod()
