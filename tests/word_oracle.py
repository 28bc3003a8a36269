"""The oracle for the Kazhdan-Lusztig lift's image: elements of C(v) written
as combinations of signed generator words, then sent through the
monodromic surjection word by word.

`kl-lift` reads the image off the algebra map `hecke.quotient_image`
instead.  This route shares nothing with it past `btalg.lmul_g`: a tagged
exact closure over Q(v) and `monodromic.pi_L`, letter by letter.
"""

from functools import lru_cache

from braidties import monodromic
from braidties.btalg import BTElement, lmul_g
from braidties.hecke import HeckeElement
from braidties.linalg import Echelon
from qv_oracle import RF, qv


@lru_cache(maxsize=None)
def _word_closure(n: int) -> Echelon:
    """Exact echelon basis of C(v) whose rows carry generator words: close
    span{1} under left multiplication by the g_s, breadth first, over
    Q(v), each row tagged with the signed word that produced it (letter i
    stands for a_i = -g_i, so the tag of g_i * x is the tag of x prefixed
    with i and negated).  The frontier keeps the raw products g_s x: their
    tags stay short words."""
    if n > 3:
        raise ValueError("exact closure bounded at n <= 3")
    m = n + 1
    ech = Echelon()
    unit = BTElement.unit(m)
    tag = {(): RF.ONE}
    ech.insert(qv(unit.terms), tag)
    frontier = [(unit, tag)]
    while frontier:
        new = []
        for x, combo in frontier:
            for i in range(1, m):
                y = lmul_g(i, x)
                ycombo = {(i,) + word: -c for word, c in combo.items()}
                if ech.insert(qv(y.terms), ycombo) is not None:
                    new.append((y, ycombo))
        frontier = new
    return ech


def word_combo(x: BTElement) -> dict[tuple[int, ...], RF]:
    """Express x in C(v) as a Q(v)-combination of signed generator words;
    raises ValueError when x is not in the braid-image subalgebra."""
    combo = _word_closure(x.m - 1).combination(qv(x.terms))
    if combo is None:
        raise ValueError("element is not in C(v)")
    return combo


def word_image(x: BTElement) -> HeckeElement:
    """The image of x in C(v) at the trivial character, word by word."""
    combo = word_combo(x)
    return monodromic.hecke_image(
        monodromic.pi_of_combo(combo, monodromic.trivial_character(x.m)))
