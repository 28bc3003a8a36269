r"""The dimension of the braid-image subalgebra $\mathcal{C}(v)$, on basis
indices.

The algebra of braids and ties $\mathcal{E}(v)$ (`btalg`) has the basis
$e_P\, g_w$, indexed by pairs $(P, w)$ of a set partition $P$ of
$\{1, \dots, n+1\}$ and $w \in S_{n+1}$.  Sorted, the pair $(P, w)$ sits
at index $\mathrm{rank}(P) \cdot m! + \mathrm{rank}(w)$ with $m = n+1$,
each rank taken in its own sorted list (`sorted_basis`, which
`basis_index` and `basis_pair` read to encode and decode an index);
`btalg.BTElement` is keyed by these indices, and their order fixes every
elimination pivot.  The unit $e_{\{1\},\dots,\{m\}}\, g_{\mathrm{id}}$ is
index 0.

A generator $g_s$, $s = s_i$, sends $e_P g_w$ to $e_{s(P)} g_{sw}$ when
$l(sw) > l(w)$, and else adds $(v^2-1)\, e_{s(P) \vee \{i, i+1\}}
(g_{sw} + g_w)$.  The rule has two halves: $s(P)$ and the join depend
on $P$ alone (`tie_action`, Bell(m) entries), and $sw$ with the descent
on $w$ alone (`coxeter.left_action`, $m!$ entries), both read on ranks
from `_index_tables`.  `g_action` is the one loop that applies the rule
(and that of $g_s^{-1}$), on any scalars: `btalg.lmul_g` calls it over
the Laurent ring, and the closure walk here once per candidate.

$\mathcal{C}(v)$ is generated by the $g_s$ alone, so its dimension is the
rank of the closure of $\mathrm{span}\{1\}$ under left multiplication by
the generators.  One breadth-first walk, `_closure_modp`, runs it on
`linalg.Echelon` over $\mathbb{F}_p$, with $v^2-1$ a Python int at a
rational specialization of $v$; each candidate that gains a pivot is
carried on as its reduced row.  Mode ``specialized`` reports the rank at
3 seeded points ($n \le 4$), a lower bound per point.  Mode ``exact``
reads `certificate`, which needs no arithmetic in $\mathbb{Q}(v)$:

- the lower bound is the rank over $\mathbb{F}_p$ at one fixed point
  $v_0 = 51/98$, $p = 1048573$, since a specialized rank is at most the
  generic one;
- the upper bound lifts that walk's reduced echelon basis to $\pm 1$
  (any other entry means no certificate) and checks, with integers
  only, that it is a $\mathbb{Q}$-basis $L$ whose $\mathbb{Q}(v)$-span is
  $g$-stable and contains 1, so contains $\mathcal{C}(v)$: for every row
  $b$ and generator, both integer parts of $g_s b = A + (v^2-1) B$
  reduce to zero against $L$, and so does 1.

When both hold, $\dim \mathcal{C}(v) = \mathrm{rank}\, L$ and the span
of $L$ is $\mathcal{C}(v)$, which is how ``kl-lift`` tests membership.
This module imports only `coxeter` and `linalg`.

>>> c_dimension_report(2, "specialized", seed=0)["points"][0]
{'v': '51/98', 'prime': 1048573, 'rank': 20}
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from .coxeter import (
    SetPartition,
    all_perms,
    all_set_partitions,
    left_action,
    pair_partition,
    partition_join,
    simple_perm,
    w_action,
)
from .linalg import Echelon


@lru_cache(maxsize=None)
def tie_action(m: int, i: int) -> dict[SetPartition, tuple]:
    """For every set partition P of {1..m}: (s(P), s(P) v {i, i+1}) with
    s = s_i, the partition half of g_s on e_P g_w.

    >>> tie_action(3, 1)[((1, 3), (2,))]
    (((1,), (2, 3)), ((1, 2, 3),))
    """
    s = simple_perm(i, m)
    pair = pair_partition(i, i + 1, m)
    out = {}
    for P in all_set_partitions(m):
        sP = w_action(s, P)
        out[P] = (sP, partition_join(sP, pair))
    return out


@lru_cache(maxsize=None)
def sorted_basis(m: int) -> tuple[tuple, list, dict]:
    """The set partitions and the permutations of {1..m}, each sorted, and
    the position of every one of them in its own list."""
    parts, perms = all_set_partitions(m), all_perms(m)
    return parts, perms, {k: j for seq in (parts, perms)
                          for j, k in enumerate(seq)}


def basis_index(P: SetPartition, w: tuple) -> int:
    """The basis index of e_P g_w."""
    _, perms, rank = sorted_basis(len(w))
    return rank[P] * len(perms) + rank[w]


def basis_pair(m: int, b: int) -> tuple[SetPartition, tuple]:
    """The pair (P, w) of basis index b: e_P g_w.

    >>> basis_pair(3, 8)
    (((1,), (2, 3)), (2, 1, 3))
    """
    parts, perms, _ = sorted_basis(m)
    f = len(perms)
    return parts[b // f], perms[b % f]


@lru_cache(maxsize=None)
def _index_tables(m: int) -> list[tuple[list, list, int]]:
    """The two halves of g_{s_1}, ..., g_{s_{m-1}} on ranks, each with m!:
    for each partition rank, rank(s(P))·m! and rank(s(P) v {i, i+1})·m!;
    for each permutation rank, rank(s w) and whether l(s w) < l(w)."""
    _, perms, rank = sorted_basis(m)
    f = len(perms)
    return [([(rank[sP] * f, rank[joined] * f)
              for sP, joined in tie_action(m, i).values()],
             [(rank[sw], down) for sw, down in left_action(m, i).values()],
             f)
            for i in range(1, m)]


def g_action(m: int, i: int, x: dict, weight, inverse: bool = False
             ) -> dict:
    """g_{s_i} x, or g_{s_i}^{-1} x when inverse, for x a dict from basis
    index to scalar, with weight standing for v^2 - 1, resp. v^{-2} - 1.
    Every term moves to (s(P), s w); a length-down term (length-up for
    the inverse) also adds weight times e_{s(P) v {i, i+1}} (g_{sw} + g_w).
    The halves are read off `_index_tables` after b // m! and b % m!
    split index b into its two ranks.  The result may hold zero
    entries."""
    ties, perms, f = _index_tables(m)[i - 1]
    y: dict = {}
    get = y.get
    for b, c in x.items():
        p, w = b // f, b % f
        moved_p, joined_p = ties[p]
        sw, down = perms[w]
        t = get(k := moved_p + sw)
        y[k] = c if t is None else t + c
        if down != inverse:
            cc = c * weight
            t = get(k := joined_p + sw)
            y[k] = cc if t is None else t + cc
            t = get(k := joined_p + w)
            y[k] = cc if t is None else t + cc
    return y


def _closure_modp(m: int, v0: Fraction, p: int) -> Echelon:
    """Echelon basis over F_p of the closure of span{1} under the g_s,
    with v specialized to v0, so that v^2 - 1 is the int c2 = v0^2 - 1
    mod p: a breadth-first walk on rows keyed by basis index, each
    candidate g_s x formed by `g_action`.  The unit e_{discrete}
    g_{identity} is index 0.  A candidate may hold zero entries, or ints
    past p; `Echelon.insert` drops and reduces them.

    The frontier carries, for each candidate that gains a pivot, a copy
    of the row stored for it then, pivot entry 1 included (later inserts
    change stored rows in place).  That row is the candidate divided by
    its pivot value, minus an element of the span before it, so the
    carried rows span what the candidates span at every step, the walk
    ends at the same g-stable subspace, and the reduced rows are the ones
    the raw candidates give; the carried rows are just shorter."""
    v = v0.numerator * pow(v0.denominator, -1, p) % p
    c2 = (v * v - 1) % p
    unit = {0: 1}
    ech = Echelon(p)
    ech.insert(unit)
    frontier = [unit]
    while frontier:
        new = []
        for x in frontier:
            for i in range(1, m):
                pivot = ech.insert(g_action(m, i, x, c2))
                if pivot is not None:
                    row = dict(ech.rows[pivot])
                    row[pivot] = 1
                    new.append(row)
        frontier = new
    return ech


# the one point of the exact certificate: the first point of seed 0
_CERTIFICATE_POINT = (Fraction(51, 98), 1048573)


def _certified(m: int, rows: dict[int, dict]) -> Echelon | None:
    """`rows` (pivot -> integer entries, the pivot entry 1 left out) as an
    `Echelon` used to reduce, when they are a Q-basis whose Q(v)-span is
    g-stable and contains 1; else None.

    Rows that vanish at the other pivots are independent, over Q(v) too.
    For a row b and a generator g_s, `g_action` with weights 0 and 1
    gives the integer vectors A and A + B of g_s b = A + (v^2 - 1) B, so
    b's image lies in the Q(v)-span exactly when A and A + B, hence A and
    B, lie in the Q-span.  Each test reduces an integer vector against
    rows with pivot entry 1: integer arithmetic, no division."""
    if any(c in rows for row in rows.values() for c in row):
        return None
    basis = Echelon()
    basis.rows = rows
    if not basis.contains({0: 1}):
        return None
    for pivot, row in rows.items():
        b = {pivot: 1, **row}
        for i in range(1, m):
            for weight in (0, 1):
                if not basis.contains(g_action(m, i, b, weight)):
                    return None
    return basis


@lru_cache(maxsize=None)
def certificate(n: int) -> tuple[int, Echelon | None]:
    """(lower, basis): the rank over F_p of the closure at v0 = 51/98 mod
    p = 1048573, a lower bound for dim C(v) (a specialized rank is at
    most the generic one); and the reduced echelon basis of that walk
    lifted to entries +1 and -1, if it is a Q-basis whose Q(v)-span is
    g-stable and contains 1 (`_certified`), hence contains C(v).  Then
    dim C(v) <= rank L = lower, so dim C(v) = lower exactly and C(v) is
    that span; basis is None when any entry is neither 1 nor p - 1 mod p,
    or the checks fail.

    >>> lower, basis = certificate(1)
    >>> lower, basis.rows
    (3, {0: {}, 1: {}, 2: {3: 1}})
    """
    m = n + 1
    v0, p = _CERTIFICATE_POINT
    ech = _closure_modp(m, v0, p)
    lift = {1: 1, p - 1: -1}
    rows = {pivot: {c: lift.get(x) for c, x in row.items()}
            for pivot, row in ech.rows.items()}
    if any(None in row.values() for row in rows.values()):
        return ech.rank, None
    return ech.rank, _certified(m, rows)


_SPECIALIZE_PRIMES = (1048573, 999983, 786433)


def _specialization_points(seed: int, count: int
                           ) -> list[tuple[Fraction, int]]:
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        v0 = Fraction(rng.randint(2, 100), rng.randint(1, 100))
        if v0 in (0, 1, -1) or v0 * v0 == 1:
            continue
        points.append((v0, _SPECIALIZE_PRIMES[len(points)
                                              % len(_SPECIALIZE_PRIMES)]))
    return points


def c_dimension_report(n: int, mode: str = "exact", seed: int = 0) -> dict:
    """dim C(v): in mode exact from `certificate`, with agree meaning that
    its lower and upper bounds meet; in mode specialized as the maximal
    rank over 3 rational specializations of v (n <= 4), with per-point
    detail.

    >>> c_dimension_report(1)["dimension"]
    3
    """
    if mode == "exact":
        lower, basis = certificate(n)
        upper = None if basis is None else basis.rank
        return {"n": n, "mode": mode, "dimension": lower,
                "agree": lower == upper}
    if mode != "specialized":
        raise ValueError(f"unknown mode: {mode!r}")
    if n > 4:
        raise ValueError("specialized closure bounded at n <= 4")
    ranks = []
    for v0, p in _specialization_points(seed, 3):
        ranks.append({"v": str(v0), "prime": p,
                      "rank": _closure_modp(n + 1, v0, p).rank})
    values = [r["rank"] for r in ranks]
    return {"n": n, "mode": mode, "dimension": max(values),
            "agree": len(set(values)) == 1, "points": ranks}


if __name__ == "__main__":
    import doctest
    doctest.testmod()
