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
$\mathbb{Q}(v)$, and the closure walk here once per candidate.

$\mathcal{C}(v)$ is generated by the $g_s$ alone, so its dimension is the
rank of the closure of $\mathrm{span}\{1\}$ under left multiplication by
the generators.  One breadth-first walk, `_closure_echelon`, runs it on
`linalg.Echelon` with $v^2-1$ either in $\mathbb{Q}(v)$ (mode ``exact``,
$n \le 3$; `scalars` is imported only there) or in $\mathbb{F}_p$ as a
Python int at seeded rational specializations of $v$ (mode
``specialized``, $n \le 4$, a lower-bound certificate reported per point,
on `Echelon` with the prime modulus p).  Each candidate that gains a
pivot is carried on as its reduced row.  This module imports only
`coxeter` and `linalg`.

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


def _closure_echelon(m: int, c2, one, modulus: int | None = None) -> Echelon:
    """Echelon basis of the closure of span{1} under the g_s, over the
    field of `one` (F_p on ints when a prime modulus is given) with c2
    standing for v^2 - 1: a breadth-first walk on rows keyed by basis
    index, each candidate g_s x formed by `g_action`.  The unit
    e_{discrete} g_{identity} is index 0.  A candidate may hold zero
    entries, or ints past the modulus; `Echelon.insert` drops and reduces
    them.

    The frontier carries, for each candidate that gains a pivot, a copy
    of the row stored for it then, pivot entry 1 included (later inserts
    change stored rows in place).  That row is the candidate divided by
    its pivot value, minus an element of the span before it, so the
    carried rows span what the candidates span at every step, the walk
    ends at the same g-stable subspace, and the reduced rows are the ones
    the raw candidates give; the carried rows are just shorter."""
    unit = {0: one}
    ech = Echelon(modulus)
    ech.insert(unit)
    frontier = [unit]
    while frontier:
        new = []
        for x in frontier:
            for i in range(1, m):
                pivot = ech.insert(g_action(m, i, x, c2))
                if pivot is not None:
                    row = dict(ech.rows[pivot])
                    row[pivot] = one
                    new.append(row)
        frontier = new
    return ech


@lru_cache(maxsize=None)
def _closure(n: int) -> Echelon:
    """Exact echelon basis of C(v), eliminating over Q(v)."""
    if n > 3:
        raise ValueError("exact closure bounded at n <= 3")
    from .scalars import RationalFunctionScalar as RF

    return _closure_echelon(n + 1, RF.V * RF.V - 1, RF.ONE)


def _closure_rank_modp(m: int, v0: Fraction, p: int) -> int:
    """Rank of the closure of span{1} under the g_s over F_p, with v
    specialized to v0, so that v^2 - 1 is c2 = v0^2 - 1 mod p."""
    v = v0.numerator * pow(v0.denominator, -1, p) % p
    return _closure_echelon(m, (v * v - 1) % p, 1, p).rank


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
    """dim C(v), by exact elimination (n <= 3) or as the maximal rank over
    3 rational specializations of v (n <= 4), with per-point detail in
    specialized mode.

    >>> c_dimension_report(1)["dimension"]
    3
    """
    if mode == "exact":
        rank = _closure(n).rank
        return {"n": n, "mode": mode, "dimension": rank, "agree": True}
    if mode != "specialized":
        raise ValueError(f"unknown mode: {mode!r}")
    if n > 4:
        raise ValueError("specialized closure bounded at n <= 4")
    ranks = []
    for v0, p in _specialization_points(seed, 3):
        ranks.append({"v": str(v0), "prime": p,
                      "rank": _closure_rank_modp(n + 1, v0, p)})
    values = [r["rank"] for r in ranks]
    return {"n": n, "mode": mode, "dimension": max(values),
            "agree": len(set(values)) == 1, "points": ranks}


if __name__ == "__main__":
    import doctest
    doctest.testmod()
