r"""The dimension of the braid-image subalgebra $\mathcal{C}(v)$, on basis
indices.

The algebra of braids and ties $\mathcal{E}(v)$ (`btalg`) has the basis
$e_P\, g_w$, indexed by pairs $(P, w)$ of a set partition $P$ of
$\{1, \dots, n+1\}$ and $w \in S_{n+1}$; `basis_pairs` lists them in the
order that fixes every elimination pivot.  A generator $g_s$ sends
$e_P g_w$ to $e_{s(P)} g_{sw}$ when $l(sw) > l(w)$, and else adds
$(v^2-1)\, e_{s(P) \vee \{i, i+1\}} (g_{sw} + g_w)$.  That rule is one
cached table per rank and generator, `_action`: for each basis pair the
moved pair $(s(P), sw)$, whether $l(sw) < l(w)$, and the two joined
pairs.  `btalg.lmul_g` reads it on pairs, and the rank walk here reads
it on indices.

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
    Perm,
    SetPartition,
    all_perms,
    all_set_partitions,
    discrete_partition,
    identity_perm,
    left_action,
    pair_partition,
    partition_join,
    simple_perm,
    w_action,
)
from .linalg import Echelon

BasisPair = tuple[SetPartition, Perm]


@lru_cache(maxsize=None)
def basis_pairs(m: int) -> tuple[BasisPair, ...]:
    """All (P, w) pairs, sorted; the sort order fixes elimination pivots."""
    return tuple(sorted((P, w) for P in all_set_partitions(m)
                        for w in all_perms(m)))


@lru_cache(maxsize=None)
def _pair_index(m: int) -> dict[BasisPair, int]:
    return {k: j for j, k in enumerate(basis_pairs(m))}


@lru_cache(maxsize=None)
def _action(m: int, i: int) -> dict[BasisPair, tuple]:
    """How g_{s_i} acts on each basis pair (P, w), in `basis_pairs` order:
    (moved, down, joined_sw, joined_w) with moved = (s(P), s w), down
    whether l(s w) < l(w), and joined_* the pairs (s(P) v {i, i+1}, s w)
    and (s(P) v {i, i+1}, w) that the quadratic relation adds."""
    s = simple_perm(i, m)
    pair = pair_partition(i, i + 1, m)
    # s(P) and the join depend on P alone, s w and the descent on w alone
    sP = {P: w_action(s, P) for P in all_set_partitions(m)}
    joined = {P: partition_join(Q, pair) for P, Q in sP.items()}
    left = left_action(m, i)
    out = {}
    for P, w in basis_pairs(m):
        sw, down = left[w]
        out[(P, w)] = ((sP[P], sw), down, (joined[P], sw), (joined[P], w))
    return out


@lru_cache(maxsize=None)
def _index_tables(m: int) -> tuple[list[list[tuple]], int]:
    """The `_action` tables of g_1, ..., g_{m-1} on basis indices, and the
    index of the unit e_{discrete} g_{identity}; built once per rank."""
    idx = _pair_index(m)
    tables = [[(idx[moved], down, idx[joined_sw], idx[joined_w])
               for moved, down, joined_sw, joined_w in _action(m, i).values()]
              for i in range(1, m)]
    return tables, idx[(discrete_partition(m), identity_perm(m))]


def _closure_echelon(m: int, c2, one, modulus: int | None = None) -> Echelon:
    """Echelon basis of the closure of span{1} under the g_s, over the
    field of `one` (F_p on ints when a prime modulus is given) with c2
    standing for v^2 - 1: a breadth-first walk on rows indexed as in
    `basis_pairs`, each g_s x read off `_action`.  A candidate may hold
    zero entries, or ints past the modulus; `Echelon.insert` drops and
    reduces them.

    The frontier carries, for each candidate that gains a pivot, a copy
    of the row stored for it then, pivot entry 1 included (later inserts
    change stored rows in place).  That row is the candidate divided by
    its pivot value, minus an element of the span before it, so the
    carried rows span what the candidates span at every step, the walk
    ends at the same g-stable subspace, and the reduced rows are the ones
    the raw candidates give; the carried rows are just shorter."""
    tables, unit_index = _index_tables(m)
    unit = {unit_index: one}
    ech = Echelon(modulus)
    ech.insert(unit)
    frontier = [unit]
    while frontier:
        new = []
        for x in frontier:
            for table in tables:
                y: dict = {}
                get = y.get
                for b, c in x.items():
                    moved, down, joined_sw, joined_w = table[b]
                    t = get(moved)
                    y[moved] = c if t is None else t + c
                    if down:
                        cc = c * c2
                        t = get(joined_sw)
                        y[joined_sw] = cc if t is None else t + cc
                        t = get(joined_w)
                        y[joined_w] = cc if t is None else t + cc
                pivot = ech.insert(y)
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
    """Dimension of C(v) with per-point detail in specialized mode."""
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


def c_dimension(n: int, mode: str = "exact") -> int:
    """dim C(v), by exact elimination (n <= 3) or as the maximal rank over
    3 rational specializations of v (n <= 4).

    >>> c_dimension(1)
    3
    """
    return c_dimension_report(n, mode)["dimension"]


if __name__ == "__main__":
    import doctest
    doctest.testmod()
