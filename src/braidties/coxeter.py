r"""Type-A Weyl group combinatorics.

Permutations of $\{1,\dots,m\}$ are stored in one-line notation as tuples
`w = (w(1), ..., w(m))`, with composition `(w*u)(i) = w(u(i))`.  The simple
reflection $s_i$ swaps $i$ and $i+1$; right multiplication by $s_i$ swaps
the entries in positions $i, i+1$, so $i$ is a right descent of $w$ exactly
when $w(i) > w(i+1)$.  Left multiplication by $s_i$ swaps the values $i$
and $i+1$.  `left_action(m, i)` tabulates it once per rank and generator,
with whether the length drops; the algebra modules and the command line
read every left descent from that table.

Set partitions of $\{1,\dots,m\}$ (canonical form: blocks sorted, ordered by
their minima) index both the tie idempotents $e_R$ and the reflection
subgroups of $S_m$.  `partition_join` is cached, since the tie
products join the same few pairs of partitions over and over.

Subsets $I \subseteq \{1,\dots,n\}$ of simple reflections decompose into
maximal runs of consecutive entries ("contiguous blocks"); the run lengths,
sorted decreasingly, form the partition $\lambda^I$.  Three counting
functions attach to $I$:

- $N_I$: the order of the normalizer of the Young subgroup $W_I$ in
  $S_{n+1}$, by Howlett's closed formula
  $N_I = \big(n+1-\sum_i (i+1)n_i\big)!\,\prod_i n_i!\,((i+1)!)^{n_i}$
  where $n_i$ counts runs of length $i$;
- $R_I = (n+1)!/N_I$, the number of reflection subgroups conjugate to
  $W_I$, equivalently the number of set partitions of $\{1,\dots,n+1\}$
  whose non-singleton block sizes are $\{\lambda^I_i + 1\}$;
- $D_I$: the number of $w \in S_{n+1}$ having a right descent in every
  contiguous block of $I$, by inclusion-exclusion
  $D_I = \sum_{T} (-1)^{|T|} (n+1)!/\prod_{i \in T}(\lambda_i+1)!$
  over subsets $T$ of block positions, which factorizes as
  $(n+1)!\prod_i \big(1 - 1/(\lambda_i+1)!\big)$.  The product form is the
  value; for $k \leq 12$ and $n \leq 25$ the $2^k$ inclusion-exclusion
  terms are summed as exact integers and asserted to agree (each
  $\prod_{i \in T}(\lambda_i+1)!$ divides $(n+1)!$, since
  $\sum_i (\lambda_i+1) \leq n+1$).

The dimension of the braid-generated subalgebra is
$\sum_{\lambda \in P(n)} R_\lambda D_\lambda$, summed over the *distinct*
partitions $\lambda$ realizable by such subsets (each conjugacy class of
reflection subgroups counted once); $P(n)$ is the set of partitions
$\lambda = (\lambda_1 \geq \dots \geq \lambda_k)$ with
$\sum \lambda_i + k - 1 \leq n$.  `dimension_rows` is one depth-first
walk over $P(n)$ that carries each class's counts from its parent
prefix, one exact multiply or divide per count.  `dim_C` sums over that
walk or, in subset mode, finds the partitions by a walk over the
prefixes $I \cap \{1,\dots,j\}$ of all $2^n$ subsets that keeps only
their distinct run-length states, and computes each class's counts on
its own.  `dim_recurrence` computes the same number by the exponential
formula over set partitions and shares no code with `dim_C`; the command
line checks its row sums against it.

>>> perm_length((3, 2, 1)), right_descents((3, 2, 1))
(3, frozenset({1, 2}))
>>> dim_C(3, "subset-enumeration")
217
>>> d_subset(4, frozenset({1, 2, 4}))
50
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, factorial
from typing import NamedTuple

Perm = tuple[int, ...]
SetPartition = tuple[tuple[int, ...], ...]
Word = tuple[int, ...]


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

def identity_perm(m: int) -> Perm:
    return tuple(range(1, m + 1))

def all_perms(m: int) -> list[Perm]:
    """All of S_m in lexicographic one-line order."""
    return [tuple(p) for p in itertools.permutations(range(1, m + 1))]

def perm_mul(a: Perm, b: Perm) -> Perm:
    """(a*b)(i) = a(b(i))."""
    return tuple(a[x - 1] for x in b)

def perm_inv(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x - 1] = i + 1
    return tuple(out)

def perm_length(w: Perm) -> int:
    """Inversion count."""
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])

def right_descents(w: Perm) -> frozenset[int]:
    return frozenset(i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1])

def simple_perm(i: int, m: int) -> Perm:
    """The adjacent transposition s_i = (i, i+1) in S_m."""
    if not 1 <= i < m:
        raise ValueError(f"s_{i} not defined in S_{m}")
    w = list(range(1, m + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)

@lru_cache(maxsize=None)
def left_action(m: int, i: int) -> dict[Perm, tuple[Perm, bool]]:
    """For every w in S_m: (s_i w, l(s_i w) < l(w)).

    >>> left_action(3, 1)[(2, 3, 1)]
    ((1, 3, 2), True)
    """
    s = simple_perm(i, m)
    out = {}
    for w in all_perms(m):
        sw = perm_mul(s, w)
        out[w] = (sw, perm_length(sw) < perm_length(w))
    return out

def transposition_perm(i: int, j: int, m: int) -> Perm:
    w = list(range(1, m + 1))
    w[i - 1], w[j - 1] = w[j - 1], w[i - 1]
    return tuple(w)

def all_reflections(m: int) -> list[tuple[int, int]]:
    """Transpositions (i, j), i < j, of S_m."""
    return [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]

def reduced_word(w: Perm) -> Word:
    """A reduced word for w (smallest right descent first peeled).

    >>> reduced_word((3, 2, 1))
    (1, 2, 1)
    >>> reduced_word(identity_perm(4))
    ()
    """
    word: list[int] = []
    w = list(w)
    while True:
        for i in range(len(w) - 1):
            if w[i] > w[i + 1]:
                w[i], w[i + 1] = w[i + 1], w[i]
                word.append(i + 1)
                break
        else:
            break
    return tuple(reversed(word))



# ---------------------------------------------------------------------------
# Bruhat order
# ---------------------------------------------------------------------------

def bruhat_leq(x: Perm, w: Perm) -> bool:
    """x <= w in Bruhat order, by the rank-matrix criterion:
    for all i, j: #{a <= i : x(a) >= j} <= #{a <= i : w(a) >= j}.

    >>> bruhat_leq((1, 3, 2), (3, 2, 1))
    True
    >>> bruhat_leq((3, 2, 1), (1, 3, 2))
    False
    """
    m = len(x)
    if len(w) != m:
        raise ValueError("mixing symmetric groups")
    cx = [0] * (m + 2)
    cw = [0] * (m + 2)
    for i in range(m):
        # prefix length i+1; update counts-of-values >= j incrementally
        for j in range(1, x[i] + 1):
            cx[j] += 1
        for j in range(1, w[i] + 1):
            cw[j] += 1
        for j in range(1, m + 1):
            if cx[j] > cw[j]:
                return False
    return True



# ---------------------------------------------------------------------------
# set partitions
# ---------------------------------------------------------------------------

def partition_from_blocks(blocks) -> SetPartition:
    """Canonical form: each block sorted, blocks ordered by minimum."""
    canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
    seen = [x for b in canon for x in b]
    if sorted(seen) != list(range(1, len(seen) + 1)):
        raise ValueError(f"not a partition of 1..{len(seen)}: {blocks}")
    return canon

def discrete_partition(m: int) -> SetPartition:
    return tuple((i,) for i in range(1, m + 1))

def pair_partition(i: int, j: int, m: int) -> SetPartition:
    """Singletons except for the block {i, j}."""
    return partition_from_blocks([(i, j)] + [(x,) for x in range(1, m + 1)
                                             if x != i and x != j])

@lru_cache(maxsize=None)
def partition_join(p: SetPartition, q: SetPartition) -> SetPartition:
    """Finest common coarsening (join in the partition lattice).

    >>> partition_join(((1, 2), (3,)), ((1,), (2, 3)))
    ((1, 2, 3),)
    """
    m = sum(len(b) for b in p)
    parent = list(range(m + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for blocks in (p, q):
        for b in blocks:
            for other in b[1:]:
                ra, rb = find(b[0]), find(other)
                if ra != rb:
                    parent[rb] = ra
    groups: dict[int, list[int]] = {}
    for x in range(1, m + 1):
        groups.setdefault(find(x), []).append(x)
    return partition_from_blocks(groups.values())

def w_action(w: Perm, p: SetPartition) -> SetPartition:
    """Relabel the ground set through w (conjugation on reflection
    subgroups: the transposition (i j) goes to (w(i) w(j)))."""
    return partition_from_blocks([tuple(w[x - 1] for x in b) for b in p])

def support_partition(w: Perm) -> SetPartition:
    """Interval partition whose blocks are the connected components of the
    support of w: points i, i+1 share a block iff the simple reflection
    s_i occurs in a reduced word of w.

    >>> support_partition((2, 1, 3, 4))
    ((1, 2), (3,), (4,))
    >>> support_partition((2, 1, 4, 3))
    ((1, 2), (3, 4))
    >>> support_partition((3, 2, 1, 4))
    ((1, 2, 3), (4,))
    """
    m = len(w)
    letters = set(reduced_word(w))
    blocks, cur = [], [1]
    for i in range(1, m):
        if i in letters:
            cur.append(i + 1)
        else:
            blocks.append(tuple(cur))
            cur = [i + 1]
    blocks.append(tuple(cur))
    return partition_from_blocks(blocks)

@lru_cache(maxsize=None)
def all_set_partitions(m: int) -> tuple[SetPartition, ...]:
    """All set partitions of {1..m}, canonical, sorted; Bell(m) of them.

    >>> len(all_set_partitions(4))
    15
    """
    if m == 0:
        return ((),)
    out = []
    for smaller in all_set_partitions(m - 1):
        out.append(partition_from_blocks(smaller + ((m,),)))
        for k in range(len(smaller)):
            blocks = list(smaller)
            blocks[k] = blocks[k] + (m,)
            out.append(partition_from_blocks(blocks))
    return tuple(sorted(out))

def partition_block_sizes(p: SetPartition) -> tuple[int, ...]:
    """Non-singleton block sizes, decreasing."""
    return tuple(sorted((len(b) for b in p if len(b) > 1), reverse=True))


# ---------------------------------------------------------------------------
# subsets of simple reflections and the counting functions
# ---------------------------------------------------------------------------

def subset_blocks(I) -> list[tuple[int, ...]]:
    """Maximal runs of consecutive members of I, in increasing order.

    >>> subset_blocks({1, 2, 4})
    [(1, 2), (4,)]
    """
    members = sorted(I)
    blocks: list[list[int]] = []
    for x in members:
        if blocks and blocks[-1][-1] == x - 1:
            blocks[-1].append(x)
        else:
            blocks.append([x])
    return [tuple(b) for b in blocks]

def subset_lambda(I) -> tuple[int, ...]:
    """Run lengths of I, weakly decreasing."""
    return tuple(sorted((len(b) for b in subset_blocks(I)), reverse=True))

def lambda_multiplicities(lam: tuple[int, ...]) -> dict[int, int]:
    out: dict[int, int] = {}
    for part in lam:
        out[part] = out.get(part, 0) + 1
    return out

def _subset_lambda_in(n: int, I) -> tuple[int, ...]:
    """lambda^I, after checking that I is a subset of {1..n}."""
    if not set(I) <= set(range(1, n + 1)):
        raise ValueError(f"I = {set(I)} is not a subset of {{1..{n}}}")
    return subset_lambda(I)

def howlett_order(n: int, I) -> int:
    """Order of the normalizer of the Young subgroup W_I in S_{n+1}:
    (n+1 - sum_i (i+1) n_i)! * prod_i n_i! ((i+1)!)^{n_i}.

    >>> howlett_order(3, {1, 3})
    8
    >>> howlett_order(2, frozenset())
    6
    >>> howlett_order(2, {1})
    2
    """
    return _howlett_order_lambda(n, _subset_lambda_in(n, I))

def _howlett_order_lambda(n: int, lam: tuple[int, ...]) -> int:
    fixed = n + 1 - sum(lam) - len(lam)
    if fixed < 0:
        raise ValueError(f"partition {lam} does not fit in S_{n + 1}")
    out = factorial(fixed)
    for i, ni in lambda_multiplicities(lam).items():
        out *= factorial(ni) * factorial(i + 1) ** ni
    return out

def d_subset(n: int, I) -> int:
    """Number of w in S_{n+1} with a right descent in every contiguous
    block of I, by the factorized product form
    $(n+1)! \\prod_b (1 - 1/(|b|+1)!)$; at desk scale the raw
    inclusion-exclusion over block subsets, summed as exact integers,
    is asserted to agree.

    >>> d_subset(4, {1, 2, 4})
    50
    >>> d_subset(3, {1, 3})
    6
    >>> d_subset(5, set()) == factorial(6)
    True
    """
    return _d_value_lambda(n, _subset_lambda_in(n, I))

def _d_value_lambda(n: int, lam: tuple[int, ...]) -> int:
    # the blocks of sizes lam_i + 1 fit side by side in {1..n+1}, so every
    # product of their factorials divides (n+1)! (multinomial coefficient)
    assert sum(lam) + len(lam) <= n + 1, (n, lam)
    total = factorial(n + 1)
    num = total
    den = 1
    for part in lam:
        f = factorial(part + 1)
        num *= f - 1
        den *= f
    assert num % den == 0, (n, lam)
    value = num // den
    if len(lam) <= 12 and n <= 25:
        # cross-check the product form against raw inclusion-exclusion
        # whenever the 2^k sum is affordable (covers every lambda of
        # every n <= 12, and everything reachable in subset mode); the
        # list doubles once per block, each product d over T carries the
        # sign (-1)^|T|, and d divides (n+1)! (above), so every term
        # (n+1)!//d is exact
        signed = [1]
        for part in lam:
            f = factorial(part + 1)
            signed += [-d * f for d in signed]
        acc = sum(total // d for d in signed)
        assert acc == value, (n, lam, acc, value)
    return value



# ---------------------------------------------------------------------------
# the dimension count
# ---------------------------------------------------------------------------

def partitions_P(n: int) -> list[tuple[tuple[int, ...], int]]:
    """All partitions lambda with sum(lambda) + #parts - 1 <= n, paired
    with the number of subsets I of {1..n} realizing lambda^I = lambda:
    count = (k!/prod mult_i!) * C(n - m + 1, k) for k parts summing to m.

    >>> dict(partitions_P(1))
    {(): 1, (1,): 1}
    >>> dict(partitions_P(4))[(1, 1)]
    3
    """
    return [(r.lam, _realizing_count(n, r.lam))
            for r in reversed(dimension_rows(n))]

class DimensionRow(NamedTuple):
    """One conjugacy class of parabolic subgroups: its representative
    subset (leftmost packing, decreasing run lengths), lambda, and the
    three counts (normalizer order N, class size R = (n+1)!/N, descent
    count D)."""
    subset: tuple[int, ...]
    lam: tuple[int, ...]
    normalizer_order: int
    subgroup_count: int
    descent_count: int

def dimension_rows(n: int) -> list[DimensionRow]:
    """The per-class table behind dim_C(n): one row per lambda in P(n),
    reverse-lexicographic (each prefix after its extensions), ending with
    the empty set.

    One depth-first walk over P(n).  Appending a part p to a prefix
    appends the run of p places after a one-place gap to the subset,
    multiplies the product prod_i n_i! ((i+1)!)^{n_i} of Howlett's
    formula by c (p+1)!, where c counts the trailing parts equal to p,
    and multiplies the numerator and denominator of D's product form by
    (p+1)! - 1 and (p+1)!.  A row then costs one multiply for N, one
    divide for R and one divide for D, whose remainder is asserted zero.
    Under the bounds of `_d_value_lambda` (k <= 12, n <= 25) the signed
    inclusion-exclusion list doubles once per part, and its sum is
    asserted to equal D.

    >>> rows = dimension_rows(2)
    >>> [(r.subset, r.normalizer_order, r.subgroup_count, r.descent_count) for r in rows]
    [((1, 2), 6, 1, 5), ((1,), 2, 3, 3), ((), 6, 1, 6)]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    fact = [1]
    for i in range(1, n + 2):
        fact.append(fact[-1] * i)
    total = fact[n + 1]
    rows: list[DimensionRow] = []

    def descend(lam, subset, free, run, prod, num, den, signed):
        # free = n + 1 - sum(lam) - len(lam) points lie outside the blocks
        # of sizes lam_i + 1, so the next part is at most free - 1 and its
        # run starts at n + 2 - free; the last part of lam repeats run times
        last = lam[-1] if lam else n
        start = n + 2 - free
        for part in range(min(last, free - 1), 0, -1):
            f = fact[part + 1]
            c = run + 1 if part == last else 1
            descend(lam + (part,), subset + tuple(range(start, start + part)),
                    free - part - 1, c, prod * c * f, num * (f - 1), den * f,
                    signed + [-d * f for d in signed]
                    if signed is not None and len(lam) < 12 else None)
        order = fact[free] * prod
        value, rest = divmod(num, den)
        assert rest == 0, (n, lam)
        # each d divides (n+1)! (see _d_value_lambda), so every term is exact
        assert signed is None or sum(total // d for d in signed) == value, \
            (n, lam)
        rows.append(DimensionRow(subset, lam, order, total // order, value))

    descend((), (), n + 1, 0, 1, total, 1, [1] if n <= 25 else None)
    return rows

def _realizing_count(n: int, lam: tuple[int, ...]) -> int:
    k = len(lam)
    if k == 0:
        return 1
    m = sum(lam)
    mult = lambda_multiplicities(lam)
    ways = factorial(k)
    for ni in mult.values():
        ways //= factorial(ni)
    return ways * comb(n - m + 1, k)

def dim_C(n: int, mode: str = "partition-aggregation") -> int:
    """Dimension of the braid-generated subalgebra:
    sum of R_lambda * D_lambda over the distinct partitions in P(n).

    Both modes return the same number.  partition-aggregation sums over
    the walk of `dimension_rows` (n <= 50); subset-enumeration collects
    the distinct lambda^I over all 2^n subsets I by a walk over the
    prefixes of I (n <= 20) and computes each class's counts on its own.

    >>> [dim_C(n) for n in range(6)]
    [1, 3, 20, 217, 3364, 71098]
    >>> dim_C(2, "subset-enumeration")
    20
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if mode == "partition-aggregation":
        if n > 50:
            raise ValueError("partition-aggregation bounded at n <= 50")
        return sum(r.subgroup_count * r.descent_count
                   for r in dimension_rows(n))
    if mode != "subset-enumeration":
        raise ValueError(f"unknown mode {mode!r}")
    if n > 20:
        raise ValueError("subset-enumeration bounded at n <= 20")
    total = factorial(n + 1)
    return sum(total // _howlett_order_lambda(n, lam) * _d_value_lambda(n, lam)
               for lam in _distinct_lambdas_by_prefix(n))


def dim_recurrence(n: int) -> int:
    r"""The same dimension by the exponential formula, in exact integers
    and independently of `dim_C`'s partitions and helpers.

    Summed over all set partitions of $\{1..n+1\}$, $D$ factorizes over
    the blocks, $D = (n+1)!\prod_B f(|B|)$ with $f(1) = 1$ and
    $f(k) = 1 - 1/k!$. Splitting off the block of 1 gives
    $\dim(n) = (n+1)!\,a_{n+1}$ with $a_0 = 1$ and
    $a_m = \sum_{k=1}^{m} \binom{m-1}{k-1} f(k)\, a_{m-k}$. This runs on
    the integers $b_m = m!\,a_m$:
    $b_m = m\,b_{m-1} + \sum_{k=2}^{m} \binom{m-1}{k-1}\binom{m}{k}
    (k!-1)\, b_{m-k}$, and $\dim(n) = b_{n+1}$.

    >>> [dim_recurrence(n) for n in range(7)]
    [1, 3, 20, 217, 3364, 71098, 1960867]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    b = [1]
    for m in range(1, n + 2):
        b.append(m * b[m - 1]
                 + sum(comb(m - 1, k - 1) * comb(m, k) * (factorial(k) - 1)
                       * b[m - k] for k in range(2, m + 1)))
    return b[n + 1]


def _distinct_lambdas_by_prefix(n: int) -> list[tuple[int, ...]]:
    """{lambda^I : I a subset of {1..n}}, sorted, built from run lengths.

    Member j of {1..n+1} either joins I, extending the open run, or not,
    closing it (n + 1 never joins).  After each member the states (the
    finished run lengths, decreasing, and the open run's length) of all
    subsets of the prefix are deduplicated: the rest of the walk depends
    on nothing else.
    """
    states = {((), 0)}
    for j in range(1, n + 2):
        step = set()
        for runs, open_run in states:
            if j <= n:
                step.add((runs, open_run + 1))
            if open_run:
                runs = tuple(sorted((*runs, open_run), reverse=True))
            step.add((runs, 0))
        states = step
    return sorted(runs for runs, _ in states)

if __name__ == "__main__":
    import doctest
    doctest.testmod()
