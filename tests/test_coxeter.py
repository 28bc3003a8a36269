"""Weyl-group combinatorics and the counting functions."""

import itertools
import random
from math import factorial

import pytest

from braidties.coxeter import (
    Perm,
    _distinct_lambdas_by_prefix,
    all_perms,
    all_reflections,
    all_set_partitions,
    bruhat_leq,
    d_subset,
    dim_C,
    dim_recurrence,
    dimension_rows,
    discrete_partition,
    howlett_order,
    identity_perm,
    left_action,
    pair_partition,
    partition_block_sizes,
    partition_from_blocks,
    partition_join,
    partitions_P,
    perm_inv,
    perm_length,
    perm_mul,
    reduced_word,
    right_descents,
    simple_perm,
    subset_blocks,
    subset_lambda,
    w_action,
)


def all_subsets(n):
    for mask in range(1 << n):
        yield frozenset(i + 1 for i in range(n) if mask >> i & 1)


# brute-force oracles for the closed forms and the rank-matrix criterion

def bruhat_leq_bruteforce(x: Perm, w: Perm) -> bool:
    """Subword-property oracle: x <= w iff x is a product of some
    subsequence of one fixed reduced word of w. Exponential; tests only."""
    m = len(x)
    word = reduced_word(w)
    seen = set()
    for mask in range(1 << len(word)):
        u = identity_perm(m)
        for pos, i in enumerate(word):
            if mask >> pos & 1:
                u = perm_mul(u, simple_perm(i, m))
        seen.add(u)
    return x in seen


def d_subset_bruteforce(n: int, I) -> int:
    """Direct enumeration of S_{n+1}; n <= 9."""
    if n > 9:
        raise ValueError("enumeration bound n <= 9 exceeded")
    blocks = subset_blocks(I)
    count = 0
    for w in itertools.permutations(range(1, n + 2)):
        if all(any(w[s - 1] > w[s] for s in b) for b in blocks):
            count += 1
    return count


def normalizer_bruteforce(n: int, I) -> int:
    """|{w : w W_I w^{-1} = W_I}| by enumeration; n <= 6.

    Conjugating the generators into W_I suffices: conjugation by a fixed w
    is an automorphism, so w W_I w^{-1} is a subgroup of W_I of the same
    order, hence equal.  Membership in the Young subgroup W_I is the
    interval test: w moves points only within the intervals spanned by the
    contiguous blocks of I.
    """
    if n > 6:
        raise ValueError("enumeration bound n <= 6 exceeded")
    m = n + 1
    intervals = [set(b) | {b[-1] + 1} for b in subset_blocks(I)]
    covered = set().union(*intervals) if intervals else set()

    def in_young(u: Perm) -> bool:
        for x in range(1, m + 1):
            ux = u[x - 1]
            if x in covered:
                if not any(x in iv and ux in iv for iv in intervals):
                    return False
            elif ux != x:
                return False
        return True

    gens = [simple_perm(i, m) for i in sorted(I)]
    count = 0
    for w in itertools.permutations(range(1, m + 1)):
        wi = perm_inv(w)
        if all(in_young(perm_mul(perm_mul(w, g), wi)) for g in gens):
            count += 1
    return count


def test_length_descents_examples():
    for w, length, descents in [(identity_perm(3), 0, frozenset()),
                                ((3, 2, 1), 3, frozenset({1, 2})),
                                ((2, 1, 4, 3), 2, frozenset({1, 3}))]:
        assert perm_length(w) == length and right_descents(w) == descents


def test_perm_group_structure():
    for w in all_perms(4):
        wi = perm_inv(w)
        assert perm_mul(w, wi) == identity_perm(4)
        assert perm_length(w) == perm_length(wi)
        word = reduced_word(w)
        assert len(word) == perm_length(w)
        u = identity_perm(4)
        for i in word:
            u = perm_mul(u, simple_perm(i, 4))
        assert u == w
    # right multiplication by s_i swaps entries i, i+1
    w = (2, 3, 1, 4)
    assert perm_mul(w, simple_perm(1, 4)) == (3, 2, 1, 4)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_left_action_table(m):
    for i in range(1, m):
        table = left_action(m, i)
        assert list(table) == all_perms(m)
        for w in all_perms(m):
            sw = perm_mul(simple_perm(i, m), w)
            assert table[w] == (sw, perm_length(sw) < perm_length(w))


def test_bruhat_matches_subword_oracle():
    for m in (3, 4):
        perms = all_perms(m)
        for x in perms:
            for w in perms:
                assert bruhat_leq(x, w) == bruhat_leq_bruteforce(x, w), (x, w)


def test_bruhat_basics():
    e = identity_perm(4)
    for w in all_perms(4):
        assert bruhat_leq(e, w)
        assert bruhat_leq(w, w)
    assert not bruhat_leq((3, 2, 1), (1, 3, 2))


def test_set_partition_canonical_form():
    p = partition_from_blocks([(3, 1), (2,)])
    assert p == ((1, 3), (2,))
    with pytest.raises(ValueError):
        partition_from_blocks([(1, 2), (2, 3)])


def test_partition_join():
    assert partition_join(discrete_partition(3), ((1, 2), (3,))) == ((1, 2), (3,))
    assert partition_join(((1, 2), (3,)), ((1,), (2, 3))) == ((1, 2, 3),)
    # join is commutative, associative, idempotent (sampled)
    rng = random.Random(2)
    parts = list(all_set_partitions(5))
    for _ in range(100):
        p, q, r = rng.choice(parts), rng.choice(parts), rng.choice(parts)
        assert partition_join(p, q) == partition_join(q, p)
        assert partition_join(p, p) == p
        assert partition_join(partition_join(p, q), r) == partition_join(p, partition_join(q, r))


def test_w_action_is_conjugation_on_transpositions():
    m = 4
    for w in all_perms(m):
        for i, j in all_reflections(m):
            moved = w_action(w, pair_partition(i, j, m))
            assert moved == pair_partition(w[i - 1], w[j - 1], m)
    assert w_action(simple_perm(1, 3), ((1, 2), (3,))) == ((1, 2), (3,))


def test_bell_numbers():
    assert ([len(all_set_partitions(m)) for m in range(1, 8)]
            == [1, 2, 5, 15, 52, 203, 877])


def test_subset_blocks_and_lambda():
    assert subset_blocks({1, 2, 4}) == [(1, 2), (4,)]
    assert subset_lambda({1, 2, 4}) == (2, 1)
    assert subset_lambda(set()) == ()
    assert subset_lambda({2, 3, 4, 6}) == (3, 1)


def test_howlett_against_bruteforce():
    for n in range(1, 6):
        for I in all_subsets(n):
            assert howlett_order(n, I) == normalizer_bruteforce(n, I), (n, I)


def test_howlett_examples():
    assert howlett_order(3, {1, 3}) == 8
    assert howlett_order(2, set()) == 6
    # formula value for the printed-table outlier; brute force agrees
    assert howlett_order(2, {1}) == 2
    assert normalizer_bruteforce(2, {1}) == 2


def test_d_subset_against_bruteforce():
    for n in range(1, 7):
        for I in all_subsets(n):
            assert d_subset(n, I) == d_subset_bruteforce(n, I), (n, I)


@pytest.mark.slow
def test_d_subset_against_bruteforce_n7():
    for I in all_subsets(7):
        assert d_subset(7, I) == d_subset_bruteforce(7, I), I


def test_d_subset_examples():
    assert d_subset(4, {1, 2, 4}) == 50
    assert d_subset(3, {1, 3}) == 6
    assert d_subset(2, {1}) == 3
    assert d_subset(2, {1, 2}) == 5
    assert d_subset(4, {1, 2, 3, 4}) == 119
    for n in range(6):
        assert d_subset(n, set()) == factorial(n + 1)


def test_r_subset_counts_set_partitions():
    # R_I = number of set partitions of {1..n+1} whose non-singleton
    # block sizes are the lambda parts + 1
    for n in range(1, 7):
        partitions = all_set_partitions(n + 1)
        for I in all_subsets(n):
            lam = subset_lambda(I)
            target = tuple(sorted((part + 1 for part in lam), reverse=True))
            count = sum(1 for p in partitions if partition_block_sizes(p) == target)
            assert factorial(n + 1) // howlett_order(n, I) == count, (n, I)


def test_partitions_P():
    assert dict(partitions_P(1)) == {(): 1, (1,): 1}
    table = dict(partitions_P(4))
    assert table[(1, 1)] == 3
    assert (2, 2, 1) in dict(partitions_P(7))
    # realizing-subset counts add up to 2^n
    for n in range(13):
        assert sum(c for _, c in partitions_P(n)) == 2 ** n, n


def test_partitions_P_matches_enumeration():
    for n in range(1, 11):
        by_lambda = {}
        for I in all_subsets(n):
            lam = subset_lambda(I)
            by_lambda[lam] = by_lambda.get(lam, 0) + 1
        assert by_lambda == dict(partitions_P(n)), n


def test_prefix_walk_matches_subset_enumeration():
    # oracle: lambda^I for every one of the 2^n subsets, literally
    for n in range(15):
        literal = sorted({subset_lambda(I) for I in all_subsets(n)})
        assert _distinct_lambdas_by_prefix(n) == literal, n


def test_dim_modes_agree():
    # every n the subset mode accepts
    for n in range(21):
        assert dim_C(n, "subset-enumeration") == dim_C(n, "partition-aggregation"), n


def test_dim_rejects_negative_n():
    for mode in ("subset-enumeration", "partition-aggregation"):
        with pytest.raises(ValueError):
            dim_C(-1, mode)


def test_subset_functions_reject_subsets_outside_range():
    for f in (howlett_order, d_subset):
        for I in ({5}, {7}, {0}, {1, 3}):
            with pytest.raises(ValueError):
                f(2, I)
    assert d_subset(2, {2}) == 3 and howlett_order(2, {1, 2}) == 6


def test_dim_known_values():
    assert dim_C(0) == 1
    assert dim_C(2) == 20
    assert dim_C(4) == 3364
    assert dim_C(12) == 47875219836485209


# the published dimension sequence, n = 0..12
PUBLISHED_DIMENSIONS = (1, 3, 20, 217, 3364, 71098, 1960867, 67886033,
                        2871659468, 145498348666, 8683447971439,
                        601843453126056, 47875219836485209)


def test_dim_recurrence_published_values():
    assert tuple(dim_recurrence(n) for n in range(13)) == PUBLISHED_DIMENSIONS
    with pytest.raises(ValueError):
        dim_recurrence(-1)


@pytest.mark.parametrize("ns", [range(41), pytest.param(
    range(41, 51), marks=pytest.mark.slow)], ids=["n0-40", "n41-50"])
def test_dim_recurrence_matches_dim_C(ns):
    # together, every n the aggregation mode accepts
    for n in ns:
        assert dim_recurrence(n) == dim_C(n), n

def canonical_subset(lam):
    """Oracle: the leftmost subset realizing lambda, runs in decreasing
    size order separated by single gaps."""
    out = []
    pos = 1
    for part in lam:
        out.extend(range(pos, pos + part))
        pos += part + 1
    return tuple(out)


def test_canonical_subset():
    assert canonical_subset((2, 1)) == (1, 2, 4)
    assert [r.subset for r in dimension_rows(3)] == [
        (1, 2, 3), (1, 2), (1, 3), (1,), ()]
    for n in range(1, 10):
        for r in dimension_rows(n):
            assert r.subset == canonical_subset(r.lam), (n, r.lam)
            assert subset_lambda(r.subset) == r.lam


def test_dimension_rows_structure():
    for n in (2, 3, 4):
        rows = dimension_rows(n)
        assert sum(r.subgroup_count * r.descent_count for r in rows) == dim_C(n)
        for r in rows:
            assert r.normalizer_order * r.subgroup_count == factorial(n + 1)
            assert r.descent_count <= factorial(n + 1)
            assert subset_lambda(r.subset) == r.lam
