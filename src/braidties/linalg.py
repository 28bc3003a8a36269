r"""Exact linear algebra shared by the algebra modules.

- `SparseVector`: a dict from basis key to never-zero scalar (`+`, `-`,
  `*`, truthiness as the zero test), the one arithmetic core under
  `btalg.BTElement`, `hecke.HeckeElement`, `monodromic.MonodromicElement`
  and `finite_model.SparseOperator`.
- `Echelon`: sparse reduced row echelon over any exact field, pivoting on
  the minimal column, so that every rank is bit-reproducible.  Inserts
  may carry tags, mirrored by every row operation; `solve` uses them.
  An index from each column to the stored rows that hold it lets a new
  pivot be cleared from those rows only.  Given a prime modulus p it
  runs over F_p on plain Python ints kept in [0, p): the mod-p rank
  certificate of `closure`.

>>> from fractions import Fraction
>>> e = Echelon()
>>> e.insert({0: Fraction(2), 1: Fraction(4)})
0
>>> e.insert({1: Fraction(1)})
1
>>> e.insert({0: Fraction(1), 1: Fraction(7)}) is None
True
>>> e.rank
2
>>> f = Echelon(7)
>>> f.insert({0: 3, 1: 5}), f.rows
(0, {0: {1: 4}})
>>> f.insert({0: -5, 1: 8}) is None
True
"""

from __future__ import annotations

from math import isqrt


def _acc(dst: dict, key, c) -> None:
    """dst[key] += c, keeping no zero: the key goes when the sum vanishes."""
    y = dst.get(key)
    if y is not None:
        c = y + c
    if c:
        dst[key] = c
    elif y is not None:
        del dst[key]


def _addmul(dst: dict, src: dict, a, holders=None, owner=None,
            p=None) -> None:
    """dst += a * src for a nonzero a and a zero-free src, keeping no zero,
    in one pass; with a modulus p, over F_p, each entry written reduced
    into [0, p).  With holders (key -> set of owners), owner joins
    holders[key] when key enters dst and leaves it when key cancels."""
    for k, c in src.items():
        y = dst.get(k)
        if y is None:
            y = c * a
            if p is not None:
                y %= p
            dst[k] = y
            if holders is not None:
                holders[k].add(owner)
        else:
            y = y + c * a
            if p is not None:
                y %= p
            if y:
                dst[k] = y
            else:
                del dst[k]
                if holders is not None:
                    holders[k].discard(owner)


def _axpy(dst: dict, src: dict, a=None) -> dict:
    """dst += a * src (dst += src when a is None), a nonzero and src
    zero-free; returns dst."""
    if a is None:
        for k, c in src.items():
            _acc(dst, k, c)
    else:
        _addmul(dst, src, a)
    return dst


class SparseVector:
    """Sparse combination key -> nonzero scalar in a fixed ambient space.

    A subclass names the attribute that fixes its space (`_ambient`, such
    as the rank ``m``) and the zero of its scalars (`ZERO`).

    >>> from fractions import Fraction
    >>> class Vec(SparseVector):
    ...     __slots__ = ("dim",)
    ...     _ambient = "dim"
    ...     ZERO = Fraction(0)
    >>> x = Vec(2, {0: Fraction(1), 1: Fraction(0)})
    >>> x.terms
    {0: Fraction(1, 1)}
    >>> (x - x).terms, not x + (-x), x.scale(0) == Vec.zero(2)
    ({}, True, True)
    >>> x.coeff(1)
    Fraction(0, 1)
    """

    __slots__ = ("terms",)
    _ambient = ""
    ZERO = None

    def __init__(self, ambient, terms: dict):
        setattr(self, self._ambient, ambient)
        self.terms = {k: c for k, c in terms.items() if c}

    def _like(self, terms: dict):
        """An element of the same space holding terms, already zero-free."""
        out = object.__new__(type(self))
        setattr(out, self._ambient, getattr(self, self._ambient))
        out.terms = terms
        return out

    @classmethod
    def zero(cls, ambient):
        return cls(ambient, {})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        space = self._ambient
        return (type(other) is type(self)
                and getattr(self, space) == getattr(other, space)
                and self.terms == other.terms)

    def __add__(self, other):
        return self._like(_axpy(dict(self.terms), other.terms))

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            _acc(out, k, -c)
        return self._like(out)

    def scale(self, a):
        if not a:
            return self._like({})
        return self._like({k: c * a for k, c in self.terms.items()})

    def coeff(self, key):
        return self.terms.get(key, self.ZERO)


class Echelon:
    """Reduced row echelon accumulator; rows indexed by pivot column and
    stored without their pivot entry 1.  If each insert is tagged with how
    it was produced (any dict of scalars), `combination(vec)` reports vec
    as the same kind of combination, or None when vec is outside the span.
    `holders[c]` is the set of pivots whose stored row holds column c,
    kept up to date as entries appear and cancel (a set may be left
    empty), so back-substitution visits only the rows holding the new
    pivot.

    With no modulus the scalars are those of any exact field, used through
    their own operators.  With a prime modulus p they are Python ints: an
    insert reads its entries mod p, and every stored entry of a row or a
    tag lies in [0, p).

    >>> from fractions import Fraction
    >>> t = Echelon()
    >>> t.insert({0: Fraction(1)}, {'a': Fraction(1)})
    0
    >>> t.insert({0: Fraction(1), 1: Fraction(1)}, {'b': Fraction(1)})
    1
    >>> t.combination({1: Fraction(2)}) == {'a': Fraction(-2), 'b': Fraction(2)}
    True
    >>> t.combination({2: Fraction(1)}) is None
    True
    """

    def __init__(self, modulus: int | None = None):
        if modulus is not None and (modulus < 2 or any(
                modulus % d == 0 for d in range(2, isqrt(modulus) + 1))):
            raise ValueError(f"{modulus} is not prime")
        self.p = modulus
        self.rows: dict[int, dict] = {}
        self.tags: dict[int, dict] = {}
        self.holders: dict[int, set[int]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: dict, tag: dict | None) -> tuple[dict, dict | None]:
        """Residual of vec (zero entries ignored), and tag changed in place,
        after eliminating every pivot: stored rows vanish at the other
        pivots, so one pass will do."""
        p = self.p
        if p is None:
            out = {c: x for c, x in vec.items() if x}
        else:
            out = {c: y for c, x in vec.items() if (y := x % p)}
        for c in [c for c in out if c in self.rows]:
            a = -out.pop(c)
            _addmul(out, self.rows[c], a, p=p)
            if tag is not None:
                _addmul(tag, self.tags[c], a, p=p)
        return out, tag

    def _normalized(self, val, row: dict, tag: dict | None):
        """row and tag (if any) divided by the pivot value val; over F_p,
        times the one inverse of val."""
        p = self.p
        if p is None:
            return ({c: x / val for c, x in row.items()},
                    None if tag is None else
                    {k: x / val for k, x in tag.items()})
        inv = pow(val, -1, p)
        return ({c: x * inv % p for c, x in row.items()},
                None if tag is None else
                {k: x * inv % p for k, x in tag.items()})

    def insert(self, vec: dict, tag: dict | None = None):
        """Insert a vector, with an optional tag; returns its pivot, or None
        if it is dependent."""
        res, tag = self._reduce(vec, None if tag is None else dict(tag))
        if not res:
            return None
        pivot = min(res)
        row, tag = self._normalized(res.pop(pivot), res, tag)
        p, holders = self.p, self.holders
        for c in row:
            holders.setdefault(c, set()).add(pivot)
        for p0 in holders.pop(pivot, ()):
            r0 = self.rows[p0]
            a = -r0.pop(pivot)
            _addmul(r0, row, a, holders, p0, p)
            if tag is not None:
                _addmul(self.tags[p0], tag, a, p=p)
        self.rows[pivot] = row
        if tag is not None:
            self.tags[pivot] = tag
        return pivot

    def contains(self, vec: dict) -> bool:
        return not self._reduce(vec, None)[0]

    def combination(self, vec: dict):
        """Tag-combination expressing vec over the (tagged) inserted
        vectors, or None if vec is not in their span."""
        res, tag = self._reduce(vec, {})
        if res:
            return None
        p = self.p
        return {k: -x if p is None else -x % p for k, x in tag.items()}


def solve(columns: list[dict], b: dict, one) -> list:
    """The unique x with sum_j x_j columns[j] = b, over any exact field
    with unit `one`, read off a tagged `Echelon`.  Raises ValueError when
    the columns are dependent or b is outside their span.

    >>> from fractions import Fraction as Fr
    >>> solve([{0: Fr(1), 1: Fr(1)}, {0: Fr(1), 1: Fr(-1)}], {0: Fr(2)}, Fr(1))
    [Fraction(1, 1), Fraction(1, 1)]
    """
    ech = Echelon()
    for j, col in enumerate(columns):
        if ech.insert(col, {j: one}) is None:
            raise ValueError("singular linear system (multiple solutions)")
    x = ech.combination(b)
    if x is None:
        raise ValueError("inconsistent linear system")
    zero = one - one
    return [x.get(j, zero) for j in range(len(columns))]


if __name__ == "__main__":
    import doctest
    doctest.testmod()
