r"""Exact linear algebra shared by the algebra modules.

- `SparseVector`: a dict from basis key to never-zero scalar (`+`, `-`,
  `*`, truthiness as the zero test), the one arithmetic core under
  `btalg.BTElement`, `hecke.HeckeElement`, `monodromic.MonodromicElement`
  and `finite_model.SparseOperator`.
- `Echelon`: sparse reduced row echelon over any exact field, pivoting on
  the minimal column, so that every rank is bit-reproducible.  Inserts
  may carry tags, mirrored by every row operation; `solve` uses them.
  Over `scalars.ModP` it is the mod-p rank certificate of `btalg`.

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
"""

from __future__ import annotations


def _acc(dst: dict, key, c) -> None:
    """dst[key] += c, keeping no zero: the key goes when the sum vanishes."""
    y = dst.get(key)
    if y is not None:
        c = y + c
    if c:
        dst[key] = c
    elif y is not None:
        del dst[key]


def _axpy(dst: dict, src: dict, a=None) -> dict:
    """dst += a * src (dst += src when a is None), a nonzero; returns dst."""
    if a is None:
        for k, c in src.items():
            _acc(dst, k, c)
    else:
        for k, c in src.items():
            _acc(dst, k, c * a)
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

    def __init__(self):
        self.rows: dict[int, dict] = {}
        self.tags: dict[int, dict] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: dict, tag: dict | None) -> tuple[dict, dict | None]:
        """Residual of vec (zero entries ignored), and tag changed in place,
        after eliminating every pivot: stored rows vanish at the other
        pivots, so one pass will do."""
        out = {c: x for c, x in vec.items() if x}
        for c in [c for c in out if c in self.rows]:
            a = -out.pop(c)
            _axpy(out, self.rows[c], a)
            if tag is not None:
                _axpy(tag, self.tags[c], a)
        return out, tag

    def insert(self, vec: dict, tag: dict | None = None):
        """Insert a vector, with an optional tag; returns its pivot, or None
        if it is dependent."""
        res, tag = self._reduce(vec, None if tag is None else dict(tag))
        if not res:
            return None
        pivot = min(res)
        val = res.pop(pivot)
        row = {c: x / val for c, x in res.items()}
        if tag is not None:
            tag = {k: x / val for k, x in tag.items()}
        for p0, r0 in self.rows.items():
            x = r0.pop(pivot, None)
            if x is not None:
                _axpy(r0, row, -x)
                if tag is not None:
                    _axpy(self.tags[p0], tag, -x)
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
        return {k: -x for k, x in tag.items()}


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
