r"""Exact linear algebra shared by the algebra modules.

- `SparseVector`: a dict from basis key to never-zero scalar (`+`, `-`,
  `*`, truthiness as the zero test), the one arithmetic core under
  `btalg.BTElement`, `hecke.HeckeElement`, `monodromic.MonodromicElement`
  and `finite_model.SparseOperator`.
- `Echelon`: sparse reduced row echelon over any exact field, pivoting on
  the minimal column, so that every rank is bit-reproducible.  Inserts
  may carry tags, mirrored by every row operation; `solve` uses them.
- `ModPEchelon`: dense batched row echelon over F_p on exact float64.

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

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


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

    def __init__(self, ambient, terms: dict | None = None):
        setattr(self, self._ambient, ambient)
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    def _like(self, terms: dict):
        """An element of the same space holding terms, already zero-free."""
        out = object.__new__(type(self))
        setattr(out, self._ambient, getattr(self, self._ambient))
        out.terms = terms
        return out

    @classmethod
    def zero(cls, ambient):
        return cls(ambient)

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


class ModPEchelon:
    """Batched reduced row echelon over F_p, exact in float64: entries stay
    in [0, p), so a product of inner dimension k is exact while
    (p-1)^2 * k <= 2^53 - 2p, checked at each one.  An x with
    |x| <= 2^53 - 2p (candidates too) is reduced as x - p*floor(x*(1/p)):
    two roundings move x/p by under 2/p < 1, so the quotient is off by at
    most one, p*q and the difference are exact, and one +p or -p lands in
    [0, p).  A batch is reduced against E by one product, then echelonized
    by recursive row splitting.  E is the first `rank` rows (in `pivots`
    order) of a buffer of ncols rows allocated once."""

    def __init__(self, ncols: int, p: int):
        import numpy as np

        self.p, self.ncols, self.pivots = p, ncols, []
        self._check(ncols)
        self._buf = np.empty((ncols, ncols))
        self._tmp = np.empty((256, ncols))  # rows per product

    def _check(self, k: int) -> None:
        if (self.p - 1) ** 2 * k > 2 ** 53 - 2 * self.p:
            raise ValueError("p too large for exact float64 accumulation")

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def E(self) -> np.ndarray:
        return self._buf[:self.rank]

    def _update(self, A, X=None, Y=None) -> None:
        """A <- (A - X @ Y) mod p, or A <- A mod p, in place by row blocks."""
        import numpy as np

        p, n = self.p, len(self._tmp)
        if X is not None:
            self._check(X.shape[1])
        for lo in range(0, A.shape[0], n):
            a, t = A[lo:lo + n], self._tmp[:min(n, A.shape[0] - lo)]
            if X is not None:
                a -= np.matmul(X[lo:lo + n], Y, out=t)
            np.floor(np.multiply(a, 1.0 / p, out=t), out=t)
            a -= np.multiply(t, p, out=t)
            np.add(a, p, out=a, where=a < 0)
            np.subtract(a, p, out=a, where=a >= p)

    def _echelon(self, R) -> list[int]:
        """Echelonize R (nonzero reduced rows) in place: returns the pivots
        in the order found, with their rows at the top of R."""
        import numpy as np

        if R.shape[0] == 1:
            c = int(np.flatnonzero(R[0])[0])
            R *= pow(int(R[0, c]), self.p - 2, self.p)
            self._update(R)
            return [c]
        h = R.shape[0] // 2
        top = self._echelon(R[:h])
        kt, low = len(top), R[h:]
        self._update(low, low[:, top], R[:kt])
        keep = np.flatnonzero(low.any(axis=1))
        if not keep.size:
            return top
        R[kt:kt + keep.size] = low[keep]
        new = self._echelon(R[kt:kt + keep.size])
        self._update(R[:kt], R[:kt, new], R[kt:kt + len(new)])
        return top + new

    def add_batch(self, C: np.ndarray) -> int:
        """Reduce the rows of C, float64 integers at most 2^53 - 2p in
        absolute value, against the echelon and absorb the independent
        ones; returns the number of new pivots.  C is consumed."""
        import numpy as np

        if C.size and max(C.max(), -C.min()) > 2 ** 53 - 2 * self.p:
            raise ValueError("entry too large for exact float64 reduction")
        self._update(C)
        self._update(C, C[:, self.pivots], self.E)
        R = C[C.any(axis=1)]
        new = self._echelon(R) if R.shape[0] else []
        k, coef = len(new), self.E[:, new]
        old = np.flatnonzero(coef.any(axis=1))  # old rows to clear
        rows = self._buf[old]
        self._update(rows, coef[old], R[:k])
        self._buf[old] = rows
        self._buf[self.rank:self.rank + k] = R[:k]
        self.pivots += new
        return k


if __name__ == "__main__":
    import doctest
    doctest.testmod()
