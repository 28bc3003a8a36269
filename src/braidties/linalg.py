r"""Exact linear algebra shared by the algebra modules.

Three pieces:

- `SparseVector`: a finitely supported combination, a dict from basis key
  to scalar.  It is the one arithmetic core under `btalg.BTElement`,
  `hecke.HeckeElement`, `monodromic.MonodromicElement` and
  `finite_model.SparseOperator`.  The scalar ring is whatever the
  coefficients are (rational functions of v, cyclotomic numbers, the rows
  of an operator): anything with `+`, unary `-`, `*` by a scalar and
  truthiness as the zero test.  A stored coefficient is never zero, so
  `==` on the dicts decides equality.

- `Echelon`: sparse reduced row echelon over any exact field scalar
  (Fraction, rational function, cyclotomic).  Vectors are dicts
  column -> scalar.  The pivot of a new row is its minimal column, so a
  fixed basis ordering makes the echelon form, and therefore every rank,
  bit-reproducible.  An insert may carry a tag (a dict of scalars) on
  which every row operation is mirrored, so that `combination` can
  express a vector over the inserted ones; `solve` is built on it.

- `ModPEchelon`: dense batched row echelon over a prime field F_p with
  p < 2^20, carried by numpy float64 matmuls.  All intermediate values stay
  below (p-1)^2 * ncols < 2^53, so every float operation is exact integer
  arithmetic; this is a certificate-grade computation, not an approximation.

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
    """dst += a * src term by term (dst += src when a is None); returns
    dst.  a must be nonzero."""
    if a is None:
        for k, c in src.items():
            _acc(dst, k, c)
    else:
        for k, c in src.items():
            _acc(dst, k, c * a)
    return dst


class SparseVector:
    """Sparse combination key -> nonzero scalar in a fixed ambient space.

    A subclass names the attribute that fixes its space (`_ambient`, for
    example the rank ``m``), the zero of its scalars (`ZERO`), and adds
    its basis constructors and `repr`.

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
        """An element of the same space holding terms, which must already
        be free of zeros (no filtering pass)."""
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
    """Reduced row echelon accumulator; rows indexed by pivot column.

    A row is stored without its pivot entry, which is 1.  Inserts may
    carry a tag (any dict of scalars), and every row operation is then
    mirrored on the tags: if each inserted vector comes with a tag
    describing how it was produced, `combination(vec)` reports vec as the
    same kind of combination, or None when vec is outside the span.

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
        """Residual of vec after eliminating all current pivots, and tag
        (changed in place, when given) after the same row operations.

        Stored rows are fully reduced (zero at every other pivot column),
        so one pass over the pivot entries of vec suffices.  Zero entries
        of vec are ignored.
        """
        out = {c: x for c, x in vec.items() if x}
        for c in [c for c in out if c in self.rows]:
            a = -out.pop(c)
            _axpy(out, self.rows[c], a)
            if tag is not None:
                _axpy(tag, self.tags[c], a)
        return out, tag

    def insert(self, vec: dict, tag: dict | None = None):
        """Insert a vector, with an optional tag; returns its pivot
        column, or None if it is dependent."""
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
        """Tag-combination expressing vec over the inserted vectors, or
        None if vec is not in their span (every insert must have been
        tagged)."""
        res, tag = self._reduce(vec, {})
        if res:
            return None
        return {k: -x for k, x in tag.items()}


def solve(columns: list[dict], b: dict, one) -> list:
    """The unique x with sum_j x_j columns[j] = b, over any exact field
    with unit `one`.  Column j goes into a tagged `Echelon` with the tag
    {j: one}, and b is read off as a tag combination.

    Raises ValueError when the columns are dependent (no unique solution)
    or b is outside their span (no solution).

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
    """Batched reduced row echelon over F_p via exact float64 arithmetic.

    p must satisfy (p-1)^2 * ncols < 2^53; asserted on construction.
    """

    def __init__(self, ncols: int, p: int):
        import numpy as np

        if (p - 1) ** 2 * ncols >= 2 ** 53:
            raise ValueError("p too large for exact float64 accumulation")
        self.p = p
        self.ncols = ncols
        self.E = np.zeros((0, ncols))
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add_batch(self, C: np.ndarray) -> int:
        """Reduce the rows of C against the echelon and absorb the
        independent ones; returns the number of new pivots. C is consumed."""
        import numpy as np

        p = self.p
        C = np.mod(C, p)
        if self.pivots:
            C = np.mod(C - C[:, self.pivots] @ self.E, p)
        new_rows: list[np.ndarray] = []
        new_pivs: list[int] = []
        for idx in range(C.shape[0]):
            row = C[idx]
            nz = np.nonzero(row)[0]
            if nz.size == 0:
                continue
            c = int(nz[0])
            inv = pow(int(row[c]), p - 2, p)
            row = np.mod(row * inv, p)
            rest = C[idx + 1:]
            if rest.shape[0]:
                col = rest[:, c]
                mask = col != 0
                if mask.any():
                    rest[mask] = np.mod(rest[mask] - np.outer(col[mask], row), p)
            new_rows.append(row)
            new_pivs.append(c)
        if not new_rows:
            return 0
        N = np.vstack(new_rows)
        # make the new block internally reduced (clear earlier rows at
        # later pivots), then clear the new pivots from the old rows
        for j in range(1, len(new_pivs)):
            cj = new_pivs[j]
            col = N[:j, cj]
            mask = col != 0
            if mask.any():
                N[:j][mask] = np.mod(N[:j][mask] - np.outer(col[mask], N[j]), p)
        if self.pivots:
            coef = self.E[:, new_pivs]
            if np.any(coef):
                self.E = np.mod(self.E - coef @ N, p)
        self.E = np.vstack([self.E, N])
        self.pivots.extend(new_pivs)
        return len(new_pivs)


if __name__ == "__main__":
    import doctest
    doctest.testmod()
