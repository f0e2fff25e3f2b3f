"""Exact scalars: rationals, as `fractions.Fraction`.

The package never touches floating point.  Every coefficient, form entry
and pairing value is a `Fraction` (or an int); scalars are written as
"num/den" strings and read back only from integers and such strings.

`LinearCombination` is the one sparse linear-combination type behind graph
chains, legged-graph morphisms, cyclic words, wedge chains and tensors:
canonical keys mapped to nonzero exact coefficients, in a space named by a
few attributes, with the vector-space arithmetic written once.

The exact linear algebra used across the package (inverse, rank, solve)
lives here as well, all of it on one sparse row echelon routine.  A matrix
enters it as sparse rows: one {col: value} dict per row holding the row's
nonzero entries, which callers build directly from their own sparse data.
"""

from __future__ import annotations

import json
from fractions import Fraction


# ---------------------------------------------------- linear combinations

class LinearCombination:
    """Finite linear combination of canonical keys with exact coefficients.

    `terms` maps canonical keys to nonzero coefficients.  A subclass names
    the attributes that fix its space in `_SPACE` (chains over different
    spaces neither add nor compare equal) and turns a raw key into
    (canonical key, sign), or None for a key whose class is zero, in
    `_reduce`.  Constructors reduce raw keys through `_collect`; sums and
    multiples of canonical terms are canonical already and skip it.
    """

    __slots__ = ("terms",)
    _SPACE: tuple = ()

    def _collect(self, terms) -> dict:
        """Canonical terms of a {raw key: coefficient} dict.  Every key is
        reduced, even under a zero coefficient, so a malformed one is
        rejected either way."""
        acc: dict = {}
        for key, coeff in (terms or {}).items():
            red = self._reduce(key)
            if red is None or not coeff:
                continue
            key, sign = red
            acc[key] = acc.get(key, 0) + sign * coeff
        return {k: c for k, c in acc.items() if c}

    def _new(self, terms):
        """Same type and space, from canonical terms; zeros are dropped."""
        out = object.__new__(type(self))
        for name in self._SPACE:
            setattr(out, name, getattr(self, name))
        out.terms = {k: c for k, c in terms.items() if c}
        return out

    def _space(self):
        return tuple(getattr(self, name) for name in self._SPACE)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (type(other) is type(self) and other._space() == self._space()
                and other.terms == self.terms)

    def __add__(self, other):
        if isinstance(other, int) and not other:  # the start of sum()
            return self
        if type(other) is not type(self):
            return NotImplemented
        if other._space() != self._space():
            raise ValueError(f"cannot add {type(self).__name__}s over "
                             f"different spaces")
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0) + c
        return self._new(terms)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, factor):
        return self._new({k: c * factor for k, c in self.terms.items()})

    __mul__ = __rmul__ = scale

    def coefficient(self, key):
        return self.terms.get(key, Fraction(0))


# ---------------------------------------------------------------- strings

def format_scalar(x) -> str:
    """Human form: '3/2', '-1'."""
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    raise TypeError(f"not an exact scalar: {x!r}")


def json_scalar(x) -> str:
    """Serialized form: always 'num/den'."""
    if isinstance(x, (int, Fraction)):
        x = Fraction(x)
        return f"{x.numerator}/{x.denominator}"
    raise TypeError(f"not an exact scalar: {x!r}")


def parse_scalar(s) -> Fraction:
    """Inverse of json_scalar: an integer or a string such as '3/2' or '-1',
    read exactly.  Anything else -- a float, a bool, null, a list, a
    malformed string -- raises ValueError naming the value."""
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if isinstance(s, str):
        try:
            return Fraction(s.replace(" ", ""))
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"scalar {json.dumps(s, default=repr)} is not an "
                     f"integer or an exact rational string")


# ---------------------------------------------------- exact linear algebra

def _echelon(rows) -> dict:
    """Sparse row echelon form of an iterable of sparse {col: value} rows.

    Each row is copied without its zero values and reduced against the
    table {pivot_col: row scaled to 1 at pivot_col, zero left of it}; what
    is left nonzero enters the table at its leftmost column.  Sparsest rows
    go first, in a stable order, to limit fill-in: the set of pivot
    columns does not depend on the row order.
    """
    table: dict = {}
    rows = sorted(({c: v for c, v in r.items() if v} for r in rows), key=len)
    for row in rows:
        while row:
            col = min(row)
            pivot = table.get(col)
            if pivot is None:
                inv = Fraction(1) / row[col]
                table[col] = {c: v * inv for c, v in row.items()}
                break
            f = row[col]
            for c, v in pivot.items():
                x = row.get(c, 0) - f * v
                if x:
                    row[c] = x
                else:
                    del row[c]
    return table


def _solve(rows, n):
    """One X with A X = B, free variables set to 0, or None when a pivot of
    the echelon form falls in B.  `rows` are the sparse rows of [A | B],
    B in the columns n + k; X comes back as {pivot col: {k: nonzero
    value}}, by back-substitution from the rightmost pivot."""
    x: dict = {}
    table = _echelon(rows)
    for col in sorted(table, reverse=True):
        if col >= n:
            return None
        acc = {c - n: v for c, v in table[col].items() if c >= n}
        for c, v in table[col].items():
            if col < c < n:
                for k, t in x.get(c, {}).items():
                    acc[k] = acc.get(k, 0) - v * t
        x[col] = {k: s for k, s in acc.items() if s}
    return x


def mat_inverse(a):
    """Inverse of a dense square matrix over exact scalars, as a dense
    matrix; ValueError if singular."""
    n = len(a)
    x = _solve([{**dict(enumerate(row)), n + i: 1}
                for i, row in enumerate(a)], n)
    if x is None:
        raise ValueError("singular matrix")
    return [[x[i].get(j, Fraction(0)) for j in range(n)] for i in range(n)]


def rank_exact(rows) -> int:
    """Rank of a matrix given as a list of sparse {col: value} rows."""
    return len(_echelon(rows))


def solve_exact(rows, rhs):
    """One exact solution x of A x = b, or None if inconsistent.

    `rows` is A as a list of sparse {col: value} rows and `rhs` is b as
    {row index: value}; x comes back as {col: nonzero value}, with the
    free variables set to zero.
    """
    n = 1 + max((c for row in rows for c in row), default=-1)
    x = _solve([{**row, n: rhs[i]} if rhs.get(i) else row
                for i, row in enumerate(rows)], n)
    return None if x is None else {c: xs[0] for c, xs in sorted(x.items())
                                   if xs}
