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
Elimination runs on integer rows: each row is scaled to coprime integers
first, and only the back-substitution of a solve divides, so ranking an
integer matrix makes no `Fraction` at all.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm


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

def _integer_row(row) -> dict:
    """A sparse row of exact scalars scaled to coprime integers: its
    denominators cleared, divided by the gcd of its entries, zeros
    dropped.  Scaling a row keeps the row space."""
    row = {c: v for c, v in row.items() if v}
    den = lcm(*(v.denominator for v in row.values()))
    row = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
    g = gcd(*row.values())
    if g > 1:
        row = {c: v // g for c, v in row.items()}
    return row


def _echelon(rows) -> dict:
    """Sparse row echelon form of an iterable of sparse {col: value} rows,
    over the integers.

    Each row is scaled to coprime integers and reduced against the table
    {pivot_col: coprime integer row, zero left of it, positive at
    pivot_col}: with a the pivot entry, f the row's entry and g = gcd(a, f),
    the row becomes (a/g)·row − (f/g)·pivot, so no division ever leaves the
    integers.  When a/g is 1 that is the plain subtraction; otherwise the
    row is then divided by the gcd of its entries, which keeps the entries
    small.  What is left nonzero enters the table at its leftmost column,
    divided by its gcd and with the sign that makes its pivot positive.

    Sparsest rows go first, in a stable order, to limit fill-in: the set of
    pivot columns does not depend on the row order.  Each table row is a
    multiple of the one that elimination over Q, scaling every pivot to 1,
    would give, so both have the same pivot columns.
    """
    table: dict = {}
    for row in sorted(map(_integer_row, rows), key=len):
        while row:
            col = min(row)
            pivot = table.get(col)
            if pivot is None:
                g = gcd(*row.values())
                if row[col] < 0:
                    g = -g
                table[col] = row if g == 1 else {c: v // g
                                                 for c, v in row.items()}
                break
            g = gcd(pivot[col], row[col])
            a, f = pivot[col] // g, row[col] // g
            if a != 1:
                row = {c: a * v for c, v in row.items()}
            for c, v in pivot.items():
                x = row.get(c, 0) - f * v
                if x:
                    row[c] = x
                else:
                    del row[c]
            if a != 1:
                g = gcd(*row.values())
                if g > 1:
                    row = {c: v // g for c, v in row.items()}
    return table


def _solve(rows, n):
    """One X with A X = B, free variables set to 0, or None when a pivot of
    the echelon form falls in B.  `rows` are the sparse rows of [A | B],
    B in the columns n + k; X comes back as {pivot col: {k: nonzero
    Fraction}}, by back-substitution from the rightmost pivot: with a the
    pivot entry, X[col] = (B part − Σ v·X[c]) / a, the one division of the
    elimination."""
    x: dict = {}
    table = _echelon(rows)
    for col in sorted(table, reverse=True):
        if col >= n:
            return None
        row = table[col]
        acc = {c - n: v for c, v in row.items() if c >= n}
        for c, v in row.items():
            if col < c < n:
                for k, t in x.get(c, {}).items():
                    acc[k] = acc.get(k, 0) - v * t
        a = row[col]
        x[col] = {k: Fraction(s, a) for k, s in acc.items() if s}
    return x


def mat_inverse(a):
    """Inverse of a dense square matrix over exact scalars, as a dense
    matrix of Fractions; ValueError if singular."""
    n = len(a)
    x = _solve([{**dict(enumerate(row)), n + i: 1}
                for i, row in enumerate(a)], n)
    if x is None:
        raise ValueError("singular matrix")
    return [[x[i].get(j, Fraction(0)) for j in range(n)] for i in range(n)]


def rank_exact(rows: list) -> int:
    """Rank of a matrix given as a list of sparse {col: value} rows, which
    are read twice and left unchanged.

    Rank does not depend on the column order, so the columns are first
    renumbered by ascending nonzero count (ties by index): elimination at
    the leftmost column then pivots on the sparsest columns first, which
    limits fill-in.
    """
    nnz: dict = {}
    for row in rows:
        for c, v in row.items():
            if v:
                nnz[c] = nnz.get(c, 0) + 1
    order = {c: i for i, c in enumerate(sorted(nnz,
                                               key=lambda c: (nnz[c], c)))}
    return len(_echelon({order[c]: v for c, v in row.items() if v}
                        for row in rows))


def solve_exact(rows, rhs):
    """One exact solution x of A x = b, or None if inconsistent.

    `rows` is A as a list of sparse {col: value} rows and `rhs` is b as
    {row index: value}; x comes back as {col: nonzero Fraction}, with the
    free variables set to zero.  The columns keep their natural order, so
    the pivot columns, and with them x, are those of elimination at the
    leftmost column over Q.
    """
    n = 1 + max((c for row in rows for c in row), default=-1)
    x = _solve([{**row, n: rhs[i]} if rhs.get(i) else row
                for i, row in enumerate(rows)], n)
    return None if x is None else {c: xs[0] for c, xs in sorted(x.items())
                                   if xs}
