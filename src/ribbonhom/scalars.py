"""Exact scalars: rationals plus real multi-quadratic surd expressions.

The package never touches floating point.  Chain coefficients are
`fractions.Fraction` wherever possible; normalizing an odd inner product can
divide basis vectors by sqrt(d) for a positive rational d, which is where
`Surd` comes in: finite sums ``sum_r c_r * sqrt(r)`` over squarefree positive
integer radicands with Fraction coefficients (radicand 1 holds the rational
part).  Products of square roots of squarefree integers reduce to squarefree
radicands again, so the representation is closed under arithmetic, and
inverses exist by multiplying through with Galois conjugates.

`LinearCombination` is the one sparse linear-combination type behind graph
chains, legged-graph morphisms, cyclic words, wedge chains and tensors:
canonical keys mapped to nonzero exact coefficients, in a space named by a
few attributes, with the vector-space arithmetic written once.

The exact linear algebra used across the package (inverse, rank, solve)
lives here as well, all of it on one sparse row echelon routine.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


Scalar = "Fraction | Surd"  # informal alias used in docstrings


def _square_split(n: int) -> tuple[int, int]:
    """Write n >= 1 as s*s*r with r squarefree; return (s, r).

    >>> _square_split(72)
    (6, 2)
    """
    s, r = 1, 1
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                r *= d
        d += 1
    if m > 1:
        r *= m
    return s, r


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class Surd:
    """An element of a real field Q(sqrt p1, ..., sqrt pt), exactly.

    >>> x = Surd.sqrt(Fraction(1, 2))
    >>> x * x
    Surd('1/2')
    >>> (1 / x) == Surd.sqrt(2)
    True
    """

    __slots__ = ("terms",)

    def __init__(self, value=0):
        if isinstance(value, Surd):
            self.terms = dict(value.terms)
            return
        q = Fraction(value)
        self.terms = {1: q} if q else {}

    @classmethod
    def _raw(cls, terms: dict) -> "Surd":
        s = object.__new__(cls)
        s.terms = {r: c for r, c in terms.items() if c}
        return s

    @classmethod
    def sqrt(cls, value) -> "Surd":
        """Exact square root of a nonnegative rational.

        Raises ValueError on negative input: this field is kept real on
        purpose, so callers can report signature obstructions exactly.
        """
        q = Fraction(value)
        if q < 0:
            raise ValueError("sqrt of a negative rational leaves the real surd field")
        if q == 0:
            return cls(0)
        s, r = _square_split(q.numerator * q.denominator)
        return cls._raw({r: Fraction(s, q.denominator)})

    # -- basics --------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return all(r == 1 for r in self.terms)

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.terms.get(1, Fraction(0))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        o = _surd_terms(other)
        return o is not None and self.terms == o

    def __hash__(self):
        if self.is_rational:
            return hash(self.terms.get(1, Fraction(0)))
        return hash(tuple(sorted(self.terms.items())))

    def __repr__(self) -> str:
        return f"Surd({format_scalar(self)!r})"

    def __str__(self) -> str:
        return format_scalar(self)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        o = _surd_terms(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for r, c in o.items():
            terms[r] = terms.get(r, Fraction(0)) + c
        return Surd._raw(terms)

    __radd__ = __add__

    def __neg__(self):
        return Surd._raw({r: -c for r, c in self.terms.items()})

    def __sub__(self, other):
        o = _surd_terms(other)
        if o is None:
            return NotImplemented
        return self + Surd._raw({r: -c for r, c in o.items()})

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = _surd_terms(other)
        if o is None:
            return NotImplemented
        terms: dict = {}
        for r1, c1 in self.terms.items():
            for r2, c2 in o.items():
                g = gcd(r1, r2)
                rad = (r1 // g) * (r2 // g)
                terms[rad] = terms.get(rad, Fraction(0)) + c1 * c2 * g
        return Surd._raw(terms)

    __rmul__ = __mul__

    def inverse(self) -> "Surd":
        if not self.terms:
            raise ZeroDivisionError("surd inverse of zero")
        if self.is_rational:
            return Surd(1 / self.terms[1])
        primes = sorted({p for r in self.terms if r > 1 for p in _prime_factors(r)})
        conj_prod = Surd(1)
        for mask in range(1, 1 << len(primes)):
            flip = {primes[i] for i in range(len(primes)) if mask >> i & 1}
            conj = Surd._raw({
                r: -c if len(flip & set(_prime_factors(r) if r > 1 else [])) % 2 else c
                for r, c in self.terms.items()
            })
            conj_prod = conj_prod * conj
        norm = (self * conj_prod).as_fraction()
        return conj_prod * (1 / norm)

    def __truediv__(self, other):
        o = _surd_terms(other)
        if o is None:
            return NotImplemented
        return self * Surd._raw(o).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other


def _surd_terms(x) -> dict | None:
    """Terms dict of x viewed as a surd, or None if not coercible."""
    if isinstance(x, Surd):
        return x.terms
    if isinstance(x, (int, Fraction)):
        q = Fraction(x)
        return {1: q} if q else {}
    return None


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
    """Human form: '3/2', '-1', '1/2*sqrt(2)', '1+3/4*sqrt(6)'."""
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, Surd):
        if not x.terms:
            return "0"
        if x.is_rational:
            return str(x.as_fraction())
        parts = []
        for r in sorted(x.terms):
            c = x.terms[r]
            piece = str(c) if r == 1 else (f"{c}*sqrt({r})" if abs(c) != 1 else
                                           ("-" if c < 0 else "") + f"sqrt({r})")
            if parts and not piece.startswith("-"):
                parts.append("+" + piece)
            else:
                parts.append(piece)
        return "".join(parts)
    raise TypeError(f"not an exact scalar: {x!r}")


def json_scalar(x) -> str:
    """Serialized form: always 'num/den' for rationals; surd sums otherwise."""
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, Surd) and x.is_rational:
        return json_scalar(x.as_fraction())
    return format_scalar(x)


def parse_scalar(s) -> "Fraction | Surd":
    """Inverse of json_scalar/format_scalar (also accepts ints)."""
    if isinstance(s, (int, Fraction, Surd)):
        return s if not isinstance(s, int) else Fraction(s)
    text = s.replace(" ", "")
    if not text:
        raise ValueError("empty scalar")
    # split into signed terms
    terms = []
    start = 0
    for i in range(1, len(text)):
        if text[i] in "+-" and text[i - 1] not in "+-*/(":
            terms.append(text[start:i])
            start = i
    terms.append(text[start:])
    total: Fraction | Surd = Fraction(0)
    for term in terms:
        sign = 1
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        if "sqrt" in term:
            coeff_part, _, rad_part = term.partition("sqrt")
            coeff = Fraction(coeff_part.rstrip("*")) if coeff_part.rstrip("*") else Fraction(1)
            rad = Fraction(rad_part.strip("()"))
            total = total + sign * coeff * Surd.sqrt(rad)
        else:
            total = total + sign * Fraction(term)
    if isinstance(total, Surd) and total.is_rational:
        return total.as_fraction()
    return total


# ---------------------------------------------------- exact linear algebra

def identity_matrix(n: int) -> list[list[Fraction]]:
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    return [[sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(m)]
            for i in range(n)]


def mat_transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def _echelon(rows) -> dict:
    """Sparse row echelon form of dense rows over exact scalars.

    Each row is kept as a {col: value} dict of its nonzeros and reduced
    against the table {pivot_col: row scaled to 1 at pivot_col, zero left
    of it}; what is left nonzero enters the table at its leftmost column.
    Sparsest rows go first, to limit fill-in: the set of pivot columns
    does not depend on the row order.
    """
    table: dict = {}
    for row in sorted(({c: v for c, v in enumerate(r) if v} for r in rows), key=len):
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


def _solve(a, b):
    """Rows of one X with A X = B, free variables set to 0, or None when a
    pivot of the echelon form of [A | B] falls in B."""
    n = len(a[0]) if a else 0
    width = len(b[0]) if b else 0
    table = _echelon([list(ra) + list(rb) for ra, rb in zip(a, b)])
    x = [[Fraction(0)] * width for _ in range(n)]
    for col in sorted(table, reverse=True):
        if col >= n:
            return None
        acc = [table[col].get(n + k, Fraction(0)) for k in range(width)]
        for c, v in table[col].items():
            if col < c < n:
                acc = [s - v * t for s, t in zip(acc, x[c])]
        x[col] = acc
    return x


def mat_inverse(a):
    """Inverse over exact scalars; ValueError if singular."""
    x = _solve(a, identity_matrix(len(a)))
    if x is None:
        raise ValueError("singular matrix")
    return x


def rank_exact(rows) -> int:
    """Rank of a matrix of exact scalars."""
    return len(_echelon(rows))


def solve_exact(a, b):
    """One exact solution x of A x = b, or None if inconsistent.

    Free variables are set to zero.  `a` is a list of rows, `b` a list of
    scalars.
    """
    x = _solve(a, [[rhs] for rhs in b])
    return None if x is None else [row[0] for row in x]
