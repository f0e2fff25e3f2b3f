"""Z/2-graded tensor words over the standard symplectic super vector space.

The ambient space C^{2n|m} carries the ordered basis

    p_1, ..., p_n, q_1, ..., q_n, x_1, ..., x_m

with the p's and q's even and the x's odd; letters are integers
0 .. 2n+m-1 in that order.  The canonical even inner product pairs
<p_i, q_i> = 1 = <x_j, x_j> (and <q_i, p_i> = -1), every other basis value
zero.  Tensors are finite linear combinations of words (tuples of letters)
with exact coefficients, and every permutation of tensor slots carries the
Koszul sign: each transposition of two odd letters costs -1.

Permutations are tuples ``perm`` with ``perm[i]`` the new position of the
letter currently in slot i.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import lcm

from .scalars import LinearCombination, format_scalar, mat_inverse


class SuperDim:
    """Signature (n, m) of the ambient space C^{2n|m}."""

    __slots__ = ("n", "m")

    def __init__(self, n: int, m: int):
        if n < 0 or m < 0:
            raise ValueError("negative signature")
        self.n = n
        self.m = m

    @property
    def total(self) -> int:
        return 2 * self.n + self.m

    def parity(self, letter: int) -> int:
        if not 0 <= letter < self.total:
            raise ValueError(f"letter {letter} outside C^(2*{self.n}|{self.m})")
        return 0 if letter < 2 * self.n else 1

    def parities(self, word) -> tuple[int, ...]:
        return tuple(self.parity(a) for a in word)

    def word_parity(self, word) -> int:
        """Parity of a word: the sum of its letters' parities, mod 2."""
        return sum(self.parities(word)) % 2

    def letter_name(self, letter: int) -> str:
        if letter < self.n:
            return f"p{letter + 1}"
        if letter < 2 * self.n:
            return f"q{letter - self.n + 1}"
        return f"x{letter - 2 * self.n + 1}"

    def __eq__(self, other):
        return isinstance(other, SuperDim) and (self.n, self.m) == (other.n, other.m)

    def __hash__(self):
        return hash((self.n, self.m))

    def __repr__(self):
        return f"SuperDim({self.n}, {self.m})"


@functools.lru_cache(maxsize=None)
def canonical_form_matrix(dim: SuperDim):
    """Matrix of the standard even inner product on C^{2n|m}, built once
    per signature and returned as a tuple of row tuples."""
    n, t = dim.n, dim.total
    mat = [[Fraction(0)] * t for _ in range(t)]
    for i in range(n):
        mat[i][n + i] = Fraction(1)
        mat[n + i][i] = Fraction(-1)
    for j in range(2 * n, t):
        mat[j][j] = Fraction(1)
    return tuple(tuple(row) for row in mat)


class SymplecticForm:
    """An even, super-skew, nondegenerate bilinear form with exact entries.

    "Super-skew" means <b,a> = -(-1)^{|a||b|} <a,b): the even x even block
    is skew-symmetric, the odd x odd block symmetric, and the mixed blocks
    vanish ("even").  `dual` is the induced pairing on the dual basis, the
    transpose of the inverse, as a tuple of row tuples: the one inversion
    of the form, made when it is built.  For the canonical form it is the
    canonical matrix itself, which is what pins the convention.
    """

    __slots__ = ("dim", "matrix", "dual")

    def __init__(self, dim: SuperDim, matrix=None):
        self.dim = dim
        if matrix is None:
            matrix = canonical_form_matrix(dim)
        self.matrix = tuple(tuple(row) for row in matrix)
        t = dim.total
        if len(self.matrix) != t or any(len(r) != t for r in self.matrix):
            raise ValueError("form matrix has wrong shape")
        for a in range(t):
            for b in range(t):
                pa, pb = dim.parity(a), dim.parity(b)
                if pa != pb and self.matrix[a][b]:
                    raise ValueError("form is not even: mixed-parity entry")
                expect = -self.matrix[a][b] if (1 - pa * pb) else self.matrix[a][b]
                if self.matrix[b][a] != expect:
                    raise ValueError("form is not super-skew-symmetric")
        try:
            inverse = mat_inverse(self.matrix)
        except ValueError:
            raise ValueError("form is degenerate") from None
        self.dual = tuple(zip(*inverse))

    def __eq__(self, other):
        return (isinstance(other, SymplecticForm)
                and self.dim == other.dim and self.matrix == other.matrix)

    def __hash__(self):
        return hash((self.dim, self.matrix))


# ------------------------------------------------------------------ signs

def perm_parity(perm) -> int:
    """Ordinary sign of a permutation tuple (+1 or -1)."""
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def koszul_sign(parities, perm) -> int:
    """Koszul sign of rearranging graded letters by `perm`.

    Every inversion (i < j but perm[i] > perm[j]) of two odd letters
    contributes one factor -1.
    """
    sign = 1
    k = len(perm)
    for i in range(k):
        if not parities[i]:
            continue
        for j in range(i + 1, k):
            if parities[j] and perm[i] > perm[j]:
                sign = -sign
    return sign


# ---------------------------------------------------------------- tensors

def _clearing_denominator(values) -> int:
    """lcm of the denominators of the rational values."""
    return lcm(*(x.denominator for x in values))


class SuperTensor(LinearCombination):
    """A finite linear combination of words of fixed length over C^{2n|m}."""

    __slots__ = ("dim", "rank", "_cleared")
    _SPACE = ("dim", "rank")

    def __init__(self, dim: SuperDim, rank: int, terms=None):
        self.dim = dim
        self.rank = rank
        self.terms = self._collect(terms)

    def _reduce(self, word):
        if len(word) != self.rank:
            raise ValueError(f"word {word} has rank != {self.rank}")
        for a in word:
            self.dim.parity(a)  # bounds check
        return tuple(word), 1

    @classmethod
    def word(cls, dim: SuperDim, word, coeff=Fraction(1)) -> "SuperTensor":
        return cls(dim, len(word), {tuple(word): coeff})

    @classmethod
    def zero(cls, dim: SuperDim, rank: int) -> "SuperTensor":
        return cls(dim, rank, {})

    def scalar(self):
        """The coefficient of a rank-0 tensor."""
        if self.rank:
            raise ValueError(f"rank {self.rank} tensor is not a scalar")
        return self.terms.get((), Fraction(0))

    def _cleared_terms(self):
        """(d, [(word, d * coefficient), ...]) for d the lcm of the
        denominators, so the coefficients come out as ints.  Computed on
        first use and kept: the terms of a tensor never change."""
        try:
            return self._cleared
        except AttributeError:
            d = _clearing_denominator(self.terms.values())
            self._cleared = d, [(w, (c * d).numerator)
                                for w, c in self.terms.items()]
            return self._cleared

    def __repr__(self):
        if not self.terms:
            return f"SuperTensor<0, rank {self.rank}>"
        bits = []
        for w, c in sorted(self.terms.items()):
            mono = ".".join(self.dim.letter_name(a) for a in w) or "1"
            bits.append(f"({format_scalar(c)})*{mono}")
        return " + ".join(bits)


# cleared forms of pairings given as tuples of row tuples, which cannot
# change: id -> (pairing, d, rows); holding the pairing keeps its id unique
_CLEARED_PAIRINGS: dict = {}
_CLEARED_PAIRINGS_MAX = 32


def _cleared_pairing(pairing):
    """(d, rows of d * pairing) for d the lcm of the denominators of the
    entries.  Kept for a tuple of row tuples; a pairing given as
    lists is cleared again on every call."""
    hit = _CLEARED_PAIRINGS.get(id(pairing))
    if hit is not None:
        return hit[1], hit[2]
    d = _clearing_denominator(x for row in pairing for x in row)
    rows = [[(x * d).numerator for x in row] for row in pairing]
    if isinstance(pairing, tuple) and all(isinstance(r, tuple)
                                          for r in pairing):
        if len(_CLEARED_PAIRINGS) >= _CLEARED_PAIRINGS_MAX:
            _CLEARED_PAIRINGS.clear()
        _CLEARED_PAIRINGS[id(pairing)] = pairing, d, rows
    return d, rows


def contract(tensors, chords, pairing, legs=()) -> SuperTensor:
    """State sum of tensors placed side by side and paired along chords.

    The slots of the tensors are numbered consecutively, tensor by tensor.
    A chord (a, b) pairs the letter x in slot a with the letter y in slot
    b through pairing[x][y]; the slots in `legs` stay open and, in that
    order, spell the words of the result, a tensor of rank len(legs).  The
    sign is the Koszul sign of the shuffle sending chord r's slots to
    positions 2r, 2r+1 and leg i to position 2 len(chords) + i: the result
    is the tensor product with its slots rearranged by that shuffle, each
    word with its Koszul sign, and the leading slot pairs then paired
    off.

    The product itself is never formed.  Words are placed one tensor at a
    time, a chord's pairing entry is multiplied in as soon as both of its
    ends are placed, a branch is dropped when that entry vanishes, and the
    Koszul sign is taken only for words that survive, from the inverted
    slot pairs of the shuffle listed once per call.

    The loop runs over the integers.  Each tensor's coefficients are
    multiplied by the lcm d_i of their denominators, and the pairing's
    entries by the lcm d_p of theirs (once per tensor, and once per
    pairing given as a tuple of row tuples); every output coefficient is
    then divided once, by the product of the d_i times d_p to the number
    of chords.

    >>> d = SuperDim(1, 0)
    >>> p, q = SuperTensor.word(d, (0,)), SuperTensor.word(d, (1,))
    >>> contract([p, q], [(1, 0)], canonical_form_matrix(d)).scalar()
    Fraction(-1, 1)
    """
    tensors = list(tensors)
    if not tensors:
        raise ValueError("a state sum needs at least one tensor")
    dim = tensors[0].dim
    if any(t.dim != dim for t in tensors):
        raise ValueError("tensor factors over different spaces")
    chords = tuple(chords)
    legs = tuple(legs)
    owner = [i for i, t in enumerate(tensors) for _ in range(t.rank)]
    ends = [s for chord in chords for s in chord] + list(legs)
    if sorted(ends) != list(range(len(owner))):
        raise ValueError("chords and legs do not cover the slots")
    target = [0] * len(owner)
    closing = [[] for _ in tensors]
    for r, (a, b) in enumerate(chords):
        target[a], target[b] = 2 * r, 2 * r + 1
        closing[max(owner[a], owner[b])].append((a, b))
    for i, s in enumerate(legs, 2 * len(chords)):
        target[s] = i
    if not all(tensors):
        return SuperTensor.zero(dim, len(legs))
    odd = [0] * (2 * dim.n) + [1] * dim.m
    # the inverted slot pairs of the shuffle, listed once; a word's Koszul
    # sign is the parity of the odd-odd pairs among them
    inversions = [(a, b) for a in range(len(target))
                  for b in range(a + 1, len(target))
                  if target[a] > target[b]] if dim.m else []
    d_pairing, pairing = _cleared_pairing(pairing)
    scale = d_pairing ** len(chords)
    layers = []
    offset = 0
    for t, closes in zip(tensors, closing):
        d, terms = t._cleared_terms()
        scale *= d
        layers.append((offset, offset + t.rank, terms, closes))
        offset += t.rank
    word = [0] * len(owner)
    out: dict = {}

    def place(depth, val):
        if depth == len(layers):
            flips = sum([odd[word[a]] & odd[word[b]] for a, b in inversions])
            sign = -1 if flips & 1 else 1
            key = tuple(word[s] for s in legs)
            out[key] = out.get(key, 0) + sign * val
            return
        start, stop, terms, closes = layers[depth]
        for w, c in terms:
            word[start:stop] = w
            v = val * c
            for a, b in closes:
                v = v * pairing[word[a]][word[b]]
                if not v:
                    break
            if v:
                place(depth + 1, v)

    place(0, 1)
    # the words are canonical already: build the result without reducing
    unit = Fraction(1, scale)
    return SuperTensor.zero(dim, len(legs))._new(
        {k: unit * v for k, v in out.items() if v})


def cyclic_shift(t: SuperTensor) -> SuperTensor:
    """Apply the rotation z: first letter to the end, with its Koszul sign."""
    out = {}
    for word, coeff in t.terms.items():
        head, rest = word[0], word[1:]
        sign = -1 if t.dim.parity(head) and t.dim.word_parity(rest) else 1
        w = rest + (head,)
        out[w] = out.get(w, 0) + sign * coeff
    return SuperTensor(t.dim, t.rank, out)


def norm(t: SuperTensor) -> SuperTensor:
    """The norm element N.t = sum of all k cyclic rotations of t."""
    total = t
    cur = t
    for _ in range(t.rank - 1):
        cur = cyclic_shift(cur)
        total = total + cur
    return total
