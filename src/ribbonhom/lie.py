"""Cyclic words, their Poisson-type bracket, and the wedge complex.

A cyclic word over C^{2n|m} is a tensor word modulo rotation, where
rotating a letter past the rest carries the Koszul sign; a word can cancel
itself (one odd letter rotated around an odd remainder), e.g. the fourth
power of an odd letter is zero.  Chains of cyclic words form a Lie
(super)algebra: the bracket contracts one letter of each word through the
inner product and splices the remainders into one cyclic word.  Wedge
words of these chains form a complex whose differential replaces a pair of
factors by their bracket; the wedge exponential of an algebra's word
Hamiltonian in it is the characteristic class (`ainfinity`).  The bracket
and the differential take the inner product of the space as an argument,
the canonical one by default, so an algebra's words are bracketed in its
own coordinates.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import LinearCombination, format_scalar
from .superspace import SuperDim, SuperTensor, canonical_form_matrix


# ------------------------------------------------------------ cyclic words

def cyclic_reduce(word, dim: SuperDim):
    """Canonical rotation of a word with its sign, or None if the word
    cancels itself (its class is zero).

    The canonical representative is the lexicographically smallest
    rotation; the sign moves the original to it one letter at a time, each
    move of an odd letter past an odd remainder costing -1.
    """
    word = tuple(word)
    k = len(word)
    if k == 0:
        return (), 1
    pars = dim.parities(word)
    best = None
    best_signs = set()
    cur_sign = 1
    for r in range(k):
        rot = word[r:] + word[:r]
        if best is None or rot < best:
            best = rot
            best_signs = {cur_sign}
        elif rot == best:
            best_signs.add(cur_sign)
        # advance: move letter r past the rest
        if pars[r] and (sum(pars) - pars[r]) % 2:
            cur_sign = -cur_sign
    if len(best_signs) == 2:
        return None
    return best, best_signs.pop()


class CyclicWord(LinearCombination):
    """A finite linear combination of cyclic words (mixed lengths allowed).

    Terms map canonical word tuples to exact coefficients; construction
    reduces arbitrary representatives and drops self-cancelling ones.
    """

    __slots__ = _SPACE = ("dim",)

    def __init__(self, dim: SuperDim, terms=None):
        self.dim = dim
        self.terms = self._collect(terms)

    def _reduce(self, word):
        return cyclic_reduce(word, self.dim)

    @classmethod
    def word(cls, dim: SuperDim, letters, coeff=Fraction(1)) -> "CyclicWord":
        return cls(dim, {tuple(letters): coeff})

    @classmethod
    def from_tensor(cls, t: SuperTensor) -> "CyclicWord":
        """Class of a tensor in the rotation quotient."""
        return cls(t.dim, dict(t.terms))

    def is_parity_homogeneous(self, parity: int) -> bool:
        return all(self.dim.word_parity(w) == parity for w in self.terms)

    def __repr__(self):
        if not self.terms:
            return "CyclicWord(0)"
        bits = []
        for w, c in sorted(self.terms.items(), key=lambda it: (len(it[0]), it[0])):
            mono = ".".join(self.dim.letter_name(a) for a in w) or "1"
            bits.append(f"({format_scalar(c)})*[{mono}]")
        return " + ".join(bits)


def bracket(a: CyclicWord, b: CyclicWord, form=None,
            max_order=None) -> CyclicWord:
    """Bracket of cyclic-word chains: contract one letter of each factor
    through the pairing and splice the rotated remainders.  `form` is the
    pairing matrix, the canonical one when None.

    With the default canonical pairing, {p1, q1} = 1 and
    {p1.p1, q1.q1} = 4 p1.q1; the bracket is super-skew and satisfies the
    super Jacobi identity (checked exhaustively in the tests).

    With `max_order`, a pair of words of lengths k and l is skipped when
    k + l - 2 exceeds it.  Every word such a pair makes has length exactly
    k + l - 2, so the result is the full bracket with its words longer than
    `max_order` dropped, and nothing else changes.
    """
    if a.dim != b.dim:
        raise ValueError("bracket of words over different spaces")
    dim = a.dim
    mat = canonical_form_matrix(dim) if form is None else form
    out: dict = {}
    for aw, ac in a.terms.items():
        pa = dim.parities(aw)
        k = len(aw)
        pre_a = [0] * (k + 1)
        for t in range(k):
            pre_a[t + 1] = pre_a[t] + pa[t]
        for bw, bc in b.terms.items():
            l = len(bw)
            if max_order is not None and k + l - 2 > max_order:
                continue
            pb = dim.parities(bw)
            pre_b = [0] * (l + 1)
            for t in range(l):
                pre_b[t + 1] = pre_b[t] + pb[t]
            base = ac * bc
            for i in range(k):
                suf_a = pre_a[k] - pre_a[i + 1]
                for j in range(l):
                    val = mat[aw[i]][bw[j]]
                    if not val:
                        continue
                    suf_b = pre_b[l] - pre_b[j + 1]
                    # move the contracted letter a_i past the tail of a and
                    # the head of b, then rotate each punctured word so it
                    # starts right after its removed letter
                    eps = (pa[i] * (suf_a + pre_b[j])
                           + pre_a[i] * suf_a + pre_b[j] * suf_b)
                    word_a = aw[i + 1:] + aw[:i]
                    word_b = bw[j + 1:] + bw[:j]
                    sign = -1 if eps % 2 else 1
                    new = word_a + word_b
                    out[new] = out.get(new, 0) + base * val * sign
    return CyclicWord(dim, out)


# --------------------------------------------------------------- CE chains

def _word_key(word):
    return (len(word), word)


class CEChain(LinearCombination):
    """Chains of wedge words of cyclic words.

    A term is a tuple of canonical cyclic monomials; factors commute up to
    -(-1)^{|g||h|}, so equal even factors annihilate a term while equal odd
    factors are symmetric.  Terms are kept factor-sorted.
    """

    __slots__ = ("dim", "_by_ranks")
    _SPACE = ("dim",)

    def __init__(self, dim: SuperDim, terms=None):
        self.dim = dim
        self.terms = self._collect(terms)

    def by_ranks(self):
        """The terms grouped by the sorted lengths of their factors, which
        is the valency type of the graphs they pair with: {ranks:
        [(factors, coeff)]}.  Built on first use and kept, as a chain is
        never changed in place."""
        try:
            return self._by_ranks
        except AttributeError:
            groups: dict = {}
            for factors, coeff in self.terms.items():
                ranks = tuple(sorted(len(w) for w in factors))
                groups.setdefault(ranks, []).append((factors, coeff))
            self._by_ranks = groups
            return groups

    def _reduce(self, factors):
        sign = 1
        canon = []
        for w in factors:
            red = cyclic_reduce(w, self.dim)
            if red is None:
                return None
            canon.append(red[0])
            sign *= red[1]
        sorted_term = self._sort_factors(tuple(canon))
        if sorted_term is None:
            return None
        fs, s = sorted_term
        return fs, sign * s

    def _sort_factors(self, factors):
        pars = [self.dim.word_parity(w) for w in factors]
        items = list(zip(factors, pars))
        sign = 1
        for i in range(1, len(items)):
            j = i
            while j > 0 and _word_key(items[j - 1][0]) > _word_key(items[j][0]):
                swap = -1 if (items[j - 1][1] * items[j][1]) else 1
                sign *= -swap  # wedge swap costs -(-1)^{|g||h|}
                items[j - 1], items[j] = items[j], items[j - 1]
                j -= 1
        for t in range(len(items) - 1):
            if items[t][0] == items[t + 1][0] and items[t][1] == 0:
                return None
        return tuple(w for w, _ in items), sign

    @classmethod
    def wedge(cls, parts, coeff=Fraction(1)) -> "CEChain":
        """Wedge product of CyclicWord chains, expanded multilinearly."""
        parts = list(parts)
        if not parts:
            raise ValueError("empty wedge: use CEChain.one")
        dim = parts[0].dim
        out = cls(dim, {(): coeff})
        for part in parts:
            out = out.wedge_mul(cls(dim, {(w,): c for w, c in part.terms.items()}))
        return out

    @classmethod
    def one(cls, dim: SuperDim, coeff=Fraction(1)) -> "CEChain":
        return cls(dim, {(): coeff})

    def wedge_mul(self, other: "CEChain") -> "CEChain":
        out: dict = {}
        for f1, c1 in self.terms.items():
            for f2, c2 in other.terms.items():
                key = f1 + f2
                out[key] = out.get(key, 0) + c1 * c2
        return CEChain(self.dim, out)

    def degree_part(self, degree: int) -> "CEChain":
        return self._new({fs: c for fs, c in self.terms.items()
                          if len(fs) == degree})

    def __repr__(self):
        if not self.terms:
            return "CEChain(0)"
        bits = []
        for fs, c in sorted(self.terms.items(),
                            key=lambda it: (len(it[0]), it[0])):
            mono = " ^ ".join(
                "[" + ".".join(self.dim.letter_name(a) for a in w) + "]"
                for w in fs) or "1"
            bits.append(f"({format_scalar(c)})*{mono}")
        return " + ".join(bits)


def ce_differential(x: CEChain, form=None) -> CEChain:
    """Wedge-complex differential: replace one pair of factors by its
    bracket, summed over pairs with the usual graded signs."""
    dim = x.dim
    out = CEChain(dim)
    for factors, coeff in x.terms.items():
        pars = [dim.word_parity(w) for w in factors]
        prefix = [0]
        for p in pars:
            prefix.append(prefix[-1] + p)
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                eps = (pars[i] * prefix[i] + pars[j] * prefix[j]
                       + pars[i] * pars[j] + i + j + 1)
                br = bracket(CyclicWord.word(dim, factors[i]),
                             CyclicWord.word(dim, factors[j]), form)
                if not br:
                    continue
                rest = tuple(w for t, w in enumerate(factors) if t not in (i, j))
                sign = -1 if eps % 2 else 1
                out = out + CEChain(dim, {
                    (w,) + rest: coeff * c * sign for w, c in br.terms.items()})
    return out
