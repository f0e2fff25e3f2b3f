"""Cyclic words, the graded bracket, and the Chevalley-Eilenberg complex."""

import random
from fractions import Fraction

import pytest

from ribbonhom.ainfinity import (AInfinityAlgebra, characteristic_class,
                                 partition_function, validate)
from ribbonhom.feynman import pair_chain_graph
from ribbonhom.fixtures import frobenius_pair, twisted_11
from ribbonhom.graphs import enumerate_graphs
from ribbonhom.lie import (CEChain, CyclicWord, bracket, ce_differential,
                           cyclic_reduce)
from ribbonhom.scalars import rank_exact
from ribbonhom.superspace import (SuperDim, SuperTensor, SymplecticForm,
                                  canonical_form_matrix)

import oracles

D10 = SuperDim(1, 0)
D11 = SuperDim(1, 1)
D02 = SuperDim(0, 2)
P1, Q1 = 0, 1


def rand_word(rng, dim, kmax=3):
    k = rng.randint(1, kmax)
    return CyclicWord.word(dim, tuple(rng.randrange(dim.total)
                                      for _ in range(k)))


def word_parity(x):
    return x.dim.word_parity(next(iter(x.terms)))


def test_cyclic_reduce_is_rotation_invariant():
    rng = random.Random(3)
    for dim in [D11, D02, SuperDim(2, 1)]:
        for _ in range(200):
            k = rng.randint(1, 6)
            w = tuple(rng.randrange(dim.total) for _ in range(k))
            base = cyclic_reduce(w, dim)
            for r in range(1, k):
                rot = cyclic_reduce(w[r:] + w[:r], dim)
                if base is None:
                    assert rot is None
                else:
                    assert rot is not None and rot[0] == base[0]


def test_cyclic_reduce_matches_oracle():
    rng = random.Random(7)
    for dim in [D11, D02, SuperDim(2, 1)]:
        pars = [dim.parity(a) for a in range(dim.total)]
        for _ in range(200):
            w = tuple(rng.randrange(dim.total)
                      for _ in range(rng.randint(1, 6)))
            assert cyclic_reduce(w, dim) == \
                oracles.cyclic_reduce_oracle(list(w), pars), (dim, w)


def test_bracket_matches_oracle():
    rng = random.Random(8)
    for dim in [D10, D11, D02, SuperDim(2, 1)]:
        pars = [dim.parity(a) for a in range(dim.total)]
        mat = canonical_form_matrix(dim)
        for _ in range(60):
            a, b = (CyclicWord(dim, {
                tuple(rng.randrange(dim.total)
                      for _ in range(rng.randint(1, 4))):
                Fraction(rng.randint(-3, 3))
                for _ in range(rng.randint(1, 2))}) for _ in range(2))
            assert bracket(a, b).terms == \
                oracles.bracket_oracle(a.terms, b.terms, pars, mat), (a, b)


def test_bounded_bracket_is_the_oracle_cut_at_the_bound():
    # a pair of words of lengths k, l makes words of length k + l - 2 only,
    # so skipping the pairs above the bound is cutting the full bracket
    rng = random.Random(9)
    cut = kept = 0
    for dim in [D10, D11, D02, SuperDim(2, 1)]:
        pars = [dim.parity(a) for a in range(dim.total)]
        mat = canonical_form_matrix(dim)
        for _ in range(40):
            a, b = (CyclicWord(dim, {
                tuple(rng.randrange(dim.total)
                      for _ in range(rng.randint(1, 5))):
                Fraction(rng.randint(-3, 3))
                for _ in range(rng.randint(2, 4))}) for _ in range(2))
            if not a or not b:
                continue
            full = oracles.bracket_oracle(a.terms, b.terms, pars, mat)
            assert bracket(a, b).terms == full, (a, b)
            top = max(len(w) for w in a.terms) + max(len(w) for w in b.terms)
            for bound in range(1, top - 1):
                want = {w: c for w, c in full.items() if len(w) <= bound}
                assert bracket(a, b, mat, bound).terms == want, (a, b, bound)
                cut += want != full
                kept += any(len(w) == bound for w in want)
    # the cut drops words, and words at the bound itself are kept
    assert cut > 100 and kept > 100


def test_cyclic_reduce_kills_odd_symmetric_orbits():
    # a single odd letter squared has an orbit-parity obstruction
    assert cyclic_reduce((0, 0), SuperDim(0, 1)) is None
    got = cyclic_reduce((0, 0), D10)
    assert got == ((0, 0), 1)


def test_pinned_brackets():
    r = bracket(CyclicWord.word(D10, (P1,)), CyclicWord.word(D10, (Q1,)))
    assert r.terms == {(): 1}
    r = bracket(CyclicWord.word(D10, (P1, P1)), CyclicWord.word(D10, (Q1, Q1)))
    assert r.terms == {(P1, Q1): 4}
    cube = CyclicWord.word(SuperDim(0, 1), (0, 0, 0))
    assert not bracket(cube, cube)
    s1 = CyclicWord.from_tensor(SuperTensor(D02, 3, {
        (0, 0, 1): Fraction(1), (0, 1, 0): Fraction(1),
        (1, 0, 0): Fraction(1)}))
    assert bracket(s1, s1)


def test_bracket_bilinear():
    rng = random.Random(11)
    for dim in [D10, D11, D02]:
        for _ in range(40):
            a, b, c = (rand_word(rng, dim) for _ in range(3))
            lhs = bracket(a + b.scale(Fraction(2)), c)
            rhs = bracket(a, c) + bracket(b, c).scale(Fraction(2))
            assert lhs == rhs


def test_bracket_graded_skew():
    rng = random.Random(12)
    for dim in [D10, D11, D02, SuperDim(2, 1)]:
        for _ in range(120):
            a, b = rand_word(rng, dim), rand_word(rng, dim)
            if not a or not b:
                continue
            pa, pb = word_parity(a), word_parity(b)
            assert not bracket(a, b) + bracket(b, a).scale((-1) ** (pa * pb))


def test_bracket_graded_jacobi():
    rng = random.Random(13)
    for dim in [D10, D11, D02]:
        for _ in range(80):
            a, b, c = (rand_word(rng, dim) for _ in range(3))
            if not (a and b and c):
                continue
            pa, pb = word_parity(a), word_parity(b)
            jac = (bracket(a, bracket(b, c))
                   - bracket(bracket(a, b), c)
                   - bracket(b, bracket(a, c)).scale((-1) ** (pa * pb)))
            assert not jac


def test_ce_differential_pinned_example():
    ce = CEChain.wedge([CyclicWord.word(D10, (P1, P1)),
                        CyclicWord.word(D10, (Q1, Q1))])
    assert ce_differential(ce).terms == {((P1, Q1),): 4}


def test_ce_differential_squares_to_zero():
    rng = random.Random(17)
    for dim in [D10, D11, D02]:
        for _ in range(60):
            factors = [rand_word(rng, dim) for _ in range(rng.randint(2, 3))]
            if not all(factors):
                continue
            chain = CEChain.wedge(factors, Fraction(rng.randint(1, 3)))
            assert not ce_differential(ce_differential(chain))


def test_wedge_graded_commutative():
    rng = random.Random(19)
    for _ in range(40):
        a, b = rand_word(rng, D11), rand_word(rng, D11)
        if not a or not b:
            continue
        ab = CEChain.wedge([a, b])
        ba = CEChain.wedge([b, a])
        # factors commute up to -(-1)^{|g||h|} in the word parities
        sign = -((-1) ** (word_parity(a) * word_parity(b)))
        assert ab == ba.scale(sign)
    # so even-parity squares vanish while odd-parity squares survive
    w = CyclicWord.word(D10, (P1, Q1))
    assert not CEChain.wedge([w, w])
    odd = CyclicWord.word(D11, (0, 2))
    assert word_parity(odd) == 1 and CEChain.wedge([odd, odd])


def rand_even_form(rng, form):
    """A random invertible parity-preserving basis change psi with small
    integer entries, and the even form s psi^T omega psi for a random
    scale s = +-1, +-2: it is indefinite on the odd letters exactly when
    `form` is, and definite of either sign otherwise."""
    dim = form.dim
    t, n2 = dim.total, 2 * dim.n
    while True:
        psi = [[Fraction(rng.randint(-2, 2)) if (i < n2) == (j < n2)
                else Fraction(0) for j in range(t)] for i in range(t)]
        if rank_exact(oracles.sparse_rows(psi)) == t:
            break
    s = rng.choice([-2, -1, 1, 2])
    moved = oracles.mat_mul([list(col) for col in zip(*psi)],
                            oracles.mat_mul(form.matrix, psi))
    return psi, SymplecticForm(dim, [[s * x for x in row] for row in moved])


def transport(algebra, psi, form):
    """The algebra's tensors pulled back along psi (letter a goes to
    sum_b psi[b][a] b), over `form`.  With form psi^T omega psi this is an
    isomorphic algebra; scaling the form by s divides {h, h} by s, so
    every scale keeps the structure equation."""
    letters = range(algebra.dim.total)
    hs = {}
    for k, t in algebra.hamiltonians.items():
        out: dict = {}
        for word, coeff in t.terms.items():
            images = {(): coeff}
            for b in word:
                images = {w + (a,): v * psi[b][a] for w, v in images.items()
                          for a in letters if psi[b][a]}
            for w, v in images.items():
                out[w] = out.get(w, 0) + v
        hs[k] = SuperTensor(algebra.dim, k, out)
    return AInfinityAlgebra(form, hs, algebra.truncation)


def odd_block_kind(form):
    """'positive', 'negative' or 'indefinite' for an odd block of size one
    or two."""
    n2 = 2 * form.dim.n
    odd = [row[n2:] for row in form.matrix[n2:]]
    if len(odd) == 2 and odd[0][0] * odd[1][1] < odd[0][1] * odd[1][0]:
        return "indefinite"
    return "positive" if odd[0][0] > 0 else "negative"


def test_characteristic_class_in_the_algebras_own_form():
    # the class is the exponential of the algebra's own word Hamiltonian,
    # read through its own dual pairing: no normalization of the form, so
    # odd blocks that are negative definite or indefinite work as well
    indefinite = AInfinityAlgebra(
        SymplecticForm(D02, [[Fraction(1), Fraction(0)],
                             [Fraction(0), Fraction(-1)]]),
        {3: SuperTensor(D02, 3, {(0, 0, 0): Fraction(1),
                                 (1, 1, 1): Fraction(2)})}, 7)
    rng = random.Random(5)
    kinds = set()
    for base in (twisted_11(5), frobenius_pair(), indefinite):
        for _ in range(2):
            psi, form = rand_even_form(rng, base.form)
            A = transport(base, psi, form)
            assert validate(A) == []
            kinds.add(odd_block_kind(form))
            cc = characteristic_class(A, 2)
            pf = partition_function(A, (2, 6))
            nonzero = 0
            for v in (1, 2):
                for e in range(1, 7):
                    for g in enumerate_graphs(v, e):
                        assert pair_chain_graph(cc, g, A.form.dual) \
                            == pf.value(g), (A, g)
                        nonzero += bool(pf.value(g))
            assert nonzero, A
            # d exp(h) = {h, h}/2 ^ exp(h): what survives holds a word of
            # {h, h} beyond the orders validation checks
            d = ce_differential(cc, A.form.dual)
            assert all(any(len(w) > A.truncation + 1 for w in fs)
                       for fs in d.terms)
    assert kinds == {"positive", "negative", "indefinite"}


def test_chain_arithmetic_and_errors():
    a = CyclicWord.word(D10, (P1, Q1), Fraction(3, 2))
    assert (a - a.scale(Fraction(1, 3))).terms == {(P1, Q1): 1}
    assert sum([a, a], 0) == a.scale(2)
    c = CEChain.wedge([a])
    assert c.scale(0) == CEChain(D10, {})
    assert not CEChain(D10, {})
    x, y = CyclicWord.word(D10, (0, 1)), CyclicWord.word(D02, (0, 1))
    with pytest.raises(ValueError):
        x + y
    with pytest.raises(ValueError):
        CEChain.wedge([x]) + CEChain.wedge([y])
