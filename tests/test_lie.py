"""Cyclic words, the graded bracket, and the Chevalley-Eilenberg complex."""

import random
from fractions import Fraction

import pytest

from ribbonhom.lie import (CEChain, CyclicWord, DarbouxError, bracket,
                           ce_differential, coinvariant_reduce, cyclic_reduce,
                           darboux_linear, osp_act, osp_basis,
                           substitute_letters)
from ribbonhom.scalars import mat_mul, mat_transpose
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
    return x.word_parity(next(iter(x.terms)))


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


def test_osp_acts_by_bracket_derivations():
    rng = random.Random(23)
    for dim in [D10, D02]:
        basis = osp_basis(dim)
        assert basis
        for _ in range(40):
            xi = basis[rng.randrange(len(basis))]
            a, b = rand_word(rng, dim), rand_word(rng, dim)
            if not a or not b:
                continue
            xp, pa = word_parity(xi), word_parity(a)
            lhs = bracket(xi, bracket(a, b))
            rhs = (bracket(bracket(xi, a), b)
                   + bracket(a, bracket(xi, b)).scale((-1) ** (xp * pa)))
            assert lhs == rhs


def test_osp_images_reduce_to_zero():
    for dim, probe in [
            (D10, CEChain(D10, {((0, 0, 1), (1, 1, 0)): Fraction(1)})),
            (D02, CEChain(D02, {((0, 0, 1), (1, 1, 0)): Fraction(1)})),
    ]:
        for xi in osp_basis(dim):
            img = osp_act(xi, probe)
            if img:
                assert not coinvariant_reduce(img).residue
        red = coinvariant_reduce(probe)
        if red.residue:
            assert coinvariant_reduce(red.residue).residue == red.residue


def test_coinvariant_coordinates_recombine():
    probe = CEChain(D10, {((0, 0, 1), (1, 1, 0)): Fraction(2),
                          ((0, 1, 1), (0, 0, 1)): Fraction(-3)})
    red = coinvariant_reduce(probe)
    assert len(red.basis) == len(red.coords)
    recon = CEChain(D10, {fs: c for fs, c in zip(red.basis, red.coords)})
    assert recon == red.residue
    # what was dropped lies in the image: reducing it leaves nothing
    dropped = probe - red.residue
    if dropped:
        back = coinvariant_reduce(dropped)
        assert not back.residue and not any(back.coords)
    with pytest.raises(ValueError):
        coinvariant_reduce(probe + CEChain(D10, {((0, 1),): Fraction(1)}))


def rand_even_form(rng, dim):
    n2, m, t = 2 * dim.n, dim.m, dim.total
    can = canonical_form_matrix(dim)
    while True:
        psi = [[Fraction(rng.randint(-2, 2)) for _ in range(n2)]
               for _ in range(n2)]
        ao = [[Fraction(rng.randint(-2, 2)) for _ in range(m)]
              for _ in range(m)]
        ee = [[can[i][j] for j in range(n2)] for i in range(n2)]
        be = mat_mul(mat_transpose(psi), mat_mul(ee, psi)) if n2 else []
        so = mat_mul(mat_transpose(ao), ao) if m else []
        full = [[Fraction(0)] * t for _ in range(t)]
        for i in range(n2):
            for j in range(n2):
                full[i][j] = be[i][j]
        for i in range(m):
            for j in range(m):
                full[n2 + i][n2 + j] = so[i][j]
        try:
            return SymplecticForm(dim, full)
        except ValueError:
            continue


def test_darboux_transport_intertwines_brackets():
    rng = random.Random(29)
    for dim in [D10, D11, SuperDim(1, 2)]:
        for _ in range(4):
            form = rand_even_form(rng, dim)
            phi = darboux_linear(form)
            sub = mat_transpose(phi)
            pdual = form.dual_matrix()
            for _ in range(5):
                a, b = rand_word(rng, dim), rand_word(rng, dim)
                if not a or not b:
                    continue
                lhs = substitute_letters(bracket(a, b, pdual), sub)
                rhs = bracket(substitute_letters(a, sub),
                              substitute_letters(b, sub))
                assert not lhs - rhs


def test_darboux_rejects_non_definite_odd_part():
    with pytest.raises(DarbouxError):
        darboux_linear(SymplecticForm(D02, [[Fraction(0), Fraction(1)],
                                            [Fraction(1), Fraction(0)]]))
    with pytest.raises(DarbouxError):
        darboux_linear(SymplecticForm(SuperDim(0, 1), [[Fraction(-1)]]))


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
