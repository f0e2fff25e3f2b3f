"""Super vector space layer: parities, Koszul signs, tensor machinery."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ribbonhom.superspace import (SuperDim, SuperTensor, SymplecticForm,
                                  canonical_form_matrix, contract,
                                  cyclic_shift, koszul_sign, norm,
                                  perm_parity)

import oracles as O

D11 = SuperDim(1, 1)
D02 = SuperDim(0, 2)


def test_parities_and_letter_names():
    d = SuperDim(2, 1)
    assert [d.parity(a) for a in range(d.total)] == [0, 0, 0, 0, 1]
    names = [d.letter_name(a) for a in range(d.total)]
    assert len(set(names)) == d.total


def test_negative_signature_rejected():
    with pytest.raises(ValueError):
        SuperDim(-1, 0)
    with pytest.raises(ValueError):
        D11.parity(3)


@given(st.permutations(list(range(5))))
def test_perm_parity_matches_inversion_count(perm):
    inversions = sum(1 for i in range(5) for j in range(i + 1, 5)
                     if perm[i] > perm[j])
    assert perm_parity(perm) == (-1) ** inversions


@given(st.permutations(list(range(4))), st.permutations(list(range(4))))
def test_koszul_sign_is_multiplicative_on_odd_letters(p, q):
    # with every letter odd the Koszul sign is the permutation parity,
    # which is multiplicative under composition
    parities = (1, 1, 1, 1)
    p, q = tuple(p), tuple(q)
    assert koszul_sign(parities, O.compose_perms(p, q)) == \
        koszul_sign(parities, p) * koszul_sign(parities, q)


def test_koszul_sign_even_letters_trivial():
    assert koszul_sign((0, 0, 0), (2, 0, 1)) == 1
    assert koszul_sign((1, 1), (1, 0)) == -1
    assert koszul_sign((0, 1), (1, 0)) == 1


def test_perm_helpers():
    p = (2, 0, 1)
    assert O.compose_perms(O.invert_perm(p), p) == (0, 1, 2)


def test_koszul_apply_composes_with_signs():
    rng = random.Random(3)
    for _ in range(40):
        rank = rng.randint(1, 5)
        t = SuperTensor(D11, rank,
                        {tuple(rng.randrange(3) for _ in range(rank)):
                         Fraction(rng.randint(-3, 3))})
        p = list(range(rank))
        q = list(range(rank))
        rng.shuffle(p)
        rng.shuffle(q)
        p, q = tuple(p), tuple(q)
        lhs = O.koszul_apply(p, O.koszul_apply(q, t.terms, D11.parity),
                             D11.parity)
        rhs = O.koszul_apply(O.compose_perms(p, q), t.terms, D11.parity)
        assert lhs == rhs, (p, q, t)


def test_koszul_apply_odd_swap_sign():
    t = SuperTensor.word(D02, (0, 1))
    swapped = O.koszul_apply((1, 0), t.terms, D02.parity)
    assert swapped == {(1, 0): Fraction(-1)}


def test_cyclic_shift_and_norm():
    t = SuperTensor.word(D02, (0, 1, 1))
    s = cyclic_shift(t)
    # first letter moves past two odd letters: sign (+1), word rotates left
    assert s == SuperTensor.word(D02, (1, 1, 0))
    total = norm(t)
    assert cyclic_shift(total) == total


def _shuffle_then_pair(tensors, chords, pairing, legs):
    """Reference state sum: the full tensor product, Koszul-shuffled so
    chord r sits at slots 2r, 2r+1 and the legs follow, then paired off
    slot pair by slot pair."""
    dim = tensors[0].dim
    product = {(): Fraction(1)}
    for t in tensors:
        product = {w1 + w2: c1 * c2 for w1, c1 in product.items()
                   for w2, c2 in t.terms.items()}
    rank = sum(t.rank for t in tensors)
    perm = [0] * rank
    for r, (a, b) in enumerate(chords):
        perm[a], perm[b] = 2 * r, 2 * r + 1
    for i, s in enumerate(legs):
        perm[s] = 2 * len(chords) + i
    shuffled = O.koszul_apply(tuple(perm), product, dim.parity)
    out = {}
    for word, coeff in shuffled.items():
        for r in range(len(chords)):
            coeff = coeff * pairing[word[2 * r]][word[2 * r + 1]]
        rest = word[2 * len(chords):]
        out[rest] = out.get(rest, 0) + coeff
    return SuperTensor(dim, len(legs), out)


@given(st.data())
def test_contract_matches_shuffle_then_pair(data):
    dim = data.draw(st.sampled_from([SuperDim(1, 0), D11, D02,
                                     SuperDim(2, 1)]))
    letter = st.integers(0, dim.total - 1)
    # non-integral values make contract clear denominators
    fractions = st.sampled_from([Fraction(1, 2), Fraction(-2, 3)])
    coeff = st.sampled_from([-2, -1, 1, 3]).map(Fraction) | fractions
    tensors = []
    for rank in data.draw(st.lists(st.integers(0, 3), min_size=1,
                                   max_size=3)):
        terms = data.draw(st.dictionaries(
            st.tuples(*[letter] * rank), coeff, min_size=1, max_size=3))
        tensors.append(SuperTensor(dim, rank, terms))
    slots = data.draw(st.permutations(range(sum(t.rank for t in tensors))))
    npairs = data.draw(st.integers(0, len(slots) // 2))
    chords = [(slots[2 * r], slots[2 * r + 1]) for r in range(npairs)]
    legs = slots[2 * npairs:]
    entry = st.integers(-2, 2).map(Fraction) | fractions
    pairing = data.draw(st.lists(st.lists(entry, min_size=dim.total,
                                          max_size=dim.total),
                                 min_size=dim.total, max_size=dim.total))
    if data.draw(st.booleans()):
        # a pairing of row tuples has its cleared form kept between calls
        pairing = tuple(tuple(row) for row in pairing)
    want = _shuffle_then_pair(tensors, chords, pairing, legs)
    assert contract(tensors, chords, pairing, legs) == want
    assert contract(tensors, chords, pairing, legs) == want


def test_contract_rejects_uncovered_slots():
    h = SuperTensor.word(D11, (0, 1, 2))
    pairing = canonical_form_matrix(D11)
    with pytest.raises(ValueError):
        contract([h], [(0, 1)], pairing)
    with pytest.raises(ValueError):
        contract([h], [(0, 1), (1, 2)], pairing)
    with pytest.raises(ValueError):
        contract([h], [(0, 1)], pairing, legs=(3,))
    with pytest.raises(ValueError):
        contract([h, SuperTensor.word(D02, (0,))], [(0, 1), (2, 3)],
                 pairing)
    assert contract([h], [(0, 1)], pairing, legs=(2,)) == \
        SuperTensor.word(D11, (2,))


def test_symplectic_form_canonical_and_checks():
    form = SymplecticForm.canonical(D11)
    mat = canonical_form_matrix(D11)
    assert form.matrix == mat
    assert form.matrix[0][1] == Fraction(1)
    dual = form.dual_matrix()
    n = D11.total
    prod = [[sum(form.matrix[i][k] * dual[k][j] for k in range(n))
             for j in range(n)] for i in range(n)]
    # frozen convention: omega . dual = -1 on even letters, +1 on odd ones
    for i in range(n):
        for j in range(n):
            expect = (0 if i != j else (-1) ** (1 + D11.parity(i)))
            assert prod[i][j] == expect, (i, j, prod)


def test_symplectic_form_rejects_parity_mixing():
    bad = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    with pytest.raises(ValueError):
        SymplecticForm(SuperDim(1, 0), [[Fraction(0), Fraction(1)],
                                        [Fraction(-1), Fraction(1)]])
    # even-odd cross terms are forbidden
    with pytest.raises(ValueError):
        SymplecticForm(SuperDim(1, 1), [
            [Fraction(0), Fraction(1), Fraction(1)],
            [Fraction(-1), Fraction(0), Fraction(0)],
            [Fraction(1), Fraction(0), Fraction(1)]])
