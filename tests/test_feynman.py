"""State-sum amplitudes and the chain-level integration map."""

import random
from fractions import Fraction

from ribbonhom.complexes import GraphChain, coboundary, pairing
from ribbonhom.feynman import (amplitude, integral_I, integral_I_inverse,
                               pair_chain_graph)
from ribbonhom.graphs import canonicalize, disjoint_union, enumerate_graphs
from ribbonhom.lie import CEChain, CyclicWord, ce_differential
from ribbonhom.superspace import (SuperDim, SuperTensor,
                                  canonical_form_matrix, contract)

import oracles as O

D10 = SuperDim(1, 0)
D11 = SuperDim(1, 1)
P1, Q1, X1 = 0, 1, 2
THETA = canonicalize(((3, 3), ((0, 3), (1, 4), (2, 5))))[0]


def rand_wedge(rng, dim, ranks):
    parts = []
    for k in ranks:
        w = CyclicWord(dim, {tuple(rng.randrange(dim.total)
                                   for _ in range(k)):
                             Fraction(rng.randint(-2, 2))})
        if not w:
            return None
        parts.append(w)
    return CEChain.wedge(parts)


def balanced_wedge(rng, dim, ranks):
    """A one-term wedge whose letters the canonical pairing can pair off:
    they are drawn as pairs p_i, q_i and x_j, x_j, shuffled and cut into
    words of the given ranks; None when a word cancels itself."""
    letters = []
    while len(letters) < sum(ranks):
        i = rng.randrange(dim.n + dim.m)
        letters += [i, dim.n + i] if i < dim.n else [dim.n + i] * 2
    rng.shuffle(letters)
    parts = []
    for k in ranks:
        parts.append(CyclicWord.word(dim, letters[:k]))
        letters = letters[k:]
    if not all(parts):
        return None
    return CEChain.wedge(parts, Fraction(rng.choice([-2, -1, 1, 2])))


def amplitude_of_chords(chords, t):
    """The state sum of one tensor paired along `chords` through the
    canonical form."""
    return contract([t], chords, canonical_form_matrix(t.dim)).scalar()


def test_kappa_pinned_values():
    # consecutive slots paired: (0, 1), (2, 3), ...
    for word, value in (((P1, Q1), 1), ((P1, P1), 0), ((P1, Q1, X1, X1), 1)):
        t = SuperTensor.word(D11, word)
        chords = [(r, r + 1) for r in range(0, t.rank, 2)]
        assert amplitude_of_chords(chords, t) == value, word


def test_beta_identity_diagram_is_kappa():
    # the identity diagram moves no letter, so its state sum is the plain
    # sum of products of pairing entries
    rng = random.Random(5)
    form = canonical_form_matrix(D11)
    for _ in range(30):
        t = SuperTensor(D11, 4, {tuple(rng.randrange(3) for _ in range(4)):
                                 Fraction(rng.randint(-3, 3))
                                 for _ in range(3)})
        plain = sum((c * form[w[0]][w[1]] * form[w[2]][w[3]]
                     for w, c in t.terms.items()), Fraction(0))
        assert amplitude_of_chords(((0, 1), (2, 3)), t) == plain
    assert amplitude_of_chords(((0, 2), (1, 3)),
                               SuperTensor.word(D10, (0, 0, 1, 1))) == 1


def test_beta_equivariance():
    rng = random.Random(7)
    chords = ((0, 2), (1, 3))
    for _ in range(25):
        t = SuperTensor(D11, 4, {tuple(rng.randrange(3) for _ in range(4)):
                                 Fraction(rng.randint(-3, 3))
                                 for _ in range(3)})
        tau = tuple(rng.sample(range(4), 4))
        tchords = tuple((tau[a], tau[b]) for a, b in chords)
        moved = SuperTensor(D11, 4, O.koszul_apply(O.invert_perm(tau),
                                                   t.terms, D11.parity))
        assert amplitude_of_chords(tchords, t) == \
            amplitude_of_chords(chords, moved)


def test_amplitude_ordered_theta_and_flip():
    # the theta diagram's state sum in its own labelling, and the sign of
    # reversing one edge
    chords = ((0, 3), (1, 4), (2, 5))
    flipped = ((3, 0), (1, 4), (2, 5))
    b1 = SuperTensor.word(D10, (0, 0, 0))
    b2 = SuperTensor.word(D10, (1, 1, 1))
    assert contract([b1, b2], chords, canonical_form_matrix(D10)).scalar() \
        == 1
    rng = random.Random(9)
    pair = canonical_form_matrix(D11)
    for _ in range(20):
        blocks = [SuperTensor(D11, 3,
                              {tuple(rng.randrange(3) for _ in range(3)):
                               Fraction(rng.randint(-2, 2))})
                  for _ in range(2)]
        assert contract(blocks, flipped, pair).scalar() == \
            -contract(blocks, chords, pair).scalar()


def test_amplitude_orientation_and_degree():
    # amplitudes take classes: a reversed edge reaches the amplitude only
    # through the sign of its canonical form
    g, s = canonicalize(((3, 3), ((3, 0), (1, 4), (2, 5))))
    assert g is THETA and s == -1
    rng = random.Random(13)
    hits = 0
    for _ in range(40):
        x = rand_wedge(rng, D11, (3, 3))
        if x is None or not x:
            continue
        base = amplitude(THETA, x)
        assert s * amplitude(g, x) == -base
        hits += bool(base)
    assert hits
    wrong = CEChain.wedge([CyclicWord.word(D11, (P1, Q1, X1))])
    assert amplitude(THETA, wrong) == 0


def test_pair_chain_graph_divides_by_automorphisms():
    rng = random.Random(15)
    for _ in range(20):
        x = rand_wedge(rng, D10, (3, 3))
        if x is None:
            continue
        whole = amplitude(THETA, x)
        assert pair_chain_graph(x, THETA) == Fraction(whole, THETA.aut)
    assert THETA.aut == 6


def test_integration_roundtrip_small():
    seen = 0
    for e in range(1, 4):
        for v in range(1, e + 1):
            for g in enumerate_graphs(v, e):
                if not g.connected or g.zero:
                    continue
                assert integral_I(integral_I_inverse(g)) == GraphChain.of(g)
                seen += 1
    assert seen >= 5


def test_triangle_identity_sampled():
    # uniform words can rarely be paired off, so their comparisons are
    # mostly 0 = 0; balanced draws make the pairing side nonzero, so a
    # term integral_I skipped wrongly would show up as a mismatch
    rng = random.Random(21)
    cases = [(D11, (3, 3), 3), (SuperDim(2, 0), (4,), 2),
             (SuperDim(1, 2), (3, 5), 3)]
    nonzero = 0
    for _ in range(6):
        for dim, ranks, emax in cases:
            for draw in (rand_wedge, balanced_wedge):
                x = draw(rng, dim, ranks)
                if x is None:
                    continue
                ix = integral_I(x)
                for v in range(1, emax + 1):
                    for g in enumerate_graphs(v, emax):
                        if g.zero:
                            continue
                        lhs = pair_chain_graph(x, g)
                        assert lhs == pairing(ix, GraphChain.of(g))
                        nonzero += lhs != 0
    assert nonzero >= 12  # 18 balanced comparisons read nonzero


def test_pair_chain_graph_is_linear_over_mixed_valency_types():
    # the chain pairing visits only the classes whose valency type some
    # term of x has; it must equal the sum of the pairings class by class
    rng = random.Random(29)
    graphs = [g for v in range(1, 4) for e in range(2, 5)
              for g in enumerate_graphs(v, e) if not g.zero]
    assert len({g.vtype for g in graphs}) > 5
    hits = 0
    for dim in (D11, SuperDim(1, 2)):
        for _ in range(6):
            x = sum(filter(None, (balanced_wedge(rng, dim, ranks)
                                  for ranks in ((3, 3), (4,), (3, 5)))),
                    CEChain(dim))
            chain = GraphChain({g: Fraction(rng.randint(1, 3))
                                for g in rng.sample(graphs, 20)})
            whole = pair_chain_graph(x, chain)
            assert whole == sum(c * pair_chain_graph(x, g)
                                for g, c in chain.terms.items())
            present = {g.vtype for g in chain.terms} & set(x.by_ranks())
            absent = {g.vtype for g in chain.terms} - set(x.by_ranks())
            hits += bool(whole and present and absent)
    assert hits >= 4


def test_adjointness_sampled():
    rng = random.Random(23)
    cases = [(D11, (3, 3), 2), (SuperDim(2, 0), (3, 3, 4), 3),
             (SuperDim(1, 2), (4, 4), 3)]
    for _ in range(5):
        for dim, ranks, emax in cases:
            x = rand_wedge(rng, dim, ranks)
            if x is None:
                continue
            dx = ce_differential(x)
            for v in range(1, emax + 1):
                for g in enumerate_graphs(v, emax):
                    if g.zero:
                        continue
                    lhs = pair_chain_graph(dx, g)
                    rhs = pair_chain_graph(x, coboundary(GraphChain.of(g)))
                    assert lhs == rhs


def test_integration_multiplicative_under_embedding():
    lp = canonicalize(((4,), ((0, 1), (2, 3))))[0]
    xl = integral_I_inverse(lp)     # letters over a rank-2 even space
    yr = integral_I_inverse(THETA)  # letters over a rank-3 even space
    k1, k2 = 2, 3
    big = SuperDim(k1 + k2, 0)

    def embed(ch, offset, k_from):
        shift = (k1 + k2) - k_from + offset
        out = {}
        for fs, c in ch.terms.items():
            out[tuple(tuple(a + offset if a < k_from else a + shift
                            for a in w) for w in fs)] = c
        return CEChain(big, out)

    prod = embed(xl, 0, k1).wedge_mul(embed(yr, k1, k2))
    left = integral_I(prod)
    right = GraphChain({})
    for g1, c1 in integral_I(xl).terms.items():
        for g2, c2 in integral_I(yr).terms.items():
            gu, su = disjoint_union(g1, g2)
            right = right + GraphChain({gu: c1 * c2 * su})
    assert left == right and left
