"""Algebra validation, partition functions, twists, characteristic classes."""

import random
from fractions import Fraction

import pytest

from ribbonhom import ainfinity, lie
from ribbonhom.ainfinity import (AInfinityAlgebra, characteristic_class,
                                 connected_partition_function, direct_sum,
                                 exp_chain, hamiltonian_from_products,
                                 partition_function, twist, validate)
from ribbonhom.complexes import GraphChain, coboundary, is_boundary
from ribbonhom.fixtures import (frobenius_pair, nilpotent_11,
                                sphere_cohomology, trivial, twisted_11)
from ribbonhom.graphs import canonicalize, enumerate_graphs
from ribbonhom.lie import CEChain, CyclicWord, ce_differential
from ribbonhom.superspace import SuperDim, SuperTensor, SymplecticForm

from oracles import twist_oracle, z_value_oracle

DUMBBELL = canonicalize(((3, 3), ((0, 1), (2, 3), (4, 5))))[0]
THETA_TWISTED = canonicalize(((3, 3), ((0, 3), (1, 4), (2, 5))))[0]
THETA_PLANAR = canonicalize(((3, 3), ((0, 3), (1, 5), (2, 4))))[0]
LOOP_PAIR = canonicalize(((4,), ((0, 1), (2, 3))))[0]


def test_fixtures_validate():
    for a in (trivial(1, 1), frobenius_pair(), sphere_cohomology(),
              nilpotent_11(), twisted_11()):
        rep = validate(a)
        assert rep.valid, rep.failures
    assert sorted(twisted_11().hamiltonians) == [3, 5, 7]


def test_validate_catches_structure_failure():
    d01 = SuperDim(0, 1)
    lone = AInfinityAlgebra(
        SymplecticForm.canonical(d01),
        {3: SuperTensor(d01, 3, {(0, 0, 0): Fraction(1)})}, 5)
    assert validate(lone).valid  # x^4 is cyclically zero on one odd letter
    d02 = SuperDim(0, 2)
    s1 = SuperTensor(d02, 3, {(0, 0, 1): Fraction(1), (0, 1, 0): Fraction(1),
                              (1, 0, 0): Fraction(1)})
    rep = validate(AInfinityAlgebra(SymplecticForm.canonical(d02), {3: s1}, 5))
    assert not rep.valid
    assert rep.failures[0][0] == "structure-equation"


def test_validate_catches_a_failure_first_at_truncation_plus_one():
    # twisted_11 carries h3, h5 and h7, and its {h,h} first fails at order
    # 10 = 5 + 7 - 2.  At truncation 9 that order is truncation + 1, the
    # last one checked; at truncation 8 nothing is checked above order 9
    A = twisted_11()
    at = {t: validate(AInfinityAlgebra(A.form, A.hamiltonians, t))
          for t in (8, 9, 1000)}
    assert at[8].valid
    assert at[9].failures == at[1000].failures == [(
        "structure-equation",
        "{h,h} has monomial p1.p1.p1.x1.q1.q1.x1.q1.x1.x1 with coefficient 1")]


def test_validate_brackets_only_the_orders_it_keeps(monkeypatch):
    # every word the bracket makes is reduced once; at truncation 7 none
    # may be longer than 8.  Bracketing every pair of twisted_11's words
    # and cutting afterwards made words up to length 12
    A = twisted_11()
    reduce = lie.cyclic_reduce
    lengths = set()

    def spy(word, dim):
        lengths.add(len(word))
        return reduce(word, dim)

    monkeypatch.setattr(lie, "cyclic_reduce", spy)
    assert validate(A).valid
    assert max(lengths) == 8


def test_twist_matches_the_unbounded_reference():
    # the reference brackets in full and cuts afterwards; twist skips the
    # pairs above the truncation.  Gammas mix even words of lengths 3-5
    A = twisted_11()
    pars = [A.dim.parity(a) for a in range(A.dim.total)]
    h = A.word_hamiltonian().terms
    rng = random.Random(5)
    seen = set()
    moved = 0
    for _ in range(6):
        terms = {}
        while len(terms) < 3:
            word = tuple(rng.randrange(A.dim.total)
                         for _ in range(rng.randint(3, 5)))
            if sum(pars[a] for a in word) % 2 == 0:
                terms[word] = Fraction(rng.choice([-2, -1, 1, 2]))
        gamma = CyclicWord(A.dim, terms)
        seen.add(tuple(sorted({len(w) for w in gamma.terms})))
        for truncation in (5, 7):
            B = twist(A, gamma, truncation)
            want = twist_oracle(h, gamma.terms, pars, A.dual_pairing(),
                                truncation)
            assert B.truncation == truncation
            assert B.word_hamiltonian().terms == want, (gamma, truncation)
            moved += want != {w: c for w, c in h.items()
                              if len(w) <= truncation}
    assert any(len(lens) > 1 for lens in seen) and moved >= 4


def test_hamiltonian_from_products():
    d01 = SuperDim(0, 1)
    assert hamiltonian_from_products({2: {}},
                                     SymplecticForm.canonical(d01)) == {}
    h3 = sphere_cohomology().hamiltonian(3)
    assert h3.terms == {(0, 0, 1): Fraction(1), (0, 1, 0): Fraction(1),
                        (1, 0, 0): Fraction(1)}
    with pytest.raises(ValueError):
        hamiltonian_from_products(
            {2: {(0, 0): {1: Fraction(1)}}},
            SymplecticForm(SuperDim(0, 2), [[Fraction(1), Fraction(0)],
                                            [Fraction(0), Fraction(1)]]))


def test_inverse_form():
    d01 = SuperDim(0, 1)
    f = SymplecticForm(d01, [[Fraction(4)]])
    assert f.dual_matrix() == [[Fraction(1, 4)]]
    can = SymplecticForm.canonical(SuperDim(1, 0))
    assert can.dual_matrix() == [list(r) for r in can.matrix]
    assert SymplecticForm(d01, f.dual_matrix()).dual_matrix() == [[Fraction(4)]]


def test_partition_function_pinned_values():
    pf = partition_function(frobenius_pair(), (4, 6))
    assert pf.value(DUMBBELL) == 1
    assert pf.value(THETA_TWISTED) == Fraction(-1, 3)
    assert pf.value(THETA_PLANAR) == Fraction(1, 3)
    assert pf.chain.terms[DUMBBELL] == 1
    assert pf.value(LOOP_PAIR) == 0  # odd vertex count


def test_partition_function_matches_oracle_on_twisted_11():
    # orders 3, 5 and 7, even and odd letters, and the skew dual pairing
    # of C^{2|1}: every nonzero class of the window against the brute force
    A = twisted_11()
    pairing = A.dual_pairing()
    parities = [A.dim.parity(a) for a in range(A.dim.total)]
    h_by_k = {k: A.hamiltonian(k).terms for k in range(3, 13)}
    pf = partition_function(A, (4, 6))
    checked = 0
    orders = set()
    for v in range(1, 5):
        for e in range(1, 7):
            for g in enumerate_graphs(v, e):
                if g.zero:
                    continue
                want = z_value_oracle(g.vtype, g.chords, h_by_k, parities,
                                      pairing, g.aut)
                assert pf.chain.terms.get(g, 0) == want, g
                checked += 1
                if want:
                    orders.update(g.vtype)
    assert checked > 1000 and orders == {3, 5, 7}


def test_value_reads_the_chain_inside_the_window(monkeypatch):
    # inside the window `value` reads the chain; it must agree with the
    # state sum computed on its own, odd vertex counts and a raw diagram
    # (with its orientation sign) included, and run no state sum
    state_sum = ainfinity._graph_value
    calls = []

    def counted(*args):
        calls.append(args[1])
        return state_sum(*args)

    monkeypatch.setattr(ainfinity, "_graph_value", counted)
    for A, window, beyond in ((frobenius_pair(), (3, 4), (4, 6)),
                              (twisted_11(), (3, 5), (2, 6))):
        pf = partition_function(A, window)
        pairing = A.dual_pairing()
        classes = [g for v in range(1, window[0] + 1)
                   for e in range(1, window[1] + 1)
                   for g in enumerate_graphs(v, e)]
        raw = ((3, 3), ((0, 1), (2, 4), (3, 5)))   # dumbbell, sign -1
        calls.clear()
        got = [pf.value(g) for g in classes + [raw]]
        assert not calls
        want = [0 if g.zero else state_sum(A, g, pairing) for g in classes]
        h, sign = canonicalize(raw)
        want.append(sign * state_sum(A, h, pairing))
        assert got == want
        assert sign == -1 and want[-1]
        # the chain holds the empty graph and the nonzero classes
        assert sum(1 for z in want[:-1] if z) == len(pf.chain.terms) - 1
        # a class beyond the window still takes the state-sum path
        outside = next(g for g in enumerate_graphs(*beyond)
                       if not g.zero and state_sum(A, g, pairing))
        assert pf.value(outside) == state_sum(A, outside, pairing)
        assert calls == [outside]


def test_partition_function_is_a_cycle():
    pf = partition_function(frobenius_pair(), (3, 4))
    for v in range(1, 3):
        for e in range(1, 4):
            for g in enumerate_graphs(v, e):
                dg = coboundary(GraphChain.of(g))
                tot = sum((c * pf.value(h) for h, c in dg.terms.items()),
                          Fraction(0))
                assert tot == 0, (g, tot)


def test_exponential_identity_and_wreath_factor():
    A = frobenius_pair()
    pf = partition_function(A, (4, 6))
    zc = connected_partition_function(A, (4, 6))
    assert all(g.connected for g in zc.terms)
    assert exp_chain(zc, (4, 6)) == pf.chain
    c = Fraction(5)
    sq = exp_chain(GraphChain.of(THETA_TWISTED, c), (4, 6))
    double = canonicalize(((3, 3, 3, 3),
                           ((0, 3), (1, 4), (2, 5),
                            (6, 9), (7, 10), (8, 11))))[0]
    assert sq.terms[double] == c * c / 2


def test_direct_sum():
    A = frobenius_pair()
    S = direct_sum(A, trivial(0, 0))
    assert S.dim == A.dim and S.hamiltonians == A.hamiltonians
    AA = direct_sum(A, A)
    assert validate(AA).valid
    pf = partition_function(A, (2, 4))
    pf2 = partition_function(AA, (2, 4))
    assert pf2.value(THETA_TWISTED) == 2 * pf.value(THETA_TWISTED)


def test_twist_difference_is_a_boundary():
    A = frobenius_pair()
    assert twist(A, CyclicWord(A.dim)).hamiltonians == A.hamiltonians
    pf = partition_function(A, (2, 4))
    tried = 0
    for seed in range(4):
        r = random.Random(seed)
        terms = {}
        for _ in range(2):
            w = tuple(r.randrange(2) for _ in range(4))
            terms[w] = terms.get(w, 0) + Fraction(r.randint(-2, 2))
        gamma = CyclicWord(A.dim, terms)
        if not gamma:
            continue
        B = twist(A, gamma)
        assert validate(B).valid, (seed, validate(B).failures)
        pfB = partition_function(B, (2, 4))
        for v in range(1, 3):
            for e in range(1, 5):
                diff = GraphChain(
                    {g: pfB.value(g) - pf.value(g)
                     for g in enumerate_graphs(v, e) if g.connected})
                if not diff:
                    continue
                witness = is_boundary(diff)
                assert witness is not None, (seed, v, e, diff.terms)
                tried += 1
    assert tried


def test_characteristic_class_matches_partition_function():
    cc0 = characteristic_class(trivial(0, 1), 3)
    assert cc0.chain == CEChain.one(SuperDim(0, 1))
    # sphere_cohomology's odd form is hyperbolic, so indefinite: the class
    # is built and paired in that form as it is
    for A in (frobenius_pair(), sphere_cohomology()):
        cc = characteristic_class(A, 4)
        assert cc.pairing == A.dual_pairing()
        pf = partition_function(A, (4, 4))
        for v in range(1, 4):
            for e in range(1, 4):
                for g in enumerate_graphs(v, e):
                    assert cc.pairing_value(g) == pf.value(g)
        assert len({len(fs) for fs in cc.chain.terms}) == 5
        assert not ce_differential(cc.chain, A.dual_pairing())


def test_scaled_form_class_agrees_with_partition_function():
    # a form of 4 takes no square root, and -3 is not a sum of squares
    dimx = SuperDim(0, 1)
    for scale in (4, -3):
        Ax = AInfinityAlgebra(
            SymplecticForm(dimx, [[Fraction(scale)]]),
            {3: SuperTensor(dimx, 3, {(0, 0, 0): Fraction(1)})}, 7)
        assert validate(Ax).valid
        pfx = partition_function(Ax, (4, 5))
        ccx = characteristic_class(Ax, 4)
        nonzero = 0
        for v in range(1, 4):
            for e in range(1, 5):
                for g in enumerate_graphs(v, e):
                    assert ccx.pairing_value(g) == pfx.value(g)
                    nonzero += bool(pfx.value(g))
        assert nonzero
