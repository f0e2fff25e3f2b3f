"""Legged graphs, gluing, correlation tensors, and composition."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

import oracles as O
from ribbonhom.ainfinity import partition_function
from ribbonhom.complexes import GraphChain
from ribbonhom.fixtures import frobenius_pair, twisted_11
from ribbonhom.graphs import EMPTY_GRAPH, canonicalize, enumerate_graphs
from ribbonhom.jsonio import graph_from_json, graph_to_json
from ribbonhom.tcft import (compose, compose_tensors,
                            composition_compatibility, correlation,
                            enumerate_legged_graphs, glue, glue_diagram)

A = frobenius_pair()


def random_diagram(rng, nin, nout, nedges):
    size = 2 * nedges + nin + nout
    parts = []
    left = size
    while left > 5:
        k = rng.choice([3, 3, 3, 4, 5])
        if left - k < 3 and left != k:
            continue
        parts.append(k)
        left -= k
    if left >= 3:
        parts.append(left)
    vtype = tuple(sorted(parts))
    slots = list(range(sum(vtype)))
    rng.shuffle(slots)
    li = tuple(slots[:nin])
    lo = tuple(slots[nin:nin + nout])
    rest = slots[nin + nout:]
    ch = tuple((rest[2 * i], rest[2 * i + 1]) for i in range(len(rest) // 2))
    return (vtype, li, lo, ch)


def _oracle_class(d):
    """((vtype, legs_in, legs_out, chords, aut, zero), sign, orbit) of a
    diagram with ascending valencies, by the brute-force legged scan."""
    scan = O.legged_orbit_scan(*d)
    li, lo, mat = scan["canonical"]
    return ((d[0], li, lo, mat, scan["aut"], scan["zero"]),
            1 if scan["zero"] else scan["sign"], scan["orbit"])


def _class_of(g):
    return (g.vtype, g.legs_in, g.legs_out, g.chords, g.aut, g.zero)


def test_legged_scan_matches_oracle():
    # every diagram of every window with at most 3 legs and 2 edges
    for nlegs in range(4):
        for nin in range(nlegs + 1):
            nout = nlegs - nin
            for e in range(3):
                size = 2 * e + nlegs
                classes = set()
                for nverts in range(1, size // 3 + 1):
                    for vtype in O.partitions_min3(size, nverts):
                        known = {}
                        for legs in itertools.permutations(range(size),
                                                           nlegs):
                            rest = [s for s in range(size) if s not in legs]
                            for mat in O.perfect_matchings(rest):
                                d = (vtype, legs[:nin], legs[nin:], mat)
                                g, s = canonicalize(d)
                                if d[1:] in known:
                                    assert _class_of(g) == known[d[1:]], d
                                    continue
                                cls, sign, orbit = _oracle_class(d)
                                assert (_class_of(g), s) == (cls, sign), d
                                known.update(dict.fromkeys(orbit, cls))
                                classes.add(cls)
                got = [_class_of(g)
                       for g in enumerate_legged_graphs(nin, nout, e)
                       if g is not EMPTY_GRAPH]
                assert len(got) == len(set(got)) == len(classes)
                assert set(got) == classes, (nin, nout, e)
    # random raw diagrams up to the 16-slot cap, legs included
    rng = random.Random(53)
    for _ in range(12):
        nlegs = rng.randrange(5)
        nin = rng.randrange(nlegs + 1)
        e = rng.randrange(max(0, (9 - nlegs) // 2), (16 - nlegs) // 2 + 1)
        d = random_diagram(rng, nin, nlegs - nin, e)
        g, s = canonicalize(d)
        assert (_class_of(g), s) == _oracle_class(d)[:2], d


def test_legged_diagrams_capped_at_16_slots():
    vtype = (3, 3, 3, 4, 4)
    chords = tuple((1 + 2 * i, 2 + 2 * i) for i in range(8))
    with pytest.raises(NotImplementedError):
        canonicalize((vtype, (0,), (), chords))
    chords = tuple((2 * i, 2 * i + 1) for i in range(8))
    g, _ = canonicalize(((3, 3, 3, 3, 4), (), (), chords))
    assert g.nedges == 8


def test_legged_windows_match_the_sweep_counts():
    # classes, ZERO classes and the sum of 1/aut over nonzero classes of
    # the 8- and 9-slot windows with at most 3 legs, as the orbit sweep
    # gave them (the oracle comparison above stops at 7 slots)
    pins = {(0, 0, 4): (35, 10, Fraction(21)),
            (0, 1, 4): (219, 6, Fraction(626, 3)),
            (0, 2, 3): (191, 3, Fraction(373, 2)),
            (0, 3, 3): (1709, 18, Fraction(5038, 3))}
    for (nin, nout, e), pin in pins.items():
        for n in range(nin + nout + 1):
            classes = enumerate_legged_graphs(n, nin + nout - n, e)
            assert (len(classes), sum(g.zero for g in classes),
                    sum(Fraction(1, g.aut) for g in classes if not g.zero)) \
                == pin, (n, nin + nout - n, e)


def test_enumerate_legged_refuses_before_any_work():
    # 17 slots: the candidate list alone once ran 47 s into a MemoryError
    tracemalloc.start()
    try:
        with pytest.raises(NotImplementedError):
            enumerate_legged_graphs(1, 0, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_canonical_forms_rotation_and_flip():
    g, s = canonicalize(((3,), (), (0, 1, 2), ()))
    assert s == 1 and g.vtype == (3,)
    g2, s2 = canonicalize(((3,), (), (1, 2, 0), ()))
    assert (g2, s2) == (g, 1)
    ga, sa = canonicalize(((3, 3), (0,), (1,), ((2, 3), (4, 5))))
    gb, sb = canonicalize(((3, 3), (0,), (1,), ((3, 2), (4, 5))))
    assert ga is gb and sb == -sa


def test_random_flips_negate():
    rng = random.Random(31)
    for _ in range(80):
        d = random_diagram(rng, rng.randrange(3), rng.randrange(3),
                           rng.randrange(4))
        vt, li, lo, ch = d
        if not ch:
            continue
        g, s = canonicalize(d)
        i = rng.randrange(len(ch))
        flipped = ch[:i] + ((ch[i][1], ch[i][0]),) + ch[i + 1:]
        g2, s2 = canonicalize((vt, li, lo, flipped))
        assert g2 is g and (g.zero or s2 == -s)


def test_correlation_respects_orientation_classes():
    rng = random.Random(37)
    zeros = 0
    for algebra in (A, twisted_11()):
        for _ in range(80):
            d = random_diagram(rng, rng.randrange(3), rng.randrange(3),
                               rng.randrange(3))
            g, s = canonicalize(d)
            raw = correlation(algebra, d)
            if g.zero:
                assert not raw.terms
                zeros += 1
            else:
                assert raw == correlation(algebra, g.diagram()).scale(s)
    assert zeros


def test_one_vertex_correlators_give_hamiltonian():
    h3 = A.hamiltonian(3)
    assert correlation(A, ((3,), (), (0, 1, 2), ())) == h3
    assert correlation(A, ((3,), (0, 1, 2), (), ())) == h3
    assert correlation(A, ((3,), (0,), (1, 2), ())) == h3
    assert not correlation(A, ((4,), (0, 1), (2, 3), ())).terms


def test_leg_relabeling_acts_by_koszul_permutation():
    rng = random.Random(41)
    for _ in range(60):
        d = random_diagram(rng, 3, 1, rng.randrange(3))
        vt, li, lo, ch = d
        tau = list(range(3))
        rng.shuffle(tau)
        li2 = tuple(li[tau[i]] for i in range(3))
        base = correlation(A, d)
        moved = correlation(A, (vt, li2, lo, ch))
        perm = [0] * base.rank
        for i in range(3):
            perm[tau[i]] = i
        for j in range(3, base.rank):
            perm[j] = j
        assert moved.terms == O.koszul_apply(tuple(perm), base.terms,
                                             A.dim.parity)


def test_legless_correlator_is_aut_times_partition_value():
    pf = partition_function(A, (4, 4))
    for g0, z in pf.chain.terms.items():
        if g0.nverts == 0:
            continue
        val = correlation(A, (g0.vtype, (), (), g0.chords))
        assert val.terms.get((), 0) == z * g0.aut


def test_glue_bookkeeping():
    gout = canonicalize(((3,), (), (0, 1, 2), ()))[0]
    g_in3 = canonicalize(((3,), (0, 1, 2), (), ()))[0]
    with pytest.raises(ValueError):
        glue(gout, gout)
    gg, _ = glue(gout, g_in3)
    assert gg.nedges == 3 and gg.nin == 0 and gg.nout == 0
    assert glue(EMPTY_GRAPH, EMPTY_GRAPH) == (EMPTY_GRAPH, 1)


def test_compose_chains():
    gout = canonicalize(((3,), (), (0, 1, 2), ()))[0]
    g_in3 = canonicalize(((3,), (0, 1, 2), (), ()))[0]
    zero_chain = GraphChain(nin=0, nout=3)
    assert not compose(zero_chain, GraphChain.of(g_in3)).terms
    x = GraphChain.of(gout) + GraphChain.of(gout, Fraction(2))
    y = GraphChain.of(g_in3, Fraction(1, 3))
    closed = compose(x, y)
    assert closed == compose(GraphChain.of(gout), y).scale(3)
    assert (closed.nin, closed.nout) == (0, 0)
    # a legged class is no term of the closed complex
    with pytest.raises(ValueError, match=r"arity \(0,3\) in a \(0,0\)"):
        GraphChain({gout: 1})


def test_compose_associative_on_single_vertex_classes():
    singles = {}
    for (m, n) in [(0, 3), (3, 0), (1, 2), (2, 1)]:
        singles[(m, n)] = [GraphChain.of(g)
                           for g in enumerate_legged_graphs(m, n, 0)
                           if not g.zero and g.nverts == 1]
        assert singles[(m, n)]
    checked = 0
    for (m, n) in singles:
        for (n2, k) in singles:
            if n2 != n:
                continue
            for (k2, l) in singles:
                if k2 != k:
                    continue
                for x in singles[(m, n)][:2]:
                    for y in singles[(n, k)][:2]:
                        for z in singles[(k, l)][:2]:
                            assert compose(compose(x, y), z) == \
                                compose(x, compose(y, z))
                            checked += 1
    assert checked


def test_compose_tensors_slot_bound():
    h3 = A.hamiltonian(3)
    with pytest.raises(ValueError):
        compose_tensors(h3, h3, 4, A.form.dual)


def test_composition_compatibility_refuses_unmatched_legs():
    # two outgoing legs against one incoming: `glue_diagram` refuses the
    # pair before any correlator is made
    g1 = enumerate_legged_graphs(1, 2, 0)[0]
    g2 = enumerate_legged_graphs(1, 1, 1)[0]
    correlators = {}
    with pytest.raises(ValueError, match="cannot glue 2 outgoing legs "
                                         "to 1 incoming legs"):
        composition_compatibility(A, g1, g2, correlators)
    assert correlators == {}


def test_composition_compatibility_sampled():
    rng = random.Random(43)
    pairs = 0
    for (m, n, k) in [(0, 2, 1), (1, 1, 1), (0, 3, 0), (2, 1, 2)]:
        for e1 in range(2):
            for e2 in range(2):
                side1 = [g for g in enumerate_legged_graphs(m, n, e1)
                         if all(bool(A.hamiltonian(v)) for v in g.vtype)]
                side2 = [g for g in enumerate_legged_graphs(n, k, e2)
                         if all(bool(A.hamiltonian(v)) for v in g.vtype)]
                rng.shuffle(side1)
                rng.shuffle(side2)
                for g1 in side1[:4]:
                    for g2 in side2[:4]:
                        assert composition_compatibility(A, g1, g2) == [], \
                            (g1, g2)
                        pairs += 1
    assert pairs


def test_composition_compatibility_on_twisted_algebra():
    # orders 3, 5 and 7 with even letters and the skew dual pairing
    B = twisted_11()
    live = 0
    for (m, n, k), edges in [((1, 2, 0), 2), ((0, 2, 1), 2), ((1, 1, 1), 2),
                             ((0, 3, 0), 1)]:
        for e1 in range(edges + 1):
            for e2 in range(edges + 1 - e1):
                for g1 in enumerate_legged_graphs(m, n, e1):
                    for g2 in enumerate_legged_graphs(n, k, e2):
                        assert composition_compatibility(B, g1, g2) == [], \
                            (g1, g2)
                        live += bool(correlation(B, glue_diagram(g1, g2)))
    assert live >= 40


def test_composition_compatibility_past_the_cap():
    # three outgoing legs on three edges glued to three incoming legs on
    # three edges: a glued diagram of 18 slots, whose class is out of scope
    # but whose state sum is not
    rng = random.Random(61)
    side1 = enumerate_legged_graphs(0, 3, 3)
    side2 = enumerate_legged_graphs(3, 0, 3)
    with pytest.raises(NotImplementedError, match="16 half-edge slots"):
        glue(side1[0], side2[0])
    for algebra in (A, twisted_11()):
        live1, live2 = ([g for g in side
                         if set(g.vtype) <= set(algebra.hamiltonians)]
                        for side in (side1, side2))
        correlators = {}
        sample2 = rng.sample(live2, 8)
        for g1 in rng.sample(live1, 8):
            for g2 in sample2:
                diagram = glue_diagram(g1, g2)
                assert sum(diagram[0]) == 18
                assert composition_compatibility(
                    algebra, g1, g2, correlators) == [], (g1, g2)
                assert correlation(algebra, diagram), (g1, g2)


def test_composition_compatibility_when_a_valency_has_no_tensor():
    # gluing keeps the internal valencies, so both sides vanish together
    rng = random.Random(47)
    dead = [g for e in range(3) for g in enumerate_legged_graphs(1, 2, e)
            if not all(bool(A.hamiltonian(v)) for v in g.vtype)]
    live = enumerate_legged_graphs(2, 1, 1)
    assert dead and live
    for _ in range(20):
        g1, g2 = rng.choice(dead), rng.choice(live)
        assert composition_compatibility(A, g1, g2) == [], (g1, g2)
        assert not correlation(A, g1.diagram()).terms


def test_enumeration_sanity():
    assert enumerate_legged_graphs(0, 0, 0) == (EMPTY_GRAPH,)
    e03 = enumerate_legged_graphs(0, 3, 0)
    assert e03 and all(g.nin == 0 and g.nout == 3 for g in e03)
    first = len(enumerate_legged_graphs(1, 1, 2))
    again = len(enumerate_legged_graphs(1, 1, 2))
    assert first == again and first > 0


def test_legless_slice_is_the_plain_enumeration():
    # a class without legs is a class with no legs: legs 0:0 give the very
    # classes, signs and JSON reading of the plain path
    for e in range(6):
        plain = sorted((g for v in range(2 * e // 3 + 1)
                        for g in enumerate_graphs(v, e)),
                       key=lambda g: g.sort_key)
        legged = enumerate_legged_graphs(0, 0, e)
        assert len(legged) == len(plain), e
        assert all(a is b for a, b in zip(legged, plain)), e
    rng = random.Random(59)
    for _ in range(40):
        vt, _, _, chords = random_diagram(rng, 0, 0, rng.randrange(2, 9))
        g, s = canonicalize((vt, chords))
        g2, s2 = canonicalize((vt, (), (), chords))
        assert g2 is g and s2 == s, (vt, chords)
        doc = dict(graph_to_json(g), legs_in=[], legs_out=[])
        back, sign = graph_from_json(doc)
        assert back is g and sign == 1
