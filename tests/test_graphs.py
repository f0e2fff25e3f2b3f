"""Canonical forms, signs and enumeration of oriented ribbon graphs."""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles as O
from ribbonhom import complexes, graphs
from ribbonhom.graphs import (EMPTY_GRAPH, _classify, _contraction_template,
                              _contractions, _expansion_moves, _expansions,
                              _shortest_chord_children,
                              _valency_partitions, canonicalize,
                              disjoint_union, enumerate_graphs,
                              perfect_matchings, valency_types)
from ribbonhom.jsonio import graph_from_json, graph_to_json
from ribbonhom.tcft import enumerate_legged_graphs

PINNED = json.loads(
    (Path(__file__).parent / "data" / "pinned.json").read_text())

THETA_TWISTED = ((3, 3), ((0, 3), (1, 4), (2, 5)))
THETA_PLANAR = ((3, 3), ((0, 3), (1, 5), (2, 4)))
DUMBBELL = ((3, 3), ((0, 1), (2, 3), (4, 5)))
LOOP_PAIR = ((4,), ((0, 1), (2, 3)))
CROSS_LOOP = ((4,), ((0, 2), (1, 3)))


def test_pinned_canonical_classes_and_automorphisms():
    for name, info in PINNED["graphs"].items():
        vtype = tuple(info["type"])
        chords = tuple(tuple(c) for c in info["chords"])
        g, sign = canonicalize((vtype, chords))
        assert sign == 1
        assert g.chords == chords, name
        assert g.zero == info["zero"], name
        if not info["zero"]:
            assert g.aut == info["aut"], name


def test_enumeration_counts_match_pins():
    all_12 = enumerate_graphs(1, 2)
    assert len(all_12) == PINNED["classes_v1_e2"]["total"]
    assert sum(1 for g in all_12 if not g.zero) == \
        PINNED["classes_v1_e2"]["nonzero"]
    conn_23 = [g for g in enumerate_graphs(2, 3) if g.connected]
    assert len(conn_23) == PINNED["classes_v2_e3_connected"]["total"]


def test_edge_direction_flip_negates():
    base, s0 = canonicalize(THETA_TWISTED)
    flipped, s1 = canonicalize(((3, 3), ((3, 0), (1, 4), (2, 5))))
    assert flipped is base and s0 == 1 and s1 == -1


def test_vertex_swap_tracks_permutation_sign():
    # theta with its two vertices written in the other order: one odd
    # vertex shuffle, edge directions carried along, so the sign flips
    a, sa = canonicalize(THETA_TWISTED)
    b, sb = canonicalize(((3, 3), ((3, 0), (4, 1), (5, 2))))
    assert a is b and not a.zero
    assert sa == 1 and sb == -1


def test_relabeling_lands_in_same_class():
    rng = random.Random(5)
    for _ in range(60):
        e = rng.randint(2, 4)
        cells = list(enumerate_graphs(rng.randint(1, 2), e))
        if not cells:
            continue
        g = cells[rng.randrange(len(cells))]
        # rotate each block by a random amount: same cyclic orders
        slot = {}
        for blk in g.vertex_blocks():
            r = rng.randrange(len(blk))
            for h in blk[r:] + blk[:r]:
                slot[h] = len(slot)
        h, _ = canonicalize((g.vtype, tuple((slot[a], slot[b])
                                            for a, b in g.chords)))
        assert h is g, (g, h)


def _relabeled(g):
    """The diagram of g with its vertices listed in reverse order, each
    cyclic order rotated by one and every edge reversed."""
    slot = {}
    for blk in reversed(g.vertex_blocks()):
        for h in blk[1:] + blk[:1]:
            slot[h] = len(slot)
    return (g.vtype[::-1], tuple(slot[h] for h in g.legs_in),
            tuple(slot[h] for h in g.legs_out),
            tuple((slot[b], slot[a]) for a, b in g.chords))


def _json_round_trip(g):
    return graph_from_json(json.loads(json.dumps(graph_to_json(g))))[0]


def test_each_class_is_one_object():
    # every class is made once, in its type's table, so a class is equal
    # only to itself: every way to a class gives the same object
    assert "__eq__" not in vars(graphs.RibbonGraph)
    assert "__hash__" not in vars(graphs.RibbonGraph)
    landed = [h for parent in enumerate_graphs(1, 3)
              for h in graphs._expansion_pass(parent)[::2]]
    classes = enumerate_graphs(2, 4, True)
    assert classes
    for g in classes:
        assert any(h is g for h in landed), g
        assert canonicalize(_relabeled(g))[0] is g, g
        assert _json_round_trip(g) is g, g
    legged = enumerate_legged_graphs(1, 1, 2)
    assert legged
    for g in legged:
        assert canonicalize(_relabeled(g))[0] is g, g
        assert _json_round_trip(g) is g, g


def test_zero_class_from_odd_symmetry():
    g, sign = canonicalize(CROSS_LOOP)
    assert g.zero and sign == 1
    assert all(h.aut >= 1 for h in enumerate_graphs(1, 2))


def _loops(g):
    """The edges of g that join a vertex to itself."""
    return [j for j, (a, b) in enumerate(g.chords)
            if O.vertex_of(g.vtype, a) == O.vertex_of(g.vtype, b)]


def test_contract_and_expand_are_inverse_up_to_class():
    theta, _ = canonicalize(THETA_PLANAR)
    vt, chords, _ = _contractions(theta)[0]
    contracted, _ = canonicalize((vt, chords))
    assert contracted.nverts == 1 and contracted.nedges == 2
    # expanding every ideal edge of the result must hit theta again
    hits = 0
    for vt, chords, _ in _expansions(contracted):
        back, _ = canonicalize((vt, chords))
        if back is theta:
            hits += 1
    assert hits > 0


def test_contract_loop_rejected():
    g, _ = canonicalize(DUMBBELL)
    loops = _loops(g)
    assert loops
    for j in loops:
        assert _contraction_template(g.vtype, *g.chords[j]) is None
    assert len(_contractions(g)) == g.nedges - len(loops)


def test_ideal_edge_counts_match_pins():
    # an odd valency k needs a trivalent partner vertex, type (3, k); a
    # trivalent vertex has no ideal edges
    for valency, count in PINNED["ideal_edge_count"].items():
        k = int(valency)
        vtype = (3,) * (k % 2) + (k,)
        size = sum(vtype)
        g, _ = canonicalize((vtype, tuple((2 * i, 2 * i + 1)
                                          for i in range(size // 2))))
        assert len(_expansion_moves(g.vtype)) == count


def test_uncovered_half_edge_rejected():
    with pytest.raises(ValueError):
        canonicalize(((5,), ((0, 1), (2, 3))))
    with pytest.raises(ValueError):
        canonicalize(((4,), ((0, 1), (1, 2))))


def test_contract_opposite_order_gives_opposite_orientation():
    # contracting the two non-loop edges of a 2-vertex graph in the two
    # orders produces the same class with opposite signs overall when the
    # intermediate steps differ by an odd shuffle; verified via d2 = 0 in
    # the complexes tests, here just sign bookkeeping sanity on one edge
    theta, _ = canonicalize(THETA_TWISTED)
    (vt1, ch1, m1), (vt2, ch2, m2) = _contractions(theta)[:2]
    g1, s1 = canonicalize((vt1, ch1))
    g2, s2 = canonicalize((vt2, ch2))
    s1, s2 = m1 * s1, m2 * s2
    assert {g1.nverts, g2.nverts} == {1}
    assert s1 in (-1, 1) and s2 in (-1, 1)


def test_disjoint_union_and_components():
    theta, _ = canonicalize(THETA_TWISTED)
    loop, _ = canonicalize(LOOP_PAIR)
    u, sign = disjoint_union(theta, loop)
    assert u.nverts == 3 and u.nedges == 5
    assert not u.connected
    assert EMPTY_GRAPH.nverts == 0 and not EMPTY_GRAPH.zero


def test_valency_types_and_matchings():
    assert list(valency_types(2, 3)) == [(3, 3)]
    assert list(valency_types(1, 2)) == [(4,)]
    assert len(list(perfect_matchings(range(6)))) == 15


def test_enumerate_rejects_large_windows():
    with pytest.raises(NotImplementedError):
        enumerate_graphs(6, 9)


def test_enumerate_refuses_before_building_a_table():
    # (1, 9) would add a chord to each of the 127,072 classes of (1, 8)
    tracemalloc.start()
    try:
        with pytest.raises(NotImplementedError):
            enumerate_graphs(1, 9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_enumeration_matches_oracle():
    for e in range(1, 7):
        for v in range(1, 2 * e // 3 + 1):
            classes = [(d["type"], d["canonical"], d["zero"], d["aut"])
                       for d in O.enumerate_classes(v, e)]
            for connected in (False, True):
                ours = sorted((g.vtype, g.chords, g.zero, g.aut)
                              for g in enumerate_graphs(v, e, connected))
                oracle = sorted(c for c in classes
                                if not connected or O.is_connected(*c[:2]))
                assert ours == oracle, (v, e, connected)


def test_connected_window_filters_full_window():
    for e in range(0, 7):
        for v in range(0, 2 * e // 3 + 1):
            full = enumerate_graphs(v, e)
            assert enumerate_graphs(v, e, True) == \
                tuple(g for g in full if g.connected), (v, e)


def test_harer_zagier_orbifold_euler_characteristics():
    # sum over connected classes of genus g with n faces of (-1)^E / |Aut|
    # is (-1)^n chi(M_{g,n}) / n!  (Harer-Zagier 1986, Penner 1988); these
    # (g, n) need at most 6 edges
    expected = {(0, 3): Fraction(-1, 6), (0, 4): Fraction(-1, 24),
                (1, 1): Fraction(1, 12), (1, 2): Fraction(1, 24)}
    sums = {}
    for e in range(1, 7):
        for v in range(1, 2 * e // 3 + 1):
            for g in enumerate_graphs(v, e, True):
                n = O.face_count(g.vtype, g.chords)
                genus = (2 - v + e - n) // 2
                aut = 2 * g.aut if g.zero else g.aut
                key = (genus, n)
                sums[key] = sums.get(key, 0) + Fraction((-1) ** e, aut)
    assert {k: sums[k] for k in expected} == expected


def _gluings(emax):
    """eps[g][e], the number of ways to glue a 2e-gon into a closed surface
    of genus g, for e <= emax, by the Harer-Zagier recursion (e+1) eps_g(e)
    = 2(2e-1) eps_g(e-1) + (e-1)(2e-1)(2e-3) eps_{g-1}(e-2); eps_0 are the
    Catalan numbers."""
    eps = [[int(g == 0)] + [0] * emax for g in range(emax // 2 + 1)]
    for e in range(1, emax + 1):
        for g, row in enumerate(eps):
            total = 2 * (2 * e - 1) * row[e - 1]
            if g and e >= 2:
                total += ((e - 1) * (2 * e - 1) * (2 * e - 3)
                          * eps[g - 1][e - 2])
            assert total % (e + 1) == 0
            row[e] = total // (e + 1)
    assert eps[0] == [math.comb(2 * e, e) // (e + 1) for e in range(emax + 1)]
    return eps


def test_one_vertex_classes_count_harer_zagier_gluings():
    # over the one-vertex classes of genus g, sum 2e/|Aut| = eps_g(e), with
    # |Aut| counting the orientation-reversing automorphisms too
    eps = _gluings(6)
    for e in range(2, 7):
        sums = {}
        for g in enumerate_graphs(1, e):
            genus = (1 + e - O.face_count(g.vtype, g.chords)) // 2
            aut = 2 * g.aut if g.zero else g.aut
            sums[genus] = sums.get(genus, 0) + Fraction(2 * e, aut)
        assert sums == {genus: row[e] for genus, row in enumerate(eps)
                        if row[e]}, e


def test_bounded_insertions_keep_the_unbounded_children():
    # the insertion loop stops past the parent's shortest chord length
    # plus one; it must keep exactly the children of trying every pair of
    # positions and keeping those whose new chord is a shortest chord
    def length(chord, size):
        d = chord[1] - chord[0]
        return min(d, size - d)

    for e in range(2, 7):
        size = 2 * e
        parents = ([g.chords for g in enumerate_graphs(1, e - 1)]
                   if e > 2 else [((0, 1),)])
        for chords in parents:
            unbounded = set()
            for new in itertools.combinations(range(size), 2):
                rest = [x for x in range(size) if x not in new]
                child = tuple((rest[a], rest[b]) for a, b in chords) + (new,)
                if length(new, size) == min(length(c, size) for c in child):
                    unbounded.add(child)
            kept = [tuple(c) for c in _shortest_chord_children(chords, size)]
            assert len(kept) == len(set(kept))
            assert set(kept) == unbounded, chords


def test_each_window_is_one_cache_entry(monkeypatch):
    # the default homology window builds every window it reads once,
    # however its callers ask for it; it reads connected windows only (the
    # (1, e) windows are connected either way, and (0, e) holds the targets
    # of a one-vertex boundary) and none above the window
    cached = graphs.enumerate_graphs
    windows = set()

    def spy(nvert, nedge, *flag, **kwargs):
        connected = flag[0] if flag else kwargs.get("connected", False)
        windows.add((nvert, nedge, bool(connected)))
        return cached(nvert, nedge, *flag, **kwargs)

    for module in (graphs, complexes):
        monkeypatch.setattr(module, "enumerate_graphs", spy)
    cached.cache_clear()
    complexes._connected_rank.cache_clear()
    complexes.homology_dims((1, 4), (1, 5))
    assert windows == {*((0, e, True) for e in range(1, 5)),
                       *((1, e, c) for e in range(2, 6) for c in (False, True)),
                       (2, 3, True), (2, 4, True), (2, 5, True), (3, 5, True)}
    assert cached.cache_info().misses == len(windows)


def test_stored_chords_are_the_shared_pairs():
    # every producer of classes stores the one tuple of each chord, and the
    # move caches of the complex hold no tuple per term
    def shared(chords):
        return all(p is graphs._PAIRS[p[0]][p[1]] for p in chords)

    theta, _ = canonicalize(THETA_TWISTED)
    loop, _ = canonicalize(LOOP_PAIR)
    user = ((4, 3, 3), ((0, 4), (1, 7), (2, 5), (3, 8), (6, 9)))
    made = [*enumerate_graphs(1, 5), *enumerate_graphs(3, 5),
            disjoint_union(theta, loop)[0], canonicalize(user)[0]]
    for g in complexes.basis(2, 4):
        made += complexes.boundary(g).terms
        made += complexes.coboundary(g).terms
        for flat in (complexes._boundary_graph(g),
                     complexes._coboundary_graph(g)):
            assert not any(isinstance(x, tuple) for x in flat), g
    # each class keeps the key of its type's intern table as its vtype
    keys = {vt: vt for vt in graphs.RibbonGraph._intern}
    for g in made:
        assert g.vtype is keys[g.vtype], g
    made += enumerate_legged_graphs(1, 1, 3)
    for g in made:
        assert shared(g.chords), g
    # the cached tables that keep chords: scan keys and insertions
    assert shared(graphs._standardize_diagram(user[0], (), (), user[1])
                  [0][3])
    assert all(shared(moved) for _, _, moved, _ in
               graphs._chord_insertions(10))


MEMORY_PROBE = """
import tracemalloc
from ribbonhom import complexes, graphs
tracemalloc.start()
for v in (1, 2, 3):
    graphs.enumerate_graphs(v, 5)
for g in complexes.basis(3, 5):
    complexes.coboundary(g)
kept = tracemalloc.get_traced_memory()[0]
print(kept / sum(map(len, graphs.RibbonGraph._intern.values())))
"""


def test_classes_keep_few_bytes_each():
    # the caches are global, so a new interpreter measures the bytes that
    # stay allocated per class: the classes of (v, 5), v <= 3, and the
    # coboundary of basis(3, 5), which fills the move cache and makes the
    # (4, 6) targets.  With a chord tuple and a term tuple of their own and
    # one intern key each, the classes kept about 1,840 B each; with
    # shared pairs, flat move caches and per-type intern tables about 790.
    src = os.path.dirname(os.path.dirname(graphs.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", MEMORY_PROBE], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert float(out) < 1200


def test_search_matches_orbit_oracle():
    # every class with e <= 5 in a random orientation, with all of its
    # contractions and ideal-edge expansions, against the exhaustive scan
    rng = random.Random(5)
    cases = []
    for e in range(1, 6):
        for v in range(1, 2 * e // 3 + 1):
            for g in enumerate_graphs(v, e):
                cases.append((g.vtype, tuple(c if rng.random() < 0.5
                                             else c[::-1] for c in g.chords)))
                cases += [(vt, chords) for vt, chords, _ in
                          [*_contractions(g), *_expansions(g)]]
    for vtype, chords in cases:
        d = O.orbit_scan(vtype, chords)
        g, sign = _classify(vtype, chords)
        assert (g.chords, sign, g.aut, g.zero) == \
            (d["canonical"], d["sign"], d["aut"], d["zero"]), (vtype, chords)


def test_generated_windows_match_the_sweep_counts():
    # classes, ZERO classes, connected classes and the sum of 1/aut over
    # nonzero classes, as the matching-table sweep gave them
    pins = {(4, 7): (492, 89, 411, Fraction(4475, 12)),
            (5, 8): (342, 22, 263, Fraction(37165, 144))}
    for (v, e), pin in pins.items():
        classes = enumerate_graphs(v, e)
        assert (len(classes), sum(g.zero for g in classes),
                len(enumerate_graphs(v, e, True)),
                sum(Fraction(1, g.aut) for g in classes if not g.zero)) \
            == pin, (v, e)


def _classes_to_e6():
    return [g for e in range(1, 7) for v in range(1, 2 * e // 3 + 1)
            for g in enumerate_graphs(v, e)]


def test_contraction_templates_match_oracle():
    # every contraction of every class with e <= 6 against the oracle: a
    # template for each edge that is no loop, and the moves read through
    # them
    for g in _classes_to_e6():
        loops = _loops(g)
        edges = [j for j in range(g.nedges) if j not in loops]
        assert [j for j, chord in enumerate(g.chords)
                if _contraction_template(g.vtype, *chord)] == edges, g
        expected = [O.contract_edge_oracle(g.vtype, g.chords, j)
                    for j in edges]
        assert _contractions(g) == expected, g


def test_expansion_templates_match_oracle():
    # the ideal edges of every class with e <= 6, in order, and every
    # expansion against the oracle
    for g in _classes_to_e6():
        expected = O.ideal_expansions_oracle(g.vtype, g.chords)
        assert len(_expansion_moves(g.vtype)) == len(expected), g
        assert _expansions(g) == [move for _, move in expected], g


@st.composite
def raw_diagrams(draw):
    """A batch of random oriented diagrams of one valency type with at most
    16 slots, legged (with the same leg count) or plain."""
    nlegs = draw(st.sampled_from([0, 0, 1, 2, 3]))
    nedges = draw(st.integers(1 if nlegs else 2, (16 - nlegs) // 2))
    size = 2 * nedges + nlegs
    vtype = draw(st.sampled_from([t for m in range(1, size // 3 + 1)
                                  for t in _valency_partitions(size, m)]))
    chord_lists, leg_lists = [], []
    for _ in range(draw(st.integers(1, 4))):
        slots = draw(st.permutations(range(size)))
        legs, rest = slots[:nlegs], slots[nlegs:]
        chord_lists.append(tuple(zip(rest[0::2], rest[1::2])))
        leg_lists.append(tuple(legs))
    return vtype, chord_lists, (leg_lists if nlegs else None)


@settings(max_examples=60, deadline=None)
@given(raw_diagrams())
def test_scan_batch_matches_row_reference(diagram):
    # against the exhaustive scan over every relabeling; the legs go in
    # as incoming legs, so the oracle's key (legs, (), matching) compares
    # with the class's (legs_in, legs_out, chords).  Each diagram is
    # classified twice: a class new to its table sums the signs of every
    # relabeling onto it, a class already there reads the sign off one
    vtype, chord_lists, leg_lists = diagram
    for i, chords in enumerate(chord_lists):
        if leg_lists is None:
            d = O.orbit_scan(vtype, chords)
            legs = ()
        else:
            d = O.legged_orbit_scan(vtype, leg_lists[i], (), chords)
            legs = leg_lists[i]
        for _ in range(2):
            g, sign = _classify(vtype, chords, legs)
            form = (g.legs_in, g.legs_out, g.chords) if legs else g.chords
            assert (form, sign, g.aut, g.zero) == \
                (d["canonical"], d["sign"], d["aut"], d["zero"]), \
                (vtype, chords)
