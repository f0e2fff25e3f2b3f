"""Graph chain complex: differentials, pairing, homology, witnesses."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracles as O
from ribbonhom import complexes
from ribbonhom.complexes import (GraphChain, _boundary_graph,
                                 _coboundary_graph, _connected_rank,
                                 _sym_coefficient, _terms, basis, boundary,
                                 coboundary, homology_dims, is_boundary,
                                 pairing)
from ribbonhom.graphs import canonicalize, enumerate_graphs
from ribbonhom.tcft import enumerate_legged_graphs

PINNED = json.loads(
    (Path(__file__).parent / "data" / "pinned.json").read_text())

GRAPHS = {name: canonicalize((tuple(info["type"]),
                              tuple(tuple(c) for c in info["chords"])))[0]
          for name, info in PINNED["graphs"].items()}


def test_boundary_matches_pinned_coefficients():
    for name, expect in PINNED["boundary"].items():
        chain = boundary(GraphChain.of(GRAPHS[name]))
        if expect["target"] is None:
            assert not chain, name
        else:
            target = GRAPHS[expect["target"]]
            assert chain.terms == {target: Fraction(expect["coeff"])}, name


def test_boundary_squares_to_zero_small_window():
    for e in range(1, 5):
        for v in range(1, (2 * e) // 3 + 1):
            for g in basis(v, e):
                assert not boundary(boundary(GraphChain.of(g)))


def test_coboundary_squares_to_zero_small_window():
    for e in range(1, 4):
        for v in range(1, (2 * e) // 3 + 1):
            for g in basis(v, e):
                assert not coboundary(coboundary(GraphChain.of(g)))


def test_adjointness_on_small_window():
    for e in range(2, 5):
        for v in range(2, (2 * e) // 3 + 1):
            for g in basis(v, e):
                bg = boundary(GraphChain.of(g))
                for h in basis(v - 1, e - 1):
                    lhs = pairing(bg, GraphChain.of(h))
                    rhs = pairing(GraphChain.of(g),
                                  coboundary(GraphChain.of(h)))
                    assert lhs == rhs, (g, h)


def test_pairing_is_orthonormal_on_basis():
    B = basis(2, 3)
    for i, g in enumerate(B):
        for j, h in enumerate(B):
            assert pairing(GraphChain.of(g), GraphChain.of(h)) == \
                (1 if i == j else 0)


def test_chain_arithmetic_drops_zero_classes():
    zero_class, _ = canonicalize(((4,), ((0, 2), (1, 3))))
    assert zero_class.zero
    assert not GraphChain.of(zero_class)
    g = GRAPHS["loop_pair"]
    x = GraphChain.of(g, Fraction(2)) - GraphChain.of(g, Fraction(2))
    assert not x and x.bidegree() is None
    legged = next(lg for lg in enumerate_legged_graphs(1, 1, 1) if not lg.zero)
    y = GraphChain.of(legged, Fraction(3))
    assert (y.nin, y.nout) == (1, 1)
    # chains of two arities lie in different spaces
    with pytest.raises(ValueError, match="different spaces"):
        GraphChain.of(g) + y
    with pytest.raises(ValueError, match="different spaces"):
        y + GraphChain.of(g)
    assert GraphChain(nin=1, nout=1) != GraphChain()
    for z in (GraphChain.of(g, Fraction(3)), y):
        assert sum([z, z]) == z.scale(2)


def test_boundary_operators_refuse_legged_chains():
    # the complex is the closed chains: a legged chain, or a legged class
    # read as a chain, has no boundary or coboundary here
    legged = next(lg for lg in enumerate_legged_graphs(1, 1, 1) if not lg.zero)
    for x in (GraphChain.of(legged), legged, GraphChain(nin=0, nout=2)):
        for op in (boundary, coboundary, is_boundary):
            with pytest.raises(ValueError, match="closed chains only"):
                op(x)


def test_mixed_bidegree_rejected():
    x = GraphChain.of(GRAPHS["loop_pair"]) + GraphChain.of(GRAPHS["dumbbell"])
    with pytest.raises(ValueError):
        x.bidegree()


def test_homology_dims_regression():
    dims = homology_dims((1, 3), (1, 4))
    assert dims[2, 3] == 2
    assert sum(dims.values()) == 2
    assert homology_dims((2, 1), (1, 2)) == {}


def test_is_boundary_produces_checkable_witness():
    # boundary chains certify themselves
    for g in basis(2, 4):
        image = boundary(GraphChain.of(g))
        if not image:
            continue
        witness = is_boundary(image)
        assert witness is not None
        assert boundary(witness) == image
    # a homology class is not a boundary: theta cycle at (2,3)
    twisted = GRAPHS["theta_twisted"]
    assert not boundary(GraphChain.of(twisted))
    assert is_boundary(GraphChain.of(twisted)) is None


def oracle_boundary(v, e, connected=False):
    """The boundary leaving (v, e) as a dense matrix that only the oracles
    build: one row per nonzero class of `oracles.enumerate_classes`, one
    column per nonzero class one bidegree down, entries from
    `oracles.boundary_oracle`; with `connected`, of the connected classes
    only.  Returns (row classes, column classes, rows), a class being its
    (type, canonical chords)."""
    def classes(v, e):
        return [(d["type"], d["canonical"])
                for d in O.enumerate_classes(v, e, connected)
                if not d["zero"]]
    src, tgt = classes(v, e), classes(v - 1, e - 1)
    col = {key: j for j, key in enumerate(tgt)}
    rows = []
    for vtype, chords in src:
        row = [0] * len(tgt)
        for key, c in O.boundary_oracle(vtype, chords).items():
            row[col[key]] = c
        rows.append(row)
    return src, tgt, rows


def test_boundary_ranks_and_witnesses_match_the_oracle():
    for e in range(1, 6):
        for v in range(1, (2 * e) // 3 + 1):
            src, tgt, rows = oracle_boundary(v, e)
            assert O.boundary_rank(v, e) == O.rank_bareiss(rows), (v, e)
            _, _, connected = oracle_boundary(v, e, True)
            assert _connected_rank(v, e) == O.rank_bareiss(connected), (v, e)
            # the rows that were ranked are the oracle's, entry by entry
            if tgt:
                keys = [(g.vtype, g.chords) for g in basis(v - 1, e - 1)]
                ours = {(g.vtype, g.chords): {keys[j]: c
                                              for j, c in row.items()}
                        for g, row in zip(basis(v, e), O.boundary_rows(v, e))}
                assert ours == {key: {t: c for t, c in zip(tgt, row) if c}
                                for key, row in zip(src, rows)}, (v, e)
    # x is a boundary exactly when appending it as a column to the
    # transpose of the boundary keeps the rank; chains drawn half in the
    # image (from the oracle's rows) and half at random
    rng = random.Random(15)
    outcomes = set()
    for v, e in ((1, 3), (2, 4)):
        _, tgt, rows = oracle_boundary(v + 1, e + 1)
        graphs = {(g.vtype, g.chords): g for g in basis(v, e)}
        columns = [list(col) for col in zip(*rows)]
        rank = O.rank_bareiss(columns)
        for trial in range(6):
            if trial % 2:
                coeffs = [rng.randint(-2, 2) for _ in rows]
                x = [sum(a * row[j] for a, row in zip(coeffs, rows))
                     for j in range(len(tgt))]
            else:
                x = [Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                     for _ in tgt]
            chain = GraphChain({graphs[key]: c for key, c in zip(tgt, x)})
            grows = O.rank_bareiss([col + [c] for col, c in
                                    zip(columns, x)]) > rank
            witness = is_boundary(chain)
            assert (witness is None) == grows, (v, e, x)
            if witness is not None:
                assert boundary(witness) == chain
            outcomes.add(grows)
    assert outcomes == {False, True}


def test_basis_connected_filter():
    assert basis(3, 4) == ()  # no valency type fits three vertices, 8 slots
    full = basis(3, 5)
    conn = basis(3, 5, connected=True)
    assert set(conn) < set(full)
    assert all(g.connected for g in conn)
    assert all(not g.connected for g in set(full) - set(conn))

def test_homology_euler_characteristic_on_diagonals():
    # d = e - v is kept by the boundary, and (v, v + d) has classes only for
    # 1 <= v <= 2d, so these cells are the whole complex of each diagonal.
    # Each cell is its own call and no (2, 7) matrix is built.  A rank
    # enters two neighbouring cells with opposite signs, so this checks
    # which ranks each cell subtracts; the ranks themselves are checked
    # against oracles.rank_bareiss in
    # test_boundary_ranks_and_witnesses_match_the_oracle.
    for d in (1, 2):
        homology = euler = 0
        for v in range(1, 2 * d + 1):
            dims = homology_dims((v, v), (v + d, v + d))
            assert dims[v, v + d] >= 0
            homology += (-1) ** v * dims[v, v + d]
            euler += (-1) ** v * len(basis(v, v + d))
        assert homology == euler, d


def test_homology_dims_equal_the_full_complex():
    # the Sym formula over the connected ranks gives what dim C minus the
    # ranks of the full complex, disconnected classes included, gives.
    # (4, 6) is the first cell with a product in it, 5 = 2 + dim Sym^2 of
    # the two (2, 3) classes, and its full ranks are small
    for v, e in [*((v, e) for v in range(1, 5) for e in range(1, 6)),
                 (4, 6)]:
        dim = len(basis(v, e))
        full = dim and (dim - O.boundary_rank(v, e)
                        - O.boundary_rank(v + 1, e + 1))
        assert homology_dims((v, v), (e, e)) == {(v, e): full}, (v, e)
    assert full == 5


def test_classes_are_the_graded_sym_of_the_connected_classes():
    # at the level of chains: the nonzero classes at (v, e) are the
    # monomials in the nonzero connected classes, symmetric in those with
    # even v and exterior in those with odd v (two equal components with
    # an odd number of vertices make a ZERO class)
    connected = {(v, e): len(basis(v, e, True))
                 for v in range(1, 6) for e in range(1, 7)}
    for (v, e) in connected:
        assert len(basis(v, e)) == _sym_coefficient(connected, (v, e)), \
            (v, e)
    # the series itself on a hand count: two odd generators at (1, 2)
    # span one exterior square at (2, 4), two even ones at (2, 3) three
    # symmetric squares at (4, 6)
    assert _sym_coefficient({(1, 2): 2}, (2, 4)) == 1
    assert _sym_coefficient({(2, 3): 2}, (4, 6)) == 3
    assert _sym_coefficient({(1, 2): 1, (2, 3): 2}, (3, 5)) == 2


HOMOLOGY_PROBE = """
import json
from ribbonhom import complexes, graphs
windows, unions = set(), []
enumerate_graphs = graphs.enumerate_graphs
disjoint_union = graphs.disjoint_union
def spy(nvert, nedge, connected=False):
    windows.add((nvert, nedge, connected))
    return enumerate_graphs(nvert, nedge, connected)
def union_spy(*args):
    unions.append(1)
    return disjoint_union(*args)
for module in (graphs, complexes):
    module.enumerate_graphs = spy
graphs.disjoint_union = union_spy
dims = complexes.homology_dims((4, 4), (1, 7))
print(json.dumps([sorted(windows), len(unions),
                  [dims[4, e] for e in range(1, 8)]]))
"""


def test_homology_reads_only_connected_windows_below_the_cap():
    # a new interpreter, so that no cache hides a window.  The cells of v
    # 4, e 1:7 read the connected cells whose complement can hold a graph,
    # and the rows of their ranks from the passes of the cells below: no
    # disconnected class is built, and nothing is enumerated at (5, 8)
    src = os.path.dirname(os.path.dirname(complexes.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", HOMOLOGY_PROBE], env=env,
                         check=True, capture_output=True, text=True).stdout
    windows, unions, dims = json.loads(out)
    assert dims == [0, 0, 0, 0, 0, 5, 1]
    assert unions == 0
    assert [4, 7, True] in windows
    assert all(e < 8 for v, e, _ in windows)
    # (2, 7) and (3, 7) leave (2, 0) and (1, 0) in (4, 7), which hold no
    # graph, so their Betti numbers and the rank (3, 8) -> (2, 7) are not
    # read
    assert [2, 7, True] not in windows and [3, 7, True] not in windows
    # the (1, e) windows are connected either way
    assert all(connected or v <= 1 for v, e, connected in windows)


IS_BOUNDARY_PROBE = """
import json
from ribbonhom import complexes, graphs
windows = set()
enumerate_graphs = graphs.enumerate_graphs
def spy(nvert, nedge, connected=False):
    windows.add((nvert, nedge, connected))
    return enumerate_graphs(nvert, nedge, connected)
for module in (graphs, complexes):
    module.enumerate_graphs = spy
h, _ = graphs.canonicalize(((3, 3, 4),
                            ((0, 4), (1, 7), (2, 5), (3, 9), (6, 8))))
x = complexes.boundary(complexes.GraphChain.of(h))
witness = complexes.is_boundary(x)
print(json.dumps([sorted(windows), x.bidegree(),
                  complexes.boundary(witness) == x]))
"""


def test_is_boundary_never_enumerates_the_cell_above():
    # a new interpreter, so that no cache hides a window.  The witness
    # columns are the classes that the passes of the (2, 4) basis reach,
    # so nothing is enumerated at e = 5
    src = os.path.dirname(os.path.dirname(complexes.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", IS_BOUNDARY_PROBE], env=env,
                         check=True, capture_output=True, text=True).stdout
    windows, deg, solved = json.loads(out)
    assert deg == [2, 4] and solved
    assert [2, 4, False] in windows
    assert all(e < 5 for v, e, _ in windows), windows


def test_boundary_rows_by_adjointness_equal_the_contraction_rows():
    # the rows that homology ranks and `is_boundary` solves against are
    # read from the expansion passes of the targets; the boundary of a
    # chain still contracts
    for e in range(1, 7):
        for v in range(1, 2 * e // 3 + 1):
            tgt = {g: j for j, g in enumerate(basis(v - 1, e - 1))}
            contracted = [{tgt[h]: c for h, c in _terms(_boundary_graph(g))}
                          for g in basis(v, e)] if tgt else []
            assert O.boundary_rows(v, e) == contracted, (v, e)


def test_every_zero_class_lands_in_a_pass_with_zero():
    # the enumeration keeps the ZERO classes of the passes; each one is
    # there with n = 0, which every reader of coefficients skips
    for e in range(2, 7):
        for v in range(2, 2 * e // 3 + 1):
            landed = {}
            for parent in enumerate_graphs(v - 1, e - 1, True):
                for h, n in _terms(_coboundary_graph(parent)):
                    landed.setdefault(h, set()).add(n)
            zero = [g for g in enumerate_graphs(v, e, True) if g.zero]
            assert all(landed[g] == {0} for g in zero), (v, e)


SEARCH_PROBE = """
import json
from ribbonhom import complexes, graphs
inputs = []
search = graphs._canonical_search
def spy(vtype, chords, legs=()):
    inputs.append((vtype, tuple(chords), tuple(legs)))
    return search(vtype, chords, legs)
graphs._canonical_search = spy
complexes.homology_dims((1, 4), (1, 5))
print(json.dumps([len(inputs), len(set(inputs)),
                  complexes._boundary_graph.cache_info().misses]))
"""


def test_default_homology_window_searches_each_move_once():
    # the caches are global, so a new interpreter counts the searches of
    # the default window.  Every expansion is canonicalized once and serves
    # the enumeration, the coboundary and, by adjointness, the boundary
    # rows; no contraction is searched.  Enumerating and contracting
    # separately took 10,613 searches, the shared pass 6,108, and reading
    # the connected cells only 5,307.
    src = os.path.dirname(os.path.dirname(complexes.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", SEARCH_PROBE], env=env,
                         check=True, capture_output=True, text=True).stdout
    searches, distinct, contracted = json.loads(out)
    assert searches == distinct
    assert contracted == 0
    assert searches <= 5307
