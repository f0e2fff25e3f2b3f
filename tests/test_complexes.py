"""Graph chain complex: differentials, pairing, homology, witnesses."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from ribbonhom.complexes import (GraphChain, basis, boundary, coboundary,
                                 homology_dims, is_boundary, pairing)
from ribbonhom.graphs import canonicalize, enumerate_graphs
from ribbonhom.tcft import MorphismChain, enumerate_legged_graphs

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
    y = MorphismChain.of(legged, Fraction(3))
    with pytest.raises(TypeError):
        GraphChain.of(g) + y
    with pytest.raises(TypeError):
        y + GraphChain.of(g)
    for z in (GraphChain.of(g, Fraction(3)), y):
        assert sum([z, z]) == z.scale(2)


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
    # against oracles.rank_bareiss in test_scalars.
    for d in (1, 2):
        homology = euler = 0
        for v in range(1, 2 * d + 1):
            dims = homology_dims((v, v), (v + d, v + d))
            assert dims[v, v + d] >= 0
            homology += (-1) ** v * dims[v, v + d]
            euler += (-1) ** v * len(basis(v, v + d))
        assert homology == euler, d
