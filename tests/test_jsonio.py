"""Round trips through the structured-text forms."""

import json
import os
from fractions import Fraction

import pytest

from ribbonhom.ainfinity import _graph_value, partition_function, validate
from ribbonhom.complexes import GraphChain, basis
from ribbonhom.fixtures import frobenius_pair, twisted_11
from ribbonhom.graphs import canonicalize
from ribbonhom.jsonio import (algebra_from_json, algebra_to_json,
                              ce_chain_to_json, chain_to_json,
                              graph_from_json, graph_to_json, read_algebra,
                              tensor_from_json, tensor_to_json)
from ribbonhom.lie import CEChain
from ribbonhom.scalars import parse_scalar
from ribbonhom.superspace import SuperDim, SuperTensor, contract

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_tensor_roundtrip_and_surd_coeff():
    t = SuperTensor(SuperDim(1, 1), 3, {
        (0, 1, 2): Fraction(-5, 3), (2, 2, 2): Fraction(1, 2)})
    blob = json.dumps(tensor_to_json(t))
    assert "." not in blob.replace('"."', "")  # no floats anywhere
    assert tensor_from_json(json.loads(blob)) == t
    # scalars are rational: a square root is malformed input
    surd = json.loads(blob)
    surd["terms"][1]["coeff"] = "1/2*sqrt(2)"
    with pytest.raises(ValueError, match="sqrt"):
        tensor_from_json(surd)
    empty = SuperTensor(SuperDim(1, 0), 2, {})
    assert tensor_from_json(tensor_to_json(empty)) == empty
    with pytest.raises(ValueError):
        tensor_from_json({"signature": {"n": 1, "m": 0}, "terms": []})


def test_graph_roundtrip_with_arbitrary_ids():
    g = canonicalize(((3, 3), ((0, 3), (1, 5), (2, 4))))[0]
    back, sign = graph_from_json(graph_to_json(g))
    assert back is g and sign == 1
    renamed = {"vertices": [[10, 11, 12], [20, 21, 22]],
               "edges": [[10, 20], [11, 22], [12, 21]]}
    back2, _ = graph_from_json(renamed)
    assert back2 is g
    with pytest.raises(ValueError):
        graph_from_json({"vertices": [[0, 1, 0]], "edges": []})
    with pytest.raises(ValueError):
        graph_from_json({"half_edges": 5, "vertices": [[0, 1, 2, 3]],
                         "edges": [[0, 1], [2, 3]]})


def test_vertices_out_of_valency_order():
    edges = [[3, 6], [1, 5], [7, 0], [4, 2]]
    reordered = {"vertices": [[0, 1, 2, 3, 4], [5, 6, 7]], "edges": edges}
    ordered = {"vertices": [[5, 6, 7], [0, 1, 2, 3, 4]], "edges": edges}
    g, sign = graph_from_json(reordered)
    g2, sign2 = graph_from_json(ordered)
    # swapping the two blocks is one transposition of the vertex order
    assert g is g2 and g.vtype == (3, 5) and sign == -sign2
    A = twisted_11()
    pairing = A.dual_pairing()
    value = partition_function(A, (2, 4)).value(g)
    assert value == _graph_value(A, g, pairing) == -2
    raw = contract([A.hamiltonian(5), A.hamiltonian(3)],
                   [tuple(c) for c in edges], pairing).scalar()
    assert raw / g.aut == sign * value


def test_legged_graph_roundtrip():
    g = canonicalize(((3, 3), (0,), (1,), ((2, 3), (4, 5))))[0]
    blob = graph_to_json(g)
    assert blob["legs_in"] == list(g.legs_in)
    back, sign = graph_from_json(blob)
    assert back is g and sign == 1


def test_chain_roundtrip_folds_signs():
    # no verb reads a chain: each written term reads back through the
    # graph reader as its class, with sign 1
    chain = GraphChain({g: Fraction(i + 1, 3)
                        for i, g in enumerate(basis(2, 3))})
    acc = {}
    for item in json.loads(json.dumps(chain_to_json(chain))):
        g, sign = graph_from_json(item["graph"])
        assert sign == 1
        acc[g] = parse_scalar(item["coeff"])
    assert GraphChain(acc) == chain
    # a reversed edge is read as the class with sign -1
    flipped = {"vertices": [[0, 1, 2], [3, 4, 5]],
               "edges": [[3, 0], [1, 4], [2, 5]]}
    theta = canonicalize(((3, 3), ((0, 3), (1, 4), (2, 5))))[0]
    assert graph_from_json(flipped) == (theta, -1)


def test_ce_chain_roundtrip():
    # no verb reads a CE chain, so its written form is read back here
    x = CEChain(SuperDim(1, 0), {((0, 0, 1), (1, 1, 0)): Fraction(2, 7)})
    blob = json.loads(json.dumps(ce_chain_to_json(x)))
    assert blob["signature"] == {"n": 1, "m": 0}
    assert CEChain(SuperDim(1, 0), {
        tuple(map(tuple, t["factors"])): parse_scalar(t["coeff"])
        for t in blob["terms"]}) == x


def test_algebra_roundtrip():
    for a in (frobenius_pair(), twisted_11()):
        b = algebra_from_json(algebra_to_json(a))
        assert b.dim == a.dim and b.truncation == a.truncation
        assert b.hamiltonians == a.hamiltonians
        assert [list(r) for r in b.form.matrix] == \
            [list(r) for r in a.form.matrix]
    blob = algebra_to_json(frobenius_pair())
    blob["h"][0]["k"] = 4
    with pytest.raises(ValueError):
        algebra_from_json(blob)


def test_bundled_algebra_files_load_and_validate():
    a = read_algebra(os.path.join(DATA, "frobenius_02.json"))
    assert validate(a).valid
    b = read_algebra(os.path.join(DATA, "sphere_hyperbolic.json"))
    assert validate(b).valid
    assert b.form.matrix != a.form.matrix
