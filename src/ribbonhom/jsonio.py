"""Structured-text (JSON) forms of the library objects.

Scalars are serialized by `scalars.json_scalar` as "num/den" strings,
never floats, and read by `scalars.parse_scalar`, which accepts only
integers and exact rational strings.  Schemas:

  tensor   {"signature": {"n", "m"}, "rank", "terms": [{"word", "coeff"}]}
  graph    {"half_edges", "vertices": [[slot..]..], "edges": [[a,b]..],
            "legs_in": [..], "legs_out": [..]}  (+ "aut"/"zero" on output)
  chain    [{"graph": {..}, "coeff": ".."}]
  cechain  {"signature": {..}, "terms": [{"factors": [[letter..]..],
            "coeff": ".."}]}
  algebra  {"signature": {..}, "omega": [[".."..]..],
            "h": [{"k", "tensor": {..}}..], "truncation"}

Readers canonicalize graphs and fold the resulting signs into chain
coefficients; a reader returns the same object its writer came from.
"""

from __future__ import annotations

import json

from .ainfinity import AInfinityAlgebra
from .complexes import GraphChain
from .graphs import RibbonGraph, canonicalize, check_diagram
from .lie import CEChain
from .scalars import json_scalar, parse_scalar
from .superspace import SuperDim, SuperTensor, SymplecticForm
from .tcft import LeggedGraph, canonicalize_legged


def _signature(dim: SuperDim) -> dict:
    return {"n": dim.n, "m": dim.m}


def _expect_object(obj, what):
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, "
                         f"not {type(obj).__name__}")


def _expect_list(obj, what):
    if not isinstance(obj, list):
        raise ValueError(f"{what} must be a JSON list, "
                         f"not {type(obj).__name__}")
    return obj


def _expect_int(obj, what):
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ValueError(f"{what} {json.dumps(obj)} is not an integer")
    return obj


def _dim_of(obj) -> SuperDim:
    _expect_object(obj, "signature")
    return SuperDim(_expect_int(obj["n"], "signature n"),
                    _expect_int(obj["m"], "signature m"))


# ----------------------------------------------------------------- tensors

def tensor_to_json(t: SuperTensor) -> dict:
    return {"signature": _signature(t.dim), "rank": t.rank,
            "terms": [{"word": list(w), "coeff": json_scalar(c)}
                      for w, c in sorted(t.terms.items())]}


def tensor_from_json(obj) -> SuperTensor:
    _expect_object(obj, "tensor")
    dim = _dim_of(obj["signature"])
    terms = {}
    for item in _expect_list(obj["terms"], "terms"):
        _expect_object(item, "a tensor term")
        word = tuple(_expect_int(a, "letter")
                     for a in _expect_list(item["word"], "word"))
        terms[word] = parse_scalar(item["coeff"])
    rank = obj.get("rank")
    if rank is None:
        if not terms:
            raise ValueError("tensor without terms needs an explicit rank")
        rank = len(next(iter(terms)))
    return SuperTensor(dim, _expect_int(rank, "rank"), terms)


def matrix_to_json(matrix) -> list:
    return [[json_scalar(x) for x in row] for row in matrix]


def matrix_from_json(rows) -> list:
    return [[parse_scalar(x) for x in _expect_list(row, "a matrix row")]
            for row in _expect_list(rows, "matrix")]


# ------------------------------------------------------------------ graphs

def graph_to_json(g) -> dict:
    """Canonical graph as a diagram; legged graphs add the leg arrays."""
    out = {"half_edges": sum(g.vtype),
           "vertices": [list(b) for b in g.vertex_blocks()],
           "edges": [list(c) for c in g.chords]}
    if isinstance(g, LeggedGraph):
        out["legs_in"] = list(g.legs_in)
        out["legs_out"] = list(g.legs_out)
    out["aut"] = g.aut
    out["zero"] = g.zero
    return out


def graph_from_json(obj):
    """Read a (possibly legged) graph diagram: (graph, sign) with
    [diagram] = sign * [canonical].  Vertex blocks may use arbitrary
    half-edge ids; they are relabeled in block order.  Every vertex must
    have valency >= 3, and legs and edges must use each half-edge once."""
    _expect_object(obj, "graph")
    blocks = [_expect_list(v, "a vertex")
              for v in _expect_list(obj["vertices"], "vertices")]

    def half_edge_id(h):
        if isinstance(h, bool) or not isinstance(h, (int, float, str)):
            raise ValueError(f"half-edge id {json.dumps(h)} is not "
                             f"a number or a string")
        return h

    relabel = {}
    for blk in blocks:
        for h in map(half_edge_id, blk):
            if h in relabel:
                raise ValueError(f"duplicate half-edge id {h}")
            relabel[h] = len(relabel)

    def slot(h):
        if half_edge_id(h) not in relabel:
            raise ValueError(f"unknown half-edge id {h}")
        return relabel[h]

    def edge(c):
        if not isinstance(c, list) or len(c) != 2:
            raise ValueError(f"edge {json.dumps(c)} is not a pair of "
                             f"half-edge ids")
        return slot(c[0]), slot(c[1])

    vtype = tuple(len(b) for b in blocks)
    edges = tuple(map(edge, _expect_list(obj["edges"], "edges")))
    legs_in = tuple(map(slot, _expect_list(obj.get("legs_in", []), "legs_in")))
    legs_out = tuple(map(slot, _expect_list(obj.get("legs_out", []),
                                            "legs_out")))
    if "half_edges" in obj and \
            _expect_int(obj["half_edges"], "half_edges") != len(relabel):
        raise ValueError("half_edges count does not match the vertices")
    check_diagram(vtype, legs_in, legs_out, edges)
    if legs_in or legs_out or "legs_in" in obj or "legs_out" in obj:
        return canonicalize_legged((vtype, legs_in, legs_out, edges))
    return canonicalize((vtype, edges))


def chain_to_json(x: GraphChain) -> list:
    return [{"graph": graph_to_json(g), "coeff": json_scalar(c)}
            for g, c in sorted(x.terms.items(), key=lambda t: t[0].sort_key)]


def chain_from_json(items) -> GraphChain:
    acc: dict = {}
    for item in items:
        g, sign = graph_from_json(item["graph"])
        if isinstance(g, LeggedGraph):
            raise ValueError("legged graph inside a plain graph chain")
        c = parse_scalar(item["coeff"]) * sign
        if not g.zero:
            acc[g] = acc.get(g, 0) + c
    return GraphChain(acc)


# --------------------------------------------------------------- CE chains

def ce_chain_to_json(x: CEChain) -> dict:
    return {"signature": _signature(x.dim),
            "terms": [{"factors": [list(w) for w in fs],
                       "coeff": json_scalar(c)}
                      for fs, c in sorted(x.terms.items())]}


def ce_chain_from_json(obj) -> CEChain:
    dim = _dim_of(obj["signature"])
    terms: dict = {}
    for item in obj["terms"]:
        fs = tuple(tuple(w) for w in item["factors"])
        terms[fs] = terms.get(fs, 0) + parse_scalar(item["coeff"])
    return CEChain(dim, terms)


# ---------------------------------------------------------------- algebras

def algebra_to_json(a: AInfinityAlgebra) -> dict:
    return {"signature": _signature(a.dim),
            "omega": matrix_to_json(a.form.matrix),
            "h": [{"k": k, "tensor": tensor_to_json(a.hamiltonians[k])}
                  for k in sorted(a.hamiltonians)],
            "truncation": a.truncation}


def algebra_from_json(obj) -> AInfinityAlgebra:
    _expect_object(obj, "algebra")
    dim = _dim_of(obj["signature"])
    form = SymplecticForm(dim, matrix_from_json(obj["omega"]))
    hams = {}
    for item in _expect_list(obj["h"], "h"):
        _expect_object(item, "an h item")
        k = _expect_int(item["k"], "k")
        t = tensor_from_json(item["tensor"])
        if t.dim != dim:
            raise ValueError("Hamiltonian signature differs from the algebra")
        if t.rank != k:
            raise ValueError(f"tensor of rank {t.rank} filed under k={k}")
        hams[k] = t
    return AInfinityAlgebra(form, hams,
                            _expect_int(obj["truncation"], "truncation"))


# ------------------------------------------------------------------- files

def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_algebra(path) -> AInfinityAlgebra:
    return algebra_from_json(load_json(path))
