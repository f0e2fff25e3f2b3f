"""Structured-text (JSON) forms of the library objects.

Scalars are serialized by `scalars.json_scalar` as "num/den" strings,
never floats, and read by `scalars.parse_scalar`, which accepts only
integers and exact rational strings.  Schemas:

  tensor   {"signature": {"n", "m"}, "rank", "terms": [{"word", "coeff"}]}
  graph    {"half_edges", "vertices": [[slot..]..], "edges": [[a,b]..],
            "legs_in": [..], "legs_out": [..]}  (+ "aut"/"zero" on output;
            the leg keys only for a class with a leg, and empty leg lists
            read as the class without legs)
  chain    [{"graph": {..}, "coeff": ".."}]  (written only)
  cechain  {"signature": {..}, "terms": [{"factors": [[letter..]..],
            "coeff": ".."}]}  (written only)
  algebra  {"signature": {..}, "omega": [[".."..]..],
            "h": [{"k", "tensor": {..}}..], "truncation"}

The verbs read graphs and algebras.  The graph reader canonicalizes the
diagram and returns the sign of its canonical form.  The readers refuse an
order that "h" lists twice and a word that "terms" lists twice, and leave
the checks of the form and of each tensor's signature and rank to
`SymplecticForm` and `AInfinityAlgebra`.  A reader refuses an object that
lacks a field with a ValueError naming both.
"""

from __future__ import annotations

import json

from .ainfinity import AInfinityAlgebra
from .complexes import GraphChain
from .graphs import canonicalize
from .lie import CEChain
from .scalars import json_scalar, parse_scalar
from .superspace import SuperDim, SuperTensor, SymplecticForm


def _signature(dim: SuperDim) -> dict:
    return {"n": dim.n, "m": dim.m}


def _expect_object(obj, what):
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, "
                         f"not {type(obj).__name__}")


def _field(obj, key, what):
    if key not in obj:
        raise ValueError(f'{what} has no "{key}" field')
    return obj[key]


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
    return SuperDim(_expect_int(_field(obj, "n", "signature"), "signature n"),
                    _expect_int(_field(obj, "m", "signature"), "signature m"))


# ----------------------------------------------------------------- tensors

def tensor_to_json(t: SuperTensor) -> dict:
    return {"signature": _signature(t.dim), "rank": t.rank,
            "terms": [{"word": list(w), "coeff": json_scalar(c)}
                      for w, c in sorted(t.terms.items())]}


def tensor_from_json(obj) -> SuperTensor:
    _expect_object(obj, "tensor")
    dim = _dim_of(_field(obj, "signature", "tensor"))
    terms = {}
    for item in _expect_list(_field(obj, "terms", "tensor"), "terms"):
        _expect_object(item, "a tensor term")
        word = tuple(_expect_int(a, "letter") for a in _expect_list(
            _field(item, "word", "a tensor term"), "word"))
        if word in terms:
            raise ValueError(f"tensor lists the word {list(word)} twice")
        terms[word] = parse_scalar(_field(item, "coeff", "a tensor term"))
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
    """Canonical graph as a diagram; a class with a leg adds the leg
    arrays."""
    out = {"half_edges": sum(g.vtype),
           "vertices": [list(b) for b in g.vertex_blocks()],
           "edges": [list(c) for c in g.chords]}
    if g.legs_in or g.legs_out:
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
    blocks = [_expect_list(v, "a vertex") for v in
              _expect_list(_field(obj, "vertices", "graph"), "vertices")]

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
    edges = tuple(map(edge, _expect_list(_field(obj, "edges", "graph"),
                                         "edges")))
    legs_in = tuple(map(slot, _expect_list(obj.get("legs_in", []), "legs_in")))
    legs_out = tuple(map(slot, _expect_list(obj.get("legs_out", []),
                                            "legs_out")))
    if "half_edges" in obj and \
            _expect_int(obj["half_edges"], "half_edges") != len(relabel):
        raise ValueError("half_edges count does not match the vertices")
    return canonicalize((vtype, legs_in, legs_out, edges))


def chain_to_json(x: GraphChain) -> list:
    return [{"graph": graph_to_json(g), "coeff": json_scalar(c)}
            for g, c in sorted(x.terms.items(), key=lambda t: t[0].sort_key)]


# --------------------------------------------------------------- CE chains

def ce_chain_to_json(x: CEChain) -> dict:
    return {"signature": _signature(x.dim),
            "terms": [{"factors": [list(w) for w in fs],
                       "coeff": json_scalar(c)}
                      for fs, c in sorted(x.terms.items())]}


# ---------------------------------------------------------------- algebras

def algebra_to_json(a: AInfinityAlgebra) -> dict:
    return {"signature": _signature(a.dim),
            "omega": matrix_to_json(a.form.matrix),
            "h": [{"k": k, "tensor": tensor_to_json(a.hamiltonians[k])}
                  for k in sorted(a.hamiltonians)],
            "truncation": a.truncation}


def algebra_from_json(obj) -> AInfinityAlgebra:
    _expect_object(obj, "algebra")
    dim = _dim_of(_field(obj, "signature", "algebra"))
    form = SymplecticForm(dim, matrix_from_json(_field(obj, "omega",
                                                       "algebra")))
    hams = {}
    for item in _expect_list(_field(obj, "h", "algebra"), "h"):
        _expect_object(item, "an h item")
        k = _expect_int(_field(item, "k", "an h item"), "k")
        if k in hams:
            raise ValueError(f"h lists k={k} twice")
        hams[k] = tensor_from_json(_field(item, "tensor", "an h item"))
    return AInfinityAlgebra(form, hams, _expect_int(
        _field(obj, "truncation", "algebra"), "truncation"))


# ------------------------------------------------------------------- files

def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_algebra(path) -> AInfinityAlgebra:
    return algebra_from_json(load_json(path))
