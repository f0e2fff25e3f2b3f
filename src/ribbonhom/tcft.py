"""Ribbon graphs with labelled legs: gluing and correlation functions.

A legged graph is a `graphs.RibbonGraph` whose `legs_in[i]` is the slot
carrying incoming label i and `legs_out[j]` the slot carrying outgoing
label j; the internal edges match up the remaining slots, and a closed
graph is the class with no legs, so there is no separate graph class.  An
orientation is, as without legs, an ordering of the vertices together
with a direction of every internal edge; leg labels are fixed by
isomorphisms and carry no orientation data.  This is the convention the
correlator below respects on the nose: the vertex tensors are odd
(transposing two vertices negates the state sum), the edge pairing is
super-skew (reversing a direction negates it) and parity-even (the list
order of the edges is immaterial).  Canonical forms come from
`graphs.canonicalize`; a legged diagram, legs included, has at most 16
half-edge slots.  Legged classes are enumerated from the leg placements
that the search's leg rule leaves in place, each with every matching of
the other slots.

Gluing joins outgoing leg j of the first graph to incoming leg j of the
second by a new internal edge directed first-to-second; `compose` extends
it bilinearly to `complexes.GraphChain`s of legged classes.  The correlator
of an algebra over a legged graph is the partition-function state sum
`superspace.contract` -- one Hamiltonian tensor per vertex, internal
edges contracted with the dual inner product -- with the leg slots left
open, ordered incoming labels then outgoing labels, and no automorphism
division (so a graph without legs evaluates to |Aut| times its
partition-function coefficient).  Gluing then corresponds to composing
correlators, the same state sum over the two correlators: contract the
outgoing slots of the first against the incoming slots of the second
with the same dual pairing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .ainfinity import AInfinityAlgebra, ValidationReport
from .complexes import GraphChain
from .graphs import (EMPTY_GRAPH, RibbonGraph, _check_size, _classify,
                     _place_legs, _standardize_diagram, _valency_partitions,
                     canonicalize, perfect_matchings)
from .scalars import format_scalar
from .superspace import SuperTensor, contract


# ----------------------------------------------------------------- gluing

def _as_diagram(g):
    if isinstance(g, RibbonGraph):
        return g.diagram()
    vtype, legs_in, legs_out, chords = g
    return (tuple(vtype), tuple(legs_in), tuple(legs_out),
            tuple(tuple(c) for c in chords))


def glue_diagram(g1, g2):
    """Join outgoing leg j of g1 to incoming leg j of g2 by a new internal
    edge directed first-to-second, the first graph's vertices listed
    first: (diagram, sign), standardized but not canonicalized."""
    vt1, li1, lo1, ch1 = _as_diagram(g1)
    vt2, li2, lo2, ch2 = _as_diagram(g2)
    if len(lo1) != len(li2):
        raise ValueError(f"cannot glue {len(lo1)} outgoing legs "
                         f"to {len(li2)} incoming legs")
    shift = sum(vt1)
    chords = list(ch1)
    chords += [(a + shift, b + shift) for a, b in ch2]
    chords += [(lo1[j], li2[j] + shift) for j in range(len(lo1))]
    vtype = vt1 + vt2
    legs_in = li1
    legs_out = tuple(s + shift for s in lo2)
    if not vtype:
        return ((), (), (), ()), 1
    return _standardize_diagram(vtype, legs_in, legs_out, tuple(chords))


def glue(g1, g2):
    """Glued canonical class: (RibbonGraph, sign)."""
    diagram, sign = glue_diagram(g1, g2)
    g, s2 = canonicalize(diagram)
    return g, sign * s2


# ----------------------------------------------------------------- chains

def compose(x: GraphChain, y: GraphChain) -> GraphChain:
    """Bilinear extension of gluing: an (m,n) graph chain with an (n,k)
    one gives an (m,k) one."""
    if x.nout != y.nin:
        raise ValueError(f"cannot compose ({x.nin},{x.nout}) "
                         f"with ({y.nin},{y.nout})")
    acc: dict = {}
    for g1, c1 in x.terms.items():
        for g2, c2 in y.terms.items():
            g, s = glue(g1, g2)
            if not g.zero:
                acc[g] = acc.get(g, 0) + c1 * c2 * s
    return GraphChain(acc, x.nin, y.nout)


# ------------------------------------------------------------ correlators

def correlation(algebra: AInfinityAlgebra, graph) -> SuperTensor:
    """State-sum correlator of a legged graph: one Hamiltonian tensor per
    vertex, internal edges contracted with the dual pairing, leg slots
    left open and ordered incoming labels then outgoing labels.

    Accepts a canonical RibbonGraph or a raw (vtype, legs_in, legs_out,
    chords) diagram; on canonical zero classes the result is the zero
    tensor, which is also what the state sum itself produces on any
    diagram of such a class."""
    dim = algebra.form.dim
    if isinstance(graph, RibbonGraph) and graph.zero:
        return SuperTensor.zero(dim, graph.nin + graph.nout)
    vtype, legs_in, legs_out, chords = _as_diagram(graph)
    if not vtype:
        return SuperTensor(dim, 0, {(): Fraction(1)})
    return contract([algebra.hamiltonian(k) for k in vtype], chords,
                    algebra.dual_pairing(), legs_in + legs_out)


def compose_tensors(t1: SuperTensor, t2: SuperTensor, n, pairing):
    """Contract the last n slots of t1 against the first n slots of t2,
    label by label with the dual pairing -- the tensor image of gluing n
    legs.  Free slots keep their order: t1's inputs, then t2's outputs."""
    if n > t1.rank or n > t2.rank:
        raise ValueError("fewer tensor slots than legs to glue")
    m = t1.rank - n
    size = t1.rank + t2.rank
    chords = [(m + j, t1.rank + j) for j in range(n)]
    legs = list(range(m)) + list(range(t1.rank + n, size))
    return contract([t1, t2], chords, pairing, legs)


def composition_compatibility(algebra: AInfinityAlgebra, g1, g2,
                              correlators=None):
    """Report whether the correlator of the glued graph equals the
    composition of the two correlators, exactly.  `correlators`, a dict
    kept across calls on the same algebra, memoizes the correlator of
    each canonical graph."""
    report = ValidationReport()
    g1, s1 = canonicalize(g1)
    g2, s2 = canonicalize(g2)
    if g1.nout != g2.nin:
        report.fail("arity", f"{g1.nout} outgoing legs against "
                             f"{g2.nin} incoming")
        return report
    if correlators is None:
        correlators = {}
    for g in (g1, g2):
        if g not in correlators:
            correlators[g] = correlation(algebra, g)
    diagram, s = glue_diagram(g1, g2)
    glued = correlation(algebra, diagram).scale(s * s1 * s2)
    composed = compose_tensors(correlators[g1].scale(s1),
                               correlators[g2].scale(s2),
                               g1.nout, algebra.dual_pairing())
    if glued != composed:
        diff = glued - composed
        w = min(diff.terms, key=lambda w: (len(w), w))
        name = ".".join(algebra.form.dim.letter_name(a) for a in w) or "1"
        report.fail("composition",
                    f"correlators differ at {name}: glued "
                    + format_scalar(glued.terms.get(w, Fraction(0)))
                    + " against composed "
                    + format_scalar(composed.terms.get(w, Fraction(0))))
    return report


# ------------------------------------------------------------ enumeration

def _fixed_leg_placements(vtype, nlegs):
    """The sequences of nlegs leg slots that the leg rule of the search
    (`_place_legs`) maps to themselves.  The rule places the legs in
    order, so a sequence is fixed when each prefix's last leg is."""
    placements = [()]
    for _ in range(nlegs):
        placements = [legs + (h,) for legs in placements
                      for h in range(sum(vtype)) if h not in legs
                      and _place_legs(vtype, legs + (h,))[0][h] == h]
    return placements


@lru_cache(maxsize=None)
def enumerate_legged_graphs(nin, nout, nedges):
    """All legged graph classes with the exact leg labels and internal
    edge count, sorted; zero classes are included and flagged.

    The leg images of a canonical form are a placement that the leg rule
    of the search maps to itself, so per valency type only those are
    tried, each with every matching of the other slots; the search keeps
    one diagram of each class."""
    size = 2 * nedges + nin + nout
    _check_size(size)
    if size == 0:
        return (EMPTY_GRAPH,)
    found = set()
    for nverts in range(1, size // 3 + 1):
        for vtype in _valency_partitions(size, nverts):
            for legs in _fixed_leg_placements(vtype, nin + nout):
                for mat in perfect_matchings(
                        [s for s in range(size) if s not in legs]):
                    found.add(_classify(vtype, mat, legs[:nin],
                                        legs[nin:])[0])
    return tuple(sorted(found, key=lambda g: g.sort_key))
