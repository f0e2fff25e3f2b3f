"""Amplitudes pairing wedge chains of cyclic words with ribbon graphs.

The amplitude of an oriented chord diagram on tensor slots pairs the
letters at each chord's two ends through an inner product, with the
Koszul sign of gathering them; it is the state sum `superspace.contract`,
which every amplitude below calls with the per-vertex tensors and a
pairing matrix.  Distributing the wedge factors of a chain over the
vertices of a graph (all assignments, graded signs) turns it into a
pairing between chains and graphs, and summing graphs against all chord
diagrams turns a chain into a graph chain -- a combinatorial shadow of
Gaussian integration.  Both directions are exact and are checked against
each other: the two differentials are adjoint and the triangle
chain-pairing = graph-pairing after integration commutes.
The graph pairing (`amplitude`, `pair_chain_graph`) takes any pairing
matrix, the canonical one by default: an algebra's characteristic class
is paired through the algebra's own dual pairing.  Every graph read here
is a canonical class (`graphs.canonicalize` makes one from a raw
diagram), so no canonicalization sign enters the arithmetic.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .complexes import GraphChain
from .graphs import EMPTY_GRAPH, canonicalize, perfect_matchings
from .lie import CEChain
from .superspace import (SuperDim, SuperTensor, canonical_form_matrix,
                         contract, koszul_sign, norm, perm_parity)


@lru_cache(maxsize=None)
def _norm_block(dim: SuperDim, word, project: bool):
    """The rotation sum N(w) of a word, divided by its length when
    `project` (the projector onto invariants); each word's block is built
    once and shared, as tensors are never changed in place.

    The amplitude of a graph uses the plain norm; the integration map uses
    the projector, because its sum over chord diagrams already runs over
    every rotation of every vertex.  With this split the pairing
    factorizes exactly through integration.
    """
    t = norm(SuperTensor.word(dim, word))
    return t.scale(Fraction(1, len(word))) if project else t


def amplitude(g, x: CEChain, pairing=None):
    """Amplitude of a canonical class on a wedge chain: distribute the
    wedge factors over the vertices in all rank-compatible ways, with the
    graded sign of each redistribution, and contract the edges through
    `pairing` (the canonical form matrix when None)."""
    terms = x.by_ranks().get(g.vtype)
    if g.zero or g is EMPTY_GRAPH or not terms:
        return Fraction(0)
    dim = x.dim
    if pairing is None:
        pairing = canonical_form_matrix(dim)
    nv = len(g.vtype)
    total = Fraction(0)
    for factors, coeff in terms:
        ranks = tuple(len(w) for w in factors)
        pars = [dim.word_parity(w) for w in factors]
        blocks = [_norm_block(dim, w, False) for w in factors]
        for assign in itertools.permutations(range(nv)):
            # vertex v receives factor assign[v]
            if any(ranks[assign[v]] != g.vtype[v] for v in range(nv)):
                continue
            perm = [None] * nv
            for v, f in enumerate(assign):
                perm[f] = v
            sign = perm_parity(tuple(perm)) * koszul_sign(pars, perm)
            val = contract([blocks[f] for f in assign], g.chords,
                           pairing).scalar()
            if val:
                total = total + coeff * val * sign
    return total


def pair_chain_graph(x: CEChain, graph, pairing=None):
    """Pairing of a wedge chain with a canonical class (or graph chain):
    amplitude through `pairing` divided by the automorphism count,
    extended linearly.

    Only the classes whose valency type is the sorted factor lengths of
    some term of x are visited.  Every other class has no rank-compatible
    assignment of factors to vertices, so its amplitude is 0 and skipping
    it leaves the sum as it is."""
    ranks = x.by_ranks()
    total = Fraction(0)
    terms = graph.terms.items() if isinstance(graph, GraphChain) \
        else ((graph, 1),)
    for g, c in terms:
        if g.vtype not in ranks:
            continue
        amp = amplitude(g, x, pairing)
        if amp:
            total = total + c * amp / g.aut
    return total


def _balanced(dim: SuperDim, factors) -> bool:
    """Whether the canonical pairing can pair off the letters of a term:
    as many p_i as q_i for each i, and each x_j an even number of times.

    The canonical form pairs p_i only with q_i and x_j only with x_j, and
    the rotation sums of the factors keep each factor's letters.  So for a
    term that is not balanced every chord diagram has a chord on two
    letters that do not pair, and every state sum is 0."""
    counts = [0] * dim.total
    for w in factors:
        for a in w:
            counts[a] += 1
    n = dim.n
    return (counts[:n] == counts[n:2 * n]
            and not any(c % 2 for c in counts[2 * n:]))


def integral_I(x: CEChain) -> GraphChain:
    """Integrate a wedge chain to a graph chain: sum each term's amplitude
    against every chord diagram on its slots, the diagram oriented by
    increasing pairs.

    A term whose letters the canonical pairing cannot pair off (see
    `_balanced`) is skipped: each of its chord diagrams reads 0."""
    dim = x.dim
    mat = canonical_form_matrix(dim)
    acc: dict = {}
    for factors, coeff in x.terms.items():
        ranks = tuple(len(w) for w in factors)
        if any(k < 3 for k in ranks):
            raise ValueError("wedge factors shorter than three letters "
                             "do not define graph vertices")
        if not _balanced(dim, factors):
            continue
        blocks = [_norm_block(dim, w, True) for w in factors]
        for matching in perfect_matchings(range(sum(ranks))):
            val = contract(blocks, matching, mat).scalar()
            if not val:
                continue
            g, sign = canonicalize((ranks, matching))
            if g.zero:
                continue
            acc[g] = acc.get(g, 0) + coeff * val * sign
    return GraphChain(acc)


def integral_I_inverse(g) -> CEChain:
    """A wedge chain integrating back to the canonical class g: one letter
    pair p_r, q_r per edge, placed at the edge's two slots, over
    C^{2k|0}."""
    if g.zero:
        return CEChain(SuperDim(len(g.chords), 0))
    k = len(g.chords)
    dim = SuperDim(k, 0)
    word = [None] * (2 * k)
    for r, (a, b) in enumerate(g.chords):
        word[a] = r          # p_{r+1}
        word[b] = k + r      # q_{r+1}
    factors = []
    pos = 0
    for val in g.vtype:
        factors.append(tuple(word[pos:pos + val]))
        pos += val
    return CEChain(dim, {tuple(factors): Fraction(1)})
