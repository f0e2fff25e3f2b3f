"""The oriented ribbon graph chain complex, with exact coefficients.

Chains are finite linear combinations of nonzero canonical graph classes
of one arity (legs in and out); the classes form an orthonormal basis for
the pairing.  The complex is the closed chains, with no legs.  The
boundary sums signed one-edge contractions (bidegree (-1,-1)); the
coboundary sums ideal edge expansions weighted by automorphism-count
ratios (bidegree (+1,+1)), making it the exact adjoint of the boundary.

The moves of one graph are its chords read through the cached move
templates of `graphs` (`_contractions` for the boundary, the expansion
pass for the coboundary), and each move is canonicalized by one call of
`_scan`, the canonical search.  The coboundary of g is the expansion pass
of `graphs`: s * aut(h) summed over the expansions landing in each class h
as integers, over the denominator aut(g), with an entry n = 0 for the ZERO
classes and the sums that cancel, which the enumeration needs and every
reader here skips.  The coboundary of a chain puts its coefficients over
one common denominator and also sums integers.  The boundary rows that
homology ranks and that `is_boundary` solves against are read from the
passes of the targets by adjointness, n / aut(g) for g in the boundary of
h, so no contraction is searched there; the boundary of a chain contracts.
The move sums of one graph are cached as flat tuples (h1, c1, h2, c2, ...),
with no tuple per term, and read back by `_terms`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .graphs import (RibbonGraph, _contractions, _expansion_pass,
                     _make_graph, _scan, enumerate_graphs)
from .scalars import LinearCombination, format_scalar, rank_exact, solve_exact


class GraphChain(LinearCombination):
    """Finite linear combination of oriented ribbon graph classes with
    `nin` incoming and `nout` outgoing legs, none by default.

    ZERO classes and zero coefficients are dropped on construction, so the
    zero chain is the one with no terms.
    """

    __slots__ = _SPACE = ("nin", "nout")

    def __init__(self, terms=None, nin=0, nout=0):
        self.nin = nin
        self.nout = nout
        self.terms = self._collect(terms)

    def _reduce(self, g):
        if g.nin != self.nin or g.nout != self.nout:
            raise ValueError(f"graph of arity ({g.nin},{g.nout}) "
                             f"in a ({self.nin},{self.nout}) chain")
        return None if g.zero else (g, 1)

    @classmethod
    def of(cls, graph: RibbonGraph, coeff=Fraction(1)) -> "GraphChain":
        return cls({graph: coeff}, graph.nin, graph.nout)

    def bidegree(self):
        """(vertices, edges) common to all terms; None for the zero chain;
        ValueError if mixed."""
        degs = {(g.nverts, g.nedges) for g in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"chain is not bihomogeneous: {sorted(degs)}")
        return degs.pop()

    def __repr__(self):
        if not self.terms:
            return "GraphChain(0)"
        bits = [f"({format_scalar(c)})*{g!r}" for g, c in sorted(
            self.terms.items(), key=lambda it: it[0].sort_key)]
        return " + ".join(bits)


def _as_chain(x) -> GraphChain:
    if isinstance(x, RibbonGraph):
        return GraphChain.of(x)
    return x


def _closed(x) -> GraphChain:
    """x as a chain, refused if it has legs."""
    x = _as_chain(x)
    if x.nin or x.nout:
        raise ValueError(f"the boundary and coboundary act on closed chains "
                         f"only, not on arity ({x.nin},{x.nout})")
    return x


def _terms(flat):
    """The (class, coeff) pairs of a flat tuple (h1, c1, h2, c2, ...)."""
    it = iter(flat)
    return zip(it, it)


@lru_cache(maxsize=None)
def _boundary_graph(g: RibbonGraph):
    """The boundary of g as one flat tuple (h1, c1, h2, c2, ...): the
    classes h its contractions land in, each with its integer
    coefficient; read it with `_terms`."""
    acc: dict = {}
    for vt, chords, s in _contractions(g):
        canonical, csign, aut, zero = _scan(vt, chords)
        if not zero:
            rg = _make_graph(vt, canonical, aut, zero)
            acc[rg] = acc.get(rg, 0) + s * csign
    return tuple([x for rg, c in acc.items() if c for x in (rg, c)])


# The coboundary of g as one flat tuple (h1, n1, h2, n2, ...) of integer
# numerators over g.aut, read with `_terms`: the expansion pass of `graphs`
# itself, one cache shared with the enumeration.  Its entries with n = 0
# (ZERO classes and sums that cancel) are skipped by every reader here.
_coboundary_graph = _expansion_pass


def boundary(x) -> GraphChain:
    """Sum of signed non-loop edge contractions, extended linearly."""
    out: dict = {}
    for g, c in _closed(x).terms.items():
        for rg, s in _terms(_boundary_graph(g)):
            out[rg] = out.get(rg, 0) + c * s
    return GraphChain(out)


def coboundary(x) -> GraphChain:
    """Sum of ideal-edge expansions weighted by automorphism ratios,
    extended linearly; the adjoint of `boundary`.  The coefficients of x
    over the automorphism counts are put over one denominator, the sum
    runs over the integers, and each output class is divided once."""
    terms = _closed(x).terms
    den = math.lcm(*(c.denominator * g.aut for g, c in terms.items()))
    out: dict = {}
    for g, c in terms.items():
        weight = c.numerator * (den // (c.denominator * g.aut))
        for rg, n in _terms(_coboundary_graph(g)):
            if n:
                out[rg] = out.get(rg, 0) + weight * n
    return GraphChain()._new({rg: Fraction(n, den) for rg, n in out.items()})


def pairing(x, y):
    """Orthonormal pairing in the basis of canonical nonzero classes."""
    x, y = _as_chain(x), _as_chain(y)
    small, large = (x.terms, y.terms) if len(x.terms) <= len(y.terms) \
        else (y.terms, x.terms)
    total = Fraction(0)
    for g, c in small.items():
        if g in large:
            total += c * large[g]
    return total


def basis(nvert, nedge, connected=False):
    """Nonzero classes at one bidegree, in canonical order."""
    classes = (enumerate_graphs(nvert, nedge, True) if connected
               else enumerate_graphs(nvert, nedge))
    return tuple(g for g in classes if not g.zero)


def _boundary_rows(nvert, nedge):
    """The boundary from basis(nvert, nedge) to basis(nvert - 1, nedge - 1)
    as sparse rows, one {target index: int} row per source class; no rows
    when either basis is empty.

    The rows are read by adjointness from the expansion passes of the
    targets (those of the connected targets made the classes of (nvert,
    nedge)): the coefficient of g in the boundary of h is n / aut(g),
    where n is the entry of h in the pass of g, and that division is
    exact.  So no contraction is canonicalized, and the rows equal the
    contraction rows of `_boundary_graph` as dicts.
    """
    tgt = basis(nvert - 1, nedge - 1)
    if not tgt:
        return []
    src = {h: i for i, h in enumerate(basis(nvert, nedge))}
    rows = [{} for _ in src]
    for j, g in enumerate(tgt):
        for h, n in _terms(_coboundary_graph(g)):
            if n:
                c, r = divmod(n, g.aut)
                assert not r, (g, h, n)
                rows[src[h]][j] = c
    return rows


def _boundary_rank(nvert, nedge) -> int:
    """Rank of the boundary map leaving bidegree (nvert, nedge)."""
    rows = _boundary_rows(nvert, nedge)
    return rank_exact(rows) if rows else 0


def homology_dims(vrange, erange, ranks=None) -> dict:
    """Exact homology dimensions of the boundary complex.

    `vrange` and `erange` are inclusive (lo, hi) pairs; returns
    {(v, e): dim} for every bidegree in the window.  `ranks`, a dict of
    boundary ranks by source bidegree, is filled as they are computed;
    callers that pass the same dict to calls on neighbouring windows rank
    each boundary once.
    """
    vlo, vhi = vrange
    elo, ehi = erange
    if ranks is None:
        ranks = {}

    def rank(v, e):
        if (v, e) not in ranks:
            ranks[v, e] = _boundary_rank(v, e)
        return ranks[v, e]

    out = {}
    for v in range(vlo, vhi + 1):
        for e in range(elo, ehi + 1):
            dim = len(basis(v, e))
            if dim == 0:
                out[(v, e)] = 0
                continue
            out[(v, e)] = dim - rank(v, e) - rank(v + 1, e + 1)
    return out


def is_boundary(x: GraphChain):
    """A chain y with boundary(y) == x, or None if there is none.

    The witness is found by exact elimination over the one-higher
    bidegree's basis; x must be bihomogeneous and nonzero.
    """
    x = _closed(x)
    deg = x.bidegree()
    if deg is None:
        return GraphChain()
    v, e = deg
    src = basis(v + 1, e + 1)
    tgt = {g: i for i, g in enumerate(basis(v, e))}
    # the columns of the boundary, one sparse row per target class
    cols = [{} for _ in tgt]
    for i, row in enumerate(_boundary_rows(v + 1, e + 1)):
        for j, c in row.items():
            cols[j][i] = c
    sol = solve_exact(cols, {tgt[g]: c for g, c in x.terms.items()})
    if sol is None:
        return None
    return GraphChain({src[i]: c for i, c in sol.items()})
