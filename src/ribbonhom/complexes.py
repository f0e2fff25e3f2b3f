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
`graphs._classify`, the canonical search and its class table.  The
coboundary of g is the expansion pass of `graphs`: s * aut(h) summed over
the expansions landing in each class h as integers, over the denominator
aut(g), with an entry n = 0 for the ZERO classes and the sums that cancel,
which the enumeration needs and every reader here skips.  The coboundary
of a chain puts its coefficients over one common denominator and also sums
integers.  The boundary rows that homology ranks and that `is_boundary`
solves against are read from the passes of the targets by adjointness,
n / aut(g) for g in the boundary of h, so no contraction is searched
there; the boundary of a chain contracts.  The move sums of one graph are cached
as flat tuples (h1, c1, h2, c2, ...), with no tuple per term, and read
back by `_terms`.

Homology is computed connected first.  The complex is the free
graded-commutative algebra on its connected classes, so each Betti number
is a coefficient of a product over the connected Betti numbers
(`homology_dims`).  Only connected cells are ranked, and only those whose
complement in a cell of the window is empty or can hold a graph; the rows
of each connected rank come from the passes of the cell below, so neither
a disconnected class nor the cell above the window is enumerated.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .graphs import (RibbonGraph, _classify, _contractions, _expansion_pass,
                     enumerate_graphs)
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
        rg, sign = _classify(vt, chords)
        if not rg.zero:
            acc[rg] = acc.get(rg, 0) + s * sign
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


def _rows_into(targets) -> dict:
    """The boundary into the classes `targets`, read by adjointness from
    their expansion passes, as {source class: {target index: int}}.

    The coefficient of g in the boundary of h is n / aut(g), where n is
    the entry of h in the pass of g, and that division is exact.  So no
    contraction is canonicalized, and a source class that no pass reaches
    has no row.
    """
    rows: dict = {}
    for j, g in enumerate(targets):
        for h, n in _terms(_coboundary_graph(g)):
            if n:
                c, r = divmod(n, g.aut)
                assert not r, (g, h, n)
                rows.setdefault(h, {})[j] = c
    return rows


@lru_cache(maxsize=None)
def _connected_rank(nvert, nedge) -> int:
    """Rank of the boundary from the connected classes at (nvert, nedge)
    to those at (nvert - 1, nedge - 1).

    A contraction keeps a graph connected and an expansion keeps its
    components, so the rows are `_rows_into` the connected targets, keyed
    by the class they land in: the source cell is never enumerated, and
    its classes that no pass reaches are zero rows, which add nothing to
    the rank.
    """
    rows = _rows_into(basis(nvert - 1, nedge - 1, True))
    return rank_exact(list(rows.values())) if rows else 0


def _sym_coefficient(betti, cell):
    """The coefficient of x^V y^E, (V, E) = cell, in the product of
    (1 - x^v y^e)^(-b) over even v and (1 + x^v y^e)^b over odd v, b =
    betti[v, e]: the dimension at (V, E) of the free graded-commutative
    algebra on b generators of each bidegree (v, e), symmetric in the
    even ones and exterior in the odd ones."""
    V, E = cell
    poly = {(0, 0): 1}
    for (v, e), b in betti.items():
        if not b:
            continue
        out = dict(poly)
        for (a, c), x in poly.items():
            k = 1
            while a + k * v <= V and c + k * e <= E:
                mult = math.comb(b + k - 1, k) if v % 2 == 0 \
                    else math.comb(b, k)
                key = (a + k * v, c + k * e)
                out[key] = out.get(key, 0) + x * mult
                k += 1
        poly = out
    return poly.get((V, E), 0)


def homology_dims(vrange, erange) -> dict:
    """Exact homology dimensions of the boundary complex.

    `vrange` and `erange` are inclusive (lo, hi) pairs; returns
    {(v, e): dim} for every bidegree in the window.

    The connected part comes first.  The complex is the free
    graded-commutative algebra, under disjoint union, on its connected
    classes, a class with v vertices having parity v, and the boundary is
    a derivation of it (Kontsevich; Conant & Vogtmann 2003).  Over Q the
    homology is therefore Sym of the connected homology, and each Betti
    number is a coefficient of `_sym_coefficient` over the connected ones,
    b_c(v, e) = dim C_c(v, e) - r_c(v, e) - r_c(v + 1, e + 1), with the
    ranks r_c of `_connected_rank`.  A cell (V, E) reads b_c only at the
    connected cells (v, e) whose complement (V - v, E - e) is (0, 0) or
    can hold a graph (v' >= 1, 3v' <= 2e'); the others enter no product
    that reaches (V, E).  No disconnected class is enumerated, nor the cell
    above the window.
    """
    vlo, vhi = vrange
    elo, ehi = erange
    out = {}
    for V in range(vlo, vhi + 1):
        for E in range(elo, ehi + 1):
            betti = {}
            for v in range(1, V + 1):
                for e in range((3 * v + 1) // 2, E + 1):
                    # the complement: (0, 0), or a bidegree with a
                    # valency type, as a disjoint union of classes has
                    cv, ce = V - v, E - e
                    if cv == ce == 0 or cv and 3 * cv <= 2 * ce:
                        dim = len(basis(v, e, True))
                        betti[v, e] = dim and (dim - _connected_rank(v, e)
                                               - _connected_rank(v + 1, e + 1))
            out[(V, E)] = _sym_coefficient(betti, (V, E))
    return out


def is_boundary(x: GraphChain):
    """A chain y with boundary(y) == x, or None if there is none.

    The witness is found by exact elimination over the classes one
    bidegree up that the expansion passes of x's basis reach
    (`_rows_into`), so that cell is never enumerated; x must be
    bihomogeneous and nonzero.
    """
    x = _closed(x)
    deg = x.bidegree()
    if deg is None:
        return GraphChain()
    tgt = basis(*deg)
    rows = _rows_into(tgt)
    # the sources that a pass reaches, in basis order; the others are
    # zero columns, never a pivot
    src = sorted(rows, key=lambda h: h.sort_key)
    # the columns of the boundary, one sparse row per target class; each
    # row is dropped once copied, so none is held through the elimination
    cols = [{} for _ in tgt]
    for i, h in enumerate(src):
        for j, c in rows.pop(h).items():
            cols[j][i] = c
    row_of = {g: j for j, g in enumerate(tgt)}
    sol = solve_exact(cols, {row_of[g]: c for g, c in x.terms.items()})
    if sol is None:
        return None
    return GraphChain({src[i]: c for i, c in sol.items()})
