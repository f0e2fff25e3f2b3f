"""Minimal cyclic A-infinity data and its graph-valued invariants.

An algebra here is a super vector space with an even order-zero inner
product and a family of odd, rotation-invariant tensors h_k (one per
product arity, k >= 3, up to a truncation order).  The structure equation
is {h, h} = 0 for the cyclic-word bracket taken with the dual inner
product; the dictionary between the tensors and the word chain is
N(word chain's rank-k part) = h_k, i.e. the word chain carries a 1/k.

From such data we build: the partition function (a graph chain whose
coefficient at a graph is the state sum `superspace.contract` of one
h-tensor per vertex along the edges with the dual pairing, divided by the
automorphism count), its connected part and the exponential identity
between them, direct sums, twists by even Hamiltonian flows, and the
characteristic class (the wedge exponential of the word chain, a
`lie.CEChain`), which `feynman.pair_chain_graph` pairs against graphs
through the same dual pairing to the same numbers as the partition
function.  Everything is computed in the algebra's own coordinates: no
basis change normalizes the inner product first.
"""

from __future__ import annotations

from fractions import Fraction

from .complexes import GraphChain
from .graphs import EMPTY_GRAPH, disjoint_union, enumerate_graphs
from .lie import CEChain, CyclicWord, bracket
from .scalars import format_scalar
from .superspace import (SuperDim, SuperTensor, SymplecticForm, contract,
                         cyclic_shift, norm)


class AInfinityAlgebra:
    """Minimal cyclic A-infinity structure: inner product plus odd
    invariant tensors h_k for 3 <= k <= truncation."""

    __slots__ = ("dim", "form", "hamiltonians", "truncation", "_dual")

    def __init__(self, form: SymplecticForm, hamiltonians, truncation: int):
        self.dim = form.dim
        self.form = form
        hs = {}
        for k, t in (hamiltonians or {}).items():
            if t.dim != self.dim:
                raise ValueError("Hamiltonian signature differs from the "
                                 "algebra")
            if t.rank != k:
                raise ValueError(f"tensor of rank {t.rank} filed under k={k}")
            if k < 3:
                raise ValueError("products start at arity two (tensors at "
                                 "order three)")
            if t:
                hs[k] = t
        if truncation < 3:
            raise ValueError("truncation below the first product order")
        if any(k > truncation for k in hs):
            raise ValueError("tensor beyond the truncation order")
        self.hamiltonians = hs
        self.truncation = truncation

    def hamiltonian(self, k: int) -> SuperTensor:
        return self.hamiltonians.get(k) or SuperTensor.zero(self.dim, k)

    def word_hamiltonian(self) -> CyclicWord:
        """The cyclic-word chain h with N(h) = sum of the h_k."""
        total = CyclicWord(self.dim)
        for k, t in sorted(self.hamiltonians.items()):
            total = total + CyclicWord.from_tensor(t).scale(Fraction(1, k))
        return total

    def dual_pairing(self):
        """The pairing dual to the form, as a tuple of row tuples: the form
        is inverted on the first call and the result kept."""
        try:
            return self._dual
        except AttributeError:
            self._dual = tuple(tuple(r) for r in self.form.dual_matrix())
            return self._dual

    def __repr__(self):
        ks = ",".join(str(k) for k in sorted(self.hamiltonians)) or "-"
        return (f"AInfinityAlgebra(dim={self.dim.n}|{self.dim.m}, "
                f"orders[{ks}], K={self.truncation})")


def _word_to_tensors(chain: CyclicWord):
    """Tensors with N(rank-k part of chain) = result[k]."""
    out = {}
    for w, c in chain.terms.items():
        k = len(w)
        t = norm(SuperTensor.word(chain.dim, w)).scale(c)
        out[k] = out.get(k, SuperTensor.zero(chain.dim, k)) + t
    return {k: t for k, t in out.items() if t}


def hamiltonian_from_products(products, form: SymplecticForm):
    """Tensors h_{k+1} from multilinear products m_k via
    h(x_1,...,x_k,y) = <m(x_1,...,x_k), y>.

    Products are given per arity as {input word: {output letter: coeff}}.
    The results must come out rotation-invariant; if not, the products are
    not compatible with the form and a ValueError names a witness.
    """
    dim = form.dim
    out = {}
    for arity, table in sorted(products.items()):
        terms: dict = {}
        for word, image in table.items():
            word = tuple(word)
            if len(word) != arity:
                raise ValueError(f"key of length {len(word)} in the "
                                 f"arity-{arity} table")
            for b, coeff in image.items():
                if not coeff:
                    continue
                for a in range(dim.total):
                    val = form.matrix[b][a]
                    if val:
                        key = word + (a,)
                        terms[key] = terms.get(key, 0) + coeff * val
        t = SuperTensor(dim, arity + 1, terms)
        if cyclic_shift(t) != t:
            bad = min(t.terms)
            raise ValueError(
                "products are not cyclic with respect to the form "
                f"(monomial {'.'.join(dim.letter_name(a) for a in bad)})")
        if t:
            out[arity + 1] = t
    return out


class ValidationReport:
    """Outcome of structural validation; false-y when any check failed."""

    __slots__ = ("failures",)

    def __init__(self):
        self.failures = []

    def fail(self, check: str, detail: str):
        self.failures.append((check, detail))

    @property
    def valid(self) -> bool:
        return not self.failures

    def __bool__(self):
        return self.valid

    def __repr__(self):
        if self.valid:
            return "ValidationReport(valid)"
        lines = "; ".join(f"{c}: {d}" for c, d in self.failures)
        return f"ValidationReport(invalid: {lines})"


def validate(algebra: AInfinityAlgebra) -> ValidationReport:
    """Check the oddness and rotation invariance of every tensor, and the
    structure equation {h,h} = 0 at every order the retained tensors
    determine (up to truncation + 1; a pair of orders k, l contributes at
    k + l - 2, so orders beyond that could involve truncated-away tensors).
    To certify a finite Hamiltonian completely choose a truncation of at
    least 2 k_max - 2.  Report-valued; the first bad monomial is named.
    The form needs no check here: `SymplecticForm` refuses a misshapen,
    mixed-parity, non-super-skew or singular matrix when it is built.

    The bracket skips every pair of words above truncation + 1 rather than
    building those orders and dropping them: a pair of lengths k, l makes
    words of length k + l - 2 only, so the orders it keeps are exactly the
    full bracket's."""
    report = ValidationReport()
    dim = algebra.dim
    for k, t in sorted(algebra.hamiltonians.items()):
        for w in t.terms:
            if dim.word_parity(w) == 0:
                report.fail(f"h{k}-odd",
                            "even monomial "
                            + ".".join(dim.letter_name(a) for a in w))
                break
        if cyclic_shift(t) != t:
            report.fail(f"h{k}-cyclic", "not rotation invariant")
    if not report.valid:
        return report
    h = algebra.word_hamiltonian()
    square = bracket(h, h, algebra.dual_pairing(), algebra.truncation + 1)
    if square:
        w = min(square.terms, key=lambda w: (len(w), w))
        report.fail("structure-equation",
                    "{h,h} has monomial "
                    + ".".join(dim.letter_name(a) for a in w)
                    + " with coefficient " + format_scalar(square.terms[w]))
    return report


# ------------------------------------------------------ partition function

def _graph_value(algebra: AInfinityAlgebra, g, pairing):
    """The state sum of one h-tensor per vertex, letters contracted along
    the edges with the dual pairing, over |Aut|."""
    if g is EMPTY_GRAPH:
        return Fraction(1)
    tensors = [algebra.hamiltonian(k) for k in g.vtype]
    return contract(tensors, g.chords, pairing).scalar() / g.aut


# These names stay, as perfbench/tracing.py wraps `value`, reads `window` and
# rebinds `_graph_value` and the partition and characteristic functions.
class PartitionFunction:
    """Graph chain of an algebra over a (vertices, edges) window."""

    __slots__ = ("window", "chain")

    def __init__(self, window, chain: GraphChain):
        self.window = window
        self.chain = chain

    def value(self, g):
        """The coefficient of the canonical class g (0 if the chain does
        not hold it); ValueError for a class outside the window."""
        vmax, emax = self.window
        if g.nverts > vmax or g.nedges > emax:
            raise ValueError(f"class at ({g.nverts},{g.nedges}) is outside "
                             f"the window v<={vmax} e<={emax}")
        return self.chain.coefficient(g)

    def __repr__(self):
        v, e = self.window
        return (f"PartitionFunction(window v<={v} e<={e}, "
                f"{len(self.chain.terms)} terms)")


def partition_function(algebra: AInfinityAlgebra, window) -> PartitionFunction:
    """Evaluate the algebra on every canonical graph class in the window
    (the empty graph contributes 1)."""
    vmax, emax = window
    pairing = algebra.dual_pairing()
    acc = {EMPTY_GRAPH: Fraction(1)}
    for v in range(1, vmax + 1):
        if v % 2:
            continue  # a graph with an odd number of odd tensors pairs to 0
        for e in range(1, emax + 1):
            for g in enumerate_graphs(v, e):
                if g.zero:
                    continue  # the chain drops a ZERO class whatever its value
                z = _graph_value(algebra, g, pairing)
                if z:
                    acc[g] = z
    return PartitionFunction((vmax, emax), GraphChain(acc))


def connected_partition_function(pf: PartitionFunction) -> GraphChain:
    """The connected classes of a partition function's chain."""
    return GraphChain({g: c for g, c in pf.chain.terms.items()
                       if g is not EMPTY_GRAPH and g.connected})


def exp_chain(x: GraphChain, window) -> GraphChain:
    """Exponential under disjoint union, truncated to the window: the sum
    of 1/n! times n-fold unions.  Identical components are automatically
    weighted by the inverse order of their swap group."""
    vmax, emax = window

    def truncate(chain: GraphChain) -> GraphChain:
        return GraphChain({g: c for g, c in chain.terms.items()
                           if g.nverts <= vmax and g.nedges <= emax})

    total = GraphChain({EMPTY_GRAPH: Fraction(1)})
    power = total
    n = 0
    while power:
        n += 1
        terms: dict = {}
        for g1, c1 in power.terms.items():
            for g2, c2 in x.terms.items():
                if (g1.nverts + g2.nverts > vmax
                        or g1.nedges + g2.nedges > emax):
                    continue
                gu, s = disjoint_union(g1, g2)
                if not gu.zero:
                    terms[gu] = terms.get(gu, 0) + c1 * c2 * s
        power = truncate(GraphChain(terms)).scale(Fraction(1, n))
        total = total + power
    return total


# ----------------------------------------------------- sums and twists

def _letter_embeddings(d1: SuperDim, d2: SuperDim):
    big = SuperDim(d1.n + d2.n, d1.m + d2.m)

    def map1(a):
        if a < d1.n:
            return a
        if a < 2 * d1.n:
            return a + d2.n
        return a + 2 * d2.n

    def map2(a):
        if a < d2.n:
            return a + d1.n
        if a < 2 * d2.n:
            return a + 2 * d1.n
        return a + 2 * d1.n + d1.m

    return big, map1, map2


def direct_sum(a1: AInfinityAlgebra, a2: AInfinityAlgebra) -> AInfinityAlgebra:
    """Orthogonal direct sum: block inner product, tensors embedded by
    letter relabelling and added."""
    big, map1, map2 = _letter_embeddings(a1.dim, a2.dim)
    mat = [[Fraction(0)] * big.total for _ in range(big.total)]
    for src, mp in ((a1, map1), (a2, map2)):
        for a in range(src.dim.total):
            for b in range(src.dim.total):
                if src.form.matrix[a][b]:
                    mat[mp(a)][mp(b)] = src.form.matrix[a][b]
    form = SymplecticForm(big, mat)
    hs: dict = {}
    for src, mp in ((a1, map1), (a2, map2)):
        for k, t in src.hamiltonians.items():
            emb = SuperTensor(big, k, {tuple(mp(a) for a in w): c
                                       for w, c in t.terms.items()})
            hs[k] = hs.get(k, SuperTensor.zero(big, k)) + emb
    return AInfinityAlgebra(form, hs, min(a1.truncation, a2.truncation))


def twist(algebra: AInfinityAlgebra, gamma: CyclicWord,
          truncation=None) -> AInfinityAlgebra:
    """Twist by the flow of an even cyclic word of order >= 3: the word
    Hamiltonian is pushed through exp of bracketing with gamma, truncated.

    Order-two (or shorter) twist data never closes under truncation and is
    rejected.  Each bracket skips the pairs of words above the truncation:
    a pair of lengths k, l makes words of length k + l - 2 only, so what
    is skipped is exactly what truncating the bracket would drop.
    """
    if gamma.dim != algebra.dim:
        raise ValueError("twist data over a different space")
    k_max = truncation if truncation is not None else algebra.truncation
    if gamma and not gamma.is_parity_homogeneous(0):
        raise ValueError("twist data must be even")
    if any(len(w) < 3 for w in gamma.terms):
        raise ValueError("twist data of order two or less never closes "
                         "under truncation; use words of order three or "
                         "more")
    pairing = algebra.dual_pairing()
    cur = algebra.word_hamiltonian()
    cur = CyclicWord(algebra.dim, {w: c for w, c in cur.terms.items()
                                   if len(w) <= k_max})
    total = cur
    j = 0
    while cur:
        j += 1
        cur = bracket(gamma, cur, pairing, k_max).scale(Fraction(1, j))
        total = total + cur
    return AInfinityAlgebra(algebra.form, _word_to_tensors(total), k_max)


# ----------------------------------------------------- characteristic class

def characteristic_class(algebra: AInfinityAlgebra,
                         degree_bound: int) -> CEChain:
    """exp of the algebra's word Hamiltonian up to the given exterior
    degree, in the algebra's own coordinates."""
    dim = algebra.dim
    factor = CEChain(dim, {(w,): c for w, c
                           in algebra.word_hamiltonian().terms.items()})
    total = CEChain.one(dim)
    power = total
    for j in range(1, degree_bound + 1):
        power = power.wedge_mul(factor).scale(Fraction(1, j))
        if not power:
            break
        total = total + power
    return total
