"""Oriented ribbon graphs as chord diagrams, with exact orientation signs.

A graph of type ``(k_1 <= ... <= k_m)`` (vertex valencies, all >= 3) is
stored on half-edges ``0 .. 2e-1``: vertex v owns the consecutive block of
length k_v starting at ``k_1 + ... + k_{v-1}``, the block order being the
cyclic order at the vertex, and the edges form a perfect matching of the
half-edges.  An orientation is an ordering of the vertices together with a
direction of every edge; transposing two vertices or flipping one edge
negates the graph.

Two diagrams give the same oriented graph exactly when a relabeling built
from a valency-preserving vertex permutation and rotations of the cyclic
orders carries one matching to the other; the sign of the relabeling is
the vertex-permutation sign times (-1) per reversed edge.  The canonical
form is the least image matching over this group (as partner arrays,
compared lexicographically); a class is ZERO when some relabeling
stabilizes the matching with sign -1.

Canonical forms come from one pruned search (`_canonical_search`), the
individualization of nauty (McKay & Piperno 2014) and the rooted code of
plantri (Brinkmann & McKay 2007) applied to the least partner array.  It
fills the image labels in order: it branches only where a label's block
holds no vertex yet, over the unplaced vertices of that valency and their
rotations; everywhere else the least entry forces the placement.  Depth
first, with the least image so far as the incumbent, it drops a branch at
its first larger entry; the relabelings that survive are the coset onto
the canonical form, so they give the sign, |Aut| and the ZERO flag.

A class may carry labelled legs, the open slots of the TCFT reading of
the same graphs (`tcft`): `legs_in[i]` is the slot of incoming label i,
`legs_out[j]` that of outgoing label j, and the edges match the other
slots.  A closed graph is the class with no legs.  A leg slot is a fixed
point of the matching (its own partner), and the images of the leg slots,
incoming then outgoing, are compared first: each leg's vertex is placed,
in order, before the search of the other slots runs.

One function, `_classify`, takes a diagram to its class: it runs the
search and looks its least image up in the class table of the diagram's
valency type, so every class is made once and a class is equal only to
itself.  Each class keeps the key of its type's table as its `vtype`, and
its chords are the shared pairs of `_PAIRS`, one tuple per (a, b).  So a
class holds references to shared objects, not copies of its own: the
tables of classes are most of the memory a large window spends.

The moves of the complex, contracting an edge and expanding an ideal
edge, relabel half-edges in a way that depends only on the valency type
and the half-edges involved, not on the other chords.  Each such
relabeling, composed with the standardization and its sign, is built once
and cached as a tuple of labels (a move template): one per edge of a
type (`_contraction_template`), and one tuple per type for its ideal
edges (`_expansion_moves`).  The moves of one graph are its chords read
through the templates (`_contractions`, `_expansions`), and each move is
canonicalized by one call of `_classify`.  The expansions of a class are
canonicalized once, in one cached pass (`_expansion_pass`) that lists
every class they land in with its integer coefficient: it is the
coboundary of the class, the boundary into it by adjointness, and the
enumeration's source of the classes one vertex up.

Enumeration generates classes from smaller ones and keeps one of each
through the search.  One-vertex classes add a shortest chord to the
one-vertex classes one edge down (`_one_vertex_classes`).  With two or
more vertices the connected classes are the classes that the expansion
passes of the connected classes one vertex down land in
(`_connected_classes`), and the disconnected ones are disjoint unions of
connected classes.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .superspace import perm_parity


# ------------------------------------------------------------- type tools

def type_offsets(vtype):
    offs, run = [], 0
    for k in vtype:
        offs.append(run)
        run += k
    return offs


def vertex_of(vtype, h):
    run = 0
    for v, k in enumerate(vtype):
        if h < run + k:
            return v
        run += k
    raise ValueError(f"half-edge {h} outside type {vtype}")


def _valency_partitions(total, parts, floor=3):
    """Ascending tuples of `parts` integers >= floor summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(floor, total // parts + 1):
        for tail in _valency_partitions(total - head, parts - 1, head):
            yield (head,) + tail


def valency_types(nvert, nedge):
    """Ascending valency tuples: nvert parts >= 3 summing to 2*nedge."""
    return _valency_partitions(2 * nedge, nvert)


def perfect_matchings(points):
    """Perfect matchings of sorted points, as sorted tuples of pairs."""
    pts = list(points)
    if not pts:
        yield ()
        return
    first = pts[0]
    for i in range(1, len(pts)):
        rest = pts[1:i] + pts[i + 1:]
        for sub in perfect_matchings(rest):
            yield ((first, pts[i]),) + sub


# -------------------------------------------------------- canonical scans

# A scope limit: at most 16 half-edge slots, legs included, so at most 8
# edges without legs.  Canonical forms and enumeration refuse larger graphs.
MAX_HALF_EDGES = 16

# The one tuple of each chord (a, b), a and b below the cap: canonical
# forms and the cached chord tables are built from it, so each stored chord
# is a reference.  Lifting the 16-slot cap (ROADMAP item 3) must grow it.
_PAIRS = tuple(tuple((a, b) for b in range(MAX_HALF_EDGES))
               for a in range(MAX_HALF_EDGES))


def _check_size(size):
    if size > MAX_HALF_EDGES:
        raise NotImplementedError(f"graphs beyond {MAX_HALF_EDGES} half-edge "
                                  f"slots (8 edges) are out of scope")


@lru_cache(maxsize=None)
def _search_frame(vtype):
    """Tables of the canonical search for one type.

    `offs[v]` is the block offset of vertex v, and `base[h]` and `val[h]`
    are the block offset and the valency of the vertex of slot h.  Placing
    the vertex of h in the block at offset b with h first writes `cyc[h]`
    (its slots in cyclic order from h) to the labels from b on, and
    `spot[h][b]` (the labels of its slots, in slot order) to its slots.
    `blocks[k]` lists the block offsets of valency k in order, and
    `starts[t]` is the valency of the block starting at label t (0 inside
    a block).  A type past the half-edge cap is refused here, so no search
    runs on it.
    """
    _check_size(sum(vtype))
    offs = type_offsets(vtype)
    base = [o for o, k in zip(offs, vtype) for _ in range(k)]
    val = [k for k in vtype for _ in range(k)]
    blocks = [[] for _ in range(max(vtype) + 1)]
    starts = [0] * sum(vtype)
    for o, k in zip(offs, vtype):
        blocks[k].append(o)
        starts[o] = k
    cyc = [tuple(o + (s + r) % k for s in range(k))
           for o, k in zip(offs, vtype) for r in range(k)]
    spot = [{b: tuple(b + (s - r) % k for s in range(k)) for b in blocks[k]}
            for k in vtype for r in range(k)]
    return offs, base, val, cyc, spot, blocks, starts


def _place_legs(vtype, legs):
    """The leg rule of the search: each leg's vertex, in order, goes to
    the next free block of its valency, rotated so that the leg comes
    first; a leg on a vertex already placed moves with it.  Returns (img,
    inv, taken): the label of each slot, the slot at each label (-1 where
    nothing is placed yet) and the count of blocks taken per valency."""
    _, base, val, cyc, spot, blocks, _ = _search_frame(vtype)
    img = [-1] * len(base)
    inv = [-1] * len(base)
    taken = [0] * len(blocks)
    for h in legs:
        if img[h] < 0:
            k = val[h]
            b = blocks[k][taken[k]]
            taken[k] += 1
            inv[b:b + k] = cyc[h]
            img[base[h]:base[h] + k] = spot[h][b]
    return img, inv, taken


def _canonical_search(vtype, chords, legs=()):
    """Least image of one oriented diagram: (image partner array, leaves),
    the leaves being the relabelings that reach it, each as the label of
    every slot.

    Labels are filled in order.  At a label whose block holds no vertex
    yet, the search branches over the unplaced vertices of its valency and
    their rotations; otherwise the entry is the image of the partner of
    the half-edge there, and an unplaced partner vertex goes to the next
    free block of its valency, rotated so that the partner comes first,
    which is the only least choice.  Blocks of one valency are therefore
    taken in order.  The search runs depth first with the least image so
    far as the incumbent and drops a branch at its first larger entry;
    the leaves left are exactly the relabelings onto the least image.
    Each leg is placed the same way first, in order (`_place_legs`), and
    is then a fixed point of the matching.  `free` counts the labels that
    hold no slot yet.
    """
    _, base, val, cyc, spot, blocks, starts = _search_frame(vtype)
    size = len(base)
    if legs:
        partner = list(range(size))
        img, inv, taken = _place_legs(vtype, legs)
        free = inv.count(-1)
    else:
        partner = [0] * size    # without legs the chords cover every slot
        img, inv, taken = [-1] * size, [-1] * size, [0] * len(blocks)
        free = size
    for a, b in chords:
        partner[a] = b
        partner[b] = a
    best = None
    leaves = []
    # pending branches: (label, img, inv, taken, free, choice at the
    # label, whether the entries so far were below the incumbent, incumbent)
    stack = []
    t, less = 0, True
    while True:
        while t < size:
            if not free:
                # every vertex placed: the other entries in one pass
                if not less:
                    rest = [img[partner[x]] for x in inv[t:]]
                    if rest > best[t:]:
                        break
                    less = rest < best[t:]
                t = size
                continue
            src = inv[t]
            if src < 0:
                # branch: the choices whose entry at t is least
                k = starts[t]
                taken[k] += 1
                least, picks = size, None
                for o in blocks[k]:
                    if img[o] >= 0:
                        continue
                    for h in range(o, o + k):
                        p = partner[h]
                        if base[p] == o:
                            q = t + (p - h) % k
                        else:
                            q = img[p]
                            if q < 0:
                                q = blocks[val[p]][taken[val[p]]]
                        if q < least:
                            least, picks = q, [h]
                        elif q == least:
                            picks.append(h)
                if not less and least > best[t]:
                    break
                for h in reversed(picks[1:]):
                    stack.append((t, img[:], inv[:], taken[:], free, h, less,
                                  best))
                src = picks[0]
                inv[t:t + k] = cyc[src]
                img[base[src]:base[src] + k] = spot[src][t]
                free -= k
            p = partner[src]
            q = img[p]
            if q < 0:
                k = val[p]
                q = blocks[k][taken[k]]
                taken[k] += 1
                inv[q:q + k] = cyc[p]
                img[base[p]:base[p] + k] = spot[p][q]
                free -= k
            if not less:
                if q > best[t]:
                    break
                less = q < best[t]
            t += 1
        else:
            # a leaf, at or below the incumbent
            if less:
                best = [img[partner[x]] for x in inv]
                leaves = []
            leaves.append(img)
        if not stack:
            break
        t, img, inv, taken, free, h, less, mark = stack.pop()
        less = less and best is mark
        k = starts[t]
        inv[t:t + k] = cyc[h]
        img[base[h]:base[h] + k] = spot[h][t]
        free -= k
    return best, leaves


# ------------------------------------------------------------ graph class

class RibbonGraph:
    """Canonical representative of an oriented ribbon graph class.

    Instances are made only by `_classify` and interned in one table per
    valency type, {vtype: {key: RibbonGraph}}, the key being the least
    image of the canonical search as bytes, with the incoming leg count
    and the leg images in front for a class with legs.  So a class is
    equal, and hashes, only as itself.  `vtype` is its table's key, shared
    by every class of the type, and `chords` holds the shared pairs of
    `_PAIRS`.
    `legs_in` and `legs_out` are the slots of the incoming and outgoing leg
    labels, the empty tuple for a class without legs.  `zero` flags classes
    killed by an orientation-reversing automorphism, `aut` counts the
    orientation-preserving automorphisms.
    """

    __slots__ = ("vtype", "legs_in", "legs_out", "chords", "aut", "zero")
    _intern: dict = {}

    def __init__(self, vtype, legs_in, legs_out, chords, aut, zero):
        self.vtype = vtype
        self.legs_in = legs_in
        self.legs_out = legs_out
        self.chords = chords
        self.aut = aut
        self.zero = zero

    @property
    def nin(self):
        return len(self.legs_in)

    @property
    def nout(self):
        return len(self.legs_out)

    @property
    def nverts(self):
        return len(self.vtype)

    @property
    def nedges(self):
        return len(self.chords)

    @property
    def sort_key(self):
        return (self.nedges, self.nverts, self.vtype, self.legs_in,
                self.legs_out, self.chords)

    def __lt__(self, other):
        return self.sort_key < other.sort_key

    def __repr__(self):
        legs = (f", in{self.legs_in}, out{self.legs_out}"
                if self.legs_in or self.legs_out else "")
        flag = ", zero" if self.zero else ""
        return f"RibbonGraph({self.vtype}{legs}, {self.chords}{flag})"

    def diagram(self):
        return (self.vtype, self.legs_in, self.legs_out, self.chords)

    def vertex_blocks(self):
        offs = type_offsets(self.vtype)
        return [tuple(range(offs[v], offs[v] + self.vtype[v]))
                for v in range(self.nverts)]

    @property
    def connected(self):
        return self.nverts > 0 and len(set(_vertex_roots(self))) == 1


def _leaf_sign(offs, chords, img):
    """The sign of the relabeling `img` of a diagram whose vertex blocks
    start at `offs`: the parity of its vertex permutation times one factor
    -1 per reversed edge."""
    flips = 0
    for a, b in chords:
        if img[a] > img[b]:
            flips += 1
    heads = [img[o] for o in offs]
    for i, x in enumerate(heads):
        for y in heads[i + 1:]:
            if x > y:
                flips += 1
    return -1 if flips & 1 else 1


def _classify(vtype, chords, legs_in=(), legs_out=()):
    """The class of one oriented diagram: (RibbonGraph, sign) with
    [input] = sign * [class], the sign None for a ZERO class.

    `vtype` is sorted, `chords` holds the oriented chords as (a, b) pairs
    and `legs_in` and `legs_out` the slots of the legs, possibly none.
    The class is the entry of its type's table under the least image of
    `_canonical_search`, as bytes, with the incoming leg count and the leg
    images in front for a class with legs; its chords, `aut` and `zero`
    are built only when the table has no such entry.  The relabelings onto
    the least image are one coset of its stabilizer, on which the sign is
    a character: their signs are all equal, or split evenly and sum to
    zero exactly for ZERO classes.  So a new class sums the signs of all
    of them, and a class already in the table reads its sign off one.
    """
    legs = legs_in + legs_out
    best, leaves = _canonical_search(vtype, chords, legs)
    offs = _search_frame(vtype)[0]
    images = tuple([leaves[0][h] for h in legs])
    key = bytes([len(legs_in), *images, *best]) if legs else bytes(best)
    table = RibbonGraph._intern.get(vtype)
    if table is None:
        table = RibbonGraph._intern[vtype] = {}
    g = table.get(key)
    if g is not None:
        return g, None if g.zero else _leaf_sign(offs, chords, leaves[0])
    net = sum([_leaf_sign(offs, chords, img) for img in leaves])
    # a new class of a known type keeps the type its table already has
    first = next(iter(table.values()), None)
    g = table[key] = RibbonGraph(
        first.vtype if first else vtype, images[:len(legs_in)],
        images[len(legs_in):],
        tuple([_PAIRS[a][b] for a, b in enumerate(best) if a < b]),
        len(leaves) if net else len(leaves) // 2, not net)
    return g, (1 if net > 0 else -1) if net else None


_scan_cached = lru_cache(maxsize=500_000)(_classify)

EMPTY_GRAPH = RibbonGraph((), (), (), (), 1, False)


# ----------------------------------------------------------------- moves

@lru_cache(maxsize=None)
def _sorting_relabeling(vtype):
    """Stable sort of the vertices by valency: (sorted type, new slot of
    each slot, sign of the vertex permutation)."""
    order = sorted(range(len(vtype)), key=lambda v: vtype[v])
    offs = type_offsets(vtype)
    new = [0] * sum(vtype)
    for n, s in enumerate(offs[v] + s for v in order for s in range(vtype[v])):
        new[s] = n
    return (tuple(vtype[v] for v in order), tuple(new),
            perm_parity(tuple(order)))


def _standardize_diagram(vtype, legs_in, legs_out, chords):
    """Stable-sort the vertices by valency and relabel the slots to the
    consecutive scheme: (diagram, sign) with [input] = sign * [output].

    The output becomes a `_scan_cached` key, so within the cap its chords
    are the shared pairs of `_PAIRS`; past it (a glued diagram read only
    by a state sum) they are new tuples."""
    vtype, new, sign = _sorting_relabeling(tuple(vtype))
    if len(new) <= MAX_HALF_EDGES:
        chords = tuple([_PAIRS[new[a]][new[b]] for a, b in chords])
    else:
        chords = tuple([(new[a], new[b]) for a, b in chords])
    return (vtype, tuple(new[s] for s in legs_in),
            tuple(new[s] for s in legs_out), chords), sign


def check_diagram(vtype, legs_in, legs_out, chords):
    if any(k < 3 for k in vtype):
        raise ValueError("internal valencies must be >= 3")
    ends = list(legs_in) + list(legs_out) + [h for c in chords for h in c]
    if sorted(ends) != list(range(sum(vtype))):
        raise ValueError("legs and edges must partition the half-edge slots")


def canonicalize(obj):
    """Canonical class and sign of a diagram: (RibbonGraph, sign) with
    [input] = sign * [canonical].  For ZERO classes the sign is +1 by
    convention and the class must be discarded by chain arithmetic.  The
    diagram is a RibbonGraph, a (vtype, chords) pair or a (vtype, legs_in,
    legs_out, chords) tuple, its valencies in any order; empty leg lists
    give the class without legs.  A diagram with a valency below 3, or
    whose legs and chords do not cover every half-edge exactly once, is
    rejected with ValueError."""
    if isinstance(obj, RibbonGraph):
        return obj, 1
    if len(obj) == 2:
        vtype, chords = obj
        legs_in = legs_out = ()
    else:
        vtype, legs_in, legs_out, chords = obj
    check_diagram(vtype, legs_in, legs_out, chords)
    (vtype, legs_in, legs_out, chords), sign = \
        _standardize_diagram(vtype, legs_in, legs_out, chords)
    if not vtype:
        return EMPTY_GRAPH, sign
    g, csign = _scan_cached(vtype, chords, legs_in, legs_out)
    return g, sign * (1 if g.zero else csign)


def _move_relabeling(vertices, size, shuffle):
    """Template of a move that lists `vertices` (tuples of labels below
    `size`) in this order after the vertex shuffle `shuffle`: (vtype, R,
    sign), R[h] the standard label of h (0 for a label no vertex lists)."""
    vtype, new, sign = _sorting_relabeling(tuple(len(v) for v in vertices))
    R = [0] * size
    for h, n in zip([h for v in vertices for h in v], new):
        R[h] = n
    return vtype, tuple(R), sign * perm_parity(tuple(shuffle))


def _relabel(R, chords):
    """The chords read through the move template R."""
    return tuple([(R[a], R[b]) for a, b in chords])


@lru_cache(maxsize=None)
def _contraction_template(vtype, a, b):
    """Template of contracting the edge (a, b) of any graph of type
    `vtype`, None for a loop: (vtype', R, sign).

    The edge's start vertex moves to the front of the vertex order, its end
    vertex second (sign of that shuffle); the cyclic orders are rotated so
    the two half-edges sit last in their blocks, and the merged vertex
    keeps the remaining half-edges in that order, placed first.
    """
    va, vb = vertex_of(vtype, a), vertex_of(vtype, b)
    if va == vb:
        return None
    offs = type_offsets(vtype)
    blocks = [list(range(o, o + k)) for o, k in zip(offs, vtype)]
    rest = [i for i in range(len(vtype)) if i not in (va, vb)]

    def to_last(block, h):
        i = block.index(h)
        return block[i + 1:] + block[:i + 1]

    merged = to_last(blocks[va], a)[:-1] + to_last(blocks[vb], b)[:-1]
    return _move_relabeling([merged] + [blocks[i] for i in rest], sum(vtype),
                            [va, vb] + rest)


def _contractions(g: RibbonGraph):
    """All non-loop contractions of g, before canonicalization, in edge
    order: a list of (vtype, chords, sign), the other chords read through
    the edge's `_contraction_template`."""
    out = []
    for j, chord in enumerate(g.chords):
        t = _contraction_template(g.vtype, *chord)
        if t is not None:
            vtype, R, sign = t
            out.append((vtype, _relabel(R, g.chords[:j] + g.chords[j + 1:]),
                        sign))
    return out


@lru_cache(maxsize=None)
def _expansion_moves(vtype):
    """Templates of expanding the ideal edges of the type: a tuple of
    (vtype', R, sign), sorted by the ideal edge (vertex, arc_a, arc_b).  An
    ideal edge is an unordered splitting of one vertex's cyclic order into
    two arcs arc_a < arc_b of length >= 2; a vertex of valency k has
    k(k-3)/2 of them.  R maps the labels 0 .. 2e+1 to standard labels, the
    new edge being (2e, 2e+1).

    The split vertex moves to the front of the vertex order (sign); the two
    new vertices (arc_a + 2e) and (arc_b + 2e+1) take its place in
    positions one and two.
    """
    size = sum(vtype)
    offs = type_offsets(vtype)
    blocks = [tuple(range(o, o + k)) for o, k in zip(offs, vtype)]
    edges = set()
    for v, block in enumerate(blocks):
        k = len(block)
        for start in range(k):
            rot = block[start:] + block[:start]
            for cut in range(2, k - 1):
                edges.add((v, *sorted((rot[:cut], rot[cut:]))))
    moves = []
    for v, arc_a, arc_b in sorted(edges):
        rest = [i for i in range(len(vtype)) if i != v]
        vertices = [arc_a + (size,), arc_b + (size + 1,)]
        moves.append(_move_relabeling(vertices + [blocks[i] for i in rest],
                                      size + 2, [v] + rest))
    return tuple(moves)


def _expansions(g: RibbonGraph):
    """All ideal-edge expansions of g, before canonicalization, in
    `_expansion_moves` order: a list of (vtype, chords, sign), the chords
    and the new edge read through each template."""
    size = 2 * g.nedges
    chords = g.chords + ((size, size + 1),)
    return [(vtype, _relabel(R, chords), sign)
            for vtype, R, sign in _expansion_moves(g.vtype)]


@lru_cache(maxsize=None)
def _expansion_pass(g: RibbonGraph):
    """Every class the ideal-edge expansions of g land in, once each in
    first-landing order, as one flat tuple (h1, n1, h2, n2, ...): n is the
    integer sum of s * aut(h) over the expansions landing in h, s the move
    sign times the sign of the canonical form, and 0 for a ZERO class.

    Each move of g is canonicalized here once: the pass is the coboundary
    of g over the denominator aut(g) (`complexes._coboundary_graph`), the
    enumeration's source of the classes one vertex up
    (`_connected_classes`), and, read by adjointness, the boundary into g
    (`complexes._rows_into`).  The entries with n = 0 (ZERO classes,
    and sums that cancel) are kept for the enumeration; every reader of
    coefficients skips them.
    """
    acc: dict = {}
    for vt, chords, s in _expansions(g):
        h, sign = _classify(vt, chords)
        acc[h] = acc.get(h, 0) + (0 if h.zero else s * sign * h.aut)
    return tuple([x for item in acc.items() for x in item])


def disjoint_union(*graphs: RibbonGraph):
    """Disjoint union, the vertices listed graph by graph: (RibbonGraph,
    sign)."""
    graphs = [g for g in graphs if g.nverts]
    if len(graphs) < 2:
        return (graphs[0] if graphs else EMPTY_GRAPH), 1
    vtype, chords, shift = (), [], 0
    for g in graphs:
        vtype += g.vtype
        chords += [(a + shift, b + shift) for a, b in g.chords]
        shift += 2 * g.nedges
    return canonicalize((vtype, chords))


def _vertex_roots(g: RibbonGraph):
    """Union-find root of every vertex, vertices joined along the edges."""
    parent = list(range(g.nverts))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in g.chords:
        ra, rb = find(vertex_of(g.vtype, a)), find(vertex_of(g.vtype, b))
        if ra != rb:
            parent[ra] = rb
    return [find(v) for v in range(g.nverts)]


# ------------------------------------------------------------ enumeration

def _cyclic_length(chord, size):
    d = (chord[1] - chord[0]) % size
    return min(d, size - d)


@lru_cache(maxsize=None)
def _chord_insertions(size):
    """Every way to add one chord to a one-vertex diagram on n = size - 2
    labels, by increasing cyclic length L of the new chord: (L, new,
    moved, grown), where the old chord (a, b) becomes moved[a * n + b]
    (a pair of `_PAIRS`), of cyclic length grown[a * n + b]."""
    n = size - 2
    out = []
    for new in itertools.combinations(range(size), 2):
        M = [x for x in range(size) if x not in new]
        moved = tuple(_PAIRS[M[a]][M[b]] for a in range(n) for b in range(n))
        out.append((_cyclic_length(new, size), new, moved,
                    tuple(_cyclic_length(c, size) for c in moved)))
    return tuple(sorted(out, key=lambda ins: ins[0]))


def _shortest_chord_children(chords, size):
    """The diagrams made by adding one chord, last, to the one-vertex
    diagram `chords` on size - 2 labels, where it is a shortest chord of
    the result; see `_one_vertex_classes`."""
    n = size - 2
    codes = [a * n + b for a, b in chords]
    lengths = [_cyclic_length(c, n) for c in chords]
    m = min(lengths)
    shortest = [c for c, k in zip(codes, lengths) if k == m]
    out = []
    for L, new, moved, grown in _chord_insertions(size):
        if L > m:
            if L > m + 1:
                break
            if min([grown[c] for c in shortest]) < L:
                continue
        child = [moved[c] for c in codes]
        child.append(new)
        out.append(child)
    return out


def _one_vertex_classes(nedge):
    """The classes with one vertex of valency n = 2 * nedge: the distinct
    classes made by adding a chord, at any pair of positions, to the
    classes one edge down (to the chord ((0, 1),) at two edges), where the
    new chord is a shortest one; (a, b) has cyclic length min(d, n - d),
    d = b - a.

    Every class C arises so (canonical augmentation, McKay 1998).  The
    relabelings of one vertex are its rotations, so the canonical form of
    C matches label 0 to the least (partner(h) - h) mod n over all h: its
    chord at label 0 is a shortest chord.  Deleting it leaves a class one
    edge down, and adding it back to that class's canonical form at the
    same positions gives a rotation of C.

    Few insertions need the other chords compared.  Inserting two labels
    lengthens the two arcs of an old chord by 2 in all, so its cyclic
    length grows by 0, 1 or 2, and by 2 only when both labels fall inside
    its shorter arc, where the new chord is no longer than the old one
    was.  So if the parent's shortest chord has length m, a new chord of
    length L <= m is always a shortest one, one with L > m + 1 never is,
    and one with L = m + 1 is a shortest one exactly when every old chord
    of length m grows.  The insertions are tried by increasing L
    (`_chord_insertions`) and stop past m + 1.
    """
    size = 2 * nedge
    parents = ([g.chords for g in enumerate_graphs(1, nedge - 1)]
               if nedge > 2 else [((0, 1),)])
    return {_classify((size,), child)[0] for chords in parents
            for child in _shortest_chord_children(chords, size)}


def _connected_classes(nvert, nedge):
    """The connected classes with nvert >= 2 vertices: the distinct
    classes that the ideal-edge expansions of the connected classes one
    vertex and one edge down land in (`_expansion_pass`), ZERO classes
    included.

    Every connected class C arises so.  C is connected with at least two
    vertices, so it has an edge between two distinct vertices.
    Contracting that edge gives a connected class P one vertex and one
    edge down, and C is the expansion of P's merged vertex along the
    ideal edge that separates the half-edges of the two vertices.  Classes
    are unchanged by relabeling, so P may be taken canonical.
    """
    return {h for parent in enumerate_graphs(nvert - 1, nedge - 1, True)
            for h in _expansion_pass(parent)[::2]}


def _splits(nvert, nedge, most=None):
    """Non-increasing sequences of at least one part (v, e), v >= 1 and
    3v <= 2e, summing to (nvert, nedge), each part at most `most`."""
    if nvert == 0:
        if nedge == 0:
            yield ()
        return
    for v in range(1, nvert + 1):
        for e in range((3 * v + 1) // 2, nedge + 1):
            if most is None or (v, e) <= most:
                for tail in _splits(nvert - v, nedge - e, (v, e)):
                    yield ((v, e),) + tail


def _disconnected_classes(nvert, nedge):
    """The disconnected classes: one disjoint union of connected classes
    per multiset of components over the splits of (nvert, nedge)."""
    out = []
    for split in _splits(nvert, nedge):
        if len(split) < 2:
            continue
        choices = [itertools.combinations_with_replacement(
                       enumerate_graphs(v, e, True), split.count((v, e)))
                   for v, e in dict.fromkeys(split)]
        for parts in itertools.product(*choices):
            out.append(disjoint_union(*itertools.chain(*parts))[0])
    return out


@lru_cache(maxsize=None)
def enumerate_graphs(nvert, nedge, connected=False):
    """All oriented ribbon graph classes with the given counts, sorted;
    ZERO classes are included and flagged.  The package asks for a window
    as enumerate_graphs(v, e) or enumerate_graphs(v, e, True) only, so
    that each window is one cache entry."""
    _check_size(2 * nedge)
    if nvert == 0:
        return (EMPTY_GRAPH,) if nedge == 0 and not connected else ()
    if not any(valency_types(nvert, nedge)):
        return ()
    if nvert == 1:
        if connected:
            return enumerate_graphs(1, nedge)
        out = _one_vertex_classes(nedge)
    elif connected:
        out = _connected_classes(nvert, nedge)
    else:
        out = [*enumerate_graphs(nvert, nedge, True),
               *_disconnected_classes(nvert, nedge)]
    return tuple(sorted(out, key=lambda g: g.sort_key))
