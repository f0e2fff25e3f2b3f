"""Brute-force reference implementations used to pin regression values.

Everything in this module is deliberately independent of the ribbonhom
package: orbits are enumerated element by element, automorphisms come from
an exhaustive search over half-edge bijections, and Koszul signs are
produced by literal bubble sorts.  Slow but transparent on desk-scale
inputs; the package must agree with these numbers exactly.  The one
exception is `boundary_rank`, the rank of the full complex's boundary,
which ranks the package's own rows (`boundary_rows`): homology reads
only the connected ranks, and the full ones check it where the dense
oracle is too slow.

Conventions (shared with the package, 0-based):
  * a graph of type ``(k_1 <= ... <= k_m)`` has half-edges ``0 .. 2e-1``,
    vertex ``v`` owning the consecutive block starting at ``sum(k_i, i<v)``;
  * edges are stored as ordered pairs ``(a, b)`` of half-edges; a matching
    is the sorted tuple of increasing pairs;
  * orientation data is an order of the vertices and a direction of each
    edge; swapping two vertices or flipping one edge negates a graph.
"""

import functools
import itertools
from fractions import Fraction
from math import gcd


# ------------------------------------------------------------------ basics

def perfect_matchings(points):
    """All perfect matchings of a list of points, as sorted chord tuples."""
    pts = sorted(points)
    if not pts:
        yield ()
        return
    first = pts[0]
    for k in range(1, len(pts)):
        rest = pts[1:k] + pts[k + 1:]
        for sub in perfect_matchings(rest):
            yield tuple(sorted(((first, pts[k]),) + sub))


def partitions_min3(total, parts, floor=3):
    """Ascending tuples of `parts` integers >= 3 summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(floor, total // parts + 1):
        for tail in partitions_min3(total - head, parts - 1, head):
            yield (head,) + tail


def type_offsets(vtype):
    offs, run = [], 0
    for k in vtype:
        offs.append(run)
        run += k
    return offs


def vertex_of(vtype, h):
    offs = type_offsets(vtype)
    for v in range(len(vtype)):
        if offs[v] <= h < offs[v] + vtype[v]:
            return v
    raise ValueError(h)


def perm_sign(seq):
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


# ----------------------------------------------------- symmetry group scan

def group_elements(vtype):
    """Yield (relabel, vertex_sign) for every half-edge bijection that
    preserves the vertex blocks and their cyclic orders.

    Such a bijection is exactly a permutation of same-valency vertices
    composed with a rotation at each vertex; this exhausts them all.
    """
    m = len(vtype)
    offs = type_offsets(vtype)
    for sigma in itertools.permutations(range(m)):
        if any(vtype[sigma[v]] != vtype[v] for v in range(m)):
            continue
        vsign = perm_sign(sigma)
        for rots in itertools.product(*[range(k) for k in vtype]):
            relabel = [0] * sum(vtype)
            for v in range(m):
                k = vtype[v]
                for s in range(k):
                    relabel[offs[v] + s] = offs[sigma[v]] + (s - rots[v]) % k
            yield relabel, vsign


@functools.lru_cache(maxsize=None)
def group_list(vtype):
    """The elements of `group_elements`, kept per type."""
    return tuple((tuple(relabel), vsign)
                 for relabel, vsign in group_elements(vtype))


def apply_relabel(chords, relabel):
    """Push oriented chords through a relabeling; returns the resulting
    matching (sorted increasing pairs) and the edge-flip sign."""
    flips = 0
    out = []
    for a, b in chords:
        a2, b2 = relabel[a], relabel[b]
        if a2 > b2:
            a2, b2 = b2, a2
            flips += 1
        out.append((a2, b2))
    return tuple(sorted(out)), (-1) ** flips


def orbit_scan(vtype, chords):
    """Exhaustive isomorphism-class data for one oriented chord diagram.

    Returns a dict with:
      canonical -- minimal matching in the orbit,
      orbit     -- set of all matchings in the orbit,
      zero      -- True if some automorphism reverses orientation,
      aut       -- number of orientation-preserving automorphisms,
      sign      -- sign s with [input] = s * [canonical]  (None if zero).
    """
    reach = {}
    n_elements = 0
    for relabel, vsign in group_list(vtype):
        n_elements += 1
        mat, fsign = apply_relabel(chords, relabel)
        reach.setdefault(mat, set()).add(vsign * fsign)
    canonical = min(reach)
    stab = n_elements // len(reach)
    zero = len(reach[canonical]) == 2
    return {
        "canonical": canonical,
        "orbit": set(reach),
        "zero": zero,
        "aut": stab // 2 if zero else stab,
        "sign": None if zero else next(iter(reach[canonical])),
        "stab": stab,
    }


def legged_orbit_scan(vtype, legs_in, legs_out, chords):
    """Exhaustive class data for one oriented legged diagram, whose leg
    slots every relabeling carries along: the key of an image is (images
    of legs_in, images of legs_out, matching), and the dict has the same
    fields as `orbit_scan` with `canonical` such a key."""
    reach = {}
    n_elements = 0
    for relabel, vsign in group_list(vtype):
        n_elements += 1
        mat, fsign = apply_relabel(chords, relabel)
        key = (tuple(relabel[s] for s in legs_in),
               tuple(relabel[s] for s in legs_out), mat)
        reach.setdefault(key, set()).add(vsign * fsign)
    canonical = min(reach)
    stab = n_elements // len(reach)
    zero = len(reach[canonical]) == 2
    return {
        "canonical": canonical,
        "orbit": set(reach),
        "zero": zero,
        "aut": stab // 2 if zero else stab,
        "sign": None if zero else next(iter(reach[canonical])),
        "stab": stab,
    }


def is_connected(vtype, chords):
    m = len(vtype)
    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in chords:
        ra, rb = find(vertex_of(vtype, a)), find(vertex_of(vtype, b))
        if ra != rb:
            parent[ra] = rb
    return len({find(v) for v in range(m)}) <= 1


def enumerate_classes(v, e, connected_only=False):
    """All isomorphism classes of oriented ribbon graphs with v vertices and
    e edges (every valency >= 3), one dict per class."""
    out = []
    for vtype in partitions_min3(2 * e, v):
        seen = set()
        for mat in perfect_matchings(range(2 * e)):
            if mat in seen:
                continue
            data = orbit_scan(vtype, mat)
            seen |= data["orbit"]
            if connected_only and not is_connected(vtype, mat):
                continue
            data["type"] = vtype
            out.append(data)
    return out


# ------------------------------------------------------------- contraction

def standardize(vertices, edges):
    """Relabel an explicit fat graph (vertices: lists of half-edge labels,
    edges: oriented label pairs) into standard form: vertices stably sorted
    by valency, half-edges renumbered consecutively.  Returns
    (vtype, chords, sign) with sign the signature of the vertex sort."""
    order = sorted(range(len(vertices)), key=lambda i: len(vertices[i]))
    relabel = {}
    nxt = 0
    for i in order:
        for h in vertices[i]:
            relabel[h] = nxt
            nxt += 1
    vtype = tuple(len(vertices[i]) for i in order)
    chords = tuple((relabel[a], relabel[b]) for a, b in edges)
    return vtype, chords, perm_sign(order)


def contract_edge_oracle(vtype, chords, edge_index):
    """Contract one non-loop edge of a standard graph.

    The edge's start vertex is moved to the front of the vertex order and
    its end vertex second (sign of that rearrangement); cyclic orders are
    rotated (freely) so the two half-edges sit last in their blocks; the
    merged vertex keeps the remaining half-edges in order.  Returns
    (vtype', chords', sign) of the standardized result, before any
    canonicalization.
    """
    offs = type_offsets(vtype)
    m = len(vtype)
    vertices = [list(range(offs[v], offs[v] + vtype[v])) for v in range(m)]
    a, b = chords[edge_index]
    va, vb = vertex_of(vtype, a), vertex_of(vtype, b)
    if va == vb:
        raise ValueError("cannot contract a loop")
    rest = [i for i in range(m) if i not in (va, vb)]
    sign = perm_sign([va, vb] + rest)

    def rotate_to_last(block, h):
        i = block.index(h)
        return block[i + 1:] + block[:i + 1]

    blk_a = rotate_to_last(vertices[va], a)
    blk_b = rotate_to_last(vertices[vb], b)
    merged = blk_a[:-1] + blk_b[:-1]
    new_vertices = [merged] + [vertices[i] for i in rest]
    new_edges = [c for j, c in enumerate(chords) if j != edge_index]
    vt, ch, s2 = standardize(new_vertices, new_edges)
    return vt, ch, sign * s2


def boundary_oracle(vtype, chords):
    """Sum of signed contractions over all non-loop edges, expressed on
    canonical class representatives.  Returns {(vtype', canonical): coeff}
    with zero classes dropped and zero coefficients removed."""
    acc = {}
    for j, (a, b) in enumerate(chords):
        if vertex_of(vtype, a) == vertex_of(vtype, b):
            continue
        vt, ch, s = contract_edge_oracle(vtype, chords, j)
        data = orbit_scan(vt, ch)
        if data["zero"]:
            continue
        key = (vt, data["canonical"])
        acc[key] = acc.get(key, 0) + s * data["sign"]
    return {k: c for k, c in acc.items() if c}


# ------------------------------------------------------------------- faces

def face_count(vtype, chords):
    """Number of boundary cycles of the underlying surface."""
    offs = type_offsets(vtype)
    partner = {}
    for a, b in chords:
        partner[a] = b
        partner[b] = a

    def succ(h):
        v = vertex_of(vtype, h)
        return offs[v] + (h - offs[v] + 1) % vtype[v]

    seen = set()
    faces = 0
    for h in range(2 * len(chords)):
        if h in seen:
            continue
        faces += 1
        cur = h
        while cur not in seen:
            seen.add(cur)
            cur = succ(partner[cur])
    return faces


def has_loop(vtype, chords):
    return any(vertex_of(vtype, a) == vertex_of(vtype, b) for a, b in chords)


# ----------------------------------------------------------- Koszul bubble

def koszul_sort_sign(targets, parities):
    """Sign from bubble-sorting letters to their target positions, one
    adjacent swap at a time; each swap of two odd letters contributes -1."""
    items = list(zip(targets, parities))
    sign = 1
    n = len(items)
    changed = True
    while changed:
        changed = False
        for j in range(n - 1):
            if items[j][0] > items[j + 1][0]:
                if items[j][1] and items[j + 1][1]:
                    sign = -sign
                items[j], items[j + 1] = items[j + 1], items[j]
                changed = True
    return sign


def invert_perm(perm):
    """The inverse of a permutation tuple."""
    out = [0] * len(perm)
    for i, p in enumerate(perm):
        out[p] = i
    return tuple(out)


def compose_perms(outer, inner):
    """Permutation doing `inner` first, then `outer`."""
    return tuple(outer[inner[i]] for i in range(len(inner)))


def koszul_apply(perm, terms, parity):
    """Rearrange the slots of a tensor given as {word: coeff} by `perm`,
    perm[i] the new position of the letter in slot i, each word with the
    bubble-sort Koszul sign of moving its letters there; `parity` maps a
    letter to 0 or 1.  Returns {word: coeff} without zero coefficients."""
    out = {}
    for word, coeff in terms.items():
        sign = koszul_sort_sign(list(perm), [parity(a) for a in word])
        new = [None] * len(word)
        for i, a in enumerate(word):
            new[perm[i]] = a
        key = tuple(new)
        out[key] = out.get(key, 0) + sign * coeff
    return {w: c for w, c in out.items() if c}


# ------------------------------------------------- partition-function term

def z_value_oracle(vtype, chords, h_by_k, parities, pairing, aut):
    """Value of one graph under the state sum: place one Hamiltonian tensor
    per vertex, push every tensor slot to its chord position, pair letters
    along edges, divide by the automorphism count."""
    targets = [None] * sum(vtype)
    for r, (a, b) in enumerate(chords):
        targets[a] = 2 * r
        targets[b] = 2 * r + 1
    total = Fraction(0)
    termlists = [list(h_by_k[k].items()) for k in vtype]
    for combo in itertools.product(*termlists):
        word = []
        coeff = Fraction(1)
        for w, c in combo:
            word.extend(w)
            coeff *= c
        val = Fraction(1)
        arranged = [None] * len(word)
        for pos, letter in zip(targets, word):
            arranged[pos] = letter
        for r in range(len(chords)):
            val *= pairing[arranged[2 * r]][arranged[2 * r + 1]]
            if not val:
                break
        if not val:
            continue
        sign = koszul_sort_sign(targets, [parities[x] for x in word])
        total += coeff * sign * val
    return total / aut


# ------------------------------------------------------------- ideal edges

def ideal_edge_count_oracle(valency):
    """Unordered splittings of a cyclic order into two arcs of length >= 2,
    enumerated as (start, cut) choices and deduplicated."""
    cyc = list(range(valency))
    found = set()
    for start in range(valency):
        rot = cyc[start:] + cyc[:start]
        for cut in range(2, valency - 1):
            found.add(frozenset((tuple(rot[:cut]), tuple(rot[cut:]))))
    return len(found)


def ideal_expansions_oracle(vtype, chords):
    """Every ideal-edge expansion of a standard graph, one vertex split at
    a time, as [((vertex, arc_a, arc_b), (vtype', chords', sign))] sorted
    by ideal edge; arc_a < arc_b are the two arcs of length >= 2.

    The split vertex is moved to the front of the vertex order (sign of
    that rearrangement); it is replaced by the vertices arc_a + (n,) and
    arc_b + (n + 1,), n = 2e, joined by the new edge (n, n + 1).  The
    result is standardized but not canonicalized.
    """
    offs = type_offsets(vtype)
    m = len(vtype)
    blocks = [tuple(range(offs[v], offs[v] + vtype[v])) for v in range(m)]
    n = 2 * len(chords)
    out = []
    for v, block in enumerate(blocks):
        k = len(block)
        splits = set()
        for start in range(k):
            rot = block[start:] + block[:start]
            for cut in range(2, k - 1):
                splits.add(tuple(sorted((rot[:cut], rot[cut:]))))
        rest = [i for i in range(m) if i != v]
        shuffle = perm_sign([v] + rest)
        for arc_a, arc_b in sorted(splits):
            new_vertices = [arc_a + (n,), arc_b + (n + 1,)]
            new_vertices += [blocks[i] for i in rest]
            vt, ch, s2 = standardize(new_vertices, list(chords) + [(n, n + 1)])
            out.append(((v, arc_a, arc_b), (vt, ch, shuffle * s2)))
    return out


# ------------------------------------------------------------ cyclic words

def cyclic_reduce_oracle(word, parities):
    """Minimal rotation of a cyclic word with its bubble-computed sign.
    Returns (canonical_word, sign) or None if the word cancels itself."""
    n = len(word)
    if n == 0:
        return (), 1
    reps = {}
    for r in range(n):
        rot = tuple(word[r:] + word[:r])
        # rotate by moving the first r letters to the end one at a time
        sign = 1
        cur = list(word)
        for _ in range(r):
            head = cur.pop(0)
            for other in cur:
                if parities[head] and parities[other]:
                    sign = -sign
            cur.append(head)
        reps.setdefault(rot, set()).add(sign)
    best = min(reps)
    if len(reps[best]) == 2:
        return None
    return best, next(iter(reps[best]))


def bracket_oracle(a_terms, b_terms, parities, pairing):
    """Cyclic-word bracket by literal single-contraction expansion with all
    signs produced by bubble moves.  Terms are {word tuple: Fraction}."""
    out = {}
    for aw, ac in a_terms.items():
        for bw, bc in b_terms.items():
            k, l = len(aw), len(bw)
            for i in range(k):
                for j in range(l):
                    val = pairing[aw[i]][bw[j]]
                    if not val:
                        continue
                    # rotate a so the contracted letter is last,
                    # b so its contracted letter is first
                    ra = cyclic_rotation_sign(aw, i + 1, parities)
                    rb = cyclic_rotation_sign(bw, j, parities)
                    word_a = aw[i + 1:] + aw[:i + 1]
                    word_b = bw[j:] + bw[:j]
                    # move the adjacent contracted pair to the front
                    jumped = word_a[:-1]
                    sign = ra * rb
                    for h in (word_a[-1], word_b[0]):
                        for other in jumped:
                            if parities[h] and parities[other]:
                                sign = -sign
                    new = word_a[:-1] + word_b[1:]
                    red = cyclic_reduce_oracle(list(new), parities)
                    if red is None:
                        continue
                    cw, cs = red
                    coeff = ac * bc * val * sign * cs
                    out[cw] = out.get(cw, Fraction(0)) + coeff
    return {w: c for w, c in out.items() if c}


def cyclic_rotation_sign(word, r, parities):
    """Sign of rotating `word` left by r letters, one bubble at a time."""
    sign = 1
    cur = list(word)
    for _ in range(r % len(word)):
        head = cur.pop(0)
        for other in cur:
            if parities[head] and parities[other]:
                sign = -sign
        cur.append(head)
    return sign


def twist_oracle(h_terms, gamma_terms, parities, pairing, truncation):
    """Word Hamiltonian of a twist: h pushed through exp of bracketing with
    gamma, each bracket taken in full by `bracket_oracle` and only then cut
    to words of length <= truncation.  Terms are {word tuple: Fraction}."""
    cur = {w: c for w, c in h_terms.items() if len(w) <= truncation}
    total = dict(cur)
    j = 0
    while cur:
        j += 1
        full = bracket_oracle(gamma_terms, cur, parities, pairing)
        cur = {w: c / j for w, c in full.items() if len(w) <= truncation}
        for w, c in cur.items():
            total[w] = total.get(w, Fraction(0)) + c
    return {w: c for w, c in total.items() if c}


# -------------------------------------------------------------- exact rank

def rank_bareiss(rows):
    """Rank of a matrix of rationals by dense fraction-free (Bareiss)
    elimination over Python ints, every zero touched at every pivot."""
    if not rows or not rows[0]:
        return 0
    # clear denominators row by row; scaling rows keeps the rank
    m = []
    for row in rows:
        lcm = 1
        for v in row:
            f = Fraction(v)
            lcm = lcm * f.denominator // gcd(lcm, f.denominator)
        m.append([int(Fraction(v) * lcm) for v in row])
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if m[r][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        for r in range(row + 1, nrows):
            for c in range(col + 1, ncols):
                m[r][c] = (m[row][col] * m[r][c] - m[r][col] * m[row][c]) // prev
            m[r][col] = 0
        prev = m[row][col]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def boundary_rows(nvert, nedge):
    """The package's boundary from basis(nvert, nedge) to
    basis(nvert - 1, nedge - 1) as sparse rows, one {target index: int}
    row per source class; no rows when either basis is empty.

    The rows come from `complexes._rows_into` (the passes of the connected
    targets made the classes of (nvert, nedge)), and equal the contraction
    rows of `_boundary_graph` as dicts.
    """
    from ribbonhom.complexes import _rows_into, basis
    tgt = basis(nvert - 1, nedge - 1)
    if not tgt:
        return []
    rows = _rows_into(tgt)
    return [rows.get(h, {}) for h in basis(nvert, nedge)]


def boundary_rank(nvert, nedge):
    """Rank of the full complex's boundary leaving (nvert, nedge),
    disconnected classes included: `scalars.rank_exact` of
    `boundary_rows`, which test_complexes checks entry by entry against
    `boundary_oracle`."""
    from ribbonhom.scalars import rank_exact
    rows = boundary_rows(nvert, nedge)
    return rank_exact(rows) if rows else 0


def echelon_fraction(rows):
    """Sparse row echelon form over Q, every pivot row scaled to 1: the
    table {pivot col: row with 1 at pivot col, zero left of it}.  Rows go
    sparsest first in a stable order and pivot at their leftmost column,
    the rule of `scalars._echelon`, which keeps its rows integer."""
    table = {}
    rows = sorted(({c: v for c, v in r.items() if v} for r in rows), key=len)
    for row in rows:
        while row:
            col = min(row)
            pivot = table.get(col)
            if pivot is None:
                inv = Fraction(1) / row[col]
                table[col] = {c: v * inv for c, v in row.items()}
                break
            f = row[col]
            for c, v in pivot.items():
                x = row.get(c, 0) - f * v
                if x:
                    row[c] = x
                else:
                    del row[c]
    return table


def solve_fraction(rows, rhs):
    """The solution of A x = b that `scalars.solve_exact` must return, from
    `echelon_fraction` of [A | b]: x as {col: nonzero Fraction} with the
    free variables 0, or None if inconsistent."""
    n = 1 + max((c for row in rows for c in row), default=-1)
    table = echelon_fraction([{**row, n: rhs[i]} if rhs.get(i) else row
                              for i, row in enumerate(rows)])
    x = {}
    for col in sorted(table, reverse=True):
        if col == n:
            return None
        row = table[col]
        x[col] = row.get(n, 0) - sum(v * x.get(c, 0) for c, v in row.items()
                                     if col < c < n)
    return {c: Fraction(t) for c, t in sorted(x.items()) if t}


def sparse_rows(rows):
    """A dense matrix as the package's sparse rows: one {col: value} dict
    of the nonzero entries per row."""
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def identity(n):
    """The n x n identity matrix as dense rows."""
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """Dense product of two matrices given as lists of rows."""
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    return [[sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0))
             for j in range(m)] for i in range(n)]
