"""Command line driver for batch computation and verification.

Verbs:
  enumerate       list canonical graph classes with |Aut| and ZERO flags
  homology        Betti numbers of the graph complex per bidegree
  partition       partition function table of an algebra file + cycle check
  characteristic  characteristic class of an algebra file
  correlate       correlation tensor of a (legged) graph file
  verify          named identity suites (d2, delta2, adjointness, kontsevich,
                  triangle, roundtrip, exp, equivalence, invariance, tcft)

Reports are deterministic given the inputs and --seed: no timings, stable
ordering, exact scalars rendered as "num/den" strings.  The structured
format carries the same rows as the text format, one JSON object per line
of text.  Each verb is a generator of rows, and `write_report` writes
every row as it arrives, so no report is held whole; `verify` refuses
every bad input before its first suite runs, then writes each suite's
rows as that suite ends.  Exit codes: 0 pass, 1 identity failure, 2 input
error; every input error is raised before the first row, so a run that
exits 2 writes nothing on stdout.
"""

import argparse
import json
import random
import sys
from fractions import Fraction

from . import jsonio
from .ainfinity import (characteristic_class, connected_partition_function,
                        exp_chain, partition_function, twist, validate)
from .complexes import (GraphChain, basis, boundary, coboundary,
                        homology_dims, is_boundary, pairing)
from .feynman import integral_I, integral_I_inverse, pair_chain_graph
from .fixtures import frobenius_pair
from .graphs import MAX_HALF_EDGES, enumerate_graphs
from .lie import CEChain, CyclicWord, ce_differential
from .scalars import json_scalar
from .superspace import SuperDim
from .tcft import (composition_compatibility, correlation,
                   enumerate_legged_graphs)

# ambient signatures used for random Chevalley-Eilenberg chains
CHAIN_SIGNATURES = (SuperDim(1, 1), SuperDim(2, 0), SuperDim(1, 2))

# the options each suite reads, besides --seed, with their defaults (no
# --algebra is the built-in fixture); verify refuses any other
SUITE_OPTIONS = {
    "d2": {"edges": 6},
    "delta2": {"edges": 6},
    "adjointness": {"edges": 5},
    "kontsevich": {"edges": 4, "order": 8},
    "triangle": {"edges": 4, "order": 8},
    "roundtrip": {"edges": 4},
    "exp": {"vertices": 4, "edges": 6, "algebra": None},
    "equivalence": {"edges": 4, "order": 4, "algebra": None},
    "invariance": {"edges": 4, "algebra": None},
    "tcft": {"edges": 2, "algebra": None},
}

SUITES = tuple(SUITE_OPTIONS)

# edges past --edges that a suite's diagrams reach: the coboundary of the
# top bidegree (kontsevich), the coboundary twice (delta2) and the
# boundary witness one bidegree up (invariance)
EXTRA_EDGES = {"delta2": 2, "kontsevich": 1, "invariance": 1}

# legs per side of the tcft pairs: m + n and n + k at most this
TCFT_LEGS = 3

CHAINS_PER_SIGNATURE = 200
TWIST_COUNT = 10
DEAD_PAIR_SAMPLES = 300


# --------------------------------------------------------------- reports

def _span(text):
    """Parse 'N' or 'LO:HI' into an inclusive integer range."""
    parts = text.split(":")
    if len(parts) > 2:
        raise argparse.ArgumentTypeError(
            f"bad range {text!r}: expected N or LO:HI")
    lo, hi = int(parts[0]), int(parts[-1])
    if lo < 0 or hi < 0:
        raise argparse.ArgumentTypeError(
            f"bad range {text!r}: bounds must be nonnegative")
    if lo > hi:
        raise argparse.ArgumentTypeError(
            f"bad range {text!r}: {lo} is above {hi}")
    return lo, hi


def _count(text):
    """Parse a nonnegative integer."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"{n} is below 0")
    return n


# argparse quotes these names in usage errors
_span.__name__ = "range"
_count.__name__ = "count"


def _span_str(span):
    lo, hi = span
    return str(lo) if lo == hi else f"{lo}:{hi}"


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple, dict)):
        return json.dumps(value, separators=(",", ":"))
    return str(value)


def _fields(obj):
    return " ".join(f"{k}={_fmt(v)}" for k, v in obj.items() if k != "kind")


def _text_head(command, params):
    fields = _fields(params)
    return f"ribbonhom {command}" + (f" {fields}" if fields else "") + "\n"


def _text_row(row, index):
    return f"{row['kind']} {_fields(row)}".rstrip() + "\n"


def _text_tail(result, count):
    return f"result {_fields(result)}\n"


# one encoder for every row; with an indent, json encodes in Python
_ENCODER = json.JSONEncoder(indent=1)


def _nested(obj, depth):
    """obj encoded as it appears `depth` levels down in an indented
    document; json escapes newlines inside strings, so every newline of
    the encoding starts an indented line."""
    return _ENCODER.encode(obj).replace("\n", "\n" + " " * depth)


def _json_head(command, params):
    return (f'{{\n "command": {_ENCODER.encode(command)},\n'
            f' "params": {_nested(params, 1)},\n "rows": [')


def _json_row(row, index):
    return (",\n  " if index else "\n  ") + _nested(row, 2)


def _json_tail(result, count):
    return (("\n ]" if count else "]")
            + f',\n "result": {_nested(result, 1)}\n}}\n')


# head, row and tail renderers of each --format.  The structured document
# is byte for byte json.dumps(report, indent=1) + "\n" of the report
# {"command", "params", "rows", "result"}; the text format is one line per
# element of it, in the same order, with the same fields.
_FORMATS = {"text": (_text_head, _text_row, _text_tail),
            "structured": (_json_head, _json_row, _json_tail)}


# errors that refuse an input; a verb raises them before its first row
_REFUSALS = (OSError, ValueError, KeyError, NotImplementedError)


def write_report(command, params, rows, fmt):
    """Write one report to sys.stdout, each row as the generator `rows`
    yields it, and return its exit code.

    The generator's return value (result, code) closes the report.  A
    refusal it raises before its first row is written as one `error:`
    line on stderr instead, with exit code 2 and nothing on stdout; one
    raised later is a fault and propagates.  sys.stdout is looked up here,
    on each call, so a replaced stream (a test's capture) receives it."""
    head, render, tail = _FORMATS[fmt]
    out = sys.stdout
    count = 0
    while True:
        try:
            row = next(rows)
        except StopIteration as stop:
            result, code = stop.value
            break
        except _REFUSALS as exc:
            if count:
                raise
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not count:
            out.write(head(command, params))
        out.write(render(row, count))
        count += 1
    if not count:
        out.write(head(command, params))
    out.write(tail(result, count))
    return code


def _algebra(args):
    """The algebra file named by --algebra, validated, or the built-in
    fixture when there is none; ValueError names the first failed check."""
    path = getattr(args, "algebra", None)
    if not path:
        return frobenius_pair()
    algebra = jsonio.read_algebra(path)
    rep = validate(algebra)
    if not rep.valid:
        check, detail = rep.failures[0]
        raise ValueError(f"invalid algebra: {check}: {detail}")
    return algebra


def _bound(args, suite, key):
    value = getattr(args, key)
    return SUITE_OPTIONS[suite][key] if value is None else value


def _check_slots(what, slots):
    """Refuse, before any work, a window whose diagrams have more
    half-edge slots than the cap allows."""
    if slots > MAX_HALF_EDGES:
        raise NotImplementedError(
            f"{what} reaches diagrams of {slots} half-edge slots; graphs "
            f"beyond {MAX_HALF_EDGES} half-edge slots (8 edges) are out of "
            f"scope")


def _cells(args):
    """The bidegrees (v, e) of a verb's --vertices and --edges window that
    can carry graphs other than the empty one (v, e >= 1), in report
    order."""
    vlo, vhi = args.vertices
    elo, ehi = args.edges
    return [(v, e) for v in range(max(vlo, 1), vhi + 1)
            for e in range(max(elo, 1), ehi + 1)]


def _check_cells(args, cells, boundary=False):
    """Refuse a window past the half-edge cap before any work: its cells
    are enumerated, and with `boundary` the connected boundary leaving
    (v + 1, e + 1) is ranked for each cell that carries graphs (3v <= 2e)."""
    slots = [2 * e for v, e in cells]
    if boundary:
        slots += [2 * (e + 1) for v, e in cells if 3 * v <= 2 * e]
    _check_slots(f"{args.verb} --vertices {_span_str(args.vertices)} "
                 f"--edges {_span_str(args.edges)}", max(slots, default=0))


def _check_window(args, suite):
    """Refuse a suite's window before any work: an --order too small for
    a cyclic word, diagrams beyond the half-edge cap, or a window in which
    the suite can make no check."""
    emax = _bound(args, suite, "edges")
    slots = 2 * (emax + EXTRA_EDGES.get(suite, 0))
    if suite == "tcft":
        slots += TCFT_LEGS
    if suite in ("kontsevich", "triangle"):
        order = _bound(args, suite, "order")
        if order < 3:
            raise ValueError(f"--order {order} is below 3: cyclic words "
                             f"need at least 3 letters")
        if suite == "triangle":
            # integrating words of `order` letters gives order // 2 edges
            slots = max(slots, 2 * (order // 2))
    _check_slots(f"verify {suite} --edges {emax}", slots)
    grid = _grid(emax)
    window = f"edges={emax}"
    if suite in ("d2", "delta2", "kontsevich", "triangle", "roundtrip"):
        empty = not grid
    elif suite == "adjointness":
        empty = not any(v >= 2 for v, e in grid)
    elif suite == "invariance":
        empty = emax < 1
    elif suite == "equivalence":
        order = _bound(args, suite, "order")
        empty = not any(v <= order for v, e in grid)
        window += f" order={order}"
    else:
        empty = False
    if empty:
        raise ValueError(f"verify {suite} made no check in the window "
                         f"{window}")


def _grid(emax):
    """Bidegrees carrying graphs: 1 <= e <= emax, vertices at least
    trivalent so 3v <= 2e."""
    return [(v, e) for e in range(1, emax + 1)
            for v in range(1, (2 * e) // 3 + 1)]


def _sorted_fails(fails):
    return sorted(fails, key=lambda row: json.dumps(row, sort_keys=True))


# ----------------------------------------------------------------- verbs
# Each verb is a generator: it yields its rows as it makes them and
# returns (result, exit code).  Every refusal is raised before the first
# row.

def cmd_enumerate(args):
    cells = _cells(args)
    _check_cells(args, cells)
    total = 0
    for v, e in cells:
        classes = enumerate_graphs(v, e, True) if args.connected \
            else enumerate_graphs(v, e)
        yield {"kind": "cell", "v": v, "e": e, "classes": len(classes)}
        for i, g in enumerate(classes):
            yield {"kind": "graph", "v": v, "e": e, "index": i,
                   **jsonio.graph_to_json(g)}
        total += len(classes)
    return {"status": "ok", "classes": total}, 0


def cmd_homology(args):
    cells = _cells(args)
    _check_cells(args, cells, boundary=True)
    for v, e in cells:
        # one cell per call, so each Betti number is written when it is
        # known; the connected ranks that cells share are cached
        (dim,) = homology_dims((v, v), (e, e)).values()
        yield {"kind": "betti", "v": v, "e": e, "dim": dim}
    return {"status": "ok", "cells": len(cells)}, 0


def cmd_partition(args):
    algebra = _algebra(args)
    cells = _cells(args)
    _check_cells(args, cells)
    vlo, vhi = args.vertices
    elo, ehi = args.edges
    pf = partition_function(algebra, (vhi, ehi))
    yield {"kind": "validated", "hamiltonians": sorted(algebra.hamiltonians)}
    for v, e in cells:
        for i, g in enumerate(basis(v, e, args.connected)):
            yield {"kind": "z", "v": v, "e": e, "index": i,
                   "value": json_scalar(pf.value(g)),
                   "vertices": [list(b) for b in g.vertex_blocks()],
                   "edges": [list(p) for p in g.chords]}
    checked = 0
    failures = 0
    for v in range(max(vlo, 1), vhi):
        for e in range(max(elo, 1), ehi):
            for g in basis(v, e):
                checked += 1
                dg = coboundary(GraphChain.of(g))
                total = sum((c * pf.value(h) for h, c in dg.terms.items()),
                            Fraction(0))
                if total:
                    failures += 1
                    yield {"kind": "fail", "check": "cycle", "v": v, "e": e,
                           "graph": jsonio.graph_to_json(g),
                           "value": json_scalar(total)}
    yield {"kind": "cycle-check", "graphs": checked, "failures": failures}
    return {"status": "pass" if not failures else "fail",
            "failures": failures}, (0 if not failures else 1)


def cmd_characteristic(args):
    chain = characteristic_class(_algebra(args), args.order)
    if args.exterior is not None:
        chain = chain.degree_part(args.exterior)
    obj = jsonio.ce_chain_to_json(chain)
    terms = sorted(obj["terms"],
                   key=lambda t: (len(t["factors"]), t["factors"]))
    for t in terms:
        yield {"kind": "term", "degree": len(t["factors"]),
               "factors": t["factors"], "coeff": t["coeff"]}
    return {"status": "ok", "terms": len(terms)}, 0


def cmd_correlate(args):
    algebra = _algebra(args)
    graph, sign = jsonio.graph_from_json(jsonio.load_json(args.graph))
    tensor = correlation(algebra, graph).scale(sign)
    yield {"kind": "class", "aut": graph.aut, "zero": graph.zero,
           "legs_in": list(graph.legs_in), "legs_out": list(graph.legs_out)}
    for word in sorted(tensor.terms, key=lambda w: (len(w), w)):
        yield {"kind": "entry", "word": list(word),
               "coeff": json_scalar(tensor.terms[word])}
    return {"status": "ok", "rank": tensor.rank,
            "entries": len(tensor.terms)}, 0


# ---------------------------------------------------------- verify suites
# Each suite takes the parsed arguments, its random stream and the algebra
# that cmd_verify read for it (None when no named suite reads one), and
# returns (bounds, checks, fail rows).

def _square_suite(args, suite, operator):
    emax = _bound(args, suite, "edges")
    checks = 0
    fails = []
    for v, e in _grid(emax):
        for g in basis(v, e):
            checks += 1
            residue = operator(operator(GraphChain.of(g)))
            if residue:
                h = min(residue.terms, key=lambda t: t.sort_key)
                fails.append({"kind": "fail", "suite": suite, "v": v, "e": e,
                              "graph": jsonio.graph_to_json(g),
                              "residue": jsonio.graph_to_json(h),
                              "coeff": json_scalar(residue.terms[h])})
    return {"edges": emax}, checks, _sorted_fails(fails)


def _suite_d2(args, rng, algebra):
    return _square_suite(args, "d2", boundary)


def _suite_delta2(args, rng, algebra):
    return _square_suite(args, "delta2", coboundary)


def _suite_adjointness(args, rng, algebra):
    emax = _bound(args, "adjointness", "edges")
    checks = 0
    fails = []
    for v, e in _grid(emax):
        if v < 2:
            continue
        lower = basis(v - 1, e - 1)
        cob = {h: coboundary(GraphChain.of(h)) for h in lower}
        for g in basis(v, e):
            bg = boundary(GraphChain.of(g))
            for h in lower:
                checks += 1
                lhs = pairing(bg, GraphChain.of(h))
                rhs = pairing(GraphChain.of(g), cob[h])
                if lhs != rhs:
                    fails.append({"kind": "fail", "suite": "adjointness",
                                  "v": v, "e": e,
                                  "graph": jsonio.graph_to_json(g),
                                  "other": jsonio.graph_to_json(h),
                                  "lhs": json_scalar(lhs),
                                  "rhs": json_scalar(rhs)})
    return {"edges": emax}, checks, _sorted_fails(fails)


def _rank_menus(order):
    """Tuples of cyclic-word ranks (each >= 3) with total <= order."""
    menus = []

    def rec(acc, start, left):
        if acc:
            menus.append(tuple(acc))
        for k in range(start, left + 1):
            rec(acc + [k], k, left - k)

    rec([], 3, order)
    return menus


def _random_chain(rng, dim, menus):
    while True:
        ranks = menus[rng.randrange(len(menus))]
        parts = []
        for k in ranks:
            word = tuple(rng.randrange(dim.total) for _ in range(k))
            w = CyclicWord(dim, {word: Fraction(rng.randint(-2, 2))})
            if not w:
                break
            parts.append(w)
        else:
            x = CEChain.wedge(parts)
            if x:
                return x


def _chain_graph_suite(args, rng, suite, of_graph, of_chain, sides):
    """Compare two pairings of random CE chains x with the graphs g of the
    suite's window: sides(x, of_chain(x), g, of_graph(g)) is (lhs, rhs)."""
    emax = _bound(args, suite, "edges")
    order = _bound(args, suite, "order")
    graphs = [g for v, e in _grid(emax) for g in basis(v, e)]
    images = [of_graph(g) for g in graphs]
    menus = _rank_menus(order)
    checks = 0
    fails = []
    for dim in CHAIN_SIGNATURES:
        for i in range(CHAINS_PER_SIGNATURE):
            x = _random_chain(rng, dim, menus)
            fx = of_chain(x)
            for g, fg in zip(graphs, images):
                checks += 1
                lhs, rhs = sides(x, fx, g, fg)
                if lhs != rhs:
                    fails.append({"kind": "fail", "suite": suite,
                                  "n": dim.n, "m": dim.m, "chain": i,
                                  "graph": jsonio.graph_to_json(g),
                                  "lhs": json_scalar(lhs),
                                  "rhs": json_scalar(rhs)})
    return {"edges": emax, "order": order,
            "chains": CHAINS_PER_SIGNATURE}, checks, fails


def _suite_kontsevich(args, rng, algebra):
    # <dx, g> = <x, delta g>
    return _chain_graph_suite(
        args, rng, "kontsevich", lambda g: coboundary(GraphChain.of(g)),
        ce_differential,
        lambda x, dx, g, dg: (pair_chain_graph(dx, g),
                              pair_chain_graph(x, dg)))


def _suite_triangle(args, rng, algebra):
    # <x, g> = <I(x), g>
    return _chain_graph_suite(
        args, rng, "triangle", GraphChain.of, integral_I,
        lambda x, ix, g, chain: (pair_chain_graph(x, g),
                                 pairing(ix, chain)))


def _suite_roundtrip(args, rng, algebra):
    emax = _bound(args, "roundtrip", "edges")
    checks = 0
    fails = []
    for v, e in _grid(emax):
        for g in basis(v, e, True):
            checks += 1
            back = integral_I(integral_I_inverse(g))
            if back != GraphChain.of(g):
                fails.append({"kind": "fail", "suite": "roundtrip",
                              "graph": jsonio.graph_to_json(g),
                              "coeff": json_scalar(back.coefficient(g)),
                              "terms": len(back.terms)})
    return {"edges": emax}, checks, fails


def _suite_exp(args, rng, algebra):
    vmax = _bound(args, "exp", "vertices")
    emax = _bound(args, "exp", "edges")
    window = (vmax, emax)
    pf = partition_function(algebra, window)
    full = pf.chain
    lhs = exp_chain(connected_partition_function(pf), window)
    checks = len(set(lhs.terms) | set(full.terms))
    fails = []
    diff = lhs - full
    if diff:
        g = min(diff.terms, key=lambda t: t.sort_key)
        fails.append({"kind": "fail", "suite": "exp",
                      "graph": jsonio.graph_to_json(g),
                      "exp": json_scalar(lhs.coefficient(g)),
                      "direct": json_scalar(full.coefficient(g))})
    return {"vertices": vmax, "edges": emax}, checks, fails


def _suite_equivalence(args, rng, algebra):
    emax = _bound(args, "equivalence", "edges")
    order = _bound(args, "equivalence", "order")
    cc = characteristic_class(algebra, order)
    pf = partition_function(algebra, (order, emax))
    checks = 0
    fails = []
    for v in range(1, order + 1):
        for e in range(1, emax + 1):
            for g in enumerate_graphs(v, e):
                checks += 1
                lhs = pair_chain_graph(cc, g, algebra.dual_pairing())
                rhs = pf.value(g)
                if lhs != rhs:
                    fails.append({"kind": "fail", "suite": "equivalence",
                                  "graph": jsonio.graph_to_json(g),
                                  "paired": json_scalar(lhs),
                                  "direct": json_scalar(rhs)})
    return {"edges": emax, "order": order}, checks, fails


def _suite_invariance(args, rng, algebra):
    emax = _bound(args, "invariance", "edges")
    vmax = max(1, (2 * emax) // 3)
    base = partition_function(algebra, (vmax, emax))
    checks = 0
    fails = []
    produced = 0
    while produced < TWIST_COUNT:
        terms = {}
        for _ in range(2):
            word = tuple(rng.randrange(algebra.dim.total) for _ in range(4))
            terms[word] = terms.get(word, 0) + Fraction(rng.randint(-2, 2))
        draft = CyclicWord(algebra.dim, terms)
        gamma = CyclicWord(algebra.dim,
                           {w: c for w, c in draft.terms.items()
                            if algebra.dim.word_parity(w) == 0})
        if not gamma:
            continue
        produced += 1
        twisted = twist(algebra, gamma)
        rep = validate(twisted)
        if not rep.valid:
            fails.append({"kind": "fail", "suite": "invariance",
                          "twist": produced, "detail": repr(rep)})
            continue
        shifted = partition_function(twisted, (vmax, emax))
        for v in range(1, vmax + 1):
            for e in range(1, emax + 1):
                checks += 1
                diff = GraphChain(
                    {g: shifted.value(g) - base.value(g)
                     for g in enumerate_graphs(v, e, True)})
                if not diff:
                    continue
                witness = is_boundary(diff)
                if witness is None or boundary(witness) != diff:
                    fails.append({"kind": "fail", "suite": "invariance",
                                  "twist": produced, "v": v, "e": e,
                                  "difference": jsonio.chain_to_json(diff)})
    return {"edges": emax, "twists": TWIST_COUNT}, checks, fails


def _live(algebra, g):
    return all(bool(algebra.hamiltonian(k)) for k in g.vtype)


def _tcft_failure(g1, g2, rep):
    return {"kind": "fail", "suite": "tcft",
            "g1": jsonio.graph_to_json(g1), "g2": jsonio.graph_to_json(g2),
            "detail": "; ".join(f"{c}: {d}" for c, d in rep.failures)}


def _suite_tcft(args, rng, algebra):
    emax = _bound(args, "tcft", "edges")
    legs = range(TCFT_LEGS + 1)
    blocks = [(m, n, k, e1, e2) for m in legs for n in legs for k in legs
              if m + n <= TCFT_LEGS and n + k <= TCFT_LEGS
              for e1 in range(emax + 1) for e2 in range(emax + 1)]
    # one correlator per canonical graph, shared by every pair of the suite
    correlators = {}
    checks = 0
    fails = []
    dead_blocks = []
    for m, n, k, e1, e2 in blocks:
        side1 = enumerate_legged_graphs(m, n, e1)
        side2 = enumerate_legged_graphs(n, k, e2)
        live1 = [g for g in side1 if _live(algebra, g)]
        live2 = [g for g in side2 if _live(algebra, g)]
        for g1 in live1:
            for g2 in live2:
                checks += 1
                rep = composition_compatibility(algebra, g1, g2, correlators)
                if not rep.valid:
                    fails.append(_tcft_failure(g1, g2, rep))
        if side1 and side2 and (len(live1) < len(side1)
                                or len(live2) < len(side2)):
            dead_blocks.append((side1, side2))
    fails = _sorted_fails(fails)
    # vertices whose valency carries no Hamiltonian make both sides of the
    # compatibility identity vanish (gluing preserves internal valencies),
    # so those pairs are spot-checked rather than swept.
    sampled = 0
    if dead_blocks:
        for _ in range(DEAD_PAIR_SAMPLES):
            side1, side2 = dead_blocks[rng.randrange(len(dead_blocks))]
            g1 = side1[rng.randrange(len(side1))]
            g2 = side2[rng.randrange(len(side2))]
            sampled += 1
            rep = composition_compatibility(algebra, g1, g2, correlators)
            if not rep.valid:
                fails.append(_tcft_failure(g1, g2, rep))
    return {"edges": emax, "legs": TCFT_LEGS, "sampled": sampled}, \
        checks + sampled, fails


_SUITE_FNS = {
    "d2": _suite_d2,
    "delta2": _suite_delta2,
    "adjointness": _suite_adjointness,
    "kontsevich": _suite_kontsevich,
    "triangle": _suite_triangle,
    "roundtrip": _suite_roundtrip,
    "exp": _suite_exp,
    "equivalence": _suite_equivalence,
    "invariance": _suite_invariance,
    "tcft": _suite_tcft,
}


def cmd_verify(args):
    """Refuse every bad input before any suite runs, then run the named
    suites in order, writing each one's fail rows and its `suite` row as
    it ends.

    The pre-flight checks the options, each suite's window, the algebra
    (read and validated once, when some named suite reads one) and the
    signature that invariance twists; after it no input is refused.
    """
    names = SUITES if args.suite == "all" else (args.suite,)
    for key in ("vertices", "edges", "order", "algebra"):
        if getattr(args, key) is not None and \
                not any(key in SUITE_OPTIONS[name] for name in names):
            raise ValueError(f"verify {args.suite} does not read --{key}")
    for name in names:
        _check_window(args, name)
    algebra = None
    if any("algebra" in SUITE_OPTIONS[name] for name in names):
        algebra = _algebra(args)
    if "invariance" in names:
        dim = algebra.dim
        if dim.n < 1 and dim.m < 2:  # p1^4 or x1.x1.x2.x2; x1^4 cancels
            raise ValueError(f"verify invariance twists by even cyclic "
                             f"words of 4 letters, and signature "
                             f"{dim.n}|{dim.m} has none: it needs n >= 1 "
                             f"or m >= 2")
    checks = failures = 0
    for name in names:
        rng = random.Random(f"{args.seed}:{name}")
        bounds, n, fails = _SUITE_FNS[name](args, rng, algebra)
        yield from fails
        yield {"kind": "suite", "name": name, **bounds, "checks": n,
               "failures": len(fails),
               "status": "pass" if not fails else "fail"}
        checks += n
        failures += len(fails)
    return {"status": "pass" if not failures else "fail", "checks": checks,
            "failures": failures}, (0 if not failures else 1)


# ------------------------------------------------------------------ main

def build_parser():
    parser = argparse.ArgumentParser(
        prog="ribbonhom",
        description="Exact computations in the oriented ribbon graph "
                    "complex and its pairing with cyclic algebras.")
    sub = parser.add_subparsers(dest="verb", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "structured"),
                     default="text", help="output rendering")

    p = sub.add_parser("enumerate", parents=[fmt],
                       help="list canonical graph classes")
    p.add_argument("--vertices", type=_span, required=True, metavar="N|LO:HI")
    p.add_argument("--edges", type=_span, required=True, metavar="N|LO:HI")
    p.add_argument("--connected", action="store_true")

    p = sub.add_parser("homology", parents=[fmt],
                       help="Betti numbers per bidegree")
    p.add_argument("--vertices", type=_span, default="1:4", metavar="N|LO:HI")
    p.add_argument("--edges", type=_span, default="1:5", metavar="N|LO:HI")

    p = sub.add_parser("partition", parents=[fmt],
                       help="partition function table of an algebra")
    p.add_argument("--algebra", required=True, metavar="FILE")
    p.add_argument("--vertices", type=_span, default="1:4", metavar="N|LO:HI")
    p.add_argument("--edges", type=_span, default="1:4", metavar="N|LO:HI")
    p.add_argument("--connected", action="store_true")

    p = sub.add_parser("characteristic", parents=[fmt],
                       help="characteristic class of an algebra")
    p.add_argument("--algebra", required=True, metavar="FILE")
    p.add_argument("--order", type=_count, default=4,
                   help="exterior degree bound")
    p.add_argument("--exterior", type=_count, default=None,
                   help="print only this exterior degree")

    p = sub.add_parser("correlate", parents=[fmt],
                       help="correlation tensor of a graph file")
    p.add_argument("graph", metavar="GRAPH.json")
    p.add_argument("--algebra", required=True, metavar="FILE")

    p = sub.add_parser("verify", parents=[fmt],
                       help="run a named identity suite")
    p.add_argument("suite", choices=SUITES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vertices", type=_count, default=None, metavar="N")
    p.add_argument("--edges", type=_count, default=None, metavar="N")
    p.add_argument("--order", type=_count, default=None)
    p.add_argument("--algebra", default=None, metavar="FILE",
                   help="algebra file for the fixture-based suites")

    return parser


# each verb's row generator and the arguments its report header echoes,
# in order; ranges as N or LO:HI, and an argument left unset is omitted
_DISPATCH = {
    "enumerate": (cmd_enumerate, ("vertices", "edges", "connected")),
    "homology": (cmd_homology, ("vertices", "edges")),
    "partition": (cmd_partition,
                  ("algebra", "vertices", "edges", "connected")),
    "characteristic": (cmd_characteristic, ("algebra", "order", "exterior")),
    "correlate": (cmd_correlate, ("algebra", "graph")),
    "verify": (cmd_verify, ("suite", "seed")),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    verb, names = _DISPATCH[args.verb]
    params = {}
    for name in names:
        value = getattr(args, name)
        if value is not None:
            params[name] = _span_str(value) if isinstance(value, tuple) \
                else value
    return write_report(args.verb, params, verb(args), args.format)


if __name__ == "__main__":
    sys.exit(main())
