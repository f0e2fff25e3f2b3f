"""Traced run of one `ribbonhom` CLI invocation, for the per-layer metrics.

    python3 perfbench/tracing.py SUMMARY.json -- <ribbonhom arguments>

runs `ribbonhom.cli.main` in this process after wrapping the entry points
of each layer (table ENTRY_POINTS) in timing spans.  A wrapper replaces the
function's name in every `ribbonhom` module that holds it; the original
object, an `lru_cache` included, stays where the wrapper can call it and
its `cache_info()` can be read.  Spans (name, start, end, parent) stay in
memory until `main` returns; then the layer summary is written to
SUMMARY.json and the raw spans, one JSON array per line, next to it as
SUMMARY.spans.jsonl.  The report goes to stdout exactly as the CLI prints
it.  Nothing under src/ is changed.
"""

import functools
import importlib
import json
import math
import sys
import time
from collections import Counter

ENTRY_POINTS = {
    "graphs": ("enumerate_graphs", "canonicalize"),
    "complexes": ("basis", "boundary", "coboundary", "homology_dims",
                  "is_boundary"),
    "scalars": ("rank_exact", "solve_exact"),
    "ainfinity": ("partition_function", "connected_partition_function",
                  "exp_chain", "validate", "twist", "characteristic_class"),
    "lie": ("bracket", "ce_differential"),
    "feynman": ("integral_I", "integral_I_inverse", "pair_chain_graph"),
    "tcft": ("enumerate_legged_graphs", "correlation",
             "composition_compatibility"),
}

# lru caches whose counters are read at the end of the run
CACHES = {
    "graphs.scan_cache": ("graphs", "_scan_cached"),
    "complexes.boundary_cache": ("complexes", "_boundary_graph"),
    "complexes.coboundary_cache": ("complexes", "_coboundary_graph"),
}


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.maxima = {}

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def count(self, name, amount=1):
        self.counts[name] += amount

    def peak(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, value), value)


def self_times(spans):
    """{name: total self seconds}; a span's self time is its duration
    minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for (name, start, end, _), inner in zip(spans, child):
        out[name] = out.get(name, 0.0) + (end - start) - inner
    return out


def inclusive_times(spans):
    """{name: total seconds}, counting only spans not nested in a span of
    the same name."""
    out = {}
    for name, start, end, parent in spans:
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            out[name] = out.get(name, 0.0) + (end - start)
    return out


def double_factorial(n):
    return math.prod(range(n, 0, -2))


def _rebind(modules, original, replacement):
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer):
    """Wrap every entry point; returns the wrapped `ribbonhom.cli` module."""
    cli = importlib.import_module("ribbonhom.cli")
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "ribbonhom" or n.startswith("ribbonhom.")]
    mod = {m.__name__.rpartition(".")[2]: m for m in modules}
    for short, names in ENTRY_POINTS.items():
        for name in names:
            fn = getattr(mod[short], name)
            _rebind(modules, fn, tracer.wrap(f"{short}.{name}", fn))

    graphs, ainfinity = mod["graphs"], mod["ainfinity"]

    enumerate_graphs = graphs.enumerate_graphs   # already a span wrapper
    cached = enumerate_graphs.__wrapped__

    @functools.wraps(enumerate_graphs)
    def counted_enumeration(nvert, nedge, connected=False):
        misses = cached.cache_info().misses
        result = enumerate_graphs(nvert, nedge, connected)
        if cached.cache_info().misses != misses:
            tracer.count("graphs.classes", len(result))
            if nvert:
                types = sum(1 for _ in graphs.valency_types(nvert, nedge))
                tracer.count("graphs.matchings_walked",
                             types * double_factorial(2 * nedge - 1))
        return result

    _rebind(modules, enumerate_graphs, counted_enumeration)

    rank_exact = mod["scalars"].rank_exact

    @functools.wraps(rank_exact)
    def counted_rank(rows):
        rank = rank_exact(rows)
        nrows, ncols = len(rows), len(rows[0]) if rows else 0
        tracer.peak("scalars.rank_rows_max", nrows)
        tracer.peak("scalars.rank_cols_max", ncols)
        tracer.count("scalars.rank_entries", nrows * ncols)
        tracer.count("scalars.rank_nnz", sum(1 for row in rows
                                             for x in row if x))
        tracer.count("scalars.rank", rank)
        return rank

    _rebind(modules, rank_exact, counted_rank)

    graph_value = ainfinity._graph_value

    def counted_state_sum(*args):
        tracer.count("ainfinity.state_sums")
        return graph_value(*args)

    ainfinity._graph_value = counted_state_sum

    pf_class = ainfinity.PartitionFunction
    value = tracer.wrap("ainfinity.PartitionFunction.value", pf_class.value)
    ribbon_graph = graphs.RibbonGraph

    def counted_value(self, graph):
        # a class inside the window is one the chain already holds
        # (as a term, or as zero by its absence)
        vmax, emax = self.window
        if (isinstance(graph, ribbon_graph) and graph.nverts <= vmax
                and graph.nedges <= emax):
            tracer.count("ainfinity.pf_value_held")
        return value(self, graph)

    pf_class.value = counted_value

    for suite, fn in list(cli._SUITE_FNS.items()):
        cli._SUITE_FNS[suite] = tracer.wrap(f"cli.suite.{suite}", fn)
    return cli


def summary(tracer):
    """Layer totals of one process, in a form that sums across processes."""
    mods = {n.rpartition(".")[2]: m for n, m in sys.modules.items()
            if n.startswith("ribbonhom.")}
    caches = {}
    for key, (short, attr) in CACHES.items():
        info = getattr(mods[short], attr).cache_info()
        caches[f"{key}_hits"] = info.hits
        caches[f"{key}_misses"] = info.misses
    return {
        "self_s": self_times(tracer.spans),
        "calls": dict(Counter(s[0] for s in tracer.spans)),
        "inclusive_s": inclusive_times(tracer.spans),
        "counts": dict(tracer.counts),
        "maxima": tracer.maxima,
        "caches": caches,
    }


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracing.py SUMMARY.json -- <ribbonhom arguments>",
              file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    cli = install(tracer)
    code = tracer.wrap("cli.main", cli.main)(cli_args)
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump(summary(tracer), fh)
    with open(out_path.removesuffix(".json") + ".spans.jsonl", "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
