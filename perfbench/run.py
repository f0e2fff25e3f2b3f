"""The ribbonhom benchmark: real CLI processes, one at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src, nothing is installed.  A run first times `setup_s`, then repeats
the workload's CLI invocations until S seconds of measurement have passed
(at least once), checks every report against perfbench/pinned.json, and
prints as its last stdout line one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones, medians over repetitions; with --trace 1 every invocation
runs once plain and once under perfbench/tracing.py, and the metrics are
the per-layer ones.  See perfbench/README.md for the workloads.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
ALGEBRA = os.path.relpath(os.path.join(HERE, "twisted_11.json"), ROOT)

import checks  # noqa: E402  (perfbench/ is sys.path[0])

WORKLOADS = ("homology", "homology-cap", "partition", "verify")
SUITES = ("d2", "delta2", "adjointness", "kontsevich", "triangle",
          "roundtrip", "exp", "equivalence", "invariance", "tcft")
SETUP_SAMPLES = 10
RUN_LIMIT_S = 165   # a run must end within 180 s
CLI_CODE = "import sys; from ribbonhom.cli import main; sys.exit(main())"
PROBE_CODE = """
import json, sys, numpy, ribbonhom
from ribbonhom import fixtures, jsonio
stored = jsonio.algebra_to_json(jsonio.read_algebra(sys.argv[1]))
fixture = jsonio.algebra_to_json(fixtures.twisted_11())
print(json.dumps({"numpy": numpy.__version__, "ribbonhom": ribbonhom.__file__,
                  "fixture_matches": stored == fixture}))
"""

# (name, unit, how): how is ("self"|"calls"|"inclusive", span name),
# ("count"|"max"|"cache", counter name) or a derived quantity
PER_LAYER = (
    ("graphs.enumerate_s", "s", ("self", "graphs.enumerate_graphs")),
    ("graphs.classes", "count", ("count", "graphs.classes")),
    ("graphs.matchings_walked", "count",
     ("count", "graphs.matchings_walked")),
    ("graphs.enumerate_yield", "share",
     ("ratio", "graphs.classes", "graphs.matchings_walked")),
    ("graphs.canonicalize_s", "s", ("self", "graphs.canonicalize")),
    ("graphs.canonicalize_calls", "count", ("calls", "graphs.canonicalize")),
    ("graphs.scan_cache_hits", "count", ("cache", "graphs.scan_cache_hits")),
    ("graphs.scan_cache_misses", "count",
     ("cache", "graphs.scan_cache_misses")),
    ("complexes.boundary_build_s", "s", ("self", "complexes.homology_dims")),
    ("complexes.basis_s", "s", ("self", "complexes.basis")),
    ("complexes.boundary_s", "s", ("self", "complexes.boundary")),
    ("complexes.boundary_calls", "count", ("calls", "complexes.boundary")),
    ("complexes.boundary_cache_hits", "count",
     ("cache", "complexes.boundary_cache_hits")),
    ("complexes.boundary_cache_misses", "count",
     ("cache", "complexes.boundary_cache_misses")),
    ("complexes.coboundary_s", "s", ("self", "complexes.coboundary")),
    ("complexes.coboundary_calls", "count", ("calls", "complexes.coboundary")),
    ("complexes.coboundary_cache_hits", "count",
     ("cache", "complexes.coboundary_cache_hits")),
    ("complexes.coboundary_cache_misses", "count",
     ("cache", "complexes.coboundary_cache_misses")),
    ("complexes.is_boundary_s", "s", ("self", "complexes.is_boundary")),
    ("scalars.rank_exact_s", "s", ("self", "scalars.rank_exact")),
    ("scalars.rank_exact_calls", "count", ("calls", "scalars.rank_exact")),
    ("scalars.rank_rows_max", "count", ("max", "scalars.rank_rows_max")),
    ("scalars.rank_cols_max", "count", ("max", "scalars.rank_cols_max")),
    ("scalars.rank_nnz", "count", ("count", "scalars.rank_nnz")),
    ("scalars.rank_entries", "count", ("count", "scalars.rank_entries")),
    ("scalars.rank", "count", ("count", "scalars.rank")),
    ("scalars.solve_exact_s", "s", ("self", "scalars.solve_exact")),
    ("ainfinity.partition_function_s", "s",
     ("self", "ainfinity.partition_function")),
    ("ainfinity.state_sums", "count", ("count", "ainfinity.state_sums")),
    ("ainfinity.pf_value_s", "s",
     ("self", "ainfinity.PartitionFunction.value")),
    ("ainfinity.pf_value_calls", "count",
     ("calls", "ainfinity.PartitionFunction.value")),
    ("ainfinity.pf_value_repeat_share", "share",
     ("ratio", "ainfinity.pf_value_held",
      "ainfinity.PartitionFunction.value")),
    ("ainfinity.validate_s", "s", ("self", "ainfinity.validate")),
    ("ainfinity.twist_s", "s", ("self", "ainfinity.twist")),
    ("ainfinity.exp_chain_s", "s", ("self", "ainfinity.exp_chain")),
    ("lie.bracket_s", "s", ("self", "lie.bracket")),
    ("lie.bracket_calls", "count", ("calls", "lie.bracket")),
    ("lie.ce_differential_s", "s", ("self", "lie.ce_differential")),
    ("lie.ce_differential_calls", "count", ("calls", "lie.ce_differential")),
    ("feynman.integral_I_s", "s", ("self", "feynman.integral_I")),
    ("feynman.integral_I_calls", "count", ("calls", "feynman.integral_I")),
    ("feynman.pair_chain_graph_s", "s", ("self", "feynman.pair_chain_graph")),
    ("feynman.pair_chain_graph_calls", "count",
     ("calls", "feynman.pair_chain_graph")),
    ("tcft.enumerate_legged_s", "s", ("self", "tcft.enumerate_legged_graphs")),
    ("tcft.correlation_s", "s", ("self", "tcft.correlation")),
    ("tcft.correlation_calls", "count", ("calls", "tcft.correlation")),
    ("tcft.composition_compatibility_s", "s",
     ("self", "tcft.composition_compatibility")),
) + tuple((f"cli.suite_s.{s}", "s", ("inclusive", f"cli.suite.{s}"))
          for s in SUITES) + (
    ("trace.overhead_s", "s", ("overhead",)),
)

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s", "pass_share": "share"}


def invocations(workload, seed):
    """The CLI argument lists of one repetition of a workload."""
    fmt = ["--format", "structured"]
    if workload == "homology":
        return [["homology", "--vertices", "1:4", "--edges", "1:5"] + fmt]
    if workload == "homology-cap":
        return [["homology", "--vertices", "4", "--edges", "1:7"] + fmt]
    if workload == "partition":
        return [["partition", "--algebra", ALGEBRA, "--vertices", "2:4",
                 "--edges", "1:6"] + fmt]
    if workload == "verify":
        # delta2 at e=6 alone takes ~97 s; e=5 keeps it in the run budget
        return [["verify", s, "--seed", str(seed)]
                + (["--edges", "5"] if s == "delta2" else []) + fmt
                for s in SUITES]
    raise ValueError(f"unknown workload {workload!r}")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def cli_argv(cli_args):
    return [sys.executable, "-c", CLI_CODE] + list(cli_args)


def measure(argv, out_path, timeout):
    """Run one process to its end; returns wall and CPU seconds, peak RSS
    in MB, exit code (None on timeout) and stdout."""
    with open(out_path, "wb") as out, \
            open(out_path + ".stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        lock = threading.Lock()
        state = {"exited": False, "killed": False}

        def kill():
            with lock:
                if not state["exited"]:
                    os.kill(proc.pid, signal.SIGKILL)
                    state["killed"] = True

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
            with lock:
                state["exited"] = True
        finally:
            kill()   # a no-op unless the wait above was interrupted
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
            "code": None if state["killed"] else proc.returncode,
            "text": text}


class Run:
    """One benchmark run: its deadline, its tally and its failures."""

    def __init__(self):
        self.start = time.perf_counter()
        self.attempted = 0
        self.failures = []
        self.pinned = checks.load_pinned()

    def remaining(self):
        return RUN_LIMIT_S - (time.perf_counter() - self.start)

    def cli(self, cli_args, tag, argv=None, expect=None):
        """Run and check one invocation.  `argv` defaults to the plain
        CLI; `expect` is a report the output must equal byte for byte."""
        if self.remaining() <= 1:
            raise TimeoutError("run budget spent")
        self.attempted += 1
        out = os.path.join(WORK, tag + ".out")
        result = measure(argv or cli_argv(cli_args), out, self.remaining())
        code = result["code"]
        if code is None:
            reason = "timeout"
        elif expect is not None and result["text"] != expect:
            reason = "traced report differs from the untraced one"
        else:
            reason = checks.mismatch(self.pinned, cli_args, code,
                                     result["text"])
        if reason:
            self.failures.append(f"{' '.join(cli_args)}: {reason}")
        return result

    def plain_rep(self, workload, seed):
        results = [self.cli(args, f"{workload}-{i}")
                   for i, args in enumerate(invocations(workload, seed))]
        return {"wall_s": sum(r["wall_s"] for r in results),
                "cpu_s": sum(r["cpu_s"] for r in results),
                "peak_rss_mb": max(r["rss_mb"] for r in results)}

    def traced_rep(self, workload, seed):
        plain_wall = traced_wall = 0.0
        summaries = []
        for i, args in enumerate(invocations(workload, seed)):
            tag = f"{workload}-{i}"
            plain = self.cli(args, tag)
            summary_path = os.path.join(WORK, f"{tag}.trace.json")
            if os.path.exists(summary_path):
                os.remove(summary_path)
            argv = [sys.executable, os.path.join(HERE, "tracing.py"),
                    summary_path, "--"] + args
            traced = self.cli(args, tag + ".traced", argv, plain["text"])
            if traced["code"] != 0:
                continue   # already counted as failed
            try:
                with open(summary_path) as fh:
                    summaries.append(json.load(fh))
            except (OSError, json.JSONDecodeError) as exc:
                self.failures.append(f"{' '.join(args)}: no trace: {exc}")
            plain_wall += plain["wall_s"]
            traced_wall += traced["wall_s"]
        return layer_metrics(merge(summaries), traced_wall - plain_wall)


def merge(summaries):
    """Sum per-process trace summaries; maxima take the maximum."""
    out = {}
    for s in summaries:
        for part, values in s.items():
            acc = out.setdefault(part, {})
            for k, v in values.items():
                acc[k] = max(acc.get(k, v), v) if part == "maxima" \
                    else acc.get(k, 0) + v
    return out


def layer_metrics(total, overhead):
    sources = {"self": "self_s", "calls": "calls", "inclusive": "inclusive_s",
               "count": "counts", "max": "maxima", "cache": "caches"}
    values = {}
    for name, _, how in PER_LAYER:
        if how[0] in sources:
            values[name] = total.get(sources[how[0]], {}).get(how[1], 0)
        elif how[0] == "ratio":
            num = total.get("counts", {}).get(how[1], 0)
            den = total.get("counts", {}).get(how[2], 0) \
                or total.get("calls", {}).get(how[2], 0)
            values[name] = num / den if den else 0.0
        else:
            values[name] = overhead
    return values


def setup_samples(run, count):
    """Wall times of fresh interpreters importing ribbonhom.cli."""
    samples = []
    for _ in range(count):
        run.attempted += 1
        r = measure([sys.executable, "-c", "import ribbonhom.cli"],
                    os.path.join(WORK, "setup.out"), run.remaining())
        if r["code"] != 0:
            run.failures.append(f"import ribbonhom.cli: exit {r['code']}")
        samples.append(r["wall_s"])
    return samples


def probe(run):
    """Versions, the imported package path and the partition input check;
    also compiles the bytecode before anything is timed."""
    run.attempted += 1
    r = measure([sys.executable, "-c", PROBE_CODE, ALGEBRA],
                os.path.join(WORK, "probe.out"), run.remaining())
    try:
        info = json.loads(r["text"].strip().splitlines()[-1])
    except (json.JSONDecodeError, IndexError):
        info = {}
    if r["code"] != 0 or not info:
        run.failures.append(f"probe failed with exit {r['code']}")
    elif not os.path.abspath(info["ribbonhom"]).startswith(SRC + os.sep):
        run.failures.append(f"ribbonhom imported from {info['ribbonhom']}")
    elif not info["fixture_matches"]:
        run.failures.append(f"{ALGEBRA} differs from fixtures.twisted_11()")
    return info


def environment(seed, info):
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {"seed": seed, "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(),
            "numpy": info.get("numpy"), "commit": commit,
            "src_sha256": digest.hexdigest()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ribbonhom", "cli.py")):
        print(f"error: no ribbonhom sources under {SRC}; run from the root "
              "of a ribbonhom checkout", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)

    run = Run()
    info = probe(run)
    # half the set-up samples before the repetitions and half after, so
    # their median spans the run rather than one moment of machine load
    setup = [] if args.trace else setup_samples(run, SETUP_SAMPLES // 2)
    rep = run.traced_rep if args.trace else run.plain_rep
    reps = []
    began = time.perf_counter()
    while True:
        try:
            reps.append(rep(args.workload, args.seed))
        except TimeoutError:
            break
        spent = time.perf_counter() - began
        typical = spent / len(reps)
        if spent + typical > args.seconds or typical * 1.5 > run.remaining():
            break
    if not reps and not run.failures:
        run.failures.append("no repetition finished")
    metrics = {k: statistics.median(r[k] for r in reps)
               for k in reps[0]} if reps else {}
    if args.trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        units = END_TO_END_UNITS
        setup += setup_samples(run, SETUP_SAMPLES - len(setup))
        metrics["setup_s"] = statistics.median(setup)
        metrics["pass_share"] = 1 - len(run.failures) / run.attempted
    print(json.dumps({"environment": environment(args.seed, info),
                      "repetitions": len(reps), "reps": reps,
                      "failures": run.failures[:20]}))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics.get(name, 0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
