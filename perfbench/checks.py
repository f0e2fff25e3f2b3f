"""Correctness of `ribbonhom --format structured` reports against values
pinned at the seed commit (perfbench/pinned.json).

Only the numbers that matter are compared, and as numbers: the Betti
number per (v, e) of a homology report; the z value per graph and the
cycle-check totals of a partition report; `checks` and `failures` per
suite of a verify report.  Row order, indentation and other fields may
change without failing the check.

    python3 perfbench/checks.py pin    # rewrite pinned.json (seed commit only)
"""

import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED_PATH = os.path.join(HERE, "pinned.json")


def rows_of(text):
    """The rows of a structured report: one JSON document with a "rows"
    list, or one JSON object per line."""
    try:
        return json.loads(text)["rows"]
    except json.JSONDecodeError:
        objs = [json.loads(line) for line in text.splitlines() if line.strip()]
        return [o for o in objs if isinstance(o, dict) and "kind" in o]


def numbers(verb, text):
    """The pinned quantities of one report, normalised for comparison."""
    rows = rows_of(text)
    if verb == "homology":
        return {f"{r['v']},{r['e']}": int(r["dim"])
                for r in rows if r["kind"] == "betti"}
    if verb == "partition":
        z = {json.dumps([r["v"], r["e"], r["vertices"], r["edges"]]):
             str(Fraction(r["value"])) for r in rows if r["kind"] == "z"}
        cycle = [r for r in rows if r["kind"] == "cycle-check"]
        return {"z": z, "cycle": [[int(r["graphs"]), int(r["failures"])]
                                  for r in cycle]}
    if verb == "verify":
        return {r["name"]: [int(r["checks"]), int(r["failures"])]
                for r in rows if r["kind"] == "suite"}
    raise ValueError(f"no pinned numbers for verb {verb!r}")


def key_of(cli_args):
    """The pinned entry of one invocation: its arguments minus the seed
    (verify checks counts do not depend on it) and the output format."""
    out, skip = [], False
    for arg in cli_args:
        if skip:
            skip = False
        elif arg in ("--seed", "--format"):
            skip = True
        else:
            out.append(os.path.basename(arg) if arg.endswith(".json") else arg)
    return " ".join(out)


def load_pinned():
    with open(PINNED_PATH) as fh:
        return json.load(fh)


def mismatch(pinned, cli_args, code, text):
    """None if the report matches the pinned numbers, else a reason."""
    if code != 0:
        return f"exit code {code}"
    key = key_of(cli_args)
    if key not in pinned:
        return f"nothing pinned for {key!r}"
    try:
        got = numbers(cli_args[0], text)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return f"unreadable report: {exc!r}"
    return _first_difference(pinned[key], got, key)


def _first_difference(want, got, path):
    if want == got:
        return None
    if isinstance(want, dict) and isinstance(got, dict):
        for k in sorted(set(want) | set(got)):
            if want.get(k) != got.get(k):
                return _first_difference(want.get(k), got.get(k),
                                         f"{path} {k}")
    return f"{path}: pinned {want!r}, got {got!r}"


if __name__ == "__main__" and sys.argv[1:] == ["pin"]:
    import subprocess

    from run import ROOT, WORKLOADS, child_env, cli_argv, invocations

    pinned = {}
    for name in WORKLOADS:
        for args in invocations(name, seed=0):
            done = subprocess.run(cli_argv(args), cwd=ROOT, env=child_env(),
                                  capture_output=True, text=True, check=True)
            pinned[key_of(args)] = numbers(args[0], done.stdout)
    with open(PINNED_PATH, "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
