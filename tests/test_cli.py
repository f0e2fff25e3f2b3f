"""Command-line entry points, exit codes, and report determinism."""

import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from ribbonhom import cli, jsonio, tcft
from ribbonhom.fixtures import twisted_11

DATA = os.path.join(os.path.dirname(__file__), "data")
ALGEBRA = os.path.join(DATA, "frobenius_02.json")


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    # every refusal comes before the first row
    assert code != 2 or not out.out, argv
    return code, out.out, out.err


def structured(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "structured")
    return code, json.loads(out), err


def test_enumerate_counts_match_pins(capsys):
    code, rep, _ = structured(capsys, "enumerate", "--vertices", "1",
                              "--edges", "2")
    assert code == 0
    graphs = [r for r in rep["rows"] if r["kind"] == "graph"]
    assert len(graphs) == 2
    assert sum(not g["zero"] for g in graphs) == 1
    code, rep, _ = structured(capsys, "enumerate", "--vertices", "2",
                              "--edges", "3", "--connected")
    graphs = [r for r in rep["rows"] if r["kind"] == "graph"]
    assert code == 0 and len(graphs) == 3


def test_connected_windows_are_asked_for_directly(capsys, monkeypatch):
    # enumerate --connected and the roundtrip and invariance suites ask
    # for the connected windows only, and list what filtering the full
    # window by connectedness gives
    asked = []

    def spy(fn):
        def spied(nvert, nedge, connected=False):
            asked.append(connected)
            return fn(nvert, nedge, connected)
        return spied

    monkeypatch.setattr(cli, "enumerate_graphs", spy(cli.enumerate_graphs))
    monkeypatch.setattr(cli, "basis", spy(cli.basis))
    code, rep, _ = structured(capsys, "enumerate", "--vertices", "1:3",
                              "--edges", "1:5", "--connected")
    assert code == 0 and asked and all(asked)
    for argv in (("roundtrip", "--edges", "3"), ("invariance", "--edges", "3")):
        asked.clear()
        code, _, _ = run(capsys, "verify", *argv)
        assert code == 0 and asked and all(asked), argv
    monkeypatch.undo()
    listed = [(r["v"], r["e"], r["index"], r["vertices"], r["edges"])
              for r in rep["rows"] if r["kind"] == "graph"]
    filtered = [(v, e, i, [list(b) for b in g.vertex_blocks()],
                 [list(c) for c in g.chords])
                for v in range(1, 4) for e in range(1, 6)
                for i, g in enumerate(g for g in cli.enumerate_graphs(v, e)
                                      if g.connected)]
    assert listed == filtered


def test_text_mirrors_structured(capsys):
    code, text, _ = run(capsys, "enumerate", "--vertices", "2",
                        "--edges", "3")
    assert code == 0
    code2, rep, _ = structured(capsys, "enumerate", "--vertices", "2",
                               "--edges", "3")
    body = [ln for ln in text.splitlines() if ln]
    # header + one line per structured row + the result footer
    assert len(body) == len(rep["rows"]) + 2
    assert body[0].startswith("ribbonhom enumerate")
    assert body[-1].startswith("result")


def test_homology_regression(capsys):
    code, rep, _ = structured(capsys, "homology", "--vertices", "1:3",
                              "--edges", "1:4")
    assert code == 0
    betti = {(r["v"], r["e"]): r["dim"]
             for r in rep["rows"] if r["kind"] == "betti"}
    assert betti[(2, 3)] == 2
    assert all(d == 0 for key, d in betti.items() if key != (2, 3))


def test_partition_values_and_cycle_check(capsys):
    code, rep, _ = structured(capsys, "partition", "--algebra", ALGEBRA,
                              "--vertices", "1:2", "--edges", "1:3")
    assert code == 0
    zs = [r["value"] for r in rep["rows"] if r["kind"] == "z"]
    assert "1/1" in zs and "-1/3" in zs and "1/3" in zs
    checks = [r for r in rep["rows"] if r["kind"] == "cycle-check"]
    assert checks and checks[0]["failures"] == 0


def test_characteristic_exterior_filter(capsys):
    code, rep, _ = structured(capsys, "characteristic", "--algebra",
                              ALGEBRA, "--order", "4", "--exterior", "2")
    assert code == 0
    terms = [r for r in rep["rows"] if r["kind"] == "term"]
    assert terms and all(len(t["factors"]) == 2 for t in terms)
    assert {t["coeff"] for t in terms} <= {"1/18", "1/9"}


def test_characteristic_of_an_indefinite_form(capsys):
    # the odd form of sphere_hyperbolic is off-diagonal, hence indefinite
    code, rep, _ = structured(capsys, "characteristic", "--algebra",
                              os.path.join(DATA, "sphere_hyperbolic.json"),
                              "--order", "2")
    assert code == 0
    assert [t["degree"] for t in rep["rows"]] == [0, 1, 2]


def test_characteristic_refuses_an_exterior_degree_above_the_order(
        capsys, tmp_path):
    # the class holds no term above --order, so --exterior above it is
    # refused before the algebra file is read (this one does not exist)
    missing = str(tmp_path / "missing.json")
    code, _, err = run(capsys, "characteristic", "--algebra", missing,
                       "--order", "2", "--exterior", "3")
    assert code == 2
    assert err == ("error: --exterior 3 is above --order 2: the class is "
                   "computed up to exterior degree 2 only\n")
    code, rep, _ = structured(capsys, "characteristic", "--algebra",
                              ALGEBRA, "--order", "2", "--exterior", "2")
    assert code == 0
    assert {t["degree"] for t in rep["rows"]} == {2}


def test_correlate_legless_theta(capsys, tmp_path):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps({"vertices": [[0, 1, 2], [3, 4, 5]],
                                "edges": [[0, 3], [1, 4], [2, 5]]}))
    code, rep, _ = structured(capsys, "correlate", str(path),
                              "--algebra", ALGEBRA)
    assert code == 0
    entries = [r for r in rep["rows"] if r["kind"] == "entry"]
    assert [(e["word"], e["coeff"]) for e in entries] == [([], "-2/1")]


def test_verify_suite_passes_and_is_deterministic(capsys):
    a = structured(capsys, "verify", "roundtrip", "--seed", "3",
                   "--edges", "3")
    b = structured(capsys, "verify", "roundtrip", "--seed", "3",
                   "--edges", "3")
    assert a[0] == 0 and a[1] == b[1]
    blob = json.dumps(a[1])
    assert "time" not in blob and "sec" not in blob


def test_verify_failure_exit_code(capsys, monkeypatch):
    # a suite returns only what it found; the runner writes its fail rows
    # in the order found, then its suite row with the resolved options
    def broken(args, rng, algebra):
        return {}, 2, [{"detail": "b"}, {"detail": "a"}]

    monkeypatch.setitem(cli._SUITE_FNS, "d2", broken)
    code, rep, _ = structured(capsys, "verify", "d2")
    assert code == 1
    assert rep["rows"] == [
        {"kind": "fail", "suite": "d2", "detail": "b"},
        {"kind": "fail", "suite": "d2", "detail": "a"},
        {"kind": "suite", "name": "d2", "edges": 6, "checks": 2,
         "failures": 2, "status": "fail"}]
    assert rep["result"]["status"] == "fail"


def test_verify_refuses_every_input_before_any_suite_runs(
        capsys, monkeypatch, tmp_path):
    # the algebra and the signature that invariance twists are checked
    # once, before the first suite: a missing file and a 0|1 algebra used
    # to be refused only after about 13 s of suites
    def ran(args, rng, algebra):
        raise AssertionError("a suite ran")

    for name in cli.SUITES:
        monkeypatch.setitem(cli._SUITE_FNS, name, ran)
    invalid = jsonio.algebra_to_json(twisted_11())
    invalid["truncation"] = 9
    h3 = {"k": 3, "tensor": {"signature": {"n": 0, "m": 1}, "rank": 3,
                             "terms": [{"word": [0, 0, 0], "coeff": "1"}]}}
    odd = {"signature": {"n": 0, "m": 1}, "omega": [["1"]], "h": [h3],
           "truncation": 5}
    for name, doc, words in (("missing", None, "missing.json"),
                             ("invalid", invalid, "invalid algebra"),
                             ("odd", odd, "signature 0|1 has none")):
        path = tmp_path / f"{name}.json"
        if doc is not None:
            path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "all", "--algebra", str(path))
        assert (code, out) == (2, "") and err.startswith("error: ") and \
            words in err, (name, err)


def test_verify_all_reads_the_algebra_once(capsys, monkeypatch):
    # exp, equivalence, invariance and tcft take the algebra that verify
    # read; each used to read and validate the file itself
    reads = []
    read_algebra = jsonio.read_algebra

    def spied(name):
        reads.append(name)
        return read_algebra(name)

    monkeypatch.setattr(jsonio, "read_algebra", spied)
    code, _, _ = run(capsys, "verify", "all", "--edges", "3", "--algebra",
                     ALGEBRA)
    assert code == 0 and reads == [ALGEBRA]


def test_invariance_writes_a_row_for_each_twist_that_fails_validate(
        capsys, monkeypatch):
    # a twist that is not an A-infinity algebra is a failed check, not a
    # refusal: with an even h4 monomial added to every twist, the ten fail
    # rows are written and the exit code is 1 (it used to be 2, with the
    # rows thrown away)
    from ribbonhom.ainfinity import AInfinityAlgebra
    from ribbonhom.superspace import SuperTensor
    twist = cli.twist

    def broken(algebra, gamma):
        twisted = twist(algebra, gamma)
        even = SuperTensor(twisted.dim, 4, {(0, 0, 1, 1): Fraction(1)})
        hs = {**twisted.hamiltonians, 4: twisted.hamiltonian(4) + even}
        return AInfinityAlgebra(twisted.form, hs, twisted.truncation)

    monkeypatch.setattr(cli, "twist", broken)
    code, rep, _ = structured(capsys, "verify", "invariance")
    fails = [r for r in rep["rows"] if r["kind"] == "fail"]
    assert code == 1
    assert [r["twist"] for r in fails] == list(range(1, 11))
    # the detail joins the (check, detail) failures as the tcft rows do
    assert all(r["detail"].startswith("h4-odd: even monomial ")
               for r in fails)
    assert rep["rows"][-1] == {"kind": "suite", "name": "invariance",
                               "edges": 4, "twists": 10, "checks": 0,
                               "failures": 10, "status": "fail"}


def test_triangle_runs_the_state_sums_of_pairable_terms(capsys, monkeypatch):
    # integral_I skips the chain terms that the canonical pairing cannot
    # pair off; each of their chord diagrams reads 0, and running them all
    # took 18,877 state sums at --seed 0
    from ribbonhom import feynman
    contract = feynman.contract
    calls = []

    def counted(*args):
        calls.append(1)
        return contract(*args)

    monkeypatch.setattr(feynman, "contract", counted)
    code, _, _ = run(capsys, "verify", "triangle", "--seed", "0")
    assert code == 0
    assert 1000 < len(calls) <= 5000


def test_a_long_truncation_is_refused_at_its_first_failure(capsys, tmp_path):
    # at truncation 1000 validate checks every order of {h,h}; twisted_11
    # first fails at order 10
    from ribbonhom import jsonio
    from ribbonhom.fixtures import twisted_11
    doc = jsonio.algebra_to_json(twisted_11())
    doc["truncation"] = 1000
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "partition", "--algebra", str(path))
    assert (code, out) == (2, "")
    assert err == ("error: invalid algebra: structure-equation: {h,h} has "
                   "monomial p1.p1.p1.x1.q1.q1.x1.q1.x1.x1 with coefficient "
                   "1\n")


def test_input_errors_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "correlate", "{not json", "--algebra", ALGEBRA)
    assert code == 2 and err.startswith("error:")
    missing = str(tmp_path / "nope.json")
    code, _, err = run(capsys, "partition", "--algebra", missing)
    assert code == 2 and "error:" in err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "signature": {"n": 0, "m": 2},
        "omega": [["1", "0"], ["0", "1"]],
        "h": [{"k": 3, "tensor": {
            "signature": {"n": 0, "m": 2}, "rank": 3,
            "terms": [{"word": [0, 0, 1], "coeff": "1"},
                      {"word": [0, 1, 0], "coeff": "1"},
                      {"word": [1, 0, 0], "coeff": "1"}]}}],
        "truncation": 5}))
    # every verb that reads an algebra file validates it
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps({"vertices": [[0, 1, 2], [3, 4, 5]],
                                 "edges": [[0, 3], [1, 4], [2, 5]]}))
    for argv in (("partition",), ("characteristic",),
                 ("correlate", str(theta)), ("verify", "equivalence"),
                 ("verify", "exp"), ("verify", "invariance"),
                 ("verify", "tcft")):
        code, _, err = run(capsys, *argv, "--algebra", str(bad))
        assert code == 2 and "invalid algebra: structure-equation" in err, \
            argv
    # scalars are read exactly or not at all
    with open(ALGEBRA) as fh:
        good = json.load(fh)
    for value in (1.5, None, True, [1], "1/2*sqrt(2)"):
        for where in ("coeff", "omega"):
            doc = json.loads(json.dumps(good))
            if where == "coeff":
                doc["h"][0]["tensor"]["terms"][0]["coeff"] = value
            else:
                doc["omega"][0][0] = value
            bad.write_text(json.dumps(doc))
            code, _, err = run(capsys, "partition", "--algebra", str(bad))
            assert code == 2 and err.startswith("error: scalar ") and \
                json.dumps(value) in err, (value, where)
    graphs = {
        "bivalent": ({"vertices": [[0, 1]], "edges": [[0, 1]]},
                     "valencies"),
        "reused": ({"vertices": [[0, 1, 2, 3]], "edges": [[0, 1], [1, 2]]},
                   "partition"),
        "uncovered": ({"vertices": [[0, 1, 2, 3, 4]],
                       "edges": [[0, 1], [2, 3]]}, "partition"),
        "unknown": ({"vertices": [[0, 1, 2], [3, 4, 5]],
                     "edges": [[0, 3], [1, 4], [2, 9]]}, "half-edge id 9"),
        "edge_not_pair": ({"vertices": [[0, 1, 2], [3, 4, 5]],
                           "edges": [0, 3]}, "edge 0 is not a pair"),
        "legs_number": ({"vertices": [[0, 1, 2], [3, 4, 5]],
                         "edges": [[0, 3], [1, 4], [2, 5]], "legs_in": 3},
                        "legs_in must be a JSON list"),
        "unhashable_edge": ({"vertices": [[0, 1, 2], [3, 4, 5]],
                             "edges": [[[2], 5], [0, 3], [1, 4]]},
                            "half-edge id [2] is not"),
        "unhashable_vertex": ({"vertices": [[[2], 1, 0], [3, 4, 5]],
                               "edges": [[0, 3], [1, 4], [2, 5]]},
                              "half-edge id [2] is not"),
        "list": ([], "JSON object"),
        "number": (3, "JSON object"),
        "no_edges": ({"vertices": [[0, 1, 2], [3, 4, 5]]},
                     'graph has no "edges" field'),
        "no_vertices": ({"edges": [[0, 3], [1, 4], [2, 5]]},
                        'graph has no "vertices" field'),
    }
    theta_doc = {"vertices": [[0, 1, 2], [3, 4, 5]],
                 "edges": [[0, 3], [1, 4], [2, 5]]}
    for value in (None, [6], 6.9):
        graphs[f"half_edges_{value}"] = (
            dict(theta_doc, half_edges=value),
            f"half_edges {json.dumps(value)} is not an integer")
    for name, (doc, words) in graphs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "correlate", str(path),
                           "--algebra", ALGEBRA)
        assert code == 2 and err.startswith("error:") and words in err, name
    for doc in ([], 3):
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "partition", "--algebra", str(path))
        assert code == 2 and err.startswith("error:") and "JSON object" in err
    # a legged graph above the 16-slot cap is refused, legs included
    big = tmp_path / "big.json"
    big.write_text(json.dumps({
        "vertices": [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11, 12],
                     [13, 14, 15, 16]],
        "edges": [[1 + 2 * i, 2 + 2 * i] for i in range(8)],
        "legs_in": [0]}))
    code, _, err = run(capsys, "correlate", str(big), "--algebra", ALGEBRA)
    assert code == 2 and err.startswith("error:") and "16" in err
    # algebra fields of the wrong JSON type

    def omega_row(doc):
        doc["omega"][0] = None

    def h_item_list(doc):
        doc["h"][0] = [3, doc["h"][0]["tensor"]]

    def terms(doc):
        doc["h"][0]["tensor"]["terms"] = None

    def word(doc):
        doc["h"][0]["tensor"]["terms"][0]["word"] = None

    def word_strings(doc):
        doc["h"][0]["tensor"]["terms"][0]["word"] = ["a", "b", "c"]

    def k_float(doc):
        doc["h"][0]["k"] = 3.5

    edits = {
        "omega": (lambda doc: doc.update(omega=None), "matrix"),
        "omega_row": (omega_row, "a matrix row"),
        "h": (lambda doc: doc.update(h=None), "h must be"),
        "h_item_list": (h_item_list, "an h item"),
        "terms": (terms, "terms must be"),
        "word": (word, "word must be"),
        "word_strings": (word_strings, "letter \"a\""),
        "signature": (lambda doc: doc.update(signature=None), "signature"),
        "truncation": (lambda doc: doc.update(truncation=None),
                       "truncation null"),
        "k_float": (k_float, "k 3.5"),
        "truncation_float": (lambda doc: doc.update(truncation=5.5),
                             "truncation 5.5"),
        "truncation_bool": (lambda doc: doc.update(truncation=True),
                            "truncation true"),
        "no_truncation": (lambda doc: doc.pop("truncation"),
                          'algebra has no "truncation" field'),
        "no_omega": (lambda doc: doc.pop("omega"),
                     'algebra has no "omega" field'),
        "no_k": (lambda doc: doc["h"][0].pop("k"),
                 'an h item has no "k" field'),
        "no_m": (lambda doc: doc["signature"].pop("m"),
                 'signature has no "m" field'),
        "no_terms": (lambda doc: doc["h"][0]["tensor"].pop("terms"),
                     'tensor has no "terms" field'),
        "no_coeff": (lambda doc: doc["h"][0]["tensor"]["terms"][0].pop(
            "coeff"), 'a tensor term has no "coeff" field'),
    }
    path = tmp_path / "algebra.json"
    for name, (edit, words) in edits.items():
        doc = json.loads(json.dumps(good))
        edit(doc)
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "characteristic", "--algebra", str(path))
        assert code == 2 and err.startswith("error:") and words in err, \
            (name, err)
    # each condition of a file is checked once: the form by SymplecticForm,
    # a tensor's signature and rank by AInfinityAlgebra, and an order that
    # "h" lists twice or a word that "terms" lists twice by the reader (it
    # used to keep the last item)
    twisted = jsonio.algebra_to_json(twisted_11())

    def p_x_entry(doc):
        doc["omega"][0][2] = "1"

    def repeated_k(doc):
        doc["h"].append(json.loads(json.dumps(doc["h"][0])))

    def repeated_k_empty(doc):
        doc["h"].append({"k": 3, "tensor": dict(doc["h"][0]["tensor"],
                                                terms=[])})

    def other_signature(doc):
        doc["h"][0]["tensor"]["signature"] = {"n": 0, "m": 3}

    def repeated_word(doc):
        terms = doc["h"][0]["tensor"]["terms"]
        terms.append(dict(terms[0], coeff="5/1"))

    file_checks = {
        "zero_omega": (lambda doc: doc.update(omega=[["0"] * 3] * 3),
                       "form is degenerate"),
        "symmetric_omega": (lambda doc: doc.update(omega=[
            ["0", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]]),
            "not super-skew-symmetric"),
        "p_x_entry": (p_x_entry, "not even"),
        "two_row_omega": (lambda doc: doc["omega"].pop(), "wrong shape"),
        "repeated_k": (repeated_k, "h lists k=3 twice"),
        "repeated_k_empty": (repeated_k_empty, "h lists k=3 twice"),
        "wrong_rank": (lambda doc: doc["h"][0].update(k=4),
                       "tensor of rank 3 filed under k=4"),
        "other_signature": (other_signature,
                            "Hamiltonian signature differs from the algebra"),
        "repeated_word": (repeated_word, "tensor lists the word"),
    }
    for name, (edit, words) in file_checks.items():
        doc = json.loads(json.dumps(twisted))
        edit(doc)
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "characteristic", "--algebra", str(path))
        assert code == 2 and err.startswith("error:") and words in err, \
            (name, err)
    # verify windows past the 16-slot cap, counting the edges the suite's
    # moves add and tcft's three legs, and cyclic words shorter than three
    # letters, are refused before any work (the cap cases ran 50 s to over
    # 300 s before)
    for argv, words in ((("delta2", "--edges", "7"), "18 half-edge slots"),
                        (("d2", "--edges", "9"), "18 half-edge slots"),
                        (("tcft", "--edges", "7"), "17 half-edge slots"),
                        (("kontsevich", "--edges", "9"), "20 half-edge slots"),
                        (("adjointness", "--edges", "9"),
                         "18 half-edge slots"),
                        # the window names the option that sets the reach
                        (("triangle", "--order", "18"),
                         "verify triangle --edges 4 --order 18 reaches "
                         "diagrams of 18 half-edge slots"),
                        (("kontsevich", "--order", "2"), "3 letters"),
                        (("triangle", "--order", "2"), "3 letters"),
                        # options the named suite never reads
                        (("d2", "--edges", "3", "--algebra",
                          "/nonexistent.json"),
                         "verify d2 does not read --algebra"),
                        (("d2", "--edges", "3", "--order", "1"),
                         "verify d2 does not read --order"),
                        (("d2", "--edges", "3", "--vertices", "3"),
                         "verify d2 does not read --vertices"),
                        (("kontsevich", "--vertices", "2"),
                         "verify kontsevich does not read --vertices"),
                        (("roundtrip", "--algebra", ALGEBRA),
                         "verify roundtrip does not read --algebra"),
                        (("tcft", "--order", "4"),
                         "verify tcft does not read --order")):
        start = time.perf_counter()
        code, _, err = run(capsys, "verify", *argv)
        assert time.perf_counter() - start < 5, argv
        assert code == 2 and err.startswith("error:") and words in err, \
            (argv, err)
    # a suite that makes no check in its window is refused, not passed,
    # and refused from the window alone: no suite runs
    def ran(*args, **kwargs):
        raise AssertionError("a suite ran")

    with pytest.MonkeyPatch.context() as patch:
        for name in ("partition_function", "integral_I", "ce_differential",
                     "boundary", "coboundary"):
            patch.setattr(cli, name, ran)
        for argv, window in ((("d2", "--edges", "0"), "edges=0"),
                             (("delta2", "--edges", "0"), "edges=0"),
                             (("adjointness", "--edges", "1"), "edges=1"),
                             (("adjointness", "--edges", "2"), "edges=2"),
                             (("roundtrip", "--edges", "0"), "edges=0"),
                             (("roundtrip", "--edges", "1"), "edges=1"),
                             (("invariance", "--edges", "0"), "edges=0"),
                             # one-vertex cells, where the partition
                             # function is 0, and the empty graph alone
                             (("invariance", "--edges", "1"), "edges=1"),
                             (("invariance", "--edges", "2"), "edges=2"),
                             (("exp", "--edges", "2"), "edges=2"),
                             (("exp", "--vertices", "1"), "vertices=1"),
                             (("kontsevich", "--edges", "0"), "edges=0"),
                             (("kontsevich", "--edges", "1"), "edges=1"),
                             (("triangle", "--edges", "0"), "edges=0"),
                             (("equivalence", "--order", "0"), "order=0"),
                             (("all", "--edges", "2"), "edges=2"),
                             # all reads every option some suite reads
                             (("all", "--edges", "2", "--vertices", "2",
                               "--order", "4", "--algebra", ALGEBRA),
                              "edges=2")):
            code, out, err = run(capsys, "verify", *argv)
            suite = "adjointness" if argv[0] == "all" else argv[0]
            assert code == 2 and not out and err.startswith(
                f"error: verify {suite} made no check") and window in err, \
                (argv, err)
    # reversed ranges, negative counts and a range where verify takes one
    # count are refused by the parser
    for argv, words in (
            (("homology", "--vertices", "4:1"), "'4:1': 4 is above 1"),
            (("enumerate", "--vertices", "1", "--edges", "3:2"),
             "'3:2': 3 is above 2"),
            (("characteristic", "--algebra", ALGEBRA, "--order", "-2"),
             "--order: -2 is below 0"),
            (("characteristic", "--algebra", ALGEBRA, "--exterior", "-1"),
             "--exterior: -1 is below 0"),
            (("verify", "equivalence", "--order", "-1"),
             "--order: -1 is below 0"),
            (("verify", "d2", "--edges", "2:3"),
             "--edges: invalid count value: '2:3'"),
            (("verify", "exp", "--vertices", "1:2"),
             "--vertices: invalid count value: '1:2'")):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        err = capsys.readouterr().err
        assert exc.value.code == 2 and "error:" in err and words in err, \
            (argv, err)


def test_windows_past_the_cap_are_refused_before_any_work(capsys):
    # each verb refuses a window whose diagrams pass the 16-slot cap before
    # its first row; homology --edges 1:8 used to rank every smaller cell
    # before it needed (2, 9)
    for argv in (("enumerate", "--vertices", "1:5", "--edges", "1:9"),
                 ("homology", "--edges", "1:8"),
                 ("partition", "--algebra", ALGEBRA, "--vertices", "2:4",
                  "--edges", "1:9")):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2 and not out and "18 half-edge slots" in err, \
            (argv, err)
        assert peak < 1 << 20, argv
    # the boundary leaves a cell only where it carries graphs (3v <= 2e):
    # the cells of (6:7, 8) are all empty, so nothing reaches (7:8, 9)
    code, out, _ = run(capsys, "homology", "--vertices", "6:7", "--edges", "8")
    assert code == 0 and out.endswith("result status=ok cells=2\n")


# lowers the cap to each suite's declared slots, in rising order, and runs
# the suite under it
REACH_PROBE = """
import io, json
from contextlib import redirect_stdout
from ribbonhom import cli, graphs
runs = []
for name in cli.SUITES:
    argv = ["verify", name, "--edges", "2" if name == "tcft" else "3"]
    args = cli._resolve(cli.build_parser().parse_args(argv), name)
    runs.append((cli.SUITE_TABLE[name].slots(args), argv))
codes = {}
for slots, argv in sorted(runs):
    graphs.MAX_HALF_EDGES = slots
    with redirect_stdout(io.StringIO()):
        codes[argv[1]] = cli.main(argv)
print(json.dumps(codes))
"""


def test_each_suite_builds_within_its_declared_slots():
    # the pre-flight refuses a window by the slots a suite's entry
    # declares; a suite that built more would be refused from inside, after
    # earlier suites' rows were written.  One fresh process, so no cache
    # from another test hides a search, and the cap only rises.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", REACH_PROBE], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == dict.fromkeys(cli.SUITES, 0), \
        done.stderr


def test_structured_output_is_the_indented_report(capsys, tmp_path):
    # the writer streams rows, but the document is the one json.dumps
    # gives for the whole report; an empty row list included
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps({"vertices": [[0, 1, 2], [3, 4, 5]],
                                 "edges": [[0, 3], [1, 4], [2, 5]]}))
    for argv in (("enumerate", "--vertices", "1:2", "--edges", "1:3"),
                 ("homology", "--vertices", "1:2", "--edges", "1:3"),
                 ("homology", "--vertices", "0", "--edges", "1"),
                 ("partition", "--algebra", ALGEBRA, "--vertices", "1:2",
                  "--edges", "1:3"),
                 ("characteristic", "--algebra", ALGEBRA, "--order", "2"),
                 ("correlate", str(theta), "--algebra", ALGEBRA),
                 ("verify", "roundtrip", "--edges", "3")):
        code, out, _ = run(capsys, *argv, "--format", "structured")
        assert code == 0, argv
        assert out == json.dumps(json.loads(out), indent=1) + "\n", argv


def test_writer_holds_no_whole_report(monkeypatch):
    # with the classes enumerated beforehand, writing the report takes a
    # small part of its size: no row list, no document string
    class Sink:
        size = 0

        def write(self, text):
            self.size += len(text)
            return len(text)

    for v in range(1, 4):
        for e in range(1, 7):
            cli.enumerate_graphs(v, e)
    sink = Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = cli.main(["enumerate", "--vertices", "1:3", "--edges", "1:6",
                         "--format", "structured"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.size > 1_000_000
    assert peak < sink.size / 4, (peak, sink.size)


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "no-such-suite"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["enumerate", "--vertices", "banana", "--edges", "1"])
    assert exc.value.code == 2
    # verify runs in one process and has no --workers option
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "d2", "--workers", "2"])
    assert exc.value.code == 2


def test_tcft_reads_the_algebra_once_and_shares_correlators(
        capsys, monkeypatch, tmp_path):
    path = tmp_path / "twisted_11.json"
    path.write_text(json.dumps(jsonio.algebra_to_json(twisted_11())))
    reads = []
    read_algebra = jsonio.read_algebra

    def spied(name):
        reads.append(name)
        return read_algebra(name)

    monkeypatch.setattr(jsonio, "read_algebra", spied)
    code, _, _ = run(capsys, "verify", "tcft", "--algebra", str(path),
                     "--edges", "1")
    assert code == 0 and reads == [str(path)]
    # one correlator per canonical graph across the suite's 270 blocks
    calls = []
    correlation = tcft.correlation

    def counted(algebra, graph):
        calls.append(graph)
        return correlation(algebra, graph)

    monkeypatch.setattr(tcft, "correlation", counted)
    code, _, _ = run(capsys, "verify", "tcft")
    assert code == 0 and len(calls) <= 697


def test_exp_computes_one_partition_function(capsys, monkeypatch):
    # the connected part is read from the partition function the suite
    # already holds, and no state sum runs on a ZERO class: 1,285 state
    # sums at default bounds, where computing the partition function twice
    # made 2,792 and running the 111 ZERO classes too 1,396
    from ribbonhom import ainfinity
    calls = []
    graph_value = ainfinity._graph_value

    def counted(*args):
        calls.append(1)
        return graph_value(*args)

    monkeypatch.setattr(ainfinity, "_graph_value", counted)
    code, _, _ = run(capsys, "verify", "exp")
    assert code == 0 and len(calls) == 1285


def test_invariance_refuses_a_signature_without_twists(capsys, tmp_path):
    # the suite twists by even cyclic words of 4 letters, which need n >= 1
    # or m >= 2: on 0|1 the one candidate, x1^4, cancels itself and the
    # draw never ended, and on 0|0 there is no letter to draw
    h3 = {"k": 3, "tensor": {"signature": {"n": 0, "m": 1}, "rank": 3,
                             "terms": [{"word": [0, 0, 0], "coeff": "1"}]}}
    for n, m, omega, h in ((0, 1, [["1"]], [h3]), (0, 0, [], [])):
        path = tmp_path / f"algebra_{n}{m}.json"
        path.write_text(json.dumps({"signature": {"n": n, "m": m},
                                    "omega": omega, "h": h,
                                    "truncation": 5}))
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "invariance", "--algebra",
                             str(path))
        assert time.perf_counter() - start < 10
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and \
            f"signature {n}|{m} has none" in err, err


def test_import_loads_neither_numpy_nor_multiprocessing():
    # every verb runs in its own process, so the import is paid each time
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = ("import sys, ribbonhom.cli; print(sorted(m for m in ("
             "'numpy', 'multiprocessing', 'concurrent.futures.process') "
             "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_scalars_never_serialized_as_floats(capsys):
    code, rep, _ = structured(capsys, "partition", "--algebra", ALGEBRA,
                              "--vertices", "1:2", "--edges", "1:3")
    assert code == 0

    def walk(node):
        assert not isinstance(node, float), node
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(rep)
