"""Command-line surface: reports, JSON schema, exit codes."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from genusforge import arith, cli, expmaps, groups, lie, tensors
from genusforge.cli import RunReport, build_parser, main
from genusforge.groups import descending_central_series, universal_order_exponent
from genusforge.lie import governing_algebra_general, lie_epimorphism
from genusforge.tensors import BlockShape, cons_dim_formula_general

AXIOMS = ("axiom1", "axiom2", "axiom3", "axiom4", "tilde_condition")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, "--json", *argv)
    return code, json.loads(out)


def test_report_round_trip(capsys):
    code, out = run(capsys, "--json", "dims", "--n", "2")
    rep = RunReport.from_json(out)
    assert rep == RunReport.from_json(rep.to_json())
    assert rep != RunReport(**{**vars(rep), "passed": False})
    assert rep.schema == "genusforge-report/1"
    assert rep.passed and code == 0
    # the document is one line, and reads back as the report it came from
    for argv in (("dims", "--n", "2"), ("reconstruct", "--shape", "2,1", "--j", "2"),
                 ("universal", "--n", "0")):
        code, out = run(capsys, "--json", *argv)
        assert out.count("\n") == 1 and out.endswith("\n"), argv
        rep = RunReport.from_json(out)
        assert rep.to_json() == out.rstrip("\n")
        assert RunReport.from_json(rep.to_json()) == rep


def test_dims_plain(capsys):
    code, rep = run_json(capsys, "dims", "--n", "4")
    assert code == 0
    rows = rep["results"]["rows"]
    assert [r["dim_cons"] for r in rows] == [4, 6, 8, 3]
    assert all(r["equal"] for r in rows)
    code, rep = run_json(capsys, "dims", "--n", "1")
    assert code == 0 and rep["results"]["rows"] == [
        {"i": 1, "dim_gov": 1, "dim_cons": 1, "formula": 1, "equal": True}]


def test_dims_plain_is_the_all_ones_shape(capsys):
    # --n k runs the shape route on (1,)*k; the rows must match --shape 1,...,1
    for k in range(1, 8):
        code_n, by_n = run_json(capsys, "dims", "--n", str(k))
        code_s, by_shape = run_json(capsys, "dims", "--shape", ",".join(["1"] * k))
        assert code_n == code_s == 0, k
        assert by_n["results"]["rows"] == by_shape["results"]["rows"], k
        assert len(by_n["results"]["rows"]) == k


def _passes_against_the_formula(rep, shape: BlockShape, span) -> bool:
    rows = rep["results"]["rows"]
    return rep["passed"] and [r["i"] for r in rows] == list(span) and all(
        r["equal"] and r["dim_gov"] == r["dim_cons"] == r["formula"]
        == cons_dim_formula_general(shape, r["i"]) for r in rows)


def test_dims_shape_and_caps(capsys):
    code, rep = run_json(capsys, "dims", "--shape", "2,1", "--i", "2")
    assert code == 0
    assert rep["results"]["rows"] == [
        {"i": 2, "dim_gov": 2, "dim_cons": 2, "formula": 2, "equal": True}]
    # N = 9 was refused by the old size cap; the pair route solves it
    code, rep = run_json(capsys, "dims", "--n", "9")
    assert code == 0 and _passes_against_the_formula(rep, BlockShape((1,) * 9),
                                                      range(1, 10))
    # at n = 1000 the block-set walk enters no branch it cannot fill
    for argv, limit in ((("--n", "40"), "cell limit"), (("--n", "1000"), "cell limit"),
                        (("--shape", ",".join(map(str, range(1, 12)))), "piece limit"),
                        (("--n", "100000"), "piece limit")):
        code, out = run(capsys, "--json", "dims", *argv)
        rep = json.loads(out)
        assert code == 1 and rep["passed"] is False, argv
        assert limit in rep["results"]["error"] and "Traceback" not in out, argv
    code, rep = run_json(capsys, "dims")
    assert code == 1 and "error" in rep["results"]
    code, rep = run_json(capsys, "verify", "tensors", "--max-n", "40")
    assert code == 1 and "cell limit" in rep["results"]["error"]


@pytest.mark.parametrize("argv", [("--n", "20"), ("--shape", "3,3,2,2,2,1,1"),
                                  ("--n", "10", "--i", "10")])
def test_dims_past_n8_passes_against_the_formula(capsys, argv):
    code, rep = run_json(capsys, "dims", *argv)
    shape = cli._shape_arg(build_parser().parse_args(["dims", *argv]))
    span = [10] if "--i" in argv else range(1, shape.n + 1)
    assert code == 0 and _passes_against_the_formula(rep, shape, span)


@pytest.mark.parametrize("rows, argv, arities", [
    ("_triangles", ("--n", "5"), (3, 4, 5)),
    ("_triangles", ("--shape", "2,2,1"), (3,)),
    ("_four_cycles", ("--shape", "3,2", "--i", "2"), (2,)),
])
def test_dims_fails_without_a_row_family(capsys, monkeypatch, rows, argv, arities):
    # with one family of the pair route's rows gone, dim cons rises above
    # the formula at exactly the arities that family serves
    monkeypatch.setattr(tensors, rows, lambda blocks, col: [])
    code, rep = run_json(capsys, "dims", *argv)
    assert code == 1 and rep["passed"] is False
    over = [r["i"] for r in rep["results"]["rows"] if r["dim_cons"] > r["formula"]]
    assert tuple(over) == arities
    if argv[1] == "2,2,1":
        # no row is left on the 8 pairs; the formula gives 4
        assert rep["results"]["rows"][2]["dim_cons"] == 8


@pytest.mark.parametrize("kept", [None, -1])
def test_dims_fails_on_a_star_with_one_pair_flipped(capsys, monkeypatch, kept):
    # dropping the last star as well keeps rank(stars) at dim cons on
    # three blocks, so there only the even-meeting check can fail
    stars = tensors._stars
    monkeypatch.setattr(tensors, "_stars", lambda blocks, col: (
        [stars(blocks, col)[0] ^ 1] + stars(blocks, col)[1:])[:kept])
    code, rep = run_json(capsys, "dims", "--shape", "2,2,1")
    assert code == 1 and rep["passed"] is False
    rows = rep["results"]["rows"]
    assert [r["equal"] for r in rows] == [True, False, False]
    if kept:
        assert rows[2]["dim_gov"] == rows[2]["dim_cons"] == rows[2]["formula"]


def test_empty_shape_is_a_shape_not_an_absence(capsys):
    code, rep = run_json(capsys, "dims", "--shape", "", "--n", "2")
    assert code == 1 and rep["passed"] is False
    assert rep["results"]["error"] == "give either --n or --shape, not both"
    code, rep = run_json(capsys, "dims", "--shape", "")
    assert code == 1 and rep["passed"] is False
    assert rep["results"]["error"] == (
        "--shape takes block sizes separated by commas, got ''")


@pytest.mark.parametrize("argv", [
    ("dims", "--n", "3", "--i", "0"), ("dims", "--n", "0"),
    ("universal", "--n", "0"),
])
def test_non_positive_values_are_refused(capsys, argv):
    code, rep = run_json(capsys, *argv)
    assert code == 1 and rep["passed"] is False
    assert "positive" in rep["results"]["error"], argv
    assert rep["parameters"]["n"] == int(argv[2])
    if "--i" in argv:
        assert rep["parameters"]["i"] == 0


@pytest.mark.parametrize("command", ["dims", "universal"])
def test_n_and_shape_together_are_refused(capsys, command):
    code, rep = run_json(capsys, command, "--n", "3", "--shape", "2,1")
    assert code == 1 and rep["passed"] is False
    error = rep["results"]["error"]
    assert "--n" in error and "--shape" in error


def test_universal_formula_and_enumeration(capsys):
    code, rep = run_json(capsys, "universal", "--n", "3", "--enumerate")
    assert code == 0
    assert rep["results"]["order"] == 256
    assert all(rep["results"]["axioms"].values())
    code, rep = run_json(capsys, "universal", "--shape", "2,2")
    assert code == 0
    assert rep["results"] == {"exponent": 7, "predicted_order": 128,
                              "generator_axioms": dict.fromkeys(AXIOMS, True),
                              "grade_dims": [4, 3]}
    code, rep = run_json(capsys, "universal", "--n", "1")
    assert rep["results"]["predicted_order"] == 2


def test_verify_suites(capsys):
    for suite in ("tensors", "groups", "lie", "expmaps"):
        code, rep = run_json(capsys, "verify", suite, "--max-n", "4")
        assert code == 0, suite
        checks = rep["results"]["checks"]
        assert checks and all(c["passed"] for c in checks)
    with pytest.raises(SystemExit):
        main(["verify", "nonsense"])


def test_reconstruct_command(capsys):
    code, rep = run_json(capsys, "reconstruct", "--shape", "1,1", "--j", "2")
    assert code == 0 and rep["results"]["equal"]
    layer = rep["results"]["layer_report"]
    assert sorted(layer) == ["basis_coords", "dim", "j",
                             "obstruction_count", "shape"]
    assert layer["dim"] == 4 and layer["obstruction_count"] == 0
    assert all(len(row) == 4 for row in layer["basis_coords"])
    # far past the class the filtration has stabilized on the full space
    code, rep = run_json(capsys, "reconstruct", "--shape", "1,1", "--j", "9")
    assert code == 0 and rep["results"]["layer_report"]["dim"] == 4
    code, rep = run_json(capsys, "reconstruct", "--shape", "1,1", "--j", "1")
    assert code == 1 and "error" in rep["results"]


@pytest.mark.parametrize("argv, error", [
    (("verify", "all", "--max-n", "0"), "--max-n must be at least 1, got 0"),
    (("verify", "tensors", "--max-n", "-3"), "--max-n must be at least 1, got -3"),
    (("reconstruct", "--shape", "3", "--j", "2"),
     "reconstruction needs at least 2 blocks, one corner per dropped block; "
     "--shape 3 has 1"),
    (("reconstruct", "--shape", "2,1", "--j", "-1"),
     "reconstruction starts at layer 2, got --j -1"),
    (("reconstruct", "--shape", "2,1", "--j", "1"),
     "reconstruction starts at layer 2, got --j 1"),
], ids=["verify-max-n-0", "verify-max-n-negative", "reconstruct-one-block",
        "reconstruct-j-negative", "reconstruct-j-1"])
def test_requests_outside_the_rules_are_refused_by_name(capsys, monkeypatch, argv, error):
    # verify below --max-n 1 would skip every (1,)*n tensor row and every
    # expmaps shape and still pass; reconstruct refuses before any corner
    monkeypatch.setattr(expmaps, "phi_layer", _no_layer)
    code, rep = run_json(capsys, *argv)
    assert code == 1 and rep["passed"] is False
    assert rep["results"] == {"error": error}


def _no_layer(shape, j):
    raise AssertionError(f"built layer {j} of {shape.k}")


def test_reconstruct_past_table_ceiling(capsys, monkeypatch):
    # order 2^21: every commuting vector realizes in label space, so no
    # value table is built and the 2^13 table ceiling never trips
    monkeypatch.setattr(expmaps, "_CONTEXTS", {})
    code, rep = run_json(capsys, "reconstruct", "--shape", "1,1,1,1", "--j", "2")
    assert code == 0 and rep["passed"] is True
    res = rep["results"]
    assert res["equal"] is True and res["commvect_dim"] == 17
    assert res["layer_report"]["obstruction_count"] == 0
    assert res["layer_report"]["dim"] == res["direct_dim"] == 21


def _no_enumeration(self, gens):
    raise AssertionError(f"enumerated {self.shape.k}")


@pytest.mark.parametrize("k", [(1, 1), (2, 2, 1), (1, 1, 1, 1)])
def test_universal_enumerate_reports_the_coset_search(capsys, k):
    code, rep = run_json(capsys, "universal", "--shape", ",".join(map(str, k)),
                         "--enumerate")
    res = rep["results"]
    assert code == 0 and rep["passed"] is True
    # G/[G,G] is F2^N on the generators, so the search meets 2^N cosets,
    # each generator doubling them in one block, and [G,G] fills out the
    # order
    N = sum(k)
    assert res["cosets"] == 1 << N and res["coset_steps"] == N
    assert res["cosets"] << res["span_dim"] == res["order"] == res["predicted_order"]


@contextlib.contextmanager
def _address_space(extra_mb: int):
    """Cap this process's address space at its present size plus extra_mb,
    so a larger allocation raises MemoryError instead of being made."""
    statm = Path("/proc/self/statm")
    if not statm.exists():
        pytest.skip("the address-space cap is sized from /proc/self/statm")
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = int(statm.read_text().split()[0]) * resource.getpagesize() + (extra_mb << 20)
    resource.setrlimit(resource.RLIMIT_AS,
                       (cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.parametrize("argv, error", [
    (("dims", "--n", "200000000"), "past the piece limit 1000"),
    (("dims", "--shape", "200000000"), None),
    (("universal", "--n", "200000000"), "past the piece limit 1000"),
    (("reconstruct", "--shape", "200000000", "--j", "2"), "capped at 8"),
    (("verify", "tensors", "--max-n", "200000000"), "past the piece limit 1000"),
], ids=["dims-n", "dims-shape", "universal-n", "reconstruct", "verify-tensors"])
def test_huge_shapes_answer_without_building_n_entries(capsys, argv, error):
    # N = 2*10^8: one entry per coordinate or block would take 1.6 GB,
    # past the cap, so each answer is a report, not a MemoryError
    with _address_space(256):
        code, rep = run_json(capsys, *argv)
    if error is None:
        assert code == 0 and rep["results"]["rows"] == [
            {"i": 1, "dim_gov": 2 * 10 ** 8, "dim_cons": 2 * 10 ** 8,
             "formula": 2 * 10 ** 8, "equal": True}]
    else:
        assert code == 1 and rep["passed"] is False
        assert error in rep["results"]["error"]


def test_universal_enumerate_refuses_before_enumerating(capsys, monkeypatch):
    monkeypatch.setattr(groups.ExpansionGroup, "_close", _no_enumeration)
    code, rep = run_json(capsys, "universal", "--shape", "1,1,1,1,1", "--enumerate")
    assert code == 1 and rep["passed"] is False
    assert rep["results"]["error"] == \
        "predicted order 2^54 exceeds the enumeration ceiling 2^22"


@pytest.mark.parametrize("shape, j, dim", [("1,1,1,1,1", 3, 61), ("2,1,1,1,1", 4, 91)])
def test_reconstruct_past_the_enumeration_ceiling(capsys, monkeypatch, shape, j, dim):
    # orders 2^54 and 2^70: the series and the labels come from the
    # presentation, so no group is enumerated
    monkeypatch.setattr(expmaps, "_CONTEXTS", {})
    monkeypatch.setattr(groups.ExpansionGroup, "_close", _no_enumeration)
    code, rep = run_json(capsys, "reconstruct", "--shape", shape, "--j", str(j))
    assert code == 0 and rep["passed"] is True
    res = rep["results"]
    assert res["equal"] is True
    assert res["layer_report"]["dim"] == res["direct_dim"] == dim


@pytest.mark.parametrize("k", [(1, 1, 1, 1, 1), (2, 1, 1, 1)])
def test_universal_reports_the_presentation(capsys, monkeypatch, k):
    monkeypatch.setattr(groups.ExpansionGroup, "_close", _no_enumeration)
    code, rep = run_json(capsys, "universal", "--shape", ",".join(map(str, k)))
    assert code == 0 and rep["passed"] is True
    res = rep["results"]
    shape = BlockShape(k)
    assert res["generator_axioms"] == dict.fromkeys(AXIOMS, True)
    assert tuple(res["grade_dims"]) == governing_algebra_general(shape).dims
    derived = len(descending_central_series(groups.build_universal_general(shape))[0])
    assert res["grade_dims"][0] == shape.N
    assert sum(res["grade_dims"][1:]) == derived
    assert shape.N + derived == universal_order_exponent(shape) == res["exponent"]


@pytest.mark.parametrize("argv", [
    ("universal", "--n", "9"), ("universal", "--n", "100"),
    ("universal", "--shape", "5,5,1", "--enumerate"),
    ("reconstruct", "--shape", "1,1,1,1,1,1,1,1,1", "--j", "2"),
])
def test_size_cap_past_the_enumeration_ceiling(capsys, argv):
    code, rep = run_json(capsys, *argv)
    assert code == 1 and rep["results"] == {
        "error": "total support size capped at 8 past the enumeration ceiling"}


def test_size_cap_spares_shapes_under_the_enumeration_ceiling(capsys, monkeypatch):
    # (6,5) and (11,) have order 2^21 and 2^11, under the element ceiling
    monkeypatch.setattr(expmaps, "_CONTEXTS", {})
    code, rep = run_json(capsys, "reconstruct", "--shape", "6,5", "--j", "2")
    assert code == 0 and rep["results"]["equal"] is True
    code, rep = run_json(capsys, "universal", "--shape", "11")
    assert code == 0 and rep["results"]["grade_dims"] == [11]


def test_universal_reports_a_failed_generator_check(capsys, monkeypatch):
    monkeypatch.setattr(groups, "check_generator_axioms",
                        lambda G: dict.fromkeys(AXIOMS, True) | {"axiom4": False})
    code, rep = run_json(capsys, "universal", "--shape", "2,1")
    assert code == 1 and rep["passed"] is False
    assert rep["results"]["generator_axioms"]["axiom4"] is False
    assert "grade_dims" not in rep["results"]


def test_universal_fails_on_grades_off_the_model(capsys, monkeypatch):
    # [4, 7, 7, 3] sums to the exponent 21 of (1,1,1,1), as the model's
    # (4, 6, 8, 3) does, so only the grade by grade comparison sees it
    monkeypatch.setattr(groups, "grade_dims", lambda G: (4, 7, 7, 3))
    code, rep = run_json(capsys, "universal", "--n", "4")
    assert code == 1 and rep["passed"] is False
    res = rep["results"]
    assert res["grade_dims"] == [4, 7, 7, 3] and res["exponent"] == 21
    assert res["generator_axioms"] == dict.fromkeys(AXIOMS, True)


# sha256 of each report's sorted-key JSON results, first 16 hex digits,
# recorded when reconstruction still enumerated every group it touched,
# less the field lifted_count, which equalled commvect_dim and is no
# longer reported
RECONSTRUCT_DIGESTS = {
    ("4,3", 2): "6a7717e2ed3ae0f7", ("4,3", 3): "b6b5cc088d6cc673",
    ("6,1", 2): "ae94846df0331bf0", ("3,3", 2): "b218fb589cd7a938",
    ("1,1", 2): "5ea842cd4ecff583", ("1,1", 3): "98294377c603e478",
    ("2,1", 2): "e1d505403bb1e182", ("2,1", 3): "23f73b90b8020f4b",
    ("2,2", 2): "d373959678444156", ("2,2", 3): "6aea5115591b8708",
    ("1,1,1", 2): "216313ee7113bb27", ("1,1,1", 3): "79596218f4550c95",
    ("2,1,1", 2): "bbdf0e5b8f1a696c", ("2,1,1", 3): "932ba24122aefa79",
    ("2,2,1", 2): "7b61b7c3c5d0e409", ("1,1,1,1", 2): "a5f01151c09a572c",
    ("1,1,1,1", 3): "497acf82d2f08c33",
}


def test_reconstruct_never_enumerates(capsys, monkeypatch):
    monkeypatch.setattr(expmaps, "_CONTEXTS", {})
    monkeypatch.setattr(groups.ExpansionGroup, "_close", _no_enumeration)
    for (shape, j), digest in RECONSTRUCT_DIGESTS.items():
        code, rep = run_json(capsys, "reconstruct", "--shape", shape, "--j", str(j))
        assert code == 0, (shape, j, rep["results"])
        text = json.dumps(rep["results"], sort_keys=True).encode()
        assert hashlib.sha256(text).hexdigest()[:16] == digest, (shape, j)


LIE_SHAPES = [(1, 1), (1, 1, 1), (2, 1), (2, 2), (1, 1, 1, 1),
              (1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1), (2, 1, 1, 1),
              (2, 1, 1, 1, 1)]


def _raising(source, target):
    raise RuntimeError("classification violation: not surjective")


def _rank_deficient(source, target):
    images = lie_epimorphism(source, target)
    images[2] = [0] * len(images[2])
    return images


def _one_image_short(source, target):
    images = lie_epimorphism(source, target)
    images[1] = images[1][:-1]
    return images


@pytest.mark.parametrize("fake, detail", [
    (_raising, "classification violation: not surjective"),
    (_rank_deficient, "grade 2: images of rank 0, target dimension"),
    (_one_image_short, "grade 1: "),
])
def test_verify_lie_epimorphism_check_can_fail(capsys, monkeypatch, fake, detail):
    monkeypatch.setattr(lie, "lie_epimorphism", fake)
    code, rep = run_json(capsys, "verify", "lie")
    assert code == 1 and rep["passed"] is False
    checks = rep["results"]["checks"]
    epi = [c for c in checks if c["name"].startswith("lie epimorphisms")]
    assert [c["name"] for c in epi] == [f"lie epimorphisms shape={k}"
                                        for k in LIE_SHAPES]
    assert all(not c["passed"] and c["detail"].startswith(detail) for c in epi)
    assert all(c["passed"] for c in checks if c not in epi)


def test_verify_lie_checks_axioms_past_n4(capsys, monkeypatch):
    code, rep = run_json(capsys, "verify", "lie")
    assert code == 0
    names = [c["name"] for c in rep["results"]["checks"]]
    assert names == [f"lie {check} shape={k}" for k in LIE_SHAPES
                     for check in ("axioms", "group match", "epimorphisms")]
    real = lie.check_lie_axioms

    def blind_to_one_shape(L):
        report = real(L)
        if L.shape.k == (2, 1, 1, 1, 1):
            report["tilde2"] = False
        return report

    monkeypatch.setattr(lie, "check_lie_axioms", blind_to_one_shape)
    code, rep = run_json(capsys, "verify", "lie")
    assert code == 1
    failed = [c["name"] for c in rep["results"]["checks"] if not c["passed"]]
    assert failed == ["lie axioms shape=(2, 1, 1, 1, 1)"]


def test_arith_commands(capsys):
    code, rep = run_json(capsys, "arith", "validate", "65", "29")
    assert code == 0
    assert rep["results"] == {"a": [65, 29], "omega": [2, 1],
                              "factorizations": [[5, 13], [29]],
                              "valid": True}
    code, rep = run_json(capsys, "arith", "validate", "15")
    assert code == 1 and "error" in rep["results"]
    code, rep = run_json(capsys, "arith", "consistent", "5", "29")
    assert code == 0 and rep["results"] == {"consistent": True,
                                            "maximal": True}
    code, rep = run_json(capsys, "arith", "consistent", "5", "13")
    assert code == 1 and rep["results"]["consistent"] is False
    code, rep = run_json(capsys, "arith", "consistent", "5", "13", "17")
    assert rep["results"]["maximal"] == "undecidable at this scope"
    code, rep = run_json(capsys, "arith", "bound", "--n", "2",
                         "--omega", "4")
    assert code == 0 and rep["results"] == {
        "total": 5, "grades": [2, 3],
        "second_route": "none: an integer --omega names no block sizes"}
    code, rep = run_json(capsys, "arith", "bound", "--n", "2",
                         "--omega", "2,2")
    assert code == 0 and rep["results"] == {"total": 5, "grades": [2, 3],
                                            "cons_grades": [3]}


def test_arith_bound_checks_its_grades(capsys, monkeypatch):
    code, rep = run_json(capsys, "arith", "bound", "--n", "4",
                         "--omega", "3,1,2,2")
    assert code == 0 and rep["results"]["cons_grades"] == [18, 20, 7]
    code, rep = run_json(capsys, "arith", "bound", "--n", "3",
                         "--omega", "2,2")
    assert code == 1 and rep["passed"] is False
    assert rep["results"] == {
        "error": "omega lists 2 entries for n = 3: give one per block"}
    code, rep = run_json(capsys, "arith", "bound", "--n", "2",
                         "--omega", "1,1,1")
    assert code == 1 and rep["passed"] is False
    assert rep["results"] == {
        "error": "omega lists 3 entries for n = 2: give one per block"}
    code, rep = run_json(capsys, "arith", "bound", "--n", "40",
                         "--omega", ",".join(["1"] * 40))
    assert code == 0 and "cell limit" in rep["results"]["second_route"]
    bound = arith.maximality_bound

    def one_off(n, omega):
        total, grades = bound(n, omega)
        return total + 1, grades[:-1] + [grades[-1] + 1]

    monkeypatch.setattr(arith, "maximality_bound", one_off)
    code, rep = run_json(capsys, "arith", "bound", "--n", "4",
                         "--omega", "3,1,2,2")
    assert code == 1 and rep["passed"] is False
    assert rep["results"]["grades"][1:] == [18, 20, 8]
    code, rep = run_json(capsys, "arith", "bound", "--n", "4", "--omega", "8")
    assert code == 0 and rep["results"]["grades"][-1] == 8


def test_arith_search(capsys):
    code, rep = run_json(capsys, "arith", "search", "--k", "1,1",
                         "--budget", "100")
    assert code == 0
    assert rep["results"]["a"] == [5, 29] and rep["results"]["verified"]
    assert rep["results"]["nodes"] == 3 and rep["results"]["residue_rows"] == 1
    # 11 symbols for the row of 5 on the whole pool; 29 fills the last
    # entry, so its row is never read
    assert rep["results"]["residue_tests"] == 11
    code, rep = run_json(capsys, "arith", "search", "--k", "1,1",
                         "--budget", "6")
    assert code == 1 and rep["results"] == {"found": False, "nodes": 1,
                                            "residue_rows": 0, "residue_tests": 0}
    code, out = run(capsys, "arith", "search", "--k", "1,1", "--budget", "6")
    assert code == 1 and "nodes: 1" in out and "residue_rows: 0" in out
    assert "residue_tests: 0" in out


def test_render_expands_only_a_list_of_rows():
    # a list of dicts is one line per row; any other value of "rows", as a
    # count, is one "key: value" line like every other result
    listed = cli._render(RunReport("dims", {}, {"rows": [{"i": 1, "equal": True},
                                                          {"i": 2, "equal": False}]},
                                   True, 0.0))
    assert listed.splitlines()[1:] == ["  i=1  equal=True", "  i=2  equal=False"]
    counted = cli._render(RunReport("arith", {}, {"found": False, "rows": 2}, False, 0.0))
    assert counted.splitlines()[1:] == ["  found: False", "  rows: 2"]


def test_arith_consistent_fails_on_a_wrong_residue(capsys, monkeypatch):
    real = arith.jacobi

    def wrong(a, m):
        return -1 if (a, m) == (5, 29) else real(a, m)

    monkeypatch.setattr(arith, "jacobi", wrong)
    code, rep = run_json(capsys, "arith", "consistent", "5", "29")
    assert code == 1 and rep["passed"] is False
    assert rep["results"] == {"consistent": False, "maximal": False}
    code, out = run(capsys, "arith", "consistent", "5", "29")
    assert code == 1 and "passed=False" in out and "consistent: False" in out


# one command line per command, a callee it reaches before any answer,
# and the parameters main records for it
REFUSABLE = [
    (["dims", "--n", "3"], tensors, "gov_equals_cons_check",
     {"n": 3, "shape": None, "i": None}),
    (["universal", "--n", "2"], groups, "build_universal_general",
     {"n": 2, "shape": None, "enumerate": False}),
    (["verify", "groups"], groups, "build_universal_general",
     {"suite": "groups", "max_n": 5}),
    (["reconstruct", "--shape", "1,1", "--j", "2"], expmaps, "phi_layer",
     {"shape": "1,1", "j": 2}),
    (["arith", "validate", "5"], arith, "validate_acceptable",
     {"sub": "validate", "entries": [5]}),
]


@pytest.mark.parametrize("argv, module, callee, params", REFUSABLE,
                         ids=[r[0][0] for r in REFUSABLE])
@pytest.mark.parametrize("err", [ValueError("refused here"),
                                 groups.ResourceLimitError(1 << 30),
                                 arith.FactorBudgetError("past the budget")],
                         ids=lambda e: type(e).__name__)
def test_every_refusal_of_every_command_is_a_report(capsys, monkeypatch, argv,
                                                    module, callee, params, err):
    def refuse(*args, **kwargs):
        raise err

    monkeypatch.setattr(module, callee, refuse)
    code, rep = run_json(capsys, *argv)
    assert code == 1 and rep["passed"] is False
    assert rep["command"] == argv[0] and rep["parameters"] == params
    assert rep["results"] == {"error": str(err)}
    code, out = run(capsys, *argv)
    assert code == 1 and f"error: {err}" in out


@pytest.mark.parametrize("n, omega, error", [
    ("2", "0,1", "omega [0, 1] has an entry below 1: each entry has at least one prime"),
    ("2", "1,-3", "omega [1, -3] has an entry below 1: each entry has at least one prime"),
    ("3", "2", "omega 2 is below n = 3: each of the n entries has at least one prime"),
    ("1", "0", "omega 0 is below n = 1: each of the n entries has at least one prime"),
])
def test_arith_bound_refuses_an_entry_without_a_prime(capsys, n, omega, error):
    # a smaller omega has no bound, not a negative one
    argv = ("arith", "bound", "--n", n, "--omega", omega)
    code, rep = run_json(capsys, *argv)
    assert code == 1 and rep["passed"] is False and rep["results"] == {"error": error}
    code, out = run(capsys, *argv)
    assert code == 1 and f"error: {error}" in out
    # one prime per entry is the least omega with a bound
    code, rep = run_json(capsys, "arith", "bound", "--n", n,
                         "--omega", ",".join(["1"] * int(n)))
    assert code == 0 and rep["results"]["grades"][0] == 0


def _zeroed(target):
    """phi_layer, with the layer of target = (shape, j) replaced by zero maps."""
    real = expmaps.phi_layer

    def layer(shape, j):
        out = real(shape, j)
        if (shape.k, j) == target:
            return [expmaps.PhiMap(shape, 0) for _ in out]
        return out
    return layer


@pytest.mark.parametrize("target", [((2, 1, 1), 2), ((2, 1), 1)],
                         ids=["direct", "corner"])
def test_reconstruct_fails_on_a_wrong_layer(capsys, monkeypatch, target):
    monkeypatch.setattr(expmaps, "phi_layer", _zeroed(target))
    code, rep = run_json(capsys, "reconstruct", "--shape", "2,1,1", "--j", "2")
    assert code == 1 and rep["passed"] is False
    assert rep["results"]["equal"] is False and "error" not in rep["results"]


@pytest.mark.parametrize("target", [((1, 1), 2), ((1,), 1)], ids=["direct", "corner"])
def test_verify_expmaps_reconstruct_check_can_fail(capsys, monkeypatch, target):
    monkeypatch.setattr(expmaps, "phi_layer", _zeroed(target))
    code, rep = run_json(capsys, "verify", "expmaps", "--max-n", "3")
    assert code == 1 and rep["passed"] is False
    failed = [c["name"] for c in rep["results"]["checks"] if not c["passed"]]
    assert failed == ["expmaps reconstruct (1,1) j=2"]


def _failed_expmaps_checks(capsys) -> list[str]:
    code, rep = run_json(capsys, "verify", "expmaps", "--max-n", "3")
    assert code == 1 and rep["passed"] is False
    return [c["name"] for c in rep["results"]["checks"] if not c["passed"]]


def test_verify_expmaps_expansion_check_can_fail(capsys, monkeypatch):
    # a pulled-back corner that loses the label (0, 0), chi_0, whenever
    # a block is cornered: theta no longer matches the coboundary
    real = expmaps._pulled_corner

    def lossy(ctx, coords, B):
        out = real(ctx, coords, B)
        return out & ~1 if B else out

    monkeypatch.setattr(expmaps, "_pulled_corner", lossy)
    assert _failed_expmaps_checks(capsys) == [
        f"expmaps expansion eq shape={k}" for k in ([1, 1], [2, 1], [1, 1, 1])]


def test_verify_expmaps_lcomm_check_can_fail(capsys, monkeypatch):
    # one extractor value flipped on one nested commutator of (2,1)
    real = expmaps.lcomm_check

    def flipped(shape, A, x, gens):
        left, right = real(shape, A, x, gens)
        return left ^ ((shape.k, A, x, gens) == ((2, 1), (0, 1), 0, (0, 2))), right

    monkeypatch.setattr(expmaps, "lcomm_check", flipped)
    assert _failed_expmaps_checks(capsys) == ["expmaps lcomm shape=[2, 1]"]


def test_verify_expmaps_layer_dims_check_can_fail(capsys, monkeypatch):
    # one grade of (2,1) bumped: the series no longer sizes the layers
    real = groups.grade_dims

    def bumped(G):
        dims = real(G)
        return dims[:1] + (dims[1] + 1,) + dims[2:] if G.shape.k == (2, 1) else dims

    monkeypatch.setattr(groups, "grade_dims", bumped)
    code, rep = run_json(capsys, "verify", "expmaps", "--max-n", "3")
    assert code == 1 and rep["passed"] is False
    failed = [c for c in rep["results"]["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["expmaps layer dims shape=[2, 1]"]
    assert failed[0]["detail"] == "layer dims [4, 6, 6] expected [4, 7, 7]"


def test_verify_expmaps_obstruction_check_can_fail(capsys, monkeypatch):
    # a solver that answers every theta with the zero table
    monkeypatch.setattr(expmaps, "solve_cochain", lambda G, th: 0)
    assert _failed_expmaps_checks(capsys) == ["expmaps obstruction detected"]


def test_universal_enumerate_fails_on_a_failing_axiom(capsys, monkeypatch):
    real = groups.check_expansion_axioms
    monkeypatch.setattr(groups, "check_expansion_axioms",
                        lambda G: real(G) | {"axiom3": False})
    code, rep = run_json(capsys, "universal", "--shape", "2,1", "--enumerate")
    assert code == 1 and rep["passed"] is False
    assert rep["results"]["axioms"] == dict.fromkeys(AXIOMS, True) | {"axiom3": False}
    assert rep["results"]["order"] == rep["results"]["predicted_order"]


def test_verify_groups_fails_on_a_failing_axiom(capsys, monkeypatch):
    real = groups.check_expansion_axioms

    def flipped(G):
        rep = real(G)
        return rep | {"tilde_condition": False} if G.shape.k == (2, 1) else rep

    monkeypatch.setattr(groups, "check_expansion_axioms", flipped)
    code, rep = run_json(capsys, "verify", "groups")
    assert code == 1 and rep["passed"] is False
    failed = [c["name"] for c in rep["results"]["checks"] if not c["passed"]]
    assert failed == ["groups axioms shape=(2, 1)"]


def test_verify_groups_fails_on_a_wrong_grade(capsys, monkeypatch):
    real = groups.grade_dims

    def bumped(G):
        dims = real(G)
        return dims[:-1] + (dims[-1] + 1,) if G.shape.k == (2, 2) else dims

    monkeypatch.setattr(groups, "grade_dims", bumped)
    code, rep = run_json(capsys, "verify", "groups")
    assert code == 1 and rep["passed"] is False
    failed = [c for c in rep["results"]["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["groups grade dims shape=(2, 2)"]
    assert failed[0]["detail"] == "series [4, 4] model [4, 3]"


def test_parser_subcommand_required():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_built_once_answers_as_fresh_processes(capsys, monkeypatch):
    # main builds its parser on the first call of a process and reuses it;
    # back-to-back calls must answer as separate processes do
    built = []
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build_parser())
    calls = [["dims", "--n", "3"], ["dims", "--shape", "2,1"],
             ["verify", "tensors", "--max-n", "4"], ["verify", "tensors"]]
    same_process = [run_json(capsys, *argv)[1]["results"] for argv in calls]
    assert len(built) == 1
    src = Path(cli.__file__).resolve().parent.parent
    fresh = [json.loads(subprocess.run(
        [sys.executable, "-m", "genusforge.cli", "--json", *argv],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, check=True).stdout)["results"] for argv in calls]
    assert same_process == fresh


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "genusforge.cli", "--json", "universal",
         "--n", "2", "--enumerate"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["results"]["order"] == 8


# commands that run on the presentation, the exact layer and the arithmetic
PRESENTATION_COMMANDS = [
    ["dims", "--n", "5"],
    ["arith", "search", "--k", "1,1,1,1,1", "--budget", "200"],
    ["reconstruct", "--shape", "2,1,1", "--j", "2"],
    ["universal", "--shape", "1,1,1,1"],
    ["verify", "tensors"],
]

# runs in a fresh interpreter: whether numpy is loaded after the import
# and after each command, and each command's report
NUMPY_PROBE = """
import contextlib, io, json, sys
import genusforge.cli
loaded, reports = ["numpy" in sys.modules], []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        genusforge.cli.main(["--json", *argv])
    reports.append(json.loads(out.getvalue()))
    loaded.append("numpy" in sys.modules)
print(json.dumps({"loaded": loaded, "reports": reports}))
"""


def test_numpy_stays_off_the_start_up_path():
    src = Path(cli.__file__).resolve().parent.parent
    argvs = PRESENTATION_COMMANDS + [["universal", "--shape", "1,1", "--enumerate"]]
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE, json.dumps(argvs)],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout)
    assert out["loaded"] == [False] * (1 + len(PRESENTATION_COMMANDS)) + [True]
    assert all(rep["passed"] for rep in out["reports"])
    assert out["reports"][-1]["results"] == {
        "exponent": 3, "predicted_order": 8, "order": 8, "cosets": 4,
        "coset_steps": 2, "span_dim": 1, "axioms": dict.fromkeys(AXIOMS, True)}


FRONT_END = ["genusforge", "genusforge.arith", "genusforge.cli"]

# each command, run alone in a fresh interpreter, and the package modules
# it adds to those that `import genusforge.cli` loads
START_UP = [
    (["arith", "search", "--k", "1,1,1,1,1", "--budget", "200"], ()),
    (["arith", "validate", "65", "29"], ()),
    (["arith", "consistent", "5", "29"], ()),
    (["dims", "--n", "5"], ("f2", "tensors")),
    (["arith", "bound", "--n", "2", "--omega", "2,2"], ("f2", "tensors")),
    (["verify", "tensors"], ("f2", "tensors")),
    (["reconstruct", "--shape", "2,1,1", "--j", "2"],
     ("expmaps", "f2", "groups", "tensors")),
    (["universal", "--shape", "1,1,1,1"], ("f2", "groups", "lie", "tensors")),
    (["universal", "--shape", "1,1", "--enumerate"], ("f2", "groups", "tensors")),
    (["verify", "all", "--max-n", "3"],
     ("expmaps", "f2", "groups", "lie", "tensors")),
]

# runs in a fresh interpreter: imports the planted modules, then
# genusforge.cli, then runs the command if one is given; prints the
# package modules and dataclasses, when loaded, after the import and
# after the command, and whether the command passed
MODULE_PROBE = """
import contextlib, importlib, io, json, sys
planted, argv = json.loads(sys.argv[1])
for name in planted:
    importlib.import_module(name)
def loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("genusforge", "dataclasses"))
import genusforge.cli
out = {"import": loaded()}
if argv:
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        genusforge.cli.main(["--json", *argv])
    out.update(command=loaded(), passed=json.loads(buf.getvalue())["passed"])
print(json.dumps(out))
"""


def _module_probe(planted: list[str], argv: list[str]) -> dict:
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", MODULE_PROBE,
                           json.dumps([planted, argv])],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("argv, added", START_UP,
                         ids=[" ".join(argv) for argv, _ in START_UP])
def test_each_command_loads_only_the_modules_it_runs(argv, added):
    out = _module_probe([], argv)
    assert out["import"] == FRONT_END
    assert out["passed"] is True
    assert out["command"] == sorted(FRONT_END + [f"genusforge.{m}" for m in added])


def test_a_refusal_loads_no_module_its_command_does_not():
    # main matches the refusal without importing groups, where
    # ResourceLimitError lives
    out = _module_probe([], ["arith", "validate", "15"])
    assert out == {"import": FRONT_END, "command": FRONT_END, "passed": False}


def test_module_probe_can_fail():
    # modules loaded before the import show in what the probe reports
    out = _module_probe(["genusforge.lie", "dataclasses"], [])
    assert out == {"import": sorted(FRONT_END + ["dataclasses"] + [
        f"genusforge.{m}" for m in ("f2", "groups", "lie", "tensors")])}
