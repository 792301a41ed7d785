"""Tests of the benchmark's own code: output checks, spans, entry point.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import jobs  # noqa: E402
import spans  # noqa: E402
import steady  # noqa: E402
from genusforge import cli, expmaps, groups  # noqa: E402
from genusforge.tensors import BlockShape  # noqa: E402


def run_job(job):
    jobs.clear_caches()
    out = job.run()
    return out, job.check(out)


# -- the formulas, against values worked out by hand --

def test_formulas():
    assert checks.order_exponent((1, 1)) == 3
    assert checks.order_exponent((2, 2, 1)) == 16
    assert checks.order_exponent((2, 2, 2)) == 20
    assert checks.grade_dims((2, 2, 1)) == [5, 7, 4]
    assert checks.grade_dims((4, 4)) == [8, 7]
    assert [checks.plain_dim(4, i) for i in range(1, 5)] == [4, 6, 8, 3]
    assert checks.layer_dim((1, 1), 2) == 4
    assert checks.rank([0b011, 0b110, 0b101]) == 2
    assert checks.spans_equal([0b011, 0b110], [0b101, 0b011])
    assert not checks.spans_equal([0b011], [0b101])
    assert [p for p in range(30) if checks.is_prime(p)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


# -- each check passes on the program's answer and fails on a wrong one --

def test_enumerate_check():
    out, problems = run_job(jobs.enumerate_job((2, 1, 1)))
    assert problems == []
    wrong = dict(out, order=out["order"] * 2)
    assert any("order" in p for p in checks.check_enumerate((2, 1, 1), **wrong))
    wrong = dict(out, lie_dims=(4, 3, 1))
    assert checks.check_enumerate((2, 1, 1), **wrong)
    wrong = dict(out, axioms=dict(out["axioms"], axiom2=False))
    assert checks.check_enumerate((2, 1, 1), **wrong)
    src, tgt, images = out["epimorphisms"][0]
    images = {**images, 2: images[2][:-1]}
    wrong = dict(out, epimorphisms=[(src, tgt, images)])
    assert checks.check_enumerate((2, 1, 1), **wrong)


def test_reconstruct_check():
    job = jobs.reconstruct_job((2, 1, 1), 2)
    report, problems = run_job(job)
    assert problems == []
    direct = [p.coords for p in expmaps.phi_layer(BlockShape((2, 1, 1)), 2)]
    layer = report["results"]["layer_report"]
    dropped = json.loads(json.dumps(report))
    dropped["results"]["layer_report"]["basis_coords"] = layer["basis_coords"][:-1]
    found = checks.check_reconstruct((2, 1, 1), 2, dropped, direct)
    assert any("span differs" in p for p in found)
    assert any("rank" in p for p in found)
    assert checks.check_reconstruct((2, 1, 1), 2, report, direct[:-1])
    blocked = json.loads(json.dumps(report))
    blocked["results"]["layer_report"]["obstruction_count"] = 1
    assert checks.check_reconstruct((2, 1, 1), 2, blocked, direct)


def test_dims_check():
    report, problems = run_job(jobs.dims_job((1,) * 4, plain=True))
    assert problems == []
    report["results"]["rows"][2]["dim_cons"] += 1
    assert checks.check_dims((1,) * 4, report, plain=True)
    report, problems = run_job(jobs.dims_job((2, 1, 1), plain=False))
    assert problems == []
    del report["results"]["rows"][-1]
    assert checks.check_dims((2, 1, 1), report, plain=False)


def test_lie_axioms_check():
    out, problems = run_job(jobs.lie_axioms_job((2, 1, 1)))
    assert problems == []
    assert checks.check_lie_axioms((2, 1, 1), dict(out["report"], tilde2=False),
                                   out["dims"])
    assert checks.check_lie_axioms((2, 1, 1), out["report"], (4, 3))


def test_arith_check():
    report, problems = run_job(jobs.arith_job((2, 1), 500))
    assert problems == []
    good = {"passed": True, "results": {"found": True, "a": [5, 29],
                                        "factorizations": [[5], [29]]}}
    assert checks.check_arith((1, 1), 100, good) == []
    # 13 is not a square mod 5, yet both are primes 1 mod 4
    bad = {"passed": True, "results": {"found": True, "a": [5 * 29, 13],
                                       "factorizations": [[5, 29], [13]]}}
    found = checks.check_arith((2, 1), 100, bad)
    assert found == ["primes 5 and 13 are not mutual squares"]
    not_prime = {"passed": True, "results": {"found": True, "a": [5, 21 * 29],
                                             "factorizations": [[5], [21, 29]]}}
    assert checks.check_arith((1, 2), 100, not_prime)
    assert checks.check_arith((1, 1), 100, {"passed": False,
                                            "results": {"found": False}})


def test_failed_cli_reports():
    with pytest.raises(jobs.CliError, match="capped"):
        run_job(jobs.dims_job((5, 5), plain=False))
    with pytest.raises(jobs.CliError):
        run_job(jobs.reconstruct_job((1,), 2))
    failed = {"passed": False, "results": {"error": "boom"}}
    want = ["report failed: boom"]
    assert checks.check_reconstruct((2, 1, 1), 2, failed, []) == want
    assert checks.check_dims((2, 1, 1), failed, plain=False) == want
    assert checks.check_arith((1, 1), 100, failed) == want


# -- spans --

def test_tracer_installs_where_callers_look_and_accounts_for_the_job():
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.phi_layer is expmaps.phi_layer
        assert hasattr(cli.phi_layer, "__wrapped__")
        assert expmaps.build_universal_general is groups.build_universal_general
        job = jobs.reconstruct_job((2, 1, 1), 2)
        jobs.clear_caches()
        tracer.start()
        t0 = perf_counter()
        job.run()
        job_s = perf_counter() - t0
        recorded, counts = tracer.stop()
    finally:
        tracer.uninstall()
    assert not hasattr(cli.phi_layer, "__wrapped__")
    assert not hasattr(expmaps.build_universal_general, "__wrapped__")
    split = spans.combine([spans.layer_split(recorded, counts, job_s)])
    names = {s[0] for s in recorded}
    assert {"expmaps.reconstruct", "expmaps.theta", "expmaps.solve_cochain",
            "groups.closure", "f2.eliminate"} <= names
    self_total = sum(v for k, v in split.items()
                     if k.endswith("_s") and k not in (
                         "trace.pass_s", "groups.closure_elems_per_s"))
    assert self_total == pytest.approx(job_s, rel=1e-9)
    assert split["groups.elements"] > 0 and split["expmaps.cayley_edges"] > 0
    assert min(split.values()) >= 0


def test_layer_split_self_time():
    recorded = [["expmaps.reconstruct", 0.0, 10.0, None, {}],
                ["expmaps.theta", 1.0, 4.0, 0, {"theta_bits": 64}],
                ["f2.eliminate", 5.0, 6.0, 0, {"rows": 3, "rank": 2}],
                ["f2.eliminate", 5.5, 5.75, 2, {"rows": 3, "rank": 2}]]
    split = spans.layer_split(recorded, {}, 12.0)
    assert split["expmaps.reconstruct_s"] == 6.0
    assert split["expmaps.theta_s"] == 3.0
    assert split["f2.eliminate_s"] == 1.0
    assert split["f2.rows"] == 3 and split["f2.rank"] == 4
    assert split["cli.report_s"] == 2.0
    assert split["expmaps.theta_bits"] == 64


# -- entry point and steadiness arithmetic --

def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "exact",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_spread():
    med, q1, q3, sp = steady.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (med, q1, q3) == (3.0, 1.5, 4.5)
    assert sp == pytest.approx(1.0)


def test_steadiness_fails_either_way():
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "pass_s", "bound": 0.25}]}

    def runs(values):
        return [{"workload": "w", "failed": 0, "attempted": 4, "wall_s": 1.0,
                 "metrics": {"pass_s": {"value": v}}} for v in values]
    base = [1.0, 1.01, 0.99, 1.02, 0.98]
    assert steady.report(spec, (runs(base), runs(base)))
    assert not steady.report(spec, (runs(base), runs([v * 1.4 for v in base])))
    assert not steady.report(spec, (runs(base), runs([v * 0.6 for v in base])))
    assert not steady.report(spec, (runs(base), runs([0.5, 1.0, 1.5, 2.0, 0.7])))


def test_workloads_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(spans.LAYER_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.LAYER_METRICS
