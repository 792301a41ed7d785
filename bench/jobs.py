"""The three workloads: their jobs, how each job is run, and its check.

A job's ``run`` is the timed part: one CLI call through
``genusforge.cli.main([... "--json"])``, or the library's public
functions where the CLI has no subcommand for the step.  Its ``check``
runs afterwards, untimed, and returns a list of problems from
``checks``.  Every job starts from empty package caches, because every
CLI call starts from a fresh process.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass
from typing import Callable

from genusforge import cli, expmaps, groups, lie
from genusforge.tensors import BlockShape

import checks

# functools caches of the package, collected before any wrapper is installed
_CACHES = {id(v): v for name, mod in sorted(sys.modules.items())
           if name.startswith("genusforge.")
           for v in vars(mod).values() if hasattr(v, "cache_clear")}


def clear_caches() -> None:
    expmaps._CONTEXTS.clear()
    for fn in _CACHES.values():
        fn.cache_clear()


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


class CliError(RuntimeError):
    """A CLI call that caught an error and reported it instead of answering."""


def _cli(*argv: str) -> dict:
    """One CLI call; a report that carries an error raises, so it counts as
    a failed job rather than a wrong answer."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(["--json", *argv])
    report = json.loads(buf.getvalue())
    if "error" in report["results"]:
        raise CliError(report["results"]["error"])
    return report


def _shape_text(k) -> str:
    return ",".join(map(str, k))


# -- enumerate: closure, axioms, series, Lie extraction, epimorphisms --

def _enumerate(k) -> dict:
    shape = BlockShape(k)
    G = groups.build_universal_general(shape)
    axioms = groups.check_expansion_axioms(G)
    series = groups.descending_central_series(G)
    L = lie.lie_from_group(G)
    gov = lie.governing_algebra_general(shape)
    epis = [(src.dims, tgt.dims, lie.lie_epimorphism(src, tgt))
            for src, tgt in ((gov, L), (L, gov))]
    return {"order": G.order, "axioms": axioms,
            "series_lens": [len(b) for b in series], "lie_dims": L.dims,
            "gov_dims": gov.dims, "epimorphisms": epis}


def enumerate_job(k) -> Job:
    return Job(f"enumerate {_shape_text(k)}", lambda: _enumerate(k),
               lambda out: checks.check_enumerate(k, **out))


# -- reconstruct: the CLI's layer reconstruction --

def reconstruct_job(k, j: int) -> Job:
    def check(report):
        direct = expmaps.phi_layer(BlockShape(k), j)
        return checks.check_reconstruct(k, j, report, [p.coords for p in direct])
    return Job(f"reconstruct {_shape_text(k)} j={j}",
               lambda: _cli("reconstruct", "--shape", _shape_text(k),
                            "--j", str(j)), check)


# -- exact: elimination and backtracking, no enumeration --

def dims_job(k, plain: bool) -> Job:
    argv = ("--n", str(len(k))) if plain else ("--shape", _shape_text(k))
    return Job("dims " + " ".join(argv), lambda: _cli("dims", *argv),
               lambda report: checks.check_dims(k, report, plain))


def _lie_axioms(k) -> dict:
    L = lie.governing_algebra_general(BlockShape(k))
    return {"report": lie.check_lie_axioms(L), "dims": L.dims}


def lie_axioms_job(k) -> Job:
    return Job(f"lie axioms {_shape_text(k)}", lambda: _lie_axioms(k),
               lambda out: checks.check_lie_axioms(k, **out))


def arith_job(k, budget: int) -> Job:
    return Job(f"arith search {_shape_text(k)} budget={budget}",
               lambda: _cli("arith", "search", "--k", _shape_text(k),
                            "--budget", str(budget)),
               lambda report: checks.check_arith(k, budget, report))


WORKLOADS: dict[str, tuple[Job, ...]] = {
    # the group closure does nearly all the work; 2^15 to 2^17 elements,
    # class 2 with many generators and class 3
    "enumerate": tuple(enumerate_job(k) for k in
                       ((4, 4), (2, 2, 1), (3, 1, 1), (5, 4))),
    # cochain solving and theta at 2^11 to 2^13 (two blocks) and 2^12 (three
    # blocks), small groups around them
    "reconstruct": tuple(reconstruct_job(k, j) for k, j in
                         (((4, 3), 2), ((4, 3), 3), ((6, 1), 2), ((3, 3), 2))) + tuple(
        reconstruct_job(k, j) for k in ((1, 1), (2, 1), (2, 2), (1, 1, 1), (2, 1, 1))
        for j in (2, 3)),
    # bit-mask elimination and Jacobi backtracking only
    "exact": (dims_job((1,) * 6, plain=True),) + tuple(
        dims_job(k, plain=False) for k in ((2, 2, 1, 1), (3, 2, 1, 1), (2, 1, 1, 1, 1),
                                           (2, 2, 1, 1, 1), (3, 1, 1, 1, 1))
    ) + (lie_axioms_job((2, 1, 1, 1)), lie_axioms_job((2, 2, 1, 1)),
         arith_job((1,) * 7, 1000), arith_job((2, 2, 2, 2, 1), 2000)),
}
