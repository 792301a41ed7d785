"""Command-line front end: dimension tables, enumeration, verification,
layer reconstruction, and the arithmetic queries, with JSON reports.

Importing this module loads arith and nothing else of the package: each
command and helper imports, in its own body, the package names it reads,
so a process pays only for the modules its command runs."""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import combinations, islice, product

from . import arith

SCHEMA = "genusforge-report/1"
SIZE_CAP = 8
# dims refuses a run past either limit; (1,)*35, 24.4 M cells, takes 1.5 s
PIECE_LIMIT = 1000
CELL_LIMIT = 25 * 10 ** 6


class RunReport:
    """One command's report.  A plain class: importing dataclasses would
    load inspect, dis, ast and tokenize, about 6 ms of every start-up."""

    def __init__(self, command: str, parameters: dict, results: dict,
                 passed: bool, elapsed: float, schema: str = SCHEMA):
        self.command = command
        self.parameters = parameters
        self.results = results
        self.passed = passed
        self.elapsed = elapsed
        self.schema = schema

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls(**json.loads(text))


def _parse_shape(text: str) -> BlockShape:
    from .tensors import BlockShape
    try:
        k = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError("--shape takes block sizes separated by commas, "
                         f"got {text!r}") from None
    return BlockShape(k)


def _shape_arg(args) -> BlockShape:
    if args.shape is not None and args.n is not None:
        raise ValueError("give either --n or --shape, not both")
    if args.shape is not None:
        return _parse_shape(args.shape)
    if args.n is not None:
        return _ones(args.n)
    raise ValueError("give either --n or --shape")


def _ones(n: int) -> BlockShape:
    """BlockShape((1,) * n), refused before its n sizes are built when n
    passes PIECE_LIMIT.  The shape has a distinct piece at every arity,
    past the piece limit of a dims run over all of them, and universal
    refuses every N past SIZE_CAP; a dims run at one arity is refused
    there too, since the n sizes are what the refusal saves."""
    from .tensors import BlockShape
    if n > PIECE_LIMIT:
        raise ValueError(f"(1,)*{n} has {n} distinct pieces, past the piece "
                         f"limit {PIECE_LIMIT}")
    return BlockShape((1,) * n)


def _presentation_cap(shape: BlockShape) -> None:
    """Refuse a shape past both the enumeration ceiling and SIZE_CAP.

    Past that ceiling the group is read from its presentation alone, and
    the series and the reconstruction kernels grow about fivefold per
    block: (1,)*8 takes a fraction of a second for universal and 0.16 s
    for reconstruct --j 2; with the cap lifted, the reconstruction of
    (1,)*9 at j = 2 takes 0.25 s and 19 MB in process, and (1,)*10
    1.1 s (single runs, 2 cores, Python 3.11.7, numpy 2.4.6).
    """
    from .groups import ENUM_CEILING, universal_order_exponent
    if shape.N > SIZE_CAP and \
            universal_order_exponent(shape) > ENUM_CEILING.bit_length() - 1:
        raise ValueError(f"total support size capped at {SIZE_CAP} past the "
                         "enumeration ceiling")


# -- dims --

def _dims_guard(shape: BlockShape, span) -> None:
    """Refuse a dims run, before any row is built, past PIECE_LIMIT
    distinct pieces or CELL_LIMIT pairs times rows summed over them.
    Every arity up to n has pieces of its own, so a longer span is
    refused before any block set is walked."""
    from .tensors import block_sets, piece_cells
    pieces = [] if len(span) > PIECE_LIMIT else list(islice(
        (k for i in span for k, _ in block_sets(shape, i)), PIECE_LIMIT + 1))
    if max(len(span), len(pieces)) > PIECE_LIMIT:
        raise ValueError(f"more than {PIECE_LIMIT} distinct pieces exceed "
                         "the piece limit")
    cells = sum(map(piece_cells, pieces))
    if cells > CELL_LIMIT:
        raise ValueError(f"{cells} pair-row cells exceed the cell limit "
                         f"{CELL_LIMIT}")


def _dims_rows(shape: BlockShape, span) -> list[dict]:
    """One row per arity in span: dim gov and dim cons from the pair
    route, the formula, and whether the spans and all three agree."""
    from .tensors import cons_dim_formula_general, gov_equals_cons_check
    rows = []
    for i in span:
        chk = gov_equals_cons_check(shape, i)
        want = cons_dim_formula_general(shape, i)
        rows.append({"i": i, "dim_gov": chk["dim_gov"],
                     "dim_cons": chk["dim_cons"], "formula": want,
                     "equal": chk["equal"] and
                     chk["dim_gov"] == chk["dim_cons"] == want})
    return rows


def cmd_dims(args) -> tuple[dict, bool]:
    shape = _shape_arg(args)
    span = [args.i] if args.i is not None else list(range(1, shape.n + 1))
    _dims_guard(shape, span)
    rows = _dims_rows(shape, span)
    return {"rows": rows}, all(r["equal"] for r in rows)


# -- universal --

def cmd_universal(args) -> tuple[dict, bool]:
    from .groups import (build_universal_general, check_expansion_axioms,
                         check_generator_axioms, grade_dims,
                         universal_order_exponent)
    shape = _shape_arg(args)
    _presentation_cap(shape)
    exp = universal_order_exponent(shape)
    results = {"exponent": exp, "predicted_order": 2 ** exp}
    G = build_universal_general(shape)
    if args.enumerate:
        axioms = check_expansion_axioms(G)
        # the enumerated count checks the presentation's order
        results["order"] = len(G.codes)
        # the closure's work: cosets, the blocks that listed them, dim of the span
        results.update(G.closure_stats)
        results["axioms"] = {k: bool(v) for k, v in axioms.items()}
        return results, (len(G.codes) == G.order == 2 ** exp
                         and all(axioms.values()))
    # the generator check proves the axioms and |G| = 2^(N + dim[G,G]);
    # the grades must equal the governing algebra's one by one, since
    # their sum always telescopes to N + dim[G,G]
    axioms = check_generator_axioms(G)
    results["generator_axioms"] = axioms
    if not all(axioms.values()):
        return results, False
    from .lie import governing_algebra_general
    results["grade_dims"] = list(grade_dims(G))
    return results, tuple(results["grade_dims"]) == governing_algebra_general(shape).dims


# -- verify --

def _check(checks: list, name: str, good: bool, detail: str = "") -> None:
    checks.append({"name": name, "passed": bool(good), "detail": detail})


def _verify_tensors(checks: list, max_n: int) -> None:
    from .tensors import BlockShape
    _dims_guard(_ones(max_n), range(1, max_n + 1))
    for k, label in [((1,) * n, f"n={n}") for n in range(1, max_n + 1)] + [
            (k, f"shape={k}") for k in ((1, 1), (2, 1), (2, 2), (1, 1, 1))]:
        for row in _dims_rows(BlockShape(k), range(1, len(k) + 1)):
            _check(checks, f"tensors {label} i={row['i']}", row["equal"],
                   f"dim {row['dim_cons']} expected {row['formula']}")


def _verify_groups(checks: list, max_n: int) -> None:
    from .groups import (build_universal_general, check_expansion_axioms,
                         grade_dims, universal_order_exponent)
    from .lie import governing_algebra_general
    from .tensors import BlockShape
    for k in ((1,), (1, 1), (1, 1, 1), (2, 1), (2, 2)):
        shape = BlockShape(k)
        G = build_universal_general(shape)
        _check(checks, f"groups order shape={k}",
               len(G.codes) == G.order == 2 ** universal_order_exponent(shape),
               f"order {len(G.codes)}")
        _check(checks, f"groups axioms shape={k}",
               all(check_expansion_axioms(G).values()))
        dims, want = grade_dims(G), governing_algebra_general(shape).dims
        _check(checks, f"groups grade dims shape={k}", dims == want,
               f"series {list(dims)} model {list(want)}")


def _epimorphism_problem(source, target) -> str:
    """Why lie_epimorphism fails to map source onto target; empty if it does.

    Every grade needs one image per source basis vector, and the images
    must span the target grade.
    """
    from .f2 import rank
    from .lie import lie_epimorphism
    try:
        images = lie_epimorphism(source, target)
    except RuntimeError as err:
        return str(err)
    for m, dim in enumerate(source.dims, start=1):
        got = len(images.get(m, []))
        if got != dim:
            return f"grade {m}: {got} images for {dim} basis vectors"
    for m, dim in enumerate(target.dims, start=1):
        got = rank(images.get(m, []))
        if got != dim:
            return f"grade {m}: images of rank {got}, target dimension {dim}"
    return ""


def _verify_lie(checks: list, max_n: int) -> None:
    from .groups import build_universal_general
    from .lie import check_lie_axioms, governing_algebra_general, lie_from_group
    from .tensors import BlockShape
    for k in ((1, 1), (1, 1, 1), (2, 1), (2, 2), (1,) * 4, (1,) * 5, (1,) * 6,
              (2, 1, 1, 1), (2, 1, 1, 1, 1)):
        shape = BlockShape(k)
        L = governing_algebra_general(shape)
        _check(checks, f"lie axioms shape={k}",
               all(check_lie_axioms(L).values()))
        LG = lie_from_group(build_universal_general(shape))
        _check(checks, f"lie group match shape={k}", LG.dims == L.dims,
               f"dims {LG.dims}")
        problem = _epimorphism_problem(L, LG) or _epimorphism_problem(LG, L)
        _check(checks, f"lie epimorphisms shape={k}", not problem, problem)


def _verify_expmaps(checks: list, max_n: int) -> None:
    from .expmaps import (CommVector, ThetaCocycle, build_phi_basis,
                          coboundary, cocycle_view, corner_operator,
                          lcomm_check, phi_layer, reconstruct_report,
                          solve_cochain, theta, _context)
    from .f2 import spans_equal
    from .groups import grade_dims, universal_order_exponent
    from .tensors import BlockShape
    for k in ((1, 1), (2, 1), (1, 1, 1), (1, 1, 1, 1)):
        if len(k) > max_n:
            continue
        shape = BlockShape(k)
        bad = 0
        for size in range(1, shape.n + 1):
            for A in combinations(range(shape.n), size):
                for i in A:
                    for x in shape.members(i):
                        for tup in product(range(shape.N), repeat=size):
                            left, right = lcomm_check(shape, A, x, tup)
                            bad += left != right
        _check(checks, f"expmaps lcomm shape={list(shape.k)}", bad == 0,
               f"{bad} mismatches")
        # dim layer j = labels - dim series term j-1 = labels - exponent + grades 1..j
        ctx = _context(shape)
        grades = grade_dims(ctx.group)
        free = len(ctx.labels) - universal_order_exponent(shape)
        dims = [len(phi_layer(shape, j)) for j in range(1, len(grades) + 2)]
        want = [free + sum(grades[:j]) for j in range(1, len(grades) + 2)]
        _check(checks, f"expmaps layer dims shape={list(shape.k)}", dims == want,
               f"layer dims {dims} expected {want}")
        if shape.n == 4:
            continue  # value tables at order 2^21 would pass the table ceiling
        good = True
        for p in build_phi_basis(shape):
            v = CommVector(shape, [corner_operator(shape, i, p)
                                   for i in range(shape.n)])
            good = good and theta(shape, v).rows == coboundary(p).rows
            good = good and cocycle_view(p)["certified"]
        _check(checks, f"expmaps expansion eq shape={list(shape.k)}", good)
    rep = reconstruct_report(BlockShape((1, 1)), 2,
                             [phi_layer(BlockShape((1,)), 1)] * 2)
    direct = phi_layer(BlockShape((1, 1)), 2)
    _check(checks, "expmaps reconstruct (1,1) j=2",
           spans_equal(rep["basis_coords"], [p.coords for p in direct]))
    ctx = _context(BlockShape((2,)))
    th = ThetaCocycle.from_function(
        BlockShape((2,)),
        lambda a, b: (ctx.group.phi(a) & 1) & (ctx.group.phi(b) & 1))
    _check(checks, "expmaps obstruction detected",
           solve_cochain(ctx.group, th) is None)


# each suite appends its checks; max_n bounds the tensor and expmaps
# suites, and "all" runs every suite in this order
_SUITES = {"tensors": _verify_tensors, "groups": _verify_groups,
           "lie": _verify_lie, "expmaps": _verify_expmaps}


def cmd_verify(args) -> tuple[dict, bool]:
    if args.max_n < 1:
        # below 1 the tensor rows and the expmaps shapes would be skipped
        raise ValueError(f"--max-n must be at least 1, got {args.max_n}")
    checks: list[dict] = []
    for name, suite in _SUITES.items():
        if args.suite in (name, "all"):
            suite(checks, args.max_n)
    return {"checks": checks}, all(c["passed"] for c in checks) and bool(checks)


# -- reconstruct --

def cmd_reconstruct(args) -> tuple[dict, bool]:
    from .expmaps import phi_layer, reconstruct_report, _context
    from .f2 import spans_equal
    shape = _parse_shape(args.shape)
    _presentation_cap(shape)
    # layer j is rebuilt from layer j-1 on each corner that drops one block
    if shape.n < 2:
        raise ValueError("reconstruction needs at least 2 blocks, one corner "
                         f"per dropped block; --shape {args.shape} has {shape.n}")
    if args.j < 2:
        raise ValueError(f"reconstruction starts at layer 2, got --j {args.j}")
    width = len(_context(shape).labels)
    corners = [phi_layer(shape.drop(i), args.j - 1) for i in range(shape.n)]
    rep = reconstruct_report(shape, args.j, corners)
    direct = phi_layer(shape, args.j)
    equal = spans_equal(rep["basis_coords"], [p.coords for p in direct])
    layer = {"shape": rep["shape"], "j": rep["j"], "dim": rep["dim"],
             "basis_coords": [[(c >> t) & 1 for t in range(width)]
                              for c in rep["basis_coords"]],
             "obstruction_count": rep["obstruction_count"]}
    return {"layer_report": layer, "commvect_dim": rep["commvect_dim"],
            "direct_dim": len(direct), "equal": equal}, equal


# -- arith --

def _arith_bound(n: int, text: str) -> tuple[dict, bool]:
    """maximality_bound, its grades j >= 2 checked against dim cons of the
    shape omega, N*C(n-1,j-1) - C(n,j), when omega lists one size per
    block and passes the dims guard; otherwise the reason no second route
    applies, in a report that passes."""
    from .tensors import BlockShape
    omega = int(text) if "," not in text else [int(v) for v in text.split(",")]
    total, grades = arith.maximality_bound(n, omega)
    results = {"total": total, "grades": grades}
    try:
        if isinstance(omega, int):
            raise ValueError("an integer --omega names no block sizes")
        shape, span = BlockShape(omega), range(2, n + 1)
        _dims_guard(shape, span)
    except ValueError as err:
        results["second_route"] = f"none: {err}"
        return results, True
    results["cons_grades"] = [r["dim_cons"] for r in _dims_rows(shape, span)]
    return results, grades[1:] == results["cons_grades"]


def _vector(v: arith.AcceptableVector) -> dict:
    return {"a": list(v.a), "omega": list(v.omega),
            "factorizations": [list(f) for f in v.factorizations]}


def cmd_arith(args) -> tuple[dict, bool]:
    if args.sub == "validate":
        return {**_vector(arith.validate_acceptable(args.entries)),
                "valid": True}, True
    if args.sub == "consistent":
        v = arith.validate_acceptable(args.entries)
        cons = arith.is_strongly_consistent(v)
        maximal = (arith.decide_maximal_n2(v) if len(v.a) <= 2
                   else "undecidable at this scope")
        return {"consistent": cons, "maximal": maximal}, cons
    if args.sub == "bound":
        return _arith_bound(args.n, args.omega)
    counts: dict[str, int] = {}
    v = arith.search_consistent(tuple(int(x) for x in args.k.split(",")),
                                args.budget, counts)
    if v is None:
        return {"found": False, **counts}, False
    verified = (arith.is_strongly_consistent(v)
                and arith.validate_acceptable(v.a).a == v.a)
    return {"found": True, **_vector(v), "verified": verified,
            **counts}, verified


# -- wiring --

def _render(report: RunReport) -> str:
    lines = [f"{report.command}  passed={report.passed}"
             f"  elapsed={report.elapsed}s"]
    for key, val in report.results.items():
        if key == "rows" and isinstance(val, list):
            for row in val:
                lines.append("  " + "  ".join(f"{k}={v}"
                                              for k, v in row.items()))
        elif key == "checks":
            for chk in val:
                mark = "ok" if chk["passed"] else "FAIL"
                tail = f"  {chk['detail']}" if chk["detail"] else ""
                lines.append(f"  [{mark}] {chk['name']}{tail}")
        elif key == "layer_report":
            short = {k: v for k, v in val.items() if k != "basis_coords"}
            lines.append(f"  layer_report: {short}")
        else:
            lines.append(f"  {key}: {val}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="genusforge",
        description="governing tensors, universal expansion groups, "
                    "expansion maps, and the arithmetic layer")
    ap.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("dims", help="governing/constraint dimension table")
    d.add_argument("--n", type=int)
    d.add_argument("--shape")
    d.add_argument("--i", type=int)
    d.set_defaults(fn=cmd_dims)

    u = sub.add_parser("universal", help="universal group size and axioms")
    u.add_argument("--n", type=int)
    u.add_argument("--shape")
    u.add_argument("--enumerate", action="store_true")
    u.set_defaults(fn=cmd_universal)

    v = sub.add_parser("verify", help="run a module invariant suite")
    v.add_argument("suite", choices=[*_SUITES, "all"])
    v.add_argument("--max-n", dest="max_n", type=int, default=5,
                   help="largest n for the tensor and expmaps checks")
    v.set_defaults(fn=cmd_verify)

    r = sub.add_parser("reconstruct", help="rebuild a layer from corners")
    r.add_argument("--shape", required=True)
    r.add_argument("--j", type=int, required=True)
    r.set_defaults(fn=cmd_reconstruct)

    a = sub.add_parser("arith", help="acceptable-vector queries")
    asub = a.add_subparsers(dest="sub", required=True)
    av = asub.add_parser("validate")
    av.add_argument("entries", nargs="+", type=int)
    ac = asub.add_parser("consistent")
    ac.add_argument("entries", nargs="+", type=int)
    ab = asub.add_parser("bound")
    ab.add_argument("--n", type=int, required=True)
    ab.add_argument("--omega", required=True)
    asr = asub.add_parser("search")
    asr.add_argument("--k", required=True)
    asr.add_argument("--budget", type=int, default=10 ** 4)
    a.set_defaults(fn=cmd_arith)

    return ap


_PARSER: argparse.ArgumentParser | None = None


def _refusals() -> tuple[type[Exception], ...]:
    """The errors main reports as refusals, read only while an exception
    is being matched.  A ResourceLimitError can come only from a command
    that loaded groups, so groups is looked up here, never imported: a
    refusal of a command that never ran it, as `arith validate 15`, loads
    no module the command did not."""
    groups = sys.modules.get(f"{__package__}.groups")
    limits = () if groups is None else (groups.ResourceLimitError,)
    return (ValueError, arith.FactorBudgetError, *limits)


def main(argv=None) -> int:
    """Run one command and print its report: each cmd_* returns (results,
    passed), and main alone records the parsed arguments, times the call
    and reports every refusal as {"error": ...} with passed=False."""
    # building the parser costs about 25 parses (1.7 ms against 0.07 ms),
    # so it is built on the first call of a process, not at import
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    params = {k: v for k, v in vars(args).items()
              if k not in ("json", "command", "fn")}
    t0 = time.perf_counter()
    try:
        results, passed = args.fn(args)
    except _refusals() as err:
        results, passed = {"error": str(err)}, False
    report = RunReport(args.command, params, results, bool(passed),
                       round(time.perf_counter() - t0, 6))
    print(report.to_json() if args.json else _render(report))
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
