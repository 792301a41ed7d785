"""Span recorder for the traced run, and the per-layer split it yields.

The recorder wraps public functions of the genusforge modules and
installs each wrapper in every module namespace that holds the
function, which is where callers look the name up (``cli`` calls
``phi_layer`` through its own globals, ``expmaps`` calls
``build_universal_general`` through its own).  A span is
``[name, start, end, parent, attrs]`` with ``parent`` the index of the
enclosing span, or None.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# per-layer metrics and their units, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "groups.closure_s": "s", "groups.elements": "count",
    "groups.closure_elems_per_s": "1/s", "groups.axioms_s": "s",
    "groups.series_s": "s", "lie.extract_s": "s", "lie.epimorphism_s": "s",
    "lie.axioms_s": "s", "expmaps.theta_s": "s", "expmaps.solve_cochain_s": "s",
    "expmaps.phi_layer_s": "s", "expmaps.realize_s": "s", "expmaps.corner_s": "s",
    "expmaps.reconstruct_s": "s", "expmaps.theta_bits": "bits",
    "expmaps.cayley_edges": "count", "tensors.gov_s": "s", "tensors.cons_s": "s",
    "tensors.rows": "count", "f2.eliminate_s": "s", "f2.rows": "count",
    "f2.rank": "count", "arith.search_s": "s", "arith.jacobi_calls": "count",
    "cli.report_s": "s", "trace.pass_s": "s", "trace.spans": "count",
}


def _rows(x):
    """The rows argument of an f2 call, made reusable, and its length."""
    if isinstance(x, (list, tuple)):
        return x, len(x)
    data = getattr(x, "data", None)  # F2Matrix
    if data is not None:
        return x, len(data)
    x = list(x)
    return x, len(x)


def _f2_before(args, kwargs):
    m, n = _rows(args[0])
    return (m,) + args[1:], {"rows": n}


def _spans_equal_before(args, kwargs):
    a, na = _rows(args[0])
    b, nb = _rows(args[1])
    return (a, b) + args[2:], {"rows": na + nb}


def _rank_after(args, kwargs, out, attrs):
    attrs["rank"] = out


def _rref_after(args, kwargs, out, attrs):
    attrs["rank"] = len(out)


def _elements_after(args, kwargs, out, attrs):
    attrs["elements"] = out.order


def _theta_after(args, kwargs, out, attrs):
    attrs["theta_bits"] = len(out.rows) ** 2


def _cochain_after(args, kwargs, out, attrs):
    G = args[0]
    attrs["cayley_edges"] = G.order * len(G.gen_codes)


# (module, function, span name, before-hook, after-hook); a span named
# "layer.x" feeds the self-time metric "layer.x_s"
WRAPPED = (
    ("groups", "build_universal_general", "groups.closure", None, _elements_after),
    ("groups", "build_universal", "groups.closure", None, _elements_after),
    ("groups", "check_expansion_axioms", "groups.axioms", None, None),
    ("groups", "descending_central_series", "groups.series", None, None),
    ("lie", "lie_from_group", "lie.extract", None, None),
    ("lie", "lie_epimorphism", "lie.epimorphism", None, None),
    ("lie", "check_lie_axioms", "lie.axioms", None, None),
    ("expmaps", "theta", "expmaps.theta", None, _theta_after),
    ("expmaps", "solve_cochain", "expmaps.solve_cochain", None, _cochain_after),
    ("expmaps", "phi_layer", "expmaps.phi_layer", None, None),
    ("expmaps", "realize_commuting_vector", "expmaps.realize", None, None),
    ("expmaps", "corner_operator", "expmaps.corner", None, None),
    ("expmaps", "reconstruct_report", "expmaps.reconstruct", None, None),
    ("tensors", "gov_space", "tensors.gov", None, None),
    ("tensors", "gov_space_general", "tensors.gov", None, None),
    ("tensors", "cons_space", "tensors.cons", None, None),
    ("tensors", "cons_space_general", "tensors.cons", None, None),
    ("f2", "rref", "f2.eliminate", _f2_before, _rref_after),
    ("f2", "rank", "f2.eliminate", _f2_before, _rank_after),
    ("f2", "kernel_basis", "f2.eliminate", _f2_before, None),
    ("f2", "solve", "f2.eliminate", _f2_before, None),
    ("f2", "spans_equal", "f2.eliminate", _spans_equal_before, None),
    ("arith", "search_consistent", "arith.search", None, None),
)

# called too often for a span each; only the calls are counted
COUNTED = (("arith", "jacobi", "arith.jacobi_calls"),)


class Tracer:
    """Records spans while ``recording`` is set; wrappers pass through otherwise."""

    def __init__(self) -> None:
        self.recording = False
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def start(self) -> None:
        self.spans, self.counts, self._stack = [], Counter(), []
        self.recording = True

    def stop(self) -> tuple[list[list], Counter]:
        self.recording = False
        return self.spans, self.counts

    def _wrap(self, fn, name, before, after):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            attrs = {}
            if before is not None:
                args, attrs = before(args, kwargs)
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                    attrs]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, kwargs, out, attrs)
            return out
        return traced

    def _count(self, fn, key):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.recording:
                self.counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        """Put a wrapper in every genusforge namespace holding a wrapped function."""
        mods = [m for k, m in sorted(sys.modules.items())
                if k == "genusforge" or k.startswith("genusforge.")]
        plan = []
        for mod, fn, name, before, after in WRAPPED:
            orig = getattr(sys.modules["genusforge." + mod], fn)
            plan.append((orig, self._wrap(orig, name, before, after)))
        for mod, fn, key in COUNTED:
            orig = getattr(sys.modules["genusforge." + mod], fn)
            plan.append((orig, self._count(orig, key)))
        for orig, wrapper in plan:
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._installed.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._installed):
            setattr(m, attr, orig)
        self._installed = []


def layer_split(spans, counts, job_s: float) -> dict[str, float]:
    """Per-layer metrics of one job execution that took job_s seconds.

    A span's self time is its duration minus its direct children's.
    cli.report_s is the job time outside every top-level span.  f2.rows
    counts the rows entering outermost f2 calls; f2.rank sums the ranks
    that rref and rank find, nested or not; tensors.rows counts the
    constraint rows handed to elimination inside cons_space.
    """
    out = dict.fromkeys(LAYER_METRICS, 0)
    child = [0.0] * len(spans)
    for name, t0, t1, parent, attrs in spans:
        if parent is not None:
            child[parent] += t1 - t0
    top = 0.0
    for idx, (name, t0, t1, parent, attrs) in enumerate(spans):
        out[name + "_s"] += (t1 - t0) - child[idx]
        pname = spans[parent][0] if parent is not None else None
        if parent is None:
            top += t1 - t0
        if name == "f2.eliminate":
            if pname != "f2.eliminate":
                out["f2.rows"] += attrs["rows"]
            out["f2.rank"] += attrs.get("rank", 0)
            if pname == "tensors.cons":
                out["tensors.rows"] += attrs["rows"]
        out["groups.elements"] += attrs.get("elements", 0)
        out["expmaps.theta_bits"] += attrs.get("theta_bits", 0)
        out["expmaps.cayley_edges"] += attrs.get("cayley_edges", 0)
    out["arith.jacobi_calls"] = counts.get("arith.jacobi_calls", 0)
    out["cli.report_s"] = job_s - top
    out["trace.pass_s"] = job_s
    out["trace.spans"] = len(spans)
    return out


def combine(splits) -> dict[str, float]:
    """Sum per-job splits into one pass; the closure rate is recomputed."""
    out = dict.fromkeys(LAYER_METRICS, 0)
    for split in splits:
        for key, val in split.items():
            out[key] += val
    closure = out["groups.closure_s"]
    out["groups.closure_elems_per_s"] = (out["groups.elements"] / closure
                                         if closure > 0 else 0.0)
    return out
