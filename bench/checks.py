"""Output checks that recompute every expected value without genusforge.

Each check takes plain data (numbers, lists, dicts) and returns a list of
problems; an empty list means the output is right.  Expected values come
from the closed formulas of the paper, from a GF(2) elimination written
here, and from Euler's criterion evaluated with ``pow``.  Nothing in this
module imports the package, so a fault in the package cannot hide itself
by also breaking its own check.
"""

from __future__ import annotations

from math import comb, gcd, isqrt, prod


def order_exponent(k) -> int:
    """log2 of the universal group order: N*2^(n-1) - 2^n + n + 1."""
    N, n = sum(k), len(k)
    return N * 2 ** (n - 1) - 2 ** n + n + 1


def grade_dims(k) -> list[int]:
    """Grade dimensions N, then N*C(n-1,i-1) - C(n,i) for i = 2..n."""
    N, n = sum(k), len(k)
    return [N] + [N * comb(n - 1, i - 1) - comb(n, i) for i in range(2, n + 1)]


def plain_dim(n: int, i: int) -> int:
    """Dimension of the plain governing space: n at i = 1, else (i-1)*C(n,i)."""
    return n if i == 1 else (i - 1) * comb(n, i)


def layer_dim(k, j: int) -> int:
    """Dimension of layer j: N + 2^n - 1 - n + sum over i = 2..j of grade i."""
    N, n = sum(k), len(k)
    return N + 2 ** n - 1 - n + sum(grade_dims(k)[1:j])


def report_error(report: dict) -> list[str]:
    """The error a failed CLI report carries instead of its results."""
    err = report.get("results", {}).get("error")
    return [] if err is None else [f"report failed: {err}"]


def rank(vecs) -> int:
    """GF(2) rank of integer row masks, by elimination on the lowest bit."""
    piv: dict[int, int] = {}
    for v in vecs:
        while v:
            low = v & -v
            if low not in piv:
                piv[low] = v
                break
            v ^= piv[low]
    return len(piv)


def spans_equal(a, b) -> bool:
    a, b = list(a), list(b)
    ra = rank(a)
    return ra == rank(b) == rank(a + b)


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    return all(m % d for d in range(2, isqrt(m) + 1))


def check_enumerate(k, order: int, axioms: dict, series_lens, lie_dims,
                    gov_dims, epimorphisms) -> list[str]:
    """Order, axioms, grade dimensions by two routes, and both epimorphisms.

    series_lens are the basis sizes of [G,G], [G,[G,G]], ... as returned;
    epimorphisms holds (source dims, target dims, images per grade) for
    each direction.
    """
    out = []
    want_exp = order_exponent(k)
    if order != 1 << want_exp:
        out.append(f"order {order}, expected 2^{want_exp}")
    if not axioms or not all(axioms.values()):
        out.append(f"axioms failed: {axioms}")
    want = grade_dims(k)
    total = order.bit_length() - 1
    lens = [total] + list(series_lens)
    from_series = [a - b for a, b in zip(lens, lens[1:])]
    while from_series and from_series[-1] == 0:
        from_series.pop()
    if from_series != want:
        out.append(f"series grades {from_series}, expected {want}")
    if list(lie_dims) != want:
        out.append(f"extracted Lie grades {list(lie_dims)}, expected {want}")
    if list(gov_dims) != want:
        out.append(f"governing algebra grades {list(gov_dims)}, expected {want}")
    for src, tgt, images in epimorphisms:
        for m in range(1, len(src) + 1):
            imgs = images.get(m, [])
            if len(imgs) != src[m - 1]:
                out.append(f"epimorphism grade {m}: {len(imgs)} images "
                           f"for {src[m - 1]} basis vectors")
            elif m <= len(tgt) and rank(imgs) != tgt[m - 1]:
                out.append(f"epimorphism grade {m} not onto: rank "
                           f"{rank(imgs)} of {tgt[m - 1]}")
    return out


def check_reconstruct(k, j: int, report: dict, direct) -> list[str]:
    """A CLI reconstruct report against the directly computed layer.

    direct holds the coordinate masks of phi_layer(shape, j); the report's
    basis comes as one bit list per vector.
    """
    if report_error(report):
        return report_error(report)
    out = []
    if not report.get("passed"):
        out.append("report says passed=False")
    layer = report["results"]["layer_report"]
    basis = [sum(bit << t for t, bit in enumerate(vec))
             for vec in layer["basis_coords"]]
    want = layer_dim(k, j)
    if layer["dim"] != want or rank(basis) != want:
        out.append(f"layer dim {layer['dim']} (rank {rank(basis)}), "
                   f"expected {want}")
    if layer["obstruction_count"]:
        out.append(f"{layer['obstruction_count']} obstructions")
    if not spans_equal(basis, direct):
        out.append("reconstructed span differs from the direct layer")
    return out


def check_dims(k, report: dict, plain: bool) -> list[str]:
    """A CLI dims report: every arity, both spaces, against the formula."""
    if report_error(report):
        return report_error(report)
    out = []
    if not report.get("passed"):
        out.append("report says passed=False")
    n = len(k)
    rows = report["results"]["rows"]
    if [r["i"] for r in rows] != list(range(1, n + 1)):
        out.append(f"arities {[r['i'] for r in rows]}, expected 1..{n}")
    for r in rows:
        want = plain_dim(n, r["i"]) if plain else grade_dims(k)[r["i"] - 1]
        if (r["dim_gov"], r["dim_cons"]) != (want, want) or not r["equal"]:
            out.append(f"i={r['i']}: gov {r['dim_gov']} cons {r['dim_cons']} "
                       f"equal {r['equal']}, expected {want}")
    return out


def check_lie_axioms(k, report: dict, dims) -> list[str]:
    out = []
    if not report or not all(report.values()):
        out.append(f"Lie axioms failed: {report}")
    if list(dims) != grade_dims(k):
        out.append(f"grades {list(dims)}, expected {grade_dims(k)}")
    return out


def check_arith(k, budget: int, report: dict) -> list[str]:
    """An arith search answer: acceptable, omega profile k, and consistent.

    Consistency is Euler's criterion p^((q-1)/2) = 1 mod q on every prime
    pair drawn from two different entries.
    """
    if report_error(report):
        return report_error(report)
    out = []
    res = report["results"]
    if not report.get("passed") or not res.get("found"):
        return ["no vector found"]
    a, facts = res["a"], res["factorizations"]
    if [len(f) for f in facts] != list(k):
        out.append(f"omega {[len(f) for f in facts]}, expected {list(k)}")
    for e, f in zip(a, facts):
        if prod(f) != e or len(set(f)) != len(f):
            out.append(f"entry {e} is not the squarefree product of {f}")
        for p in f:
            if not is_prime(p) or p % 4 != 1 or p > budget:
                out.append(f"{p} is not a prime 1 mod 4 within {budget}")
    for s in range(len(a)):
        for t in range(s + 1, len(a)):
            if gcd(a[s], a[t]) != 1:
                out.append(f"entries {a[s]} and {a[t]} share a factor")
            for p in facts[s]:
                for q in facts[t]:
                    if pow(p, (q - 1) // 2, q) != 1 or pow(q, (p - 1) // 2, p) != 1:
                        out.append(f"primes {p} and {q} are not mutual squares")
    return out
