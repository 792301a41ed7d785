"""Full acceptance battery: one budgeted, printed verdict per criterion.

Each test covers one headline identity end to end and prints a single
pass/fail line so the battery reads as a checklist under pytest -q.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from itertools import combinations, product
from math import comb

import pytest

from genusforge.arith import (
    _primes_1mod4,
    decide_maximal_n2,
    is_strongly_consistent,
    maximality_bound,
    search_consistent,
    validate_acceptable,
)
from genusforge.expmaps import (
    CommVector,
    ThetaCocycle,
    _context,
    build_phi_basis,
    coboundary,
    cocycle_view,
    corner_operator,
    lcomm_check,
    phi_layer,
    realize_commuting_vector,
    reconstruct_report,
    solve_cochain,
    theta,
)
from genusforge.f2 import kernel_basis, spans_equal
from genusforge.groups import (
    ENUM_CEILING,
    ResourceLimitError,
    augmentation_power_span,
    build_universal,
    build_universal_general,
    check_expansion_axioms,
    descending_central_series,
    grade_dims,
    universal_order_exponent,
)
from genusforge.lie import governing_algebra_general, lie_epimorphism, lie_from_group
from genusforge.tensors import (
    BlockShape,
    cons_dim_formula_general,
    cons_rows,
    gov_equals_cons_check,
    inj_tuples,
    mask_of,
)
from oracles import compositions, jacobi_by_euler
from statements import is_cocycle

_BIG: dict[str, object] = {}


def universal4():
    """The 2^21-element universal group, built once for the battery."""
    if "g4" not in _BIG:
        _BIG["g4"] = build_universal(4)
    return _BIG["g4"]


@contextmanager
def verdict(capsys, label: str, budget: float):
    t0 = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - t0
        assert elapsed < budget, f"{label}: {elapsed:.1f}s over {budget}s budget"
    except BaseException:
        with capsys.disabled():
            print(f"{label}: FAIL")
        raise
    with capsys.disabled():
        print(f"{label}: PASS ({elapsed:.2f}s)")


def test_criterion_01_tensor_dimensions(capsys):
    # constraint kernel = governing span, dimension (i-1)*C(n,i) for i >= 2
    # and n characters at arity 1, across every support size up to 7
    with verdict(capsys, "criterion 01 tensor dimensions", 120):
        for n in range(1, 8):
            sh = BlockShape((1,) * n)
            for i in range(1, n + 1):
                rep = gov_equals_cons_check(sh, i)
                assert rep["equal"]
                assert rep["dim_gov"] == rep["dim_cons"] == cons_dim_formula_general(sh, i)
                if i >= 2:
                    assert rep["dim_cons"] == (i - 1) * comb(n, i)
                else:
                    assert rep["dim_cons"] == n


def test_criterion_02_block_tensor_dimensions(capsys):
    shapes = ((1, 1), (2, 1), (2, 2), (1, 1, 1), (2, 1, 1), (3, 2), (2, 2, 2),
              (2, 2, 1, 1), (2, 2, 1, 1, 1))
    with verdict(capsys, "criterion 02 block tensor dimensions", 120):
        for k in shapes:
            sh = BlockShape(k)
            for i in range(2, sh.n + 1):
                rep = gov_equals_cons_check(sh, i)
                assert rep["equal"]
                want = sh.N * comb(sh.n - 1, i - 1) - comb(sh.n, i)
                assert want == cons_dim_formula_general(sh, i)
                assert rep["dim_gov"] == rep["dim_cons"] == want


def test_criterion_03_universal_group_orders(capsys):
    with verdict(capsys, "criterion 03 universal group orders", 600):
        t0 = time.perf_counter()
        for n in (1, 2, 3):
            G = build_universal(n)
            assert G.order == 1 << (n * 2 ** (n - 1) - 2 ** n + n + 1)
        assert time.perf_counter() - t0 < 1.0
        assert universal4().order == 1 << 21
        for total in range(1, 6):
            for k in compositions(total):
                sh = BlockShape(k)
                exp = universal_order_exponent(sh)
                assert exp == total * 2 ** (sh.n - 1) - 2 ** sh.n + sh.n + 1
                if 1 << exp > ENUM_CEILING:
                    # the presentation gives the order; enumeration is refused
                    G = build_universal_general(sh)
                    assert G.order == 1 << exp
                    with pytest.raises(ResourceLimitError) as err:
                        G.codes
                    assert err.value.predicted_order == 1 << exp
                elif k == (1, 1, 1, 1):
                    assert universal4().order == 1 << exp
                else:
                    assert build_universal_general(sh).order == 1 << exp


def test_criterion_04_lie_correspondence(capsys):
    # the epimorphism construction verifies every generator bracket row,
    # so running it both ways pins the two bracket tables to each other
    with verdict(capsys, "criterion 04 lie correspondence", 300):
        for n in (1, 2, 3):
            L = lie_from_group(build_universal(n))
            M = governing_algebra_general(BlockShape((1,) * n))
            want = (n,) + tuple((i - 1) * comb(n, i) for i in range(2, n + 1))
            assert L.dims == M.dims == want
            lie_epimorphism(M, L)
            lie_epimorphism(L, M)
        L4 = lie_from_group(universal4())
        M4 = governing_algebra_general(BlockShape((1,) * 4))
        assert L4.dims == M4.dims == (4, 6, 8, 3)
        lie_epimorphism(M4, L4)
        lie_epimorphism(L4, M4)
        for k in ((1,) * 5, (1,) * 6, (2, 1, 1, 1, 1)):
            sh = BlockShape(k)
            L = lie_from_group(build_universal_general(sh))
            M = governing_algebra_general(sh)
            assert L.dims == M.dims, k
            lie_epimorphism(M, L)
            lie_epimorphism(L, M)


def test_criterion_05_commutator_evaluation(capsys):
    # extractor on a nested commutator of generators = governing tensor
    with verdict(capsys, "criterion 05 commutator evaluation", 300):
        mismatches = 0
        for n in (1, 2, 3):
            sh = BlockShape((1,) * n)
            for size in range(1, n + 1):
                for A in combinations(range(n), size):
                    for x in A:
                        for gens in product(range(n), repeat=size):
                            left, right = lcomm_check(sh, A, x, gens)
                            mismatches += left != right
        sh = BlockShape((1, 1, 1, 1))
        rng = random.Random(424243)
        for _ in range(10_000):
            size = rng.randint(1, 4)
            A = tuple(sorted(rng.sample(range(4), size)))
            x = rng.choice(A)
            gens = tuple(rng.randrange(4) for _ in range(size))
            left, right = lcomm_check(sh, A, x, gens)
            mismatches += left != right
        assert mismatches == 0


def test_criterion_06_expansion_equation(capsys):
    # d(phi)(s,t) = sum over proper nonempty B of chi_B(s) * corner_B(phi)(t),
    # checked on every basis map at every element pair of the group
    with verdict(capsys, "criterion 06 expansion equation", 300):
        for k in ((1,), (2,), (3,), (1, 1), (2, 1), (1, 2), (1, 1, 1)):
            sh = BlockShape(k)
            for p in build_phi_basis(sh):
                if sh.n == 1:
                    assert cocycle_view(p)["certified"]
                else:
                    v = CommVector(sh, [corner_operator(sh, i, p)
                                        for i in range(sh.n)])
                    assert theta(sh, v).rows == coboundary(p).rows


def test_criterion_07_reconstruction_round_trip(capsys):
    with verdict(capsys, "criterion 07 reconstruction round trip", 300):
        for k in ((1, 1), (2, 1), (1, 1, 1)):
            sh = BlockShape(k)
            cls = len(grade_dims(_context(sh).group))
            for j in range(2, cls + 1):
                corners = [phi_layer(sh.drop(i), j - 1) for i in range(sh.n)]
                rep = reconstruct_report(sh, j, corners)
                assert rep["obstruction_count"] == 0
                direct = [p.coords for p in phi_layer(sh, j)]
                assert rep["dim"] == len(direct)
                assert spans_equal(rep["basis_coords"], direct)
            charbits = (1 << sh.N) - 1
            for p in build_phi_basis(sh):
                v = CommVector(sh, [corner_operator(sh, i, p)
                                    for i in range(sh.n)])
                assert theta(sh, v).rows == coboundary(p).rows
                got = realize_commuting_vector(sh, v)
                assert (got.coords ^ p.coords) & ~charbits == 0
                for i in range(sh.n):
                    assert corner_operator(sh, i, got) == v.entries[i]


def test_criterion_08_augmentation_identity(capsys):
    with verdict(capsys, "criterion 08 augmentation identity", 300):
        for total in range(1, 5):
            for k in compositions(total):
                sh = BlockShape(k)
                G = universal4() if k == (1, 1, 1, 1) else build_universal_general(sh)
                series = descending_central_series(G)
                cls = len(grade_dims(G))
                assert len(series) == cls
                for i in range(2, cls + 2):
                    assert spans_equal(augmentation_power_span(G, i),
                                       series[i - 2])


def test_criterion_09_mutation_sensitivity(capsys):
    with verdict(capsys, "criterion 09 mutation sensitivity", 300):
        # each dropped bracket row opens the kernel strictly
        support = (1 << 4) - 1
        rows = cons_rows(support, 3)
        cols = len(inj_tuples(support, 3))
        base = len(kernel_basis([mask_of(c) for c in rows], cols=cols))
        assert base == 8
        hw = [t for t, c in enumerate(rows) if len(c) == 3]
        assert len(hw) == 4
        for t in hw:
            kept = [mask_of(c) for s, c in enumerate(rows) if s != t]
            assert len(kernel_basis(kept, cols=cols)) > base

        # a non-involution generator breaks the involution axiom
        G = build_universal(3)
        assert all(check_expansion_axioms(G).values())
        g0, g1, g2 = G.gen_codes
        mut = G.with_generators([G.mul(g0, G.commutator(g1, g2)), g1, g2])
        assert check_expansion_axioms(mut)["axiom4"] is False

        # the cocycle of the order-4 extension of V4 admits no cochain
        sh = BlockShape((2,))
        H = _context(sh).group
        assert H.order == 4
        th = ThetaCocycle.from_function(
            sh, lambda a, b: (H.phi(a) & 1) & (H.phi(b) & 1))
        assert is_cocycle(th)
        assert solve_cochain(H, th) is None


def test_criterion_10_arithmetic_layer(capsys):
    with verdict(capsys, "criterion 10 arithmetic layer", 60):
        for n in range(1, 9):
            for omega in range(1, 13):
                if omega < n:
                    # each of the n entries has at least one prime
                    with pytest.raises(ValueError, match="below n"):
                        maximality_bound(n, omega)
                    continue
                total, grades = maximality_bound(n, omega)
                assert total == omega * 2 ** (n - 1) - 2 ** n + 1
                assert sum(grades) == total
                assert grades[0] == omega - n

        pool = _primes_1mod4(500)
        assert pool[0] == 5 and len(pool) > 20
        for a, b in combinations(pool, 2):
            want = (jacobi_by_euler(a, b) == 1
                    and jacobi_by_euler(b, a) == 1)
            assert decide_maximal_n2(validate_acceptable((a, b))) is want

        for k in ((1, 1), (2, 1), (2, 2)):
            v = search_consistent(k, 10_000)
            assert v is not None
            assert v.omega == k
            assert is_strongly_consistent(v)
            assert validate_acceptable(v.a).factorizations == v.factorizations
