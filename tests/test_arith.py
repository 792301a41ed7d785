"""Number-theoretic layer: symbols, acceptable vectors, maximality."""

from __future__ import annotations

import random
from itertools import product

import pytest

from genusforge.arith import (
    AcceptableVector,
    FactorBudgetError,
    decide_maximal_n2,
    is_strongly_consistent,
    jacobi,
    maximality_bound,
    search_consistent,
    validate_acceptable,
)
from genusforge.groups import universal_order_exponent
from genusforge.lie import governing_algebra_general
from genusforge.tensors import BlockShape, gov_equals_cons_check
from oracles import is_prime_naive, jacobi_by_euler, search_consistent_scan


def small_primes(limit):
    return [p for p in range(3, limit) if is_prime_naive(p)]


def test_jacobi_matches_euler_on_primes():
    for p in small_primes(200):
        for a in range(p):
            assert jacobi(a, p) == jacobi_by_euler(a, p), (a, p)


def test_jacobi_basics():
    assert jacobi(1, 1) == 1
    assert jacobi(0, 1) == 1
    assert jacobi(1, 9999) == 1
    assert jacobi(13, 17) == 1
    assert jacobi(13, 5) == -1
    assert jacobi(0, 15) == 0
    assert jacobi(10, 15) == 0
    for m in (0, -3, 2, 100):
        with pytest.raises(ValueError):
            jacobi(3, m)


def test_jacobi_multiplicative():
    rng = random.Random(7)
    for _ in range(300):
        m = rng.randrange(1, 2000) * 2 + 1
        a = rng.randrange(0, 3000)
        b = rng.randrange(0, 3000)
        assert jacobi(a * b, m) == jacobi(a, m) * jacobi(b, m)


def test_reciprocity_symmetric_for_one_mod_four():
    ps = [p for p in small_primes(1000) if p % 4 == 1]
    for i, p in enumerate(ps):
        for q in ps[i + 1:]:
            assert jacobi(p, q) == jacobi(q, p)


def test_validate_acceptable():
    v = validate_acceptable((5, 13))
    assert v.omega == (1, 1) and v.a == (5, 13)
    v = validate_acceptable((65, 29))
    assert v.omega == (2, 1)
    assert v.factorizations == ((5, 13), (29,))
    assert v.primes() == [5, 13, 29]
    assert v == AcceptableVector((65, 29), ((5, 13), (29,)))


def test_validate_rejections():
    with pytest.raises(ValueError, match="not 1 mod 4"):
        validate_acceptable((5, 15))
    with pytest.raises(ValueError, match="not squarefree"):
        validate_acceptable((25,))
    with pytest.raises(ValueError, match="share the factor 5"):
        validate_acceptable((5, 65))
    for bad in (1, 0, -5):
        with pytest.raises(ValueError, match="at least 2"):
            validate_acceptable((bad,))
    with pytest.raises(FactorBudgetError):
        validate_acceptable((10007 * 10009,), budget=100)
    # a prime below the budget's square is certified without a divisor
    assert validate_acceptable((37,), budget=7).omega == (1,)
    with pytest.raises(FactorBudgetError):
        validate_acceptable((101,), budget=7)


def test_strong_consistency():
    assert is_strongly_consistent(validate_acceptable((5, 29)))
    assert not is_strongly_consistent(validate_acceptable((5, 13)))
    assert is_strongly_consistent(validate_acceptable((5,)))
    assert is_strongly_consistent(validate_acceptable(()))
    assert not is_strongly_consistent(validate_acceptable((17, 5)))
    v = validate_acceptable((65, 29))
    want = all(jacobi_by_euler(p, q) == 1 and jacobi_by_euler(q, p) == 1
               for p in (5, 13) for q in (29,))
    assert is_strongly_consistent(v) == want


def test_maximality_bound_values():
    assert maximality_bound(1, 3) == (2, [2])
    assert maximality_bound(2, 4) == (5, [2, 3])
    assert maximality_bound(3, 3)[0] == 5
    assert maximality_bound(2, (2, 2)) == maximality_bound(2, 4)
    with pytest.raises(ValueError):
        maximality_bound(0, 3)
    # every entry has at least one prime
    assert maximality_bound(2, (1, 1)) == maximality_bound(2, 2) == (1, [0, 1])
    with pytest.raises(ValueError, match="has an entry below 1"):
        maximality_bound(2, (0, 1))
    with pytest.raises(ValueError, match="is below n = 3"):
        maximality_bound(3, 2)


def test_maximality_grades_sum():
    for n in range(1, 9):
        for w in range(n, 13):
            total, grades = maximality_bound(n, w)
            assert len(grades) == n
            assert sum(grades) == total


@pytest.mark.parametrize("k", [(1, 1), (2, 1), (2, 2, 1), (3, 1, 1), (2, 1, 1, 1),
                               (2, 2, 1, 1), (1,) * 5])
def test_maximality_bound_is_the_universal_algebra(k):
    # grades j >= 2 are the universal Lie algebra's, read both from the
    # constraint kernel and from the algebra; grade 1 drops the n block
    # characters, and with them the bound plus n is the group's exponent
    shape = BlockShape(k)
    total, grades = maximality_bound(shape.n, k)
    dims = governing_algebra_general(shape).dims
    assert grades[0] == shape.N - shape.n
    for j in range(2, shape.n + 1):
        assert grades[j - 1] == gov_equals_cons_check(shape, j)["dim_cons"] == dims[j - 1]
    assert total + shape.n == universal_order_exponent(shape)


def test_decide_maximal_small():
    assert decide_maximal_n2(validate_acceptable((5,)))
    assert decide_maximal_n2(validate_acceptable((13 * 17,)))
    assert decide_maximal_n2(validate_acceptable((5, 29)))
    assert not decide_maximal_n2(validate_acceptable((5, 13)))
    with pytest.raises(ValueError, match="undecidable"):
        decide_maximal_n2(validate_acceptable((5, 13, 17)))


def test_decide_matches_residue_oracle():
    ps = [p for p in small_primes(120) if p % 4 == 1]
    for i, p in enumerate(ps):
        for q in ps[i + 1:]:
            got = decide_maximal_n2(validate_acceptable((p, q)))
            want = jacobi_by_euler(p, q) == 1 and jacobi_by_euler(q, p) == 1
            assert got == want, (p, q)


def test_search_consistent_small():
    assert search_consistent((1,), 100).a == (5,)
    pair = search_consistent((1, 1), 100)
    assert pair.a == (5, 29)
    assert is_strongly_consistent(pair)
    triple = search_consistent((2, 1), 500)
    assert triple.a == (65, 29)
    assert is_strongly_consistent(triple)
    assert triple.omega == (2, 1)


def test_search_consistent_budget_and_errors():
    assert search_consistent((1, 1), 6) is None
    assert search_consistent((1,), 4) is None
    with pytest.raises(ValueError):
        search_consistent((), 100)
    with pytest.raises(ValueError):
        search_consistent((0, 1), 100)


def test_search_output_is_acceptable():
    v = search_consistent((2, 2), 10 ** 4)
    assert v is not None
    redone = validate_acceptable(v.a)
    assert redone.factorizations == v.factorizations
    assert is_strongly_consistent(v)
    assert all(p % 4 == 1 for p in v.primes())


def test_search_consistent_matches_scan():
    for size in range(1, 5):
        for k in product((1, 2, 3), repeat=size):
            for budget in (5, 13, 30, 60, 120, 300):
                got = search_consistent(k, budget)
                want = search_consistent_scan(k, budget)
                if want is None:
                    assert got is None, (k, budget)
                else:
                    assert got is not None, (k, budget)
                    assert got.a == want.a, (k, budget)
                    assert got.factorizations == want.factorizations


def test_search_consistent_slow_profiles():
    # eight one-prime entries: search_consistent_scan needs minutes to
    # exhaust the pool below 700 and seconds to find the vector below 2000
    assert search_consistent((1,) * 8, 700) is None
    v = search_consistent((1,) * 8, 2000)
    assert v.a == (5, 41, 269, 349, 449, 821, 1481, 1549)
    assert is_strongly_consistent(v)
