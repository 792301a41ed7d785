"""Bit-packed GF(2) linear algebra."""

from __future__ import annotations

from unittest import mock

from hypothesis import given, strategies as st

from genusforge import f2
from genusforge.f2 import (
    F2Basis,
    F2Solver,
    kernel_basis,
    low_bit,
    parity,
    rank,
    rref,
    solve,
    spans_equal,
)
from oracles import rref_incremental


def mat(*rows):
    """Row masks from '0'/'1' strings, column 0 first."""
    return [int(r[::-1], 2) for r in rows]


def apply(rows, x):
    """m.x as a bitmask over row indices."""
    out = 0
    for k, r in enumerate(rows):
        out |= parity(r & x) << k
    return out


def test_low_bit_and_parity():
    assert low_bit(0b1000) == 3
    assert low_bit(1) == 0
    assert parity(0b1011) == 1
    assert parity(0) == 0
    assert parity(0b110 & 0b011) == 1


def test_rank_identity():
    assert rank(mat("100", "010", "001")) == 3


def test_rank_zero():
    assert rank([0, 0, 0, 0]) == 0


def test_rank_dependent_rows():
    # third row is the sum of the first two
    assert rank(mat("110", "011", "101")) == 2


def test_kernel_identity_empty():
    assert kernel_basis(mat("100", "010", "001"), 3) == []


def test_kernel_zero_matrix_full():
    ker = kernel_basis([0, 0], 3)
    assert len(ker) == 3


def test_kernel_single_row():
    ker = kernel_basis(mat("111"), 3)
    assert len(ker) == 2
    for v in ker:
        assert v != 0
        assert parity(v & 0b111) == 0


def test_solve_identity():
    m = mat("100", "010", "001")
    assert solve(m, 0b101, 3) == 0b101


def test_solve_zero_inconsistent():
    assert solve([0, 0], 0b01, 3) is None


def test_solve_substitution():
    m = mat("110", "011")
    assert m == [0b011, 0b110]
    x = solve(m, 0b11, 3)
    assert x is not None
    assert apply(m, x) == 0b11


def test_spans_equal():
    assert spans_equal([0b011, 0b110], [0b101, 0b011])
    assert not spans_equal([0b011], [0b011, 0b100])


def test_basis_incremental():
    basis = F2Basis()
    assert basis.add(0b011)
    assert basis.add(0b110)
    assert not basis.add(0b101)
    assert len(basis) == 2
    assert 0b101 in basis
    assert 0b100 not in basis


def test_solver_express():
    s = F2Solver()
    s.add(0b011)
    s.add(0b011)  # dependent, still consumes index 1
    s.add(0b110)
    combo = s.express(0b101)
    assert combo == 0b101 or combo == 0b001 | 0b100
    assert s.express(0b100) is None


rows_strategy = st.lists(st.integers(0, 2**9 - 1), min_size=0, max_size=12)


@given(rows_strategy)
def test_rank_plus_nullity(rows):
    assert rank(rows) + len(kernel_basis(rows, 9)) == 9


@given(rows_strategy)
def test_kernel_vectors_annihilate(rows):
    for v in kernel_basis(rows, 9):
        assert apply(rows, v) == 0


@given(rows_strategy, st.integers(0, 2**9 - 1))
def test_solve_round_trip(rows, x):
    b = apply(rows, x)
    got = solve(rows, b, 9)
    assert got is not None
    assert apply(rows, got) == b


@given(rows_strategy)
def test_elimination_deterministic(rows):
    a = kernel_basis(rows, 9)
    b = kernel_basis(list(rows), 9)
    assert a == b
    assert rank(rows) == rank(list(rows))


@given(rows_strategy, st.integers(0, 2**9 - 1))
def test_reduce_is_canonical_on_cosets(rows, v):
    basis = F2Basis(rows)
    for r in rows:
        assert basis.reduce(v ^ r) == basis.reduce(v)


@given(rows_strategy, st.integers(0, 2**9 - 1))
def test_solver_combo_reassembles(rows, w):
    s = F2Solver(rows)
    combo = s.express(w)
    if combo is None:
        assert w not in F2Basis(rows)
    else:
        acc = 0
        for k, r in enumerate(rows):
            if combo >> k & 1:
                acc ^= r
        assert acc == w


@given(rows_strategy, st.integers(0, 2**9 - 1))
def test_solve_none_means_inconsistent(rows, b):
    b &= (1 << len(rows)) - 1
    x = solve(rows, b, 9)
    if x is None:
        # b is outside the column space: no exhaustive witness needed,
        # rank of the augmented system must grow
        aug = [r | (b >> k & 1) << 9 for k, r in enumerate(rows)]
        assert rank(aug) == rank(rows) + 1
    else:
        assert apply(rows, x) == b


@given(st.lists(st.integers(0, 2**16 - 1), max_size=24),
       st.integers(0, 2**24 - 1))
def test_rref_matches_incremental_oracle(rows, b):
    got, want = rref(rows), rref_incremental(rows)
    assert got == want
    assert list(got) == list(want)
    ker, x = kernel_basis(rows, 16), solve(rows, b, 16)
    with mock.patch.object(f2, "rref", rref_incremental):
        assert ker == kernel_basis(rows, 16)
        assert x == solve(rows, b, 16)
