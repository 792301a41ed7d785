"""Bit-packed GF(2) linear algebra."""

from __future__ import annotations

from unittest import mock

from hypothesis import given, strategies as st

from genusforge import f2
from genusforge.f2 import (
    F2Basis,
    F2Matrix,
    F2Solver,
    F2Vector,
    dot,
    in_span,
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
    return F2Matrix.from_strings(rows)


def test_low_bit_and_parity():
    assert low_bit(0b1000) == 3
    assert low_bit(1) == 0
    assert parity(0b1011) == 1
    assert parity(0) == 0
    assert dot(0b110, 0b011) == 1


def test_rank_identity():
    assert mat("100", "010", "001").rank() == 3


def test_rank_zero():
    assert F2Matrix(7, [0, 0, 0, 0]).rank() == 0


def test_rank_dependent_rows():
    # third row is the sum of the first two
    assert mat("110", "011", "101").rank() == 2


def test_kernel_identity_empty():
    assert mat("100", "010", "001").kernel_basis() == []


def test_kernel_zero_matrix_full():
    ker = F2Matrix(3, [0, 0]).kernel_basis()
    assert len(ker) == 3


def test_kernel_single_row():
    m = mat("111")
    ker = m.kernel_basis()
    assert len(ker) == 2
    for v in ker:
        assert v.bits != 0
        assert dot(v.bits, 0b111) == 0


def test_solve_identity():
    m = mat("100", "010", "001")
    b = F2Vector.from_string("101")
    assert m.solve(b) == b


def test_solve_zero_inconsistent():
    assert F2Matrix(3, [0, 0]).solve(0b01) is None


def test_solve_substitution():
    m = mat("110", "011")
    x = m.solve(0b11)
    assert x is not None
    assert m.apply(x.bits) == 0b11


def test_in_span():
    assert in_span([0b101, 0b010], 0)
    assert not in_span([], 1)
    assert in_span([0b011, 0b110], 0b101)


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


def test_vector_string_round_trip():
    v = F2Vector.from_string("0110")
    assert v.bits == 0b0110
    assert str(v) == "0110"


rows_strategy = st.lists(st.integers(0, 2**9 - 1), min_size=0, max_size=12)


@given(rows_strategy)
def test_rank_plus_nullity(rows):
    m = F2Matrix(9, rows)
    assert m.rank() + len(m.kernel_basis()) == 9


@given(rows_strategy)
def test_kernel_vectors_annihilate(rows):
    m = F2Matrix(9, rows)
    for v in m.kernel_basis():
        assert m.apply(v.bits) == 0


@given(rows_strategy, st.integers(0, 2**9 - 1))
def test_solve_round_trip(rows, x):
    m = F2Matrix(9, rows)
    b = m.apply(x)
    got = m.solve(b)
    assert got is not None
    assert m.apply(got.bits) == b


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
        assert not in_span(rows, w)
    else:
        acc = 0
        for k, r in enumerate(rows):
            if combo >> k & 1:
                acc ^= r
        assert acc == w


@given(rows_strategy, st.integers(0, 2**9 - 1))
def test_solve_none_means_inconsistent(rows, b):
    m = F2Matrix(9, rows)
    b &= (1 << m.rows) - 1
    x = solve(m, b)
    if x is None:
        # b is outside the column space: no exhaustive witness needed,
        # rank of the augmented system must grow
        aug = [r | (b >> k & 1) << 9 for k, r in enumerate(m.data)]
        assert rank(aug) == m.rank() + 1
    else:
        assert m.apply(x) == b


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
