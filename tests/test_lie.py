"""Graded Lie algebras: governing models, group quotients, comparisons."""

from __future__ import annotations

import copy
import random

import pytest

import oracles
from genusforge import lie
from genusforge.f2 import rank
from genusforge.groups import build_universal, build_universal_general, descending_central_series
from genusforge.lie import (
    GradedLie,
    check_lie_axioms,
    governing_algebra_general,
    lie_epimorphism,
    lie_from_group,
)
from genusforge.tensors import BlockShape
from oracles import (check_lie_axioms_direct, compositions, lie_epimorphism_tuples, nested,
                     nested_mixed)
from statements import tensor_pairing, unique_epimorphism


def plain(n: int) -> GradedLie:
    """The universal algebra of the all-ones shape on n involutions."""
    return governing_algebra_general(BlockShape((1,) * n))


def total_formula(shape: BlockShape) -> int:
    return shape.N * 2 ** (shape.n - 1) - 2 ** shape.n + 1 + shape.n


def test_governing_dims_frozen():
    assert plain(1).dims == (1,)
    assert plain(2).dims == (2, 1)
    assert plain(3).dims == (3, 3, 2)
    assert plain(4).dims == (4, 6, 8, 3)
    assert sum(plain(4).dims) == 21
    for k in ((2,), (2, 1), (2, 2), (3, 1), (1, 1, 1), (2, 2, 1), (3, 2)):
        sh = BlockShape(k)
        L = governing_algebra_general(sh)
        assert sum(L.dims) == total_formula(sh)
    assert sum(governing_algebra_general(BlockShape((2, 2))).dims) == 7
    assert sum(governing_algebra_general(BlockShape((3, 1))).dims) == 7


def test_single_block_is_abelian():
    L = governing_algebra_general(BlockShape((3,)))
    assert L.dims == (3,)
    assert L.bracket((1, 0b101), (1, 0b011)) == (2, 0)


def test_trivial_blocks_reduce_to_plain_model():
    # the plain chain model on three involutions: [e_x, e_y] is the
    # coordinate of the pair {x, y}, and grade 2 brackets into the two
    # chain coordinates of {0, 1, 2}
    b = governing_algebra_general(BlockShape((1, 1, 1)))
    assert b.dims == (3, 3, 2)
    assert b.tables == {1: [[0, 1, 2], [1, 0, 4], [2, 4, 0]],
                        2: [[0, 0, 2], [0, 3, 0], [1, 0, 0]]}


def test_chain_bracket_examples():
    L2 = plain(2)
    assert L2.bracket((1, 0b01), (1, 0b10)) == (2, 1)
    assert L2.bracket((1, 0b10), (1, 0b01)) == (2, 1)

    L21 = governing_algebra_general(BlockShape((2, 1)))
    assert L21.bracket((1, 1 << 0), (1, 1 << 1)) == (2, 0)
    assert L21.bracket((1, 1 << 0), (1, 1 << 2)) == (2, 0b11)
    assert L21.bracket((1, 1 << 1), (1, 1 << 2)) == (2, 0b10)

    L3 = plain(3)
    assert nested(L3, (0, 1, 2)) == (3, 0b10)
    assert nested(L3, (2, 0, 1)) == (3, 0b01)
    # char-2 Jacobi: [e1,[e0,e2]] = [e0,[e1,e2]] + [e2,[e0,e1]]
    assert nested(L3, (1, 0, 2)) == (3, 0b11)
    # repeated leading entry and blocked entries vanish
    assert nested(L3, (0, 0, 1))[1] == 0
    assert nested(L3, (0, 1, 0))[1] == 0
    assert nested(L21, (0, 1))[1] == 0


def test_bracket_grade_bookkeeping():
    L = plain(3)
    g2 = (2, 1)
    assert L.bracket(g2, g2) == (4, 0)
    assert nested(L, (0, 1, 2, 0))[1] == 0
    with pytest.raises(ValueError):
        nested_mixed(L, [])


def test_governing_axioms_hold():
    for n in (2, 3, 4):
        rep = check_lie_axioms(plain(n))
        assert all(rep.values()), (n, rep)
    for k in ((2, 1), (2, 2), (3, 2), (2, 2, 1)):
        rep = check_lie_axioms(governing_algebra_general(BlockShape(k)))
        assert all(rep.values()), (k, rep)


def test_nilpotency_class_bound():
    for n in (1, 2, 3, 4):
        assert plain(n).nclass <= n + 1
    for k in ((2, 1), (2, 2, 1)):
        sh = BlockShape(k)
        assert governing_algebra_general(sh).nclass <= sh.n + 1


def test_lie_from_group_matches_governing():
    for n in (2, 3):
        G = build_universal(n)
        L = lie_from_group(G)
        M = plain(n)
        assert L.dims == M.dims
        assert sum(L.dims) == G.order.bit_length() - 1
        assert all(check_lie_axioms(L).values())
        fwd = lie_epimorphism(M, L)
        back = lie_epimorphism(L, M)
        for m in range(1, M.nclass + 1):
            assert rank(fwd[m]) == M.dims[m - 1]
            assert rank(back[m]) == M.dims[m - 1]


def test_lie_from_group_general_shapes():
    for k in ((2, 1), (2, 2), (1, 1, 1)):
        sh = BlockShape(k)
        G = build_universal_general(sh)
        L = lie_from_group(G)
        M = governing_algebra_general(sh)
        assert L.dims == M.dims
        assert sum(L.dims) == G.order.bit_length() - 1
        assert all(check_lie_axioms(L).values())
        lie_epimorphism(M, L)


def test_series_commutator_is_one_act():
    # a series vector r has zero vector part, so act(r, -) is the
    # identity and [g_x, r] = r ^ act(g_x, r), the form lie_from_group
    # uses past grade 1
    pairs = 0
    for N in range(1, 7):
        for k in compositions(N):
            G = build_universal_general(BlockShape(k))
            for term in descending_central_series(G):
                for r in term:
                    for gx in G.gen_codes:
                        assert r ^ G.act(gx, r) == G.commutator(gx, r), k
                        pairs += 1
    assert pairs == 13258


def test_lie_from_group_requires_axioms():
    G = build_universal(3)
    g0, g1, g2 = G.gen_codes
    bad = G.with_generators([G.mul(g0, G.commutator(g1, g2)), g1, g2])
    with pytest.raises(ValueError):
        lie_from_group(bad)
    with pytest.raises(TypeError):
        lie_from_group(object())


def test_quotient_group_lie_surjection():
    G = build_universal(3)
    ncl = oracles.normal_closure(
        G, [G.commutator(G.gen_codes[0], G.gen_codes[1])])
    Q = oracles.QuotientGroup(G, ncl, [0, 1, 2], G.shape)
    assert Q.order < G.order
    assert all(oracles.check_expansion_axioms_by_sets(Q).values())
    assert unique_epimorphism(G, Q) is not None
    LQ = oracles.lie_from_quotient(Q)
    assert sum(LQ.dims) == Q.order.bit_length() - 1
    assert all(check_lie_axioms(LQ).values())
    M = plain(3)
    fwd = lie_epimorphism(M, LQ)
    for m in range(1, LQ.nclass + 1):
        assert rank(fwd[m]) == LQ.dims[m - 1]
    assert sum(M.dims) - sum(LQ.dims) == 8 - sum(LQ.dims) > 0


def test_quotient_lie_requires_axioms():
    # g0 dies in the quotient but stays a generator, so phi(g0) = 0
    G = build_universal(3)
    Q = oracles.QuotientGroup(
        G, oracles.normal_closure(G, [G.gen_codes[0]]), [0, 1, 2], G.shape)
    rep = oracles.check_expansion_axioms_by_sets(Q)
    assert not rep["axiom1"] and rep["axiom4"]
    with pytest.raises(ValueError, match="expansion axioms"):
        oracles.lie_from_quotient(Q)


def test_corner_quotient_lie():
    G = build_universal(3)
    LQ = oracles.lie_from_quotient(oracles.corner(G, 2))
    assert LQ.dims == (2, 1)
    fwd = lie_epimorphism(plain(2), LQ)
    assert [rank(v) for v in fwd.values()] == [2, 1]

    for k in [(2, 1), (1, 1, 1), (2, 1, 1)]:
        shape = BlockShape(k)
        G = build_universal_general(shape)
        for i in range(shape.n):
            LC = oracles.lie_from_quotient(oracles.corner(G, i))
            LM = lie_from_group(build_universal_general(shape.drop(i)))
            assert LC.dims == LM.dims, (k, i)
    LC = oracles.lie_from_quotient(
        oracles.corner(build_universal_general(BlockShape((2, 1))), 1))
    assert LC.dims == (2,)


def test_identity_epimorphism():
    L = plain(3)
    out = lie_epimorphism(L, L)
    for m in range(1, L.nclass + 1):
        assert out[m] == [1 << k for k in range(L.dims[m - 1])]


def test_epimorphism_errors():
    with pytest.raises(ValueError):
        lie_epimorphism(plain(2), plain(3))
    src = plain(2)
    longer = GradedLie(src.shape, (2, 1, 1), dict(src.tables))
    with pytest.raises(RuntimeError, match="classification violation"):
        lie_epimorphism(src, longer)
    skew = GradedLie(src.shape, (2, 1), {1: [[0, 1], [0, 0]]})
    with pytest.raises(RuntimeError, match="classification violation"):
        lie_epimorphism(src, skew)
    hollow = GradedLie(src.shape, (2, 1), {1: [[0, 0], [0, 0]]})
    with pytest.raises(RuntimeError, match="classification violation"):
        lie_epimorphism(hollow, src)
    M = plain(3)
    tableless = GradedLie(M.shape, M.dims, {2: M.tables[2]})
    with pytest.raises(RuntimeError, match="grade not spanned"):
        lie_epimorphism(tableless, M)
    # a nonzero bracket out of the top grade lands in no grade of the source
    overhang = GradedLie(M.shape, M.dims, {**M.tables, 3: [[1, 0], [0, 0], [0, 0]]})
    for route in (lie_epimorphism, lie_epimorphism_tuples):
        with pytest.raises(RuntimeError, match="bracket leaves the grades"):
            route(overhang, M)
    # grade 2 holds one vector, and the only entry that reaches it also
    # carries a bit past the grade, so that vector alone is not spanned
    spill = GradedLie(src.shape, (2, 1), {1: [[0, 3], [3, 0]]})
    for route in (lie_epimorphism, lie_epimorphism_tuples):
        with pytest.raises(RuntimeError, match="grade not spanned"):
            route(spill, src)
    # grade 3 of M is spanned by [e_0, b_2] = 2 and [e_1, b_1] = 3, and
    # the redundant entry [e_2, b_0] = 1 is their sum; a target that
    # clears its image breaks that dependency, which only the dependent
    # row of the grade's elimination sees
    assert (M.tables[2][0][2], M.tables[2][1][1], M.tables[2][2][0]) == (2, 3, 1)
    redundant = copy.deepcopy(M.tables)
    redundant[2][2][0] = 0
    target = GradedLie(M.shape, M.dims, redundant)
    with pytest.raises(RuntimeError, match="brackets disagree"):
        lie_epimorphism(M, target)
    with pytest.raises(RuntimeError, match="classification violation"):
        lie_epimorphism_tuples(M, target)


def epimorphism_or_error(source, target, route):
    try:
        return route(source, target)
    except RuntimeError:
        return "classification violation"


def test_epimorphism_matches_tuple_walk():
    # images and verdicts of the route along the bracket tables equal those
    # of the walk over every nested bracket, on the models, the group
    # algebras and seeded table mutants of both
    algebras = []
    for N in range(1, 6):
        for k in compositions(N):
            shape = BlockShape(k)
            M = governing_algebra_general(shape)
            L = lie_from_group(build_universal_general(shape))
            algebras += [M, L]
            for src, tgt in ((M, L), (L, M), (M, M)):
                got = lie_epimorphism(src, tgt)
                assert got == lie_epimorphism_tuples(src, tgt), k
    rng = random.Random(19)
    verdicts = set()
    for flips in (1, 2, 3):
        for _ in range(120):
            A = rng.choice([A for A in algebras if A.tables])
            tables = copy.deepcopy(A.tables)
            for _ in range(flips):
                m = rng.choice(sorted(tables))
                row = tables[m][rng.randrange(A.shape.N)]
                row[rng.randrange(len(row))] ^= 1 << rng.randrange(A.dims[m])
            mutant = GradedLie(A.shape, A.dims, tables)
            B = rng.choice([B for B in algebras if B.shape == A.shape])
            for src, tgt in ((mutant, B), (B, mutant), (mutant, mutant)):
                got = epimorphism_or_error(src, tgt, lie_epimorphism)
                assert got == epimorphism_or_error(src, tgt, lie_epimorphism_tuples), \
                    (flips, A.shape.k)
                verdicts.add(isinstance(got, dict))
    assert verdicts == {True, False}


def test_epimorphism_work_is_bounded_by_the_tables(monkeypatch):
    # one elimination per grade over the N * dims[m-1] table entries, the
    # target brackets read by one table walk: no more than
    # 2 * N * sum(dims) bracket applications, not one per nested tuple.
    # Every output entry of lie._images counts as one, as does every
    # bracket_gen call.
    shape = BlockShape((1,) * 5)
    M = governing_algebra_general(shape)
    L = lie_from_group(build_universal_general(shape))
    calls = 0
    real_images, real_gen = lie._images, GradedLie.bracket_gen

    def counted_images(tab, vecs, n):
        nonlocal calls
        calls += n * len(vecs)
        return real_images(tab, vecs, n)

    def counted_gen(self, x, m, bits):
        nonlocal calls
        calls += 1
        return real_gen(self, x, m, bits)

    monkeypatch.setattr(lie, "_images", counted_images)
    monkeypatch.setattr(GradedLie, "bracket_gen", counted_gen)
    lie_epimorphism(M, L)
    assert 0 < calls <= 2 * shape.N * sum(M.dims) == 540


def test_lie_axioms_work_is_bounded_by_the_tables(monkeypatch):
    # one composition table per grade, N * N * dims[m-1] entries, and one
    # pass over the grade tables for the spans and the block sets: no more
    # than 2 * N * N * sum(dims) bracket applications, not one per nested
    # tuple.  Every output entry of lie._images counts as one.
    shape = BlockShape((1,) * 5)
    M = governing_algebra_general(shape)
    L = lie_from_group(build_universal_general(shape))
    calls = 0
    real_images, real_gen = lie._images, GradedLie.bracket_gen

    def counted_images(tab, vecs, n):
        nonlocal calls
        calls += n * len(vecs)
        return real_images(tab, vecs, n)

    def counted_gen(self, x, m, bits):
        nonlocal calls
        calls += 1
        return real_gen(self, x, m, bits)

    monkeypatch.setattr(lie, "_images", counted_images)
    monkeypatch.setattr(GradedLie, "bracket_gen", counted_gen)
    for A in (M, L):
        calls = 0
        assert all(check_lie_axioms(A).values())
        assert 0 < calls <= 2 * shape.N ** 2 * sum(A.dims) == 2700


def test_mutant_structure_constants_detected():
    M = plain(3)
    skew = copy.deepcopy(M.tables)
    skew[1][0][1] ^= 1
    rep = check_lie_axioms(GradedLie(M.shape, M.dims, skew))
    assert not rep["axiom1"]

    dead = copy.deepcopy(M.tables)
    dead[1][0][1] ^= 1
    dead[1][1][0] ^= 1
    rep = check_lie_axioms(GradedLie(M.shape, M.dims, dead))
    assert not (rep["axiom1"] and rep["axiom3"] and rep["axiom4"])

    T = governing_algebra_general(BlockShape((2, 1)))
    blk = copy.deepcopy(T.tables)
    blk[1][0][1] ^= 1
    blk[1][1][0] ^= 1
    rep = check_lie_axioms(GradedLie(T.shape, T.dims, blk))
    assert not rep["tilde2"]


def test_axiom3_keeps_an_earlier_failure():
    # grade 2 is not spanned (rank 1 of 3); the missing table into the
    # empty grade 3 spans it, and must not clear the grade-2 failure
    L = GradedLie(BlockShape((1, 1, 1)), (3, 3, 0),
                  {1: [[0, 1, 0], [1, 0, 0], [0, 0, 0]]})
    for check in (check_lie_axioms, check_lie_axioms_direct):
        assert check(L)["axiom3"] is False, check.__name__
    assert check_lie_axioms(GradedLie(L.shape, (3, 1, 0), L.tables))["axiom3"]


def test_tensor_pairing_perfect():
    for n in (2, 3):
        L = plain(n)
        for i in range(2, n + 1):
            mats = tensor_pairing(L, i)
            assert mats is not None
            assert len(mats) == L.dims[i - 1]
            assert rank(mats) == L.dims[i - 1]
    for k in ((2, 1), (2, 2)):
        sh = BlockShape(k)
        L = governing_algebra_general(sh)
        mats = tensor_pairing(L, 2)
        assert mats is not None and rank(mats) == L.dims[1]


def test_check_lie_axioms_matches_direct():
    for k in ((1, 1, 1), (2, 1, 1), (1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1),
              (2, 2, 1, 1)):
        L = governing_algebra_general(BlockShape(k))
        assert check_lie_axioms(L) == check_lie_axioms_direct(L), k
    rng = random.Random(5)
    algebras = [governing_algebra_general(BlockShape(k))
                for k in ((1, 1, 1), (2, 1), (2, 1, 1), (1, 1, 1, 1), (2, 2, 1))]
    for flips, count in ((1, 100), (2, 60), (3, 60)):
        failed = set()
        for _ in range(count):
            M = rng.choice(algebras)
            tables = copy.deepcopy(M.tables)
            for _ in range(flips):
                m = rng.choice(sorted(tables))
                row = tables[m][rng.randrange(M.shape.N)]
                row[rng.randrange(len(row))] ^= 1 << rng.randrange(M.dims[m])
            mutant = GradedLie(M.shape, M.dims, tables)
            got = check_lie_axioms(mutant)
            assert got == check_lie_axioms_direct(mutant), (flips, M.shape)
            failed |= {key for key, good in got.items() if not good}
        assert {"axiom1", "axiom4", "tilde1", "tilde2"} <= failed, flips
    # a bracket table out of the top grade, which the models leave out, is
    # read the same way by both checkers
    for M in algebras:
        tables = copy.deepcopy(M.tables)
        tables[M.nclass] = [[rng.randrange(2) for _ in range(M.dims[-1])]
                            for _ in range(M.shape.N)]
        mutant = GradedLie(M.shape, M.dims, tables)
        got = check_lie_axioms(mutant)
        assert got == check_lie_axioms_direct(mutant), M.shape
        assert not got["tilde2"], M.shape
    # a middle-grade table removed reads as zero brackets out of that grade
    for M in algebras:
        for m in range(1, M.nclass - 1):
            tableless = GradedLie(M.shape, M.dims,
                                  {j: t for j, t in M.tables.items() if j != m})
            got = check_lie_axioms(tableless)
            assert got == check_lie_axioms_direct(tableless), (M.shape, m)
            assert not got["axiom3"], (M.shape, m)
    # a grade 1 shorter than the generators is no phi target: axiom1 fails
    # alone, and the brackets are still read on every generator pair
    for M in algebras + [governing_algebra_general(BlockShape((1, 2)))]:
        short = GradedLie(M.shape, (M.dims[0] - 1,) + M.dims[1:], M.tables)
        got = check_lie_axioms(short)
        assert got == check_lie_axioms_direct(short), M.shape
        assert [key for key, good in got.items() if not good] == ["axiom1"], M.shape
    # the algebras of the enumerated groups
    for N in range(1, 5):
        for k in compositions(N):
            L = lie_from_group(build_universal_general(BlockShape(k)))
            got = check_lie_axioms(L)
            assert got == check_lie_axioms_direct(L), k
            assert all(got.values()), k


def test_axiom4_mutants_fail_both_checkers():
    # (shape, table, row x, entry k, bit) flipped once.  In the grade-3
    # table of (1,1,1,1) the first two flips are caught by both the swap
    # check and [e_x, [e_x, -]], the next two by the swap check alone.  No
    # one-bit flip of a grade >= 3 table escapes the swap check on
    # (1,1,1,1), (2,1,1,1) or (1,1,1,1,1), so the flip that only
    # [e_x, [e_x, -]] catches is in the grade-2 table of (1,1,1).
    flips = [((1, 1, 1, 1), 3, 0, 1, 0), ((1, 1, 1, 1), 3, 1, 2, 1),
             ((1, 1, 1, 1), 3, 0, 0, 0), ((1, 1, 1, 1), 3, 2, 3, 2),
             ((1, 1, 1), 2, 0, 0, 0)]
    for k, m, x, kk, bit in flips:
        M = governing_algebra_general(BlockShape(k))
        tables = copy.deepcopy(M.tables)
        tables[m][x][kk] ^= 1 << bit
        mutant = GradedLie(M.shape, M.dims, tables)
        assert check_lie_axioms(mutant)["axiom4"] is False, (k, m, x, kk, bit)
        assert check_lie_axioms_direct(mutant)["axiom4"] is False, (k, m, x, kk, bit)
    # one entry of a bracket table out of the top grade: [e_x, [e_x, -]]
    # stays zero there, so only the swap into that grade sees it
    for k in ((1, 1, 1), (1, 1, 1, 1)):
        M = governing_algebra_general(BlockShape(k))
        tables = copy.deepcopy(M.tables)
        tables[M.nclass] = [[0] * M.dims[-1] for _ in range(M.shape.N)]
        tables[M.nclass][0][0] = 1
        mutant = GradedLie(M.shape, M.dims, tables)
        assert check_lie_axioms(mutant)["axiom4"] is False, k
        assert check_lie_axioms_direct(mutant)["axiom4"] is False, k


def test_tilde2_mutants_fail_both_checkers():
    # (shape, x, y, bit): bit flipped in [e_x, e_y] and [e_y, e_x], a
    # nonzero bracket inside one block that keeps the bracket alternating,
    # symmetric and Jacobi.  Only tilde2 sees it: on these shapes no
    # one-bit flip of any table fails tilde2 alone.
    flips = [((2, 1), 0, 1, 0), ((2, 2), 0, 1, 1), ((2, 2), 2, 3, 2),
             ((3, 2), 3, 4, 0), ((2, 3), 0, 1, 3)]
    for k, x, y, bit in flips:
        M = governing_algebra_general(BlockShape(k))
        tables = copy.deepcopy(M.tables)
        tables[1][x][y] ^= 1 << bit
        tables[1][y][x] ^= 1 << bit
        mutant = GradedLie(M.shape, M.dims, tables)
        for check in (check_lie_axioms, check_lie_axioms_direct):
            rep = check(mutant)
            assert [key for key, good in rep.items() if not good] == ["tilde2"], \
                (check.__name__, k, x, y, bit)
