"""Expansion maps: basis, corners, cocycles, realization, reconstruction."""

from __future__ import annotations

import random
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genusforge import expmaps, groups
from genusforge.expmaps import (
    CommVector,
    PhiMap,
    ThetaCocycle,
    build_phi_basis,
    coboundary,
    cocycle_view,
    corner_operator,
    lcomm_check,
    phi_layer,
    phi_one_basis,
    realize_commuting_vector,
    reconstruct_report,
    solve_cochain,
    theta,
    _context,
)
from genusforge.f2 import F2Basis, kernel_basis, rank, rref, spans_equal
from genusforge.groups import ResourceLimitError
from genusforge.tensors import BlockShape
from oracles import (coboundary_rows, compositions, corner_chain, eval_by_labels,
                     inflate, is_commuting, label_row_by_labels, normal_closure,
                     pull_back_by_labels, reconstruct_report_cochain_first,
                     solve_cochain_bfs, solve_cochain_exhaustive, values_by_labels)
from statements import (expansion_map, is_cocycle, nil_deg, restriction_kernel_check,
                        shuffling_check)

S11 = BlockShape((1, 1))
S21 = BlockShape((2, 1))
S22 = BlockShape((2, 2))
S111 = BlockShape((1, 1, 1))


def key(shape: BlockShape, A, x: int) -> tuple[int, int]:
    """The label of the extractor Phi_(A,x): (A - block(x) as a bitmask, x)."""
    return sum(1 << s for s in A if s != shape.block(x)), x


def phi_label(shape: BlockShape, A, x: int) -> PhiMap:
    ctx = _context(shape)
    return PhiMap(shape, 1 << ctx.index[key(shape, A, x)])


def char_span(shape: BlockShape) -> F2Basis:
    return F2Basis([PhiMap(shape, 1 << x).values for x in range(shape.N)])


def positions(G) -> dict[int, int]:
    """Place of each element code in the group's sorted code order."""
    return {c: p for p, c in enumerate(G.codes.tolist())}


def span_coords(maps) -> list[int]:
    """The reduced echelon basis of the maps' span: equal lists mean equal
    spans, whatever order the maps came in."""
    return sorted(rref(p.coords for p in maps).values())


def test_basis_dims_frozen():
    assert len(build_phi_basis(S11)) == 4
    assert len(build_phi_basis(S21)) == 6
    assert len(build_phi_basis(S111)) == 12
    # N + sum over |A| >= 2 of sum_{i in A} k_i
    assert len(build_phi_basis(S22)) == 4 + 4


def test_basis_tables_independent():
    for shape in (S11, S21, S111):
        basis = build_phi_basis(shape)
        assert rank([p.values for p in basis]) == len(basis)


def test_basis_normalization_on_generators():
    for shape in (S11, S21, S111):
        ctx = _context(shape)
        gens = ctx.group.gen_codes
        for p in build_phi_basis(shape)[shape.N:]:
            assert all(p.eval(g) == 0 for g in gens)
        for x in range(shape.N):
            chi = PhiMap(shape, 1 << x)
            assert [chi.eval(g) for g in gens] == [int(y == x) for y in range(shape.N)]


def test_phimap_algebra():
    a = phi_label(S11, (0, 1), 0)
    b = phi_label(S11, (0, 1), 1)
    assert (a ^ b).values == a.values ^ b.values
    assert (a ^ a).is_zero()
    assert a != b and a == PhiMap(S11, a.coords)
    with pytest.raises(ValueError):
        a ^ PhiMap(S21, 1)


def test_lcomm_frozen_cases():
    assert lcomm_check(S11, (0, 1), 0, (0, 1)) == (1, 1)
    assert lcomm_check(S11, (0, 1), 1, (1, 0)) == (1, 1)
    # tuple touching one block twice dies on both sides
    assert lcomm_check(S21, (0, 1), 2, (0, 1)) == (0, 0)
    # full-support alternating value on three trivial blocks
    assert lcomm_check(S111, (0, 1, 2), 0, (0, 1, 2)) == (0, 0)
    assert lcomm_check(S111, (0, 1, 2), 0, (1, 0, 2))[0] == \
        lcomm_check(S111, (0, 1, 2), 0, (1, 0, 2))[1]
    with pytest.raises(ValueError):
        lcomm_check(S11, (0, 1), 0, (0,))
    # a pointer outside the support
    with pytest.raises(ValueError):
        lcomm_check(S111, (1, 2), 0, (1, 2))


def test_lcomm_exhaustive_small():
    for shape in (S11, S21, S111):
        for size in range(1, shape.n + 1):
            for A in combinations(range(shape.n), size):
                for i in A:
                    for x in shape.members(i):
                        for tup in product(range(shape.N), repeat=size):
                            left, right = lcomm_check(shape, A, x, tup)
                            assert left == right, (shape.k, A, x, tup)


def test_corner_basis_rules():
    # characters die
    assert corner_operator(S11, 0, PhiMap(S11, 1)).is_zero()
    # support loses the cornered block, pointer must survive
    p = phi_label(S11, (0, 1), 1)
    sub = _context(S11.drop(0))
    assert corner_operator(S11, 0, p).coords == 1 << sub.index[(0, 0)]
    assert corner_operator(S11, 1, p).is_zero()
    # absent block kills
    q = phi_label(S111, (0, 1), 0)
    assert corner_operator(S111, 2, q).is_zero()
    with pytest.raises(ValueError):
        corner_operator(S11, 2, p)
    with pytest.raises(ValueError):
        corner_operator(S21, 0, p)
    with pytest.raises(ValueError):
        corner_operator(BlockShape((2,)), 0, PhiMap(BlockShape((2,)), 1))


def test_corner_on_block_products():
    # the chi_A combinations corner to the smaller chi_A
    shape = S111
    full = phi_one_basis(shape)[-1]
    cut = corner_operator(shape, 1, full)
    sub = _context(shape.drop(1))
    want = 0
    for i in (0, 1):
        for x in sub.shape.members(i):
            want |= 1 << sub.index[key(sub.shape, (0, 1), x)]
    assert cut.coords == want
    # dropping a block outside A kills the product
    pair = phi_one_basis(shape)[shape.N]
    assert corner_operator(shape, 2, pair).is_zero()


def test_corner_operators_commute():
    shape = S111
    for p in build_phi_basis(shape):
        for i, j in combinations(range(shape.n), 2):
            a = corner_operator(shape.drop(i), j - 1, corner_operator(shape, i, p))
            b = corner_operator(shape.drop(j), i, corner_operator(shape, j, p))
            assert a == b


def test_inflate_round_trip_and_invariance():
    shape = S111
    ctx = _context(shape)
    G = ctx.group
    p = phi_label(shape, (0, 1, 2), 1)
    cut = corner_operator(shape, 0, p)
    lifted = inflate(shape, 0, cut)
    tab = lifted.values
    pos = positions(G)
    ncl = normal_closure(G, [G.gen_codes[x] for x in shape.members(0)])
    for w in ncl:
        for g in G.codes[:32].tolist():
            gw = G.mul(g, w)
            assert (tab >> pos[gw]) & 1 == (tab >> pos[g]) & 1
    narrow = corner_operator(S21, 1, phi_label(S21, (0, 1), 2))
    with pytest.raises(ValueError):
        inflate(S21, 0, narrow)


def test_pulled_corner_matches_the_corner_chain(monkeypatch):
    # every label and every B on all compositions with N <= 6: the B-fold
    # corner read in the ambient labels is the chain of one-block corners
    # through the sub-shapes, renamed back by inflate
    monkeypatch.setattr(expmaps, "_CONTEXTS", {})
    cases = 0
    for k in (k for N in range(1, 7) for k in compositions(N)):
        shape = BlockShape(k)
        ctx = _context(shape)
        full = (1 << shape.n) - 1
        for p in range(len(ctx.labels)):
            assert expmaps._pulled_corner(ctx, 1 << p, 0) == 1 << p
            assert expmaps._pulled_corner(ctx, 1 << p, full) == 0
            for B in range(1, full):
                gone = [s for s in range(shape.n) if B >> s & 1]
                want = inflate(shape, gone, corner_chain(PhiMap(shape, 1 << p), gone))
                assert expmaps._pulled_corner(ctx, 1 << p, B) == want.coords, (k, p, B)
                cases += 1
    assert cases == 40912


def test_corners_read_in_the_ambient_labels_build_no_sub_shape(monkeypatch):
    monkeypatch.setattr(expmaps, "_CONTEXTS", {})
    phi = PhiMap(S111, random.Random(3).getrandbits(len(_context(S111).labels)))
    v = _corner_vector(S111, phi)
    expmaps._CONTEXTS.clear()
    assert cocycle_view(phi)["certified"]
    assert list(expmaps._CONTEXTS) == [(1, 1, 1)]
    expmaps._CONTEXTS.clear()
    # theta reads the one-block corners through the lift, and no deeper
    assert theta(S111, v).rows == coboundary(phi).rows
    assert sorted(expmaps._CONTEXTS) == [(1, 1), (1, 1, 1)]


def test_shuffling_identities():
    # the product side comes from the generator values, so a one-block A
    # compares the character's label table with them
    assert shuffling_check(S11, (0,))
    assert shuffling_check(S11, (0, 1))
    assert shuffling_check(S21, (0, 1))
    assert shuffling_check(S22, (0, 1))
    for size in (1, 2, 3):
        for A in combinations(range(3), size):
            assert shuffling_check(S111, A)


def test_shuffling_check_sees_a_wrong_character_table(monkeypatch):
    # chi_0 moved onto the code bit of chi_1 reads chi_1's table
    ctx = _context(S11)
    monkeypatch.setattr(ctx, "bitpos", ctx.bitpos[1:2] + ctx.bitpos[1:])
    assert PhiMap(S11, 1).values == PhiMap(S11, 2).values
    assert not shuffling_check(S11, (0,))
    assert shuffling_check(S11, (1,))


def test_restriction_kernel_reports():
    r = restriction_kernel_check(S11)
    assert r == {"surjective": True, "image_dim": 1, "kernel_dim": 3,
                 "kernel_matches": True}
    r = restriction_kernel_check(S21)
    assert r["surjective"] and r["image_dim"] == 2 and r["kernel_dim"] == 4
    assert r["kernel_matches"]
    r = restriction_kernel_check(S111)
    assert r["surjective"] and r["image_dim"] == 5 and r["kernel_dim"] == 7
    assert r["kernel_matches"]


def test_cocycle_view_character():
    view = cocycle_view(PhiMap(S11, 1))
    assert view["certified"]
    assert view["tables"][()] != 0
    assert view["tables"][(0,)] == 0
    assert view["tables"][(1,)] == 0
    assert view["tables"][(0, 1)] == 0


def test_cocycle_view_extractor_and_mix():
    view = cocycle_view(phi_label(S11, (0, 1), 0))
    assert view["certified"]
    assert view["tables"][(0,)] == 0
    assert view["tables"][(1,)] != 0
    ctx = _context(S111)
    mix = PhiMap(S111, (1 << ctx.index[key(S111, (0, 1, 2), 0)])
                 ^ (1 << ctx.index[key(S111, (1, 2), 1)]) ^ 1)
    assert cocycle_view(mix)["certified"]


def test_expansion_map_families():
    em = expansion_map(S11, (0, 1), 0)
    assert em.pointer == 0
    assert em.support == [S11.block_mask(0), S11.block_mask(1)]
    assert em.coords[()] == PhiMap(S11, 1).values
    assert em.verify()
    assert expansion_map(S111, (0, 1, 2), 1).verify()
    assert expansion_map(S21, (0, 1), 2).verify()
    with pytest.raises(ValueError):
        expansion_map(S21, (1,), 0)


def test_coboundary_equals_theta_of_corners():
    for shape in (S11, S21, S111):
        for p in build_phi_basis(shape):
            v = CommVector(shape, [corner_operator(shape, i, p)
                                   for i in range(shape.n)])
            assert theta(shape, v).rows == coboundary(p).rows


def test_block_generator_reads_off_one_corner():
    for shape in (S11, S111):
        G = _context(shape).group
        pos = positions(G)
        for p in build_phi_basis(shape):
            d = coboundary(p)
            for y in range(shape.N):
                cut = corner_operator(shape, shape.block(y), p)
                assert d.rows[pos[G.gen_codes[y]]] == inflate(shape, shape.block(y), cut).values


def test_theta_explicit_corner_character():
    v = CommVector(S11, [PhiMap(BlockShape((1,)), 1), PhiMap(BlockShape((1,)), 0)])
    assert is_commuting(v)
    th = theta(S11, v)
    assert len(th.rows) == 8 and any(th.rows)
    assert is_cocycle(th)
    assert th.rows == coboundary(phi_label(S11, (0, 1), 1)).rows
    zero = theta(S11, CommVector(S11, [PhiMap(BlockShape((1,)), 0)] * 2))
    assert not any(zero.rows)


def test_commuting_check_catches_mismatch():
    s = BlockShape((1, 1))
    bad = CommVector(S111, [PhiMap(s, 1 << _context(s).index[key(s, (0, 1), 0)]),
                            PhiMap(s, 0), PhiMap(s, 0)])
    assert not is_commuting(bad)
    with pytest.raises(ValueError):
        theta(S111, bad)
    with pytest.raises(ValueError):
        realize_commuting_vector(S111, bad)
    with pytest.raises(ValueError):
        CommVector(S11, [PhiMap(s, 0)])
    with pytest.raises(ValueError):
        CommVector(S11, [PhiMap(S11, 0), PhiMap(BlockShape((1,)), 0)])


def test_theta_cocycle_identity_exhaustive():
    for p in build_phi_basis(S21):
        assert is_cocycle(coboundary(p))
    with pytest.raises(ValueError):
        ThetaCocycle(S11, [1] + [0] * 7)


def test_is_cocycle_fails_on_one_flipped_bit():
    rng = random.Random(3)
    for shape in (S11, S21, S111):
        ctx = _context(shape)
        order = ctx.group.order
        for _ in range(4):
            p, q = rng.randrange(order), rng.randrange(1, order)
            rows = [0] * order
            rows[p] = 1 << q
            assert not is_cocycle(ThetaCocycle(shape, rows)), (shape.k, p, q)
            d = list(coboundary(PhiMap(shape, rng.getrandbits(len(ctx.labels)))).rows)
            d[p] ^= 1 << q
            assert not is_cocycle(ThetaCocycle(shape, d)), (shape.k, p, q)


@pytest.mark.parametrize("k", [(2, 2), (2, 1), (3, 1), (2, 1, 1)])
def test_expansion_map_every_family_verifies(k, monkeypatch):
    # pointer blocks of several coordinates: the base is chi_x alone
    shape = BlockShape(k)
    # every family's verify reads the context's one product table, which
    # goes with these contexts when the test ends
    monkeypatch.setattr(expmaps, "_CONTEXTS", {})
    families = 0
    for size in range(1, shape.n + 1):
        for A in combinations(range(shape.n), size):
            for i in A:
                for x in shape.members(i):
                    em = expansion_map(shape, A, x)
                    assert em.support[em.pointer] == 1 << x
                    assert em.verify(), (A, x)
                    families += 1
    assert families == {(2, 2): 8, (2, 1): 6, (3, 1): 8, (2, 1, 1): 16}[k]


def test_expansion_map_verify_fails_on_flipped_tables():
    rng = random.Random(5)
    for shape, A, x in ((S11, (0, 1), 0), (S21, (0, 1), 2), (S111, (0, 1, 2), 1)):
        order = _context(shape).group.order
        for B in expansion_map(shape, A, x).coords:
            em = expansion_map(shape, A, x)
            em.coords[B] ^= 1 << rng.randrange(order)
            assert not em.verify(), (shape.k, B)


def test_expansion_map_verify_checks_pointed_base():
    # a one-block family is its base alone, and any character passes the
    # recursion there; only the pointed-base check sees the wrong one
    em = expansion_map(S11, (0,), 0)
    assert em.verify()
    em.coords[()] = PhiMap(S11, 2).values
    assert not em.verify()


def test_recursion_check_fails_on_one_flipped_table():
    rng = random.Random(9)
    shape = S111
    ctx = _context(shape)
    order = ctx.group.order
    tables = cocycle_view(PhiMap(shape, rng.getrandbits(len(ctx.labels))))["tables"]

    def bits(tab):
        return [(tab >> q) & 1 for q in range(order)]

    vals = np.array([bits(tables[tuple(s for s in range(3) if (B >> s) & 1)])
                     for B in range(8)], dtype=np.uint8)
    chis = np.array([bits(PhiMap(shape, shape.block_mask(s)).values) for s in range(3)],
                    dtype=np.uint8)
    M = ctx.group.mul_table()
    assert expmaps._recursion_holds(vals, chis, M)
    for B in range(8):
        bad = vals.copy()
        bad[B, rng.randrange(order)] ^= 1
        assert not expmaps._recursion_holds(bad, chis, M), B


def test_coboundary_matches_left_multiplication_oracle():
    for shape in (S11, S21, S22, S111):
        G = _context(shape).group
        for p in build_phi_basis(shape):
            assert list(coboundary(p).rows) == coboundary_rows(G, p.values), shape.k
    shape = BlockShape((2, 1, 1))
    ctx = _context(shape)
    rng = random.Random(11)
    for _ in range(2):
        p = PhiMap(shape, rng.getrandbits(len(ctx.labels)))
        assert list(coboundary(p).rows) == coboundary_rows(ctx.group, p.values)


def test_solve_cochain_round_trip():
    for shape in (S11, S21):
        ctx = _context(shape)
        chars = char_span(shape)
        for p in build_phi_basis(shape):
            th = coboundary(p)
            tab = solve_cochain(ctx.group, th)
            assert tab is not None
            diff = tab ^ p.values
            assert diff == 0 or diff in chars
    zero = ThetaCocycle(S11, [0] * 8)
    assert solve_cochain(_context(S11).group, zero) == 0


def test_solve_cochain_obstruction():
    shape = BlockShape((2,))
    ctx = _context(shape)
    G = ctx.group
    th = ThetaCocycle.from_function(
        shape, lambda a, b: (G.phi(a) & 1) & (G.phi(b) & 1))
    assert G.order == 4
    assert is_cocycle(th)
    assert solve_cochain(G, th) is None
    with pytest.raises(ValueError):
        solve_cochain(G, ThetaCocycle(S11, [0] * 8))


def test_solve_cochain_reads_the_cached_product_table(monkeypatch):
    monkeypatch.setattr(expmaps, "_CONTEXTS", {})
    G = _context(S111).group
    assert G.order == 256
    phi = PhiMap(S111, random.Random(5).getrandbits(len(_context(S111).labels)))
    th = theta(S111, _corner_vector(S111, phi))
    first = solve_cochain(G, th)
    M = G._mul
    assert M is not None and M.shape == (256, 256)
    assert first is not None and solve_cochain(G, th) == first
    assert G._mul is M and G.mul_table() is M


def _corner_vector(shape: BlockShape, phi: PhiMap) -> CommVector:
    return CommVector(shape, [corner_operator(shape, i, phi) for i in range(shape.n)])


def _generator_positions(G) -> list[int]:
    codes = [int(c) for c in G.codes]
    return [codes.index(g) for g in G.gen_codes]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((S11, S21, S22, S111)),
       st.sampled_from(("coboundary", "flip generator column",
                        "flip other column", "bit past the order", "random rows")),
       st.data())
def test_solve_cochain_matches_bfs_oracle(shape, kind, data):
    ctx = _context(shape)
    G = ctx.group
    order = G.order
    phi = PhiMap(shape, data.draw(st.integers(0, (1 << len(ctx.labels)) - 1)))
    rows = list(coboundary(phi).rows)
    assert theta(shape, _corner_vector(shape, phi)).rows == tuple(rows)
    gens = _generator_positions(G)
    p = data.draw(st.integers(0, order - 1))
    if kind == "flip generator column":
        rows[p] ^= 1 << data.draw(st.sampled_from(gens))
    elif kind == "flip other column":
        others = [q for q in range(order) if q not in gens and (p, q) != (0, 0)]
        rows[p] ^= 1 << data.draw(st.sampled_from(others))
    elif kind == "bit past the order":
        rows[p] |= 1 << (order + data.draw(st.integers(0, 9)))
    elif kind == "random rows":
        rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
        rows = [rng.getrandbits(order) for _ in range(order)]
        rows[0] &= ~1
    th = ThetaCocycle(shape, rows)
    got = solve_cochain(G, th)
    assert got == solve_cochain_bfs(G, th)
    if kind == "coboundary":
        diff = got ^ phi.values
        assert diff == 0 or diff in char_span(shape)
    elif kind != "random rows":
        assert got is None


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((BlockShape((1,)), BlockShape((2,)), BlockShape((3,)), S11)),
       st.sampled_from(("coboundary", "flipped bit", "random rows")),
       st.data())
def test_solve_cochain_matches_exhaustive_oracle(shape, kind, data):
    ctx = _context(shape)
    G = ctx.group
    order = G.order
    assert order <= 8
    phi = PhiMap(shape, data.draw(st.integers(0, (1 << len(ctx.labels)) - 1)))
    rows = list(coboundary(phi).rows)
    if kind == "flipped bit":
        p, q = data.draw(st.integers(0, order - 1)), data.draw(st.integers(0, order - 1))
        if (p, q) == (0, 0):
            q = order - 1
        rows[p] ^= 1 << q
    elif kind == "random rows":
        rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
        rows = [rng.getrandbits(order) for _ in range(order)]
        rows[0] &= ~1
    th = ThetaCocycle(shape, rows)
    got = solve_cochain(G, th)
    assert got == solve_cochain_exhaustive(G, th) == solve_cochain_bfs(G, th)
    if kind == "coboundary":
        assert got is not None
    elif kind == "flipped bit":
        assert got is None


def test_solve_cochain_past_closing_check_reads_generator_columns():
    shape = BlockShape((3, 3))
    ctx = _context(shape)
    G = ctx.group
    assert G.order == 1 << 11
    rng = random.Random(7)
    phi = PhiMap(shape, rng.getrandbits(len(ctx.labels)))
    th = theta(shape, _corner_vector(shape, phi))
    tab = solve_cochain(G, th)
    assert tab is not None and tab == solve_cochain_bfs(G, th)
    diff = tab ^ phi.values
    assert diff == 0 or diff in char_span(shape)
    gens = _generator_positions(G)
    p = rng.randrange(G.order)
    q = next(q for q in range(1, G.order) if q not in gens)
    off = list(th.rows)
    off[p] ^= 1 << q
    # above order 1024 there is no closing check: only generator columns count
    assert solve_cochain(G, ThetaCocycle(shape, off)) == tab
    assert solve_cochain_bfs(G, ThetaCocycle(shape, off)) == tab
    on = list(th.rows)
    on[p] ^= 1 << gens[0]
    assert solve_cochain(G, ThetaCocycle(shape, on)) is None
    assert solve_cochain_bfs(G, ThetaCocycle(shape, on)) is None

    # generator columns that a table forces along every Cayley edge; the
    # answer must vanish at the generators too
    right = [np.searchsorted(G.codes, G.right_mul_array(G.codes, g))
             for g in G.gen_codes]

    def edge_columns(val):
        rows = [0] * G.order
        for q, perm in zip(gens, right):
            for p in range(G.order):
                rows[p] |= (val[perm[p]] ^ val[p]) << q
        return ThetaCocycle(shape, rows)

    val = [rng.getrandbits(1) for _ in range(G.order)]
    for q in [0] + gens:
        val[q] = 0
    want = sum(b << q for q, b in enumerate(val))
    assert solve_cochain(G, edge_columns(val)) == want
    assert solve_cochain_bfs(G, edge_columns(val)) == want
    val[gens[0]] = 1
    assert solve_cochain(G, edge_columns(val)) is None
    assert solve_cochain_bfs(G, edge_columns(val)) is None


def test_realize_recovers_mod_characters():
    shape = S111
    charbits = (1 << shape.N) - 1
    for p in build_phi_basis(shape):
        v = CommVector(shape, [corner_operator(shape, i, p)
                               for i in range(shape.n)])
        got = realize_commuting_vector(shape, v)
        assert (got.coords ^ p.coords) & ~charbits == 0
        for i in range(shape.n):
            assert corner_operator(shape, i, got) == v.entries[i]
    zero = CommVector(shape, [PhiMap(shape.drop(i), 0) for i in range(shape.n)])
    assert realize_commuting_vector(shape, zero).coords == 0


def test_every_commuting_vector_realizes():
    # reconstruct_report's lemma, exhaustively on (1,1,1): every commuting
    # corner vector lifts to a map with exactly those corners, and every
    # other vector is refused
    shape = S111
    widths = [len(_context(shape.drop(i)).labels) for i in range(shape.n)]
    commuting = refused = 0
    for bits in range(1 << sum(widths)):
        entries = []
        for i, w in enumerate(widths):
            entries.append(PhiMap(shape.drop(i), bits & ((1 << w) - 1)))
            bits >>= w
        v = CommVector(shape, entries)
        if not is_commuting(v):
            with pytest.raises(ValueError, match="not commuting"):
                realize_commuting_vector(shape, v)
            refused += 1
            continue
        got = realize_commuting_vector(shape, v)
        assert [corner_operator(shape, i, got) for i in range(shape.n)] == entries
        commuting += 1
    assert (commuting, refused) == (512, 3584)


def test_nil_deg_frozen():
    assert nil_deg(PhiMap(S11, 0)) == 0
    assert nil_deg(PhiMap(S11, 1)) == 1
    assert nil_deg(phi_one_basis(S11)[-1]) == 1
    assert nil_deg(phi_label(S11, (0, 1), 0)) == 2
    assert nil_deg(phi_label(S111, (0, 1, 2), 0)) == 3


def test_nil_deg_realization_bound():
    # corner degrees (2,2,1): the lift must reach one deeper
    shape = S111
    ctx = _context(shape)
    star = PhiMap(shape, (1 << ctx.index[key(shape, (0, 1, 2), 0)])
                  ^ (1 << ctx.index[key(shape, (0, 1, 2), 1)]))
    v = CommVector(shape, [corner_operator(shape, i, star) for i in range(3)])
    degs = tuple(nil_deg(v.entries[i]) for i in range(3))
    assert degs == (2, 2, 1)
    assert nil_deg(realize_commuting_vector(shape, v)) == 3


def test_nil_deg_landscape_exhaustive():
    # no map has all three corners at depth 2, and whenever a corner
    # reaches depth >= 2 the map itself sits exactly one deeper
    shape = S111
    width = len(_context(shape).labels)
    for c in range(1, 1 << width):
        p = PhiMap(shape, c)
        degs = [nil_deg(corner_operator(shape, i, p))
                for i in range(3)]
        assert degs != [2, 2, 2]
        if max(degs) >= 2:
            assert nil_deg(p) == max(degs) + 1


def test_phi_layer_dims_frozen():
    assert len(phi_layer(S11, 1)) == 3
    assert len(phi_layer(S11, 2)) == 4
    assert len(phi_layer(S21, 1)) == 4
    assert len(phi_layer(S21, 2)) == 6
    assert [len(phi_layer(S111, j)) for j in (1, 2, 3)] == [7, 10, 12]
    assert phi_layer(S11, 0) == []
    with pytest.raises(ValueError):
        phi_layer(S11, -1)


def test_phi_layer_structure():
    for shape in (S11, S21, S111):
        assert span_coords(phi_layer(shape, 1)) == span_coords(phi_one_basis(shape))
        prev: list[int] = []
        for j in range(1, 5):
            cur = span_coords(phi_layer(shape, j))
            base = F2Basis(cur)
            assert all(c in base for c in prev)
            prev = cur
        assert prev == span_coords(build_phi_basis(shape))


@pytest.mark.parametrize("k", [(1, 1), (2, 1), (1, 1, 1), (2, 2), (2, 1, 1), (1,) * 4])
def test_phi_layer_reads_one_term_of_the_series(k):
    # the conditions of every deeper term add nothing, and past the class
    # the layer is every label
    shape = BlockShape(k)
    ctx = _context(shape)
    width = len(ctx.labels)
    series = groups.descending_central_series(ctx.group)
    for j in range(1, len(series) + 3):
        conds = [label_row_by_labels(ctx, w) for term in series[j - 1:] for w in term]
        want = kernel_basis(conds, cols=width) if conds else [1 << p for p in range(width)]
        assert [p.coords for p in phi_layer(shape, j)] == want, j


def test_phi_layer_builds_the_series_only_as_deep_as_it_reads(monkeypatch):
    monkeypatch.setattr(expmaps, "_CONTEXTS", {})
    shape = BlockShape((1,) * 6)
    phi_layer(shape, 2)
    G = _context(shape).group
    assert len(G._series) == 2
    fresh = groups.build_universal_general(shape)
    assert groups.descending_central_series(G) == groups.descending_central_series(fresh)


def test_phi_layer_dims_match_the_grade_dims():
    # the label map is injective on the codes with zero vector part, so a
    # layer has labels - exponent + grades 1..j free coordinates
    layers = 0
    for N in range(1, 7):
        for k in compositions(N):
            shape = BlockShape(k)
            ctx = _context(shape)
            grades = groups.grade_dims(ctx.group)
            free = len(ctx.labels) - groups.universal_order_exponent(shape)
            for j in range(1, len(grades) + 2):
                assert len(phi_layer(shape, j)) == free + sum(grades[:j]), (k, j)
                layers += 1
    assert layers == 255


def test_reconstruct_round_trip():
    for shape, layers in ((S11, (2,)), (S21, (2,)), (S111, (2, 3))):
        for j in layers:
            corners = [phi_layer(shape.drop(i), j - 1) for i in range(shape.n)]
            rep = reconstruct_report(shape, j, corners)
            assert rep["obstruction_count"] == 0
            assert rep["shape"] == list(shape.k) and rep["j"] == j
            want = [p.coords for p in phi_layer(shape, j)]
            assert rep["dim"] == len(want)
            assert spans_equal(rep["basis_coords"], want)


def test_label_row_gather_matches_the_label_loop():
    rng = random.Random(2202)
    for k in ((1, 1), (2, 1), (1, 1, 1), (2, 2, 1), (4, 3), (1,) * 5, (1,) * 8):
        ctx = _context(BlockShape(k))
        width = ctx.group.width
        for w in [0, (1 << width) - 1] + [rng.getrandbits(width) for _ in range(20)]:
            assert expmaps._label_row(ctx, w) == label_row_by_labels(ctx, w), k


def test_corner_pull_back_matches_the_matrix_scan():
    rng = random.Random(2203)
    for k in ((1, 1), (2, 1), (1, 1, 1), (2, 2, 1), (1, 2, 1, 1)):
        shape = BlockShape(k)
        for i in range(shape.n):
            mat = expmaps._corner_matrix(shape, i)
            pre = expmaps._corner_preimages(shape, i)
            cols = len(pre)
            for f in [0, (1 << cols) - 1] + [rng.getrandbits(cols) for _ in range(20)]:
                assert expmaps._pull_back(pre, f) == pull_back_by_labels(mat, f), (k, i)


def test_reconstruct_refuses_a_corner_image_of_two_labels(monkeypatch):
    corners = [phi_layer(S111.drop(i), 1) for i in range(3)]
    assert reconstruct_report(S111, 2, corners)["dim"] == len(phi_layer(S111, 2))
    corner_matrix = expmaps._corner_matrix

    def doubled(shape, i):
        mat = list(corner_matrix(shape, i))
        p = next(p for p, image in enumerate(mat) if image)
        mat[p] |= 1 if mat[p] != 1 else 2
        return mat

    monkeypatch.setattr(expmaps, "_corner_matrix", doubled)
    with pytest.raises(ValueError, match="more than one corner label"):
        reconstruct_report(S111, 2, corners)


def test_reconstruct_validates_corners():
    corners = [phi_layer(S11.drop(i), 1) for i in range(2)]
    with pytest.raises(ValueError):
        reconstruct_report(S11, 1, corners)
    with pytest.raises(ValueError):
        reconstruct_report(S11, 2, [corners[0], []])
    with pytest.raises(ValueError):
        reconstruct_report(S11, 2, [corners[0]])
    with pytest.raises(ValueError):
        reconstruct_report(S11, 2, [corners[0], phi_layer(S21, 1)])


def _table_readers(shape: BlockShape):
    """Every reader of value tables, on a character of the shape: values,
    coboundary, cocycle_view, theta and the product table."""
    p = PhiMap(shape, 1)
    v = CommVector(shape, [corner_operator(shape, i, p) for i in range(shape.n)])
    return [lambda: p.values, lambda: coboundary(p), lambda: cocycle_view(p),
            lambda: theta(shape, v), lambda: _context(shape).group.mul_table()]


def test_value_tables_refuse_past_table_ceiling(monkeypatch):
    monkeypatch.setattr(expmaps, "_CONTEXTS", {})
    monkeypatch.setattr(groups, "TABLE_CEILING", 4)
    monkeypatch.setattr(groups.ExpansionGroup, "_close", _no_enumeration)
    want = "predicted order 2^3 exceeds the table ceiling 2^2"
    for read in _table_readers(S11):
        with pytest.raises(ResourceLimitError, match=want.replace("^", r"\^")):
            read()
    # the zero map answers without a table
    assert PhiMap(S11, 0).values == 0


def test_value_tables_refuse_where_the_product_table_outgrows_memory(monkeypatch):
    # at order 2^15 the int32 product table would take 4 GiB
    monkeypatch.setattr(expmaps, "_CONTEXTS", {})
    monkeypatch.setattr(groups.ExpansionGroup, "_close", _no_enumeration)
    want = r"predicted order 2\^15 exceeds the table ceiling 2\^13"
    for read in _table_readers(BlockShape((4, 4))):
        with pytest.raises(ResourceLimitError, match=want):
            read()


def _no_enumeration(self, gens):
    raise AssertionError(f"enumerated {self.shape.k}")


def _table_shapes():
    """Every composition with N <= 6 whose order is within the table
    ceiling, and the larger two-block shapes of the reconstruct jobs."""
    small = [k for N in range(1, 7) for k in compositions(N)
             if groups.universal_order_exponent(BlockShape(k))
             <= groups.TABLE_CEILING.bit_length() - 1]
    return small + [(4, 3), (3, 3), (6, 1)]


def test_values_and_eval_match_the_label_tables(monkeypatch):
    # the one reading rule, parity(code & mask), against one table per
    # label read bit by bit
    monkeypatch.setattr(expmaps, "_CONTEXTS", {})
    rng = random.Random(2501)
    for k in _table_shapes():
        shape = BlockShape(k)
        ctx = _context(shape)
        codes = ctx.group.codes.tolist()
        sample = [0, codes[-1]] + rng.sample(codes, min(len(codes), 30))
        maps = [PhiMap(shape, rng.getrandbits(len(ctx.labels))) for _ in range(3)]
        for phi in maps + [PhiMap(shape, (1 << len(ctx.labels)) - 1)]:
            assert phi.values == values_by_labels(phi), (k, phi)
            assert [phi.eval(c) for c in sample] == \
                [eval_by_labels(phi, c) for c in sample], (k, phi)


@pytest.mark.parametrize("k, j", [
    ((1, 1), 2), ((2, 1), 2), ((2, 2), 2), ((1, 1, 1), 2), ((2, 1, 1), 2),
    ((3, 3), 2), ((6, 1), 2), ((4, 3), 2),
    ((1, 1, 1), 3), ((2, 1, 1), 3), ((4, 3), 3),
])
def test_reconstruct_routes_agree(k, j):
    shape = BlockShape(k)
    cases = [[phi_layer(shape.drop(i), j - 1) for i in range(shape.n)]]
    if shape.n == 3 and j == 2:
        cases += [random_corner_spaces(shape, seed) for seed in range(3)]
    for corners in cases:
        got = reconstruct_report(shape, j, corners)
        want = reconstruct_report_cochain_first(shape, j, corners)
        for key in ("dim", "obstruction_count", "commvect_dim"):
            assert got[key] == want[key], key
        assert spans_equal(got["basis_coords"], want["basis_coords"])


def random_corner_spaces(shape: BlockShape, seed: int) -> list[list[PhiMap]]:
    """Seeded corner spaces that are no layer, each list with one repeated
    vector, so commvect_dim counts a dependency phi_layer never produces."""
    rng = random.Random(seed)
    corners = []
    for i in range(shape.n):
        sub = shape.drop(i)
        width = len(_context(sub).labels)
        space = [PhiMap(sub, rng.getrandbits(width) or 1)
                 for _ in range(rng.randint(width // 2, width - 1))]
        corners.append(space + [space[0]])
    return corners
