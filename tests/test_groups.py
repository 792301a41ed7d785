"""Universal groups, single factors, axiom reports, series, corners."""

from __future__ import annotations

import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from genusforge import groups
from genusforge.f2 import spans_equal
from genusforge.groups import (ExpansionGroup, ResourceLimitError,
                               augmentation_power_span, build_universal,
                               build_universal_general, check_expansion_axioms,
                               check_generator_axioms,
                               descending_central_series, grade_dims,
                               universal_order_exponent)
from genusforge.tensors import BlockShape
from statements import unique_epimorphism


def single_factor(n: int, i: int) -> ExpansionGroup:
    """Factor i of build_universal(n), F2[F2^([n]-i)] x| F2^([n]-i), as a
    group of its own: each generator keeps its field in that factor."""
    U = build_universal(n)
    c = U.comps[i]
    comps = groups._layout([(c.i, c.ambient)])
    gens = [(g >> c.poly_off) & ((1 << c.width) - 1) for g in U.gen_codes]
    # each generator is a single bit of the factor, and phi reads it
    return ExpansionGroup(U.shape, comps, gens,
                          [g.bit_length() - 1 for g in gens])


def fields(G: ExpansionGroup, code: int, k: int = 0) -> tuple[int, int]:
    """(poly, vec) of a code in factor k."""
    c = G.comps[k]
    return (code >> c.poly_off) & c.poly_mask, (code >> c.vec_off) & c.vec_mask


def test_factor_product_frozen():
    G = single_factor(2, 0)
    g00, g01 = G.gen_codes
    assert fields(G, G.mul(g00, g01)) == (0b01, 0b1)
    # the commutator is the monomial in the adjoined variable, vector part 0
    assert fields(G, G.commutator(g00, g01)) == (0b10, 0b0)


def test_squares_land_in_poly_part():
    G = single_factor(3, 0)
    for code in G.codes.tolist():
        sq = G.mul(code, code)
        assert fields(G, sq)[1] == 0
        if fields(G, code)[1] == 0:
            assert sq == G.identity


def test_mul_identity_and_associativity():
    G = build_universal(2)
    gens = G.gen_codes
    for g in gens:
        assert G.mul(g, 0) == g
        assert G.mul(0, g) == g
    pool = gens + [G.mul(gens[0], gens[1])]
    for a in pool:
        for b in pool:
            for c in pool:
                assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))
    for a in pool:
        assert G.mul(a, G.inv(a)) == 0


MIXED_LAYOUTS = [
    # every factor size from 0 to 4, sizes interleaved
    [(0, ()), (1, (0, 1, 2)), (2, (0,)), (3, (1, 2, 3, 4)), (4, (0, 1)), (5, ())],
    [(0, (3,)), (1, (0, 1, 2, 3)), (2, ()), (3, (0, 2)), (4, (1, 2, 3)), (5, (0,))],
]


def _mixed(specs) -> ExpansionGroup:
    return ExpansionGroup(BlockShape((1,)), groups._layout(specs), [1], [0])


def _arith_groups():
    shapes = [k for N in range(1, 8) for k in oracles.compositions(N)] + [(1,) * 8]
    for k in shapes:
        yield k, build_universal_general(BlockShape(k))
    for t, specs in enumerate(MIXED_LAYOUTS):
        yield f"mixed{t}", _mixed(specs)


def test_code_arithmetic_matches_factor_by_factor():
    rng = random.Random(2201)
    for name, G in _arith_groups():
        for _ in range(12):
            a, b = rng.getrandbits(G.width), rng.getrandbits(G.width)
            w = b & G.poly_field_mask
            assert G.mul(a, b) == oracles.mul_by_factors(G, a, b), name
            assert G.inv(a) == oracles.inv_by_factors(G, a), name
            assert G.conj(a, w) == oracles.conj_by_factors(G, a, w), name
            assert G.conj(a, b) == oracles.conj_by_factors(G, a, b), name
            c = G.commutator(a, b)
            assert c == oracles.commutator_by_factors(G, a, b), name
            assert c == G.mul(G.mul(a, b), G.mul(G.inv(a), G.inv(b))), name


def test_mixed_layouts_cover_every_factor_size():
    for specs in MIXED_LAYOUTS:
        G = _mixed(specs)
        assert sorted({c.m for c in G.comps}) == [0, 1, 2, 3, 4]
        assert len(G._plan) == 1 + 2 + 3 + 4
        # the vector of each factor moves only that factor's polynomial field
        for c in G.comps:
            full = c.poly_mask << c.poly_off
            moved = G.act(c.vec_mask << c.vec_off, G.poly_field_mask) ^ G.poly_field_mask
            assert moved & ~full == 0 and bool(moved) == (c.m > 0)


def test_nested_commutator():
    G = build_universal(3)
    g1, g2, g3 = G.gen_codes
    with pytest.raises(ValueError):
        G.nested_commutator([g1])
    assert G.nested_commutator([g1, g1]) == 0
    assert G.nested_commutator([0, 0, 0]) == 0
    assert G.nested_commutator([g1, g2, g3]) != 0


def test_single_factor_orders():
    assert single_factor(1, 0).order == 2
    assert single_factor(2, 0).order == 8
    assert single_factor(3, 0).order == 64
    assert single_factor(3, 1).order == 64


def test_single_factor_axioms():
    for n, i in [(2, 0), (2, 1), (3, 0), (3, 2)]:
        rep = check_expansion_axioms(single_factor(n, i))
        assert all(rep.values()), (n, i, rep)


def test_universal_orders_small():
    for n in (1, 2, 3):
        G = build_universal(n)
        assert G.order == 1 << universal_order_exponent(BlockShape((1,) * n))
    assert build_universal(2).order == 8
    assert build_universal(3).order == 256


def test_universal_general_orders():
    for k in [(2,), (1, 1), (2, 1), (2, 2), (3, 2), (1, 1, 1), (2, 2, 1)]:
        s = BlockShape(k)
        G = build_universal_general(s)
        assert G.order == 1 << universal_order_exponent(s), k
        rep = check_expansion_axioms(G)
        assert all(rep.values()), (k, rep)


def test_universal_general_matches_tuple_model():
    for k in [(2,), (1, 1), (2, 1), (2, 2)]:
        gens, ident = oracles.tuple_model_gens(k)
        want = oracles.group_order_by_sets(gens, oracles.tuple_model_mul, ident)
        assert build_universal_general(BlockShape(k)).order == want


def test_universal_agrees_with_general_shape():
    for n in (1, 2, 3):
        U = build_universal(n)
        T = build_universal_general(BlockShape((1,) * n))
        assert np.array_equal(U.codes, T.codes) and U.gen_codes == T.gen_codes
    with pytest.raises(ValueError):
        build_universal(0)


def test_resource_limit_reports_predicted_order():
    # the group is its presentation at any size; only codes is refused
    G = build_universal_general(BlockShape((2, 1, 1, 1)))
    assert G.order == 1 << 29
    with pytest.raises(ResourceLimitError) as e:
        G.codes
    assert e.value.predicted_order == 1 << 29
    G = build_universal(5)
    assert G.order == 1 << 54
    with pytest.raises(ResourceLimitError) as e:
        G.codes
    assert e.value.predicted_order == 1 << 54
    assert "2^22" in str(e.value)


def test_code_width_limit_refused_before_enumeration(monkeypatch):
    def refuse(self, gen_codes):
        raise AssertionError("enumerated past the code-width limit")

    shape = BlockShape((1,))
    # factor widths 2^m + m: 37 + 20 + 6 = 63, and one more bit is too many
    specs = [(0, tuple(range(5))), (0, tuple(range(4))), (0, (0, 1))]
    assert len(ExpansionGroup(shape, groups._layout(specs), [1], [0]).codes) == 2
    monkeypatch.setattr(ExpansionGroup, "_close", refuse)
    wide = ExpansionGroup(shape, groups._layout(specs + [(0, ())]), [1], [0])
    assert wide.width == 64 and wide.order == 2
    with pytest.raises(ResourceLimitError) as e:
        wide.codes
    assert e.value.width == 64
    assert "code-width limit of 63 bits" in str(e.value)
    # with the element ceiling out of the way, (1,1,1,1,1) is still too wide
    monkeypatch.setattr(groups, "ENUM_CEILING", 1 << 60)
    with pytest.raises(ResourceLimitError) as e:
        build_universal(5).codes
    assert e.value.width == 100 and e.value.predicted_order is None


def test_projection_epimorphisms_exist():
    U = build_universal(3)
    for i in range(3):
        F = single_factor(3, i)
        table = unique_epimorphism(U, F)
        assert table is not None
        assert len(set(table.values())) == F.order


def test_mutant_generator_flips_axiom4():
    G = build_universal(3)
    g0, g1, g2 = G.gen_codes
    mut = G.with_generators([G.mul(g0, G.commutator(g1, g2)), g1, g2])
    rep = check_expansion_axioms(mut)
    assert rep["axiom4"] is False
    assert rep["axiom1"] and rep["axiom2"] and rep["axiom3"]


def test_grade_dims_frozen():
    assert grade_dims(build_universal(1)) == (1,)
    assert grade_dims(build_universal(2)) == (2, 1)
    assert grade_dims(build_universal(3)) == (3, 3, 2)
    assert grade_dims(build_universal_general(BlockShape((2, 1)))) == (3, 2)
    assert len(grade_dims(build_universal(3))) == 3


def test_series_matches_set_oracle():
    for k in [(1, 1), (2, 1), (1, 1, 1)]:
        gens, ident = oracles.tuple_model_gens(k)
        want = oracles.series_dims_by_sets(gens, oracles.tuple_model_mul,
                                           oracles.tuple_model_inv, ident)
        assert grade_dims(build_universal_general(BlockShape(k))) == want


def test_series_requires_axioms():
    G = build_universal(3)
    g0, g1, g2 = G.gen_codes
    mut = G.with_generators([G.mul(g0, G.commutator(g1, g2)), g1, g2])
    assert check_expansion_axioms(mut)["axiom4"] is False
    with pytest.raises(ValueError):
        descending_central_series(mut)


def test_augmentation_powers_equal_series():
    for build in (lambda: build_universal(3),
                  lambda: build_universal_general(BlockShape((2, 1))),
                  lambda: build_universal_general(BlockShape((2, 2)))):
        G = build()
        want = oracles.descending_central_series_by_conj_close(G)
        series = descending_central_series(G)
        assert len(series) == len(want)
        for i in range(2, 2 + len(series)):
            assert spans_equal(series[i - 2], want[i - 2])
            assert spans_equal(augmentation_power_span(G, i), want[i - 2])
        assert augmentation_power_span(G, 2 + len(series)) == []


def test_augmentation_powers_match_the_tuple_walk():
    # one layer of generators at a time spans what every tuple of them does
    for N in range(1, 8):
        for k in oracles.compositions(N):
            if len(k) > 4:
                continue
            G = build_universal_general(BlockShape(k))
            closed = oracles.descending_central_series_by_conj_close(G)
            assert len(descending_central_series(G)) == len(closed), k
            for i in range(2, 2 + len(closed)):
                span = augmentation_power_span(G, i)
                assert spans_equal(span, closed[i - 2]), (k, i)
                assert spans_equal(span,
                                   oracles.augmentation_power_span_by_tuples(G, i)), (k, i)


def test_exponent_four_and_generator_identities():
    G = build_universal(3)
    for code in G.codes.tolist():
        sq = G.mul(code, code)
        assert G.mul(sq, sq) == 0
    for a in G.gen_codes:
        for b in G.gen_codes:
            c = G.commutator(a, b)
            assert G.mul(c, c) == 0
            assert G.nested_commutator([a, a, b]) == 0


def test_corner_examples():
    U2 = build_universal(2)
    assert oracles.corner(U2, 1).order == 2
    U3 = build_universal(3)
    C = oracles.corner(U3, 2)
    assert C.order == build_universal(2).order
    with pytest.raises(ValueError):
        oracles.corner(build_universal(1), 0)


def test_corner_isomorphic_to_reduced_universal():
    for k in [(2, 1), (1, 1, 1), (2, 1, 1)]:
        shape = BlockShape(k)
        G = build_universal_general(shape)
        for i in range(shape.n):
            C = oracles.corner(G, i)
            M = build_universal_general(shape.drop(i))
            assert C.order == M.order, (k, i)
            rep = oracles.check_expansion_axioms_by_sets(C)
            assert all(rep.values()), (k, i, rep)
            assert unique_epimorphism(C, M) is not None, (k, i)
            assert unique_epimorphism(M, C) is not None, (k, i)


def test_epimorphism_to_proper_quotient_only():
    G = build_universal(2)
    g0, g1 = G.gen_codes
    N = oracles.normal_closure(G, [G.commutator(g0, g1)])
    Q = oracles.QuotientGroup(G, N, [0, 1], G.shape)
    assert Q.order == 4
    assert unique_epimorphism(G, Q) is not None
    assert unique_epimorphism(Q, G) is None
    with pytest.raises(ValueError):
        unique_epimorphism(G, build_universal(3))


def test_phi_and_membership():
    G = build_universal_general(BlockShape((2, 1)))
    for x, g in enumerate(G.gen_codes):
        assert G.phi(g) == 1 << x
        assert groups._member(G.codes, g)
    assert groups._member(G.codes, 0)
    assert not groups._member(G.codes, int(G.codes[-1]) + 1)


def test_enumeration_deterministic():
    a = build_universal_general(BlockShape((2, 2))).codes
    b = build_universal_general(BlockShape((2, 2))).codes
    assert a.dtype == b.dtype == np.uint64
    assert a.tobytes() == b.tobytes()


def test_close_np_matches_close_set():
    for k in [(1, 1), (2, 1), (2, 2), (1, 1, 1), (2, 1, 1)]:
        G = build_universal_general(BlockShape(k))
        codes = G._close(G.gen_codes)
        assert codes.dtype == np.uint64
        assert bool(np.all(codes[1:] > codes[:-1])), k
        want = oracles.closure_by_sets(G.gen_codes, G.mul, 0)
        assert codes.tolist() == sorted(want), k


def _random_generating_sets(seed: int):
    """Seeded sets of one to three words of length 1 to 6 in the
    generators of small universal groups, with the group they live in."""
    rng = random.Random(seed)
    for k in [(2, 1, 1), (1, 1, 1), (2, 2), (3, 1), (1, 1, 1, 1)]:
        G = build_universal_general(BlockShape(k))
        for _ in range(30):
            gens = []
            for _ in range(rng.randint(1, 3)):
                code = 0
                for _ in range(rng.randint(1, 6)):
                    code = G.mul(code, rng.choice(G.gen_codes))
                gens.append(code)
            yield G.with_generators(gens)


def test_close_matches_close_set_on_other_generating_sets():
    # these sets have a generator of order 4, or codes too wide for the
    # uint32 working dtype (build_universal(4) is 44 bits), or span a
    # proper subgroup, or are seeded words in the generators.  A
    # generator's blocks run until its image in H/W falls in the cosets
    # already listed, and some of these images have order 4 in H/W,
    # taking three blocks
    G, U = build_universal(3), build_universal(4)
    g, h = G.gen_codes, U.gen_codes
    mutant = G.mul(g[0], G.commutator(g[1], g[2]))
    umutant = U.mul(h[0], U.commutator(h[1], h[2]))
    assert G.mul(mutant, mutant) != 0 and U.mul(umutant, umutant) != 0
    assert U.width > 32
    cases = [(G.with_generators([mutant, g[1], g[2]]), 256),
             (U.with_generators([umutant, h[1]]), 16),
             (U.with_generators(h[:3]), 256)]
    for k in [(2, 1, 1), (2, 2), (3, 1)]:
        H = build_universal_general(BlockShape(k))
        cases += [(H.with_generators(H.gen_codes[:j]), None)
                  for j in range(1, len(H.gen_codes))]
    cases += [(H, None) for H in _random_generating_sets(31)]
    orders = set()
    for H, order in cases:
        codes = H._close(H.gen_codes)
        want = sorted(oracles.closure_by_sets(H.gen_codes, H.mul, 0))
        assert codes.dtype == np.uint64
        assert codes.tolist() == want
        assert order is None or len(want) == order
        W = groups._commutator_span(H)
        for gen in H.gen_codes:
            d, r = 1, W.reduce(gen)
            while r:
                d, r = d + 1, W.reduce(H.mul(r, gen))
            orders.add(d)
    assert 4 in orders


def test_close_steps_keep_coset_representatives(monkeypatch):
    # a block step on representatives, 0 at every pivot of W, gives
    # representatives: the pre-reduced tables are red(u g) for red(u) = u
    seen = []
    step = ExpansionGroup._step

    def checked(codes, table):
        out = step(codes, table)
        seen.append((codes, out))
        return out

    monkeypatch.setattr(ExpansionGroup, "_step", staticmethod(checked))
    steps = 0
    for H in _random_generating_sets(32):
        seen.clear()
        H._close(H.gen_codes)
        # W spans the same subspace as [H,H], so it has the same pivots
        pivots = groups._commutator_span(H).mask
        for codes, out in seen:
            assert not np.any(codes & out.dtype.type(pivots))
            assert not np.any(out & out.dtype.type(pivots))
        steps += len(seen)
    assert steps > 100


def test_right_mul_array_agrees_across_dtypes():
    G = build_universal_general(BlockShape((2, 2, 1)))
    assert G.codes.dtype == np.uint64 and G.width <= 31
    narrow = G.codes.astype(np.uint32)
    for g in G.gen_codes + [int(G.codes[-1])]:
        wide = G.right_mul_array(G.codes, g)
        got = G.right_mul_array(narrow, g)
        assert wide.dtype == np.uint64 and got.dtype == np.uint32
        assert np.array_equal(got, wide)


def test_empty_generating_set_is_trivial():
    G = build_universal(2)
    assert G._close([]).tolist() == [0]
    T = G.with_generators([])
    assert T.order == 1 and T.codes.dtype == np.uint64
    assert T.mul_table().tolist() == [[0]]


def test_mul_table_refuses_past_the_table_ceiling(monkeypatch):
    # order 2^15, where the int32 table would take 4 GiB: the order comes
    # from the presentation, so the guard answers before any enumeration
    monkeypatch.setattr(ExpansionGroup, "_close",
                        lambda self, gens: pytest.fail("enumerated"))
    G = build_universal_general(BlockShape((4, 4)))
    with pytest.raises(ResourceLimitError,
                       match=r"predicted order 2\^15 exceeds the table ceiling 2\^13"):
        G.mul_table()
    assert G._codes is None and G._mul is None


def test_mul_table_matches_left_multiplication():
    for k in [(1, 1), (2, 1), (2, 2), (1, 1, 1)]:
        G = build_universal_general(BlockShape(k))
        M = G.mul_table()
        codes = G.codes
        want = np.vstack([
            np.searchsorted(codes, oracles.mul_left_array(G, int(c), codes))
            for c in codes])
        assert M.dtype == np.int32, k
        assert np.array_equal(M, want), k


def test_close_np_orders_on_enumerate_shapes():
    for k in [(4, 4), (2, 2, 1), (3, 1, 1), (5, 4)]:
        shape = BlockShape(k)
        G = build_universal_general(shape)
        assert G.order == 1 << universal_order_exponent(shape), k
        assert bool(np.all(G.codes[1:] > G.codes[:-1])), k


def test_close_np_ceiling_trips_partway(monkeypatch):
    G = build_universal_general(BlockShape((2, 1, 1)))
    steps = []
    step = ExpansionGroup._step

    def counted(codes, table):
        steps.append(codes.size)
        return step(codes, table)

    monkeypatch.setattr(ExpansionGroup, "_step", staticmethod(counted))
    G._close(G.gen_codes)
    full = len(steps)
    steps.clear()
    monkeypatch.setattr(groups, "ENUM_CEILING", G.order // 8)
    with pytest.raises(ResourceLimitError) as e:
        G.with_generators(G.gen_codes).codes
    assert 0 < len(steps) < full
    assert str(G.order // 8) in str(e.value)


def test_closure_is_closed_on_enumerate_shapes():
    # no set oracle at 2^15 to 2^20 elements: the codes are distinct, as
    # many as the order formula says, and closed under every generator
    for k in [(4, 4), (2, 2, 1), (3, 1, 1), (5, 4), (2, 2, 2)]:
        shape = BlockShape(k)
        G = build_universal_general(shape)
        codes = G.codes
        assert bool(np.all(codes[1:] > codes[:-1])), k
        assert len(codes) == 1 << universal_order_exponent(shape), k
        for g in G.gen_codes:
            moved = G.right_mul_array(codes, g)
            at = np.minimum(np.searchsorted(codes, moved), len(codes) - 1)
            assert np.array_equal(codes[at], moved), k


def test_closure_reads_only_mul_and_inv(monkeypatch):
    G = build_universal_general(BlockShape((2, 1, 1)))
    want = sorted(oracles.closure_by_sets(G.gen_codes, G.mul, 0))
    # closed forms that leave the pure-polynomial codes
    stray = 1 << G.comps[0].vec_off
    monkeypatch.setattr(ExpansionGroup, "commutator", lambda self, a, b: stray)
    monkeypatch.setattr(ExpansionGroup, "conj", lambda self, g, w: w ^ stray)
    assert check_generator_axioms(G)["axiom2"] is False

    def refuse(G):
        raise AssertionError("the closure read the commutator span")

    monkeypatch.setattr(groups, "_commutator_span", refuse)
    assert G.codes.tolist() == want
    assert G.closure_stats == {"cosets": 16, "coset_steps": 4, "span_dim": 8}


def test_closure_ceiling_is_checked_on_cosets(monkeypatch):
    # |H/W| = 2^4 and |H| = 2^12: with the ceiling between them, the
    # refusal names the predicted order.  Each generator doubles the
    # cosets in one block; the third block would make 8 cosets, 2^11
    # elements, so it is refused before it is stepped and every step
    # stays within the 4 cosets the ceiling allows
    G = build_universal_general(BlockShape((2, 1, 1)))
    steps = []
    step = ExpansionGroup._step

    def counted(codes, table):
        steps.append(codes.size)
        return step(codes, table)

    monkeypatch.setattr(ExpansionGroup, "_step", staticmethod(counted))
    monkeypatch.setattr(groups, "ENUM_CEILING", 1 << 10)
    with pytest.raises(ResourceLimitError) as e:
        G.codes
    assert not steps and e.value.predicted_order == G.order == 1 << 12
    with pytest.raises(ResourceLimitError,
                       match=r"predicted order 2\^12 exceeds the enumeration ceiling 2\^10"):
        G._close(G.gen_codes)
    assert steps == [1, 2]
    steps.clear()
    with pytest.raises(ResourceLimitError, match="ceiling of 1024 elements"):
        G.with_generators(G.gen_codes).codes
    assert steps == [1, 2]
    assert G._codes is None


def test_axiom1_array_branch_can_fail():
    G = build_universal_general(BlockShape((1, 1)))
    c0, c1 = G.comps
    # g_0 also carries t_s in its own factor, and readout 0 watches that
    # bit: phi(g_x) = e_x still holds, but g_1 moves g_0's t_s to t_empty
    g0 = G.gen_codes[0] | (2 << c0.poly_off)
    mut = ExpansionGroup(G.shape, G.comps, [g0, G.gen_codes[1]],
                         [c0.poly_off + 1, c1.poly_off])
    assert isinstance(mut.codes, np.ndarray)
    assert [mut.phi(g) for g in mut.gen_codes] == [1, 2]
    assert any(mut.phi(mut.mul(u, g)) != mut.phi(u) ^ mut.phi(g)
               for u in mut.codes.tolist() for g in mut.gen_codes)
    assert check_expansion_axioms(mut)["axiom1"] is False
    assert check_expansion_axioms(G)["axiom1"] is True


def _span(vecs) -> set[int]:
    out = {0}
    for v in vecs:
        out |= {s ^ v for s in out}
    return out


def _codes(values) -> np.ndarray:
    return np.array(sorted(values), dtype=np.uint64)


def test_xor_closed_sorted_decides_subspaces():
    rng = random.Random(5)
    for _ in range(300):
        # small coordinates make dependent spanning vectors common
        bits = rng.choice((6, 40))
        V = _span(rng.getrandbits(bits) for _ in range(rng.randint(0, 6)))
        assert groups._xor_closed_sorted(_codes(V))
        if len(V) < 4:
            continue
        # swap one nonzero member for an outsider: 2^r codes, 0 among
        # them, and no longer closed
        e = rng.choice(sorted(V - {0}))
        w = next(v for v in iter(lambda: rng.getrandbits(bits + 1), None)
                 if v not in V)
        opened = (V - {e}) | {w}
        assert any(a ^ b not in opened for a in opened for b in opened)
        assert not groups._xor_closed_sorted(_codes(opened))


def test_series_reuses_stored_report(monkeypatch):
    G = build_universal_general(BlockShape((2, 1)))
    rep = check_expansion_axioms(G)
    assert all(rep.values())

    def refuse(_):
        raise AssertionError("axioms checked twice")

    monkeypatch.setattr(groups, "check_expansion_axioms", refuse)
    assert len(descending_central_series(G)) >= 2
    for key in rep:
        mut = G.with_generators(G.gen_codes)
        mut._report = dict(rep, **{key: False})
        with pytest.raises(ValueError):
            descending_central_series(mut)


# -- presentation against enumeration --

CONJ_SHAPES = [(1, 1), (2, 1), (1, 1, 1), (2, 1, 1), (2, 2, 1)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CONJ_SHAPES), st.data())
def test_conj_matches_products(k, data):
    # g anywhere in the ambient product, w pure polynomial or not
    G = build_universal_general(BlockShape(k))
    g = data.draw(st.integers(0, (1 << G.width) - 1))
    w = data.draw(st.integers(0, (1 << G.width) - 1))
    pure = w & ~G.vec_field_mask
    for u in (pure, w):
        assert G.conj(g, u) == G.mul(G.mul(g, u), G.inv(g))
    assert G._codes is None


# every composition whose universal group has at most 2^17 elements; four
# blocks already give 2^21
SMALL_SHAPES = [k for n in (1, 2, 3) for k in product(range(1, 18), repeat=n)
                if universal_order_exponent(BlockShape(k)) <= 17]


def test_presentation_matches_enumeration_on_small_shapes():
    assert len(SMALL_SHAPES) == 63
    for k in SMALL_SHAPES:
        shape = BlockShape(k)
        G = build_universal_general(shape)
        rep = check_generator_axioms(G)
        series = descending_central_series(G)
        assert G.order == 1 << universal_order_exponent(shape), k
        assert G._codes is None, k
        # a group rebuilt from the same generators, without the predicted
        # order, gets its order from the presentation too
        H = G.with_generators(G.gen_codes)
        assert H.order == G.order and H._codes is None, k
        assert check_expansion_axioms(H) == rep, k
        assert len(H.codes) == G.order, k
        assert descending_central_series(H) == series, k


def _mutants():
    """(group, the report key its broken condition sits under)."""
    U3 = build_universal(3)
    g0, g1, g2 = U3.gen_codes
    P = build_universal_general(BlockShape((1, 1)))
    c0, c1 = P.comps
    # phi reads a t_s bit, which the action moves: condition (a)
    moved = ExpansionGroup(P.shape, P.comps, [P.gen_codes[0] | (2 << c0.poly_off),
                                              P.gen_codes[1]],
                           [c0.poly_off + 1, c1.poly_off])
    T = build_universal_general(BlockShape((2, 1)))
    h0, h1, h2 = T.gen_codes
    # phi(g_0) = e_1: condition (b)
    swapped = T.with_generators([h1, h0, h2])
    # g_0 g_1 keeps g_1's vector bits away from block 0: condition (e)
    Q = build_universal_general(BlockShape((2, 2)))
    far = sum(c.vec_mask << c.vec_off for c in Q.comps if Q.shape.block(c.i) == 1)
    split = Q.with_generators([Q.gen_codes[0], Q.gen_codes[1] & ~far]
                              + Q.gen_codes[2:])
    return [
        (moved, "axiom1"),
        (swapped, "axiom1"),
        (U3.with_generators([]), "axiom1"),
        # g_0 [g_1, g_2] is no involution: condition (c)
        (U3.with_generators([U3.mul(g0, U3.commutator(g1, g2)), g1, g2]), "axiom4"),
        (split, "tilde_condition"),
        # phi reads vector bits, a homomorphism that (a) does not cover
        (single_factor(3, 1), "axiom1"),
    ]


def test_failed_generator_check_falls_back_to_enumeration():
    for M, key in _mutants():
        rep = check_generator_axioms(M)
        assert rep[key] is False, key
        twin = M.with_generators(M.gen_codes)
        want = check_expansion_axioms(twin)
        assert M.order == len(M.codes) == len(twin.codes), key
        if all(want.values()):
            assert descending_central_series(M) == descending_central_series(twin)
        else:
            with pytest.raises(ValueError):
                descending_central_series(M)
        assert M._report == want, key


def test_pair_check_names_its_limit(monkeypatch):
    # the tilde mutant has 128 elements, under the ceiling, but its tilde
    # set of 32 codes has vector parts and needs 32 x 32 products
    M = next(M for M, key in _mutants() if key == "tilde_condition")
    monkeypatch.setattr(groups, "ENUM_CEILING", 512)
    assert len(M.codes) == 128
    with pytest.raises(ResourceLimitError, match=r"^pair check of 32 x 32 products "
                       r"exceeds the enumeration ceiling of 512$"):
        check_expansion_axioms(M)


def test_generator_check_reads_vector_parts_of_the_span(monkeypatch):
    # a product rule whose commutators leave the pure-polynomial codes
    # breaks the proof; condition (d) sees it and the order is counted
    G = build_universal(2)
    stray = 1 << G.comps[0].vec_off
    real = G.commutator
    monkeypatch.setattr(G, "commutator", lambda a, b: real(a, b) ^ stray)
    assert check_generator_axioms(G)["axiom2"] is False
    assert G.order == len(G.codes) == 8


# every composition with N <= 5 whose universal group the closure can
# enumerate: within the element ceiling and the code-width limit
ENUMERABLE = [k for N in range(1, 6) for k in oracles.compositions(N)
              if 1 << universal_order_exponent(BlockShape(k)) <= groups.ENUM_CEILING
              and build_universal_general(BlockShape(k)).width <= groups.CODE_WIDTH_LIMIT]


def test_enumerated_check_matches_the_whole_array_route():
    assert len(ENUMERABLE) == 26 and (1, 1, 1, 1) in ENUMERABLE
    mutants = [M for M, _ in _mutants()]
    # the off-t_empty readout fails axiom 1 only on the codes, past the
    # generator images; the commutator mutant fails axiom 4
    assert oracles.check_expansion_axioms_by_whole_array(mutants[0])["axiom1"] is False
    assert oracles.check_expansion_axioms_by_whole_array(mutants[3])["axiom4"] is False
    for G in [build_universal_general(BlockShape(k)) for k in ENUMERABLE] + mutants:
        want = oracles.check_expansion_axioms_by_whole_array(G)
        assert check_expansion_axioms(G) == want, G.shape.k
        got = groups._phi_zero_sets(G)
        ref = oracles.phi_zero_sets_by_bits(G)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref)), G.shape.k


@pytest.mark.parametrize("k", [(2, 2, 1), (5, 4)])
def test_enumerated_axiom1_reads_only_the_distinct_vector_parts(monkeypatch, k):
    G = build_universal_general(BlockShape(k))
    codes = G.codes
    distinct = np.unique(codes & np.uint64(G.vec_field_mask)).size
    sizes = []
    real = ExpansionGroup.right_mul_array

    def counted(self, arr, gc):
        sizes.append(arr.size)
        return real(self, arr, gc)

    monkeypatch.setattr(ExpansionGroup, "right_mul_array", counted)
    assert all(check_expansion_axioms(G).values())
    assert len(sizes) == len(G.gen_codes)
    assert max(sizes) <= distinct < codes.size
