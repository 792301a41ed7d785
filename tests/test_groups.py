"""Semidirect factors, universal groups, axiom reports, series, corners."""

from __future__ import annotations

import numpy as np
import pytest

import oracles
from genusforge import groups
from genusforge.f2 import spans_equal
from genusforge.groups import (CosetGroup, ExpansionGroup, GroupElement,
                               ResourceLimitError, SemidirectElement,
                               augmentation_power_span, build_single_factor,
                               build_universal, build_universal_general,
                               check_expansion_axioms, commutator, corner,
                               descending_central_series, grade_dims, mul,
                               nested_commutator, nilpotency_class,
                               normal_closure, product_expansion,
                               unique_epimorphism, universal_order_exponent)
from genusforge.tensors import BlockShape


def test_factor_product_frozen():
    G = build_single_factor(2, 0)
    g00, g01 = G.generators
    prod = mul(g00, g01)
    assert prod.components[0] == SemidirectElement(0, (1,), poly=0b01, vec=0b1)
    c = commutator(g00, g01)
    # the commutator is the monomial in the adjoined variable, vector part 0
    assert c.components[0] == SemidirectElement(0, (1,), poly=0b10, vec=0b0)


def test_squares_land_in_poly_part():
    G = build_single_factor(3, 0)
    for code in G.iter_codes():
        g = G.element(code)
        sq = (g * g).components[0]
        assert sq.vec == 0
        if g.components[0].vec == 0:
            assert (g * g).is_identity()


def test_mul_mismatch_raises():
    a = build_single_factor(2, 0).generators[0]
    b = build_single_factor(3, 0).generators[0]
    with pytest.raises(ValueError):
        mul(a, b)
    c = build_single_factor(2, 1).generators[0]
    with pytest.raises(ValueError):
        mul(a, c)


def test_mul_identity_and_associativity():
    G = build_universal(2)
    ident = G.element(0)
    gens = G.generators
    for g in gens:
        assert mul(g, ident) == g
        assert mul(ident, g) == g
    pool = gens + [mul(gens[0], gens[1])]
    for a in pool:
        for b in pool:
            for c in pool:
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
    for a in pool:
        assert mul(a, a.inv()).is_identity()


def test_nested_commutator():
    G = build_universal(3)
    g1, g2, g3 = G.generators
    with pytest.raises(ValueError):
        nested_commutator([g1])
    assert nested_commutator([g1, g1]).is_identity()
    ident = G.element(0)
    assert nested_commutator([ident, ident, ident]).is_identity()
    assert not nested_commutator([g1, g2, g3]).is_identity()


def test_single_factor_orders():
    assert build_single_factor(1, 0).order == 2
    assert build_single_factor(2, 0).order == 8
    assert build_single_factor(3, 0).order == 64
    assert build_single_factor(3, 1).order == 64
    with pytest.raises(ValueError):
        build_single_factor(3, 3)


def test_single_factor_axioms():
    for n, i in [(2, 0), (2, 1), (3, 0), (3, 2)]:
        rep = check_expansion_axioms(build_single_factor(n, i))
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
    U = build_universal(3)
    T = build_universal_general(BlockShape((1, 1, 1)))
    assert U.order == T.order
    assert unique_epimorphism(U, T) is not None
    assert unique_epimorphism(T, U) is not None


def test_resource_limit_reports_predicted_order():
    with pytest.raises(ResourceLimitError) as e:
        build_universal_general(BlockShape((2, 1, 1, 1)))
    assert e.value.predicted_order == 1 << 29
    with pytest.raises(ResourceLimitError) as e:
        build_universal(5)
    assert e.value.predicted_order == 1 << 54
    assert "2^22" in str(e.value)


def test_product_expansion():
    a = build_single_factor(2, 0)
    b = build_single_factor(2, 1)
    P = product_expansion(a, b)
    assert P.order == 8
    assert all(check_expansion_axioms(P).values())
    # pairing with itself generates the diagonal
    D = product_expansion(a, a)
    assert D.order == a.order
    assert unique_epimorphism(D, a) is not None
    with pytest.raises(ValueError):
        product_expansion(a, build_single_factor(3, 0))


def test_projection_epimorphisms_exist():
    U = build_universal(3)
    for i in range(3):
        F = build_single_factor(3, i)
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
    assert nilpotency_class(build_universal(3)) == 3


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
        series = descending_central_series(G)
        for i in range(2, 2 + len(series)):
            assert spans_equal(augmentation_power_span(G, i), series[i - 2])


def test_exponent_four_and_generator_identities():
    G = build_universal(3)
    for code in G.iter_codes():
        sq = G.mul(code, code)
        assert G.mul(sq, sq) == 0
    for a in G.gen_codes:
        for b in G.gen_codes:
            c = G.commutator(a, b)
            assert G.mul(c, c) == 0
            assert G.nested_commutator([a, a, b]) == 0


def test_corner_examples():
    U2 = build_universal(2)
    assert corner(U2, 1).order == 2
    U3 = build_universal(3)
    C = corner(U3, 2)
    assert C.order == build_universal(2).order
    with pytest.raises(ValueError):
        corner(build_universal(1), 0)


def test_corner_isomorphic_to_reduced_universal():
    G = build_universal_general(BlockShape((2, 1)))
    C = corner(G, 1)
    M = build_universal_general(BlockShape((2,)))
    assert C.order == M.order
    assert all(check_expansion_axioms(C).values())
    assert unique_epimorphism(C, M) is not None
    assert unique_epimorphism(M, C) is not None
    C0 = corner(G, 0)
    assert C0.order == 2


def test_epimorphism_to_proper_quotient_only():
    G = build_universal(2)
    g0, g1 = G.gen_codes
    N = normal_closure(G, [G.commutator(g0, g1)])
    Q = CosetGroup(G, N, [0, 1], G.shape)
    assert Q.order == 4
    assert unique_epimorphism(G, Q) is not None
    assert unique_epimorphism(Q, G) is None
    with pytest.raises(ValueError):
        unique_epimorphism(G, build_universal(3))


def test_phi_and_membership():
    G = build_universal_general(BlockShape((2, 1)))
    for x, g in enumerate(G.gen_codes):
        assert G.phi(g) == 1 << x
    assert G.contains(0)
    for g in G.generators:
        assert g in G
        assert G.code_of(g) in G
    for code in list(G.iter_codes())[:16]:
        assert G.code_of(G.element(code)) == code


def test_group_dump_format():
    G = build_universal(2)
    lines = G.to_text().splitlines()
    assert lines[0] == "shape 1 1"
    assert lines[1].startswith("gen ") and lines[2].startswith("gen ")
    assert len(lines) == 3 + G.order


def test_enumeration_deterministic():
    a = build_universal_general(BlockShape((2, 2))).codes
    b = build_universal_general(BlockShape((2, 2))).codes
    assert a.dtype == b.dtype == np.uint64
    assert a.tobytes() == b.tobytes()


def test_close_np_matches_close_set():
    for k in [(1, 1), (2, 1), (2, 2), (1, 1, 1), (2, 1, 1)]:
        G = build_universal_general(BlockShape(k))
        codes = G._close_np(G.gen_codes)
        assert codes.dtype == np.uint64
        assert bool(np.all(codes[1:] > codes[:-1])), k
        assert codes.tolist() == G._close_set(G.gen_codes), k


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
    G._close_np(G.gen_codes)
    full = len(steps)
    steps.clear()
    monkeypatch.setattr(groups, "ENUM_CEILING", G.order // 8)
    with pytest.raises(ResourceLimitError) as e:
        G.with_generators(G.gen_codes)
    assert 0 < len(steps) < full
    assert str(G.order // 8) in str(e.value)


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
               for u in mut.iter_codes() for g in mut.gen_codes)
    assert check_expansion_axioms(mut)["axiom1"] is False
    assert check_expansion_axioms(G)["axiom1"] is True


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
