"""Governing tensors, constraint spaces and their dimension theorems."""

from __future__ import annotations

import itertools
import json
from collections import Counter
from math import factorial

import pytest

import oracles
import statements
from genusforge import cli, tensors
from genusforge.f2 import F2Basis, kernel_basis, rank, spans_equal
from genusforge.tensors import (
    BlockShape,
    MultiTensor,
    _pair_check,
    cons_dim_formula_general,
    cons_rows,
    cons_space,
    cons_space_general,
    gov_equals_cons_check,
    gov_space,
    gov_space_general,
    governing_tensor_general,
    inj_tuples,
    mask_of,
    tilde_rows,
)
from statements import (_annihilates, _class_dim, _column_classes, _piece_check,
                        _piece_gov, _template, block_classes, class_route_check,
                        column_route_check)


def plain(n: int) -> BlockShape:
    """The all-ones shape: n blocks of one coordinate each."""
    return BlockShape((1,) * n)


def governing(n: int, A, x: int):
    """The plain governing tensor on n involutions."""
    return governing_tensor_general(plain(n), A, x, (x,))


def test_block_shape_layout():
    s = BlockShape([2, 1, 3])
    assert (s.n, s.N) == (3, 6)
    assert s.members(0) == (0, 1)
    assert s.members(2) == (3, 4, 5)
    assert s.block(4) == 2
    assert s.first(1) == 2
    assert s.pi(0b000011) == 0b000
    assert s.pi(0b001101) == 0b111
    assert s.pi(0b011000) == 0b000
    assert s.ker_pi_basis() == [(0, 1), (3, 4), (3, 5)]
    assert s.drop(1) == BlockShape([2, 3])
    assert s.drop([0, 2]) == BlockShape([1])


def test_block_shape_block_bisects_the_starts():
    for k in [(1,), (2, 1, 3), (1, 1, 1, 1), (5, 1, 1, 4), (3, 3)]:
        s = BlockShape(k)
        assert [s.block(x) for x in range(s.N)] == [
            b for b, v in enumerate(k) for _ in range(v)], k
        for x in (-1, s.N):
            with pytest.raises(IndexError):
                s.block(x)
    # nothing of size N is stored: a block of 2*10^8 members is three ints
    s = BlockShape((2 * 10 ** 8, 1))
    assert s.__slots__ == ("k", "n", "N", "_starts")
    assert (s.block(0), s.block(s.N - 2), s.block(s.N - 1)) == (0, 0, 1)


def test_block_shape_rejects_empty():
    with pytest.raises(ValueError):
        BlockShape([])
    with pytest.raises(ValueError):
        BlockShape([1, 0])
    with pytest.raises(ValueError):
        BlockShape([2]).drop(0)


def test_eval_dual_basis():
    t = MultiTensor(2, 2, bits=1 << 0)
    assert inj_tuples(0b11, 2)[0] == (0, 1)
    assert t.eval((0, 1)) == 1
    assert t.eval((1, 0)) == 0


def test_eval_errors():
    t = MultiTensor(3, 2)
    with pytest.raises(ValueError):
        t.eval((0,))
    with pytest.raises(ValueError):
        t.eval((0, 3))


def test_governing_tensor_pair():
    t = governing(2, (0, 1), 0)
    assert t.eval((0, 1)) == 1
    assert t.eval((1, 0)) == 1


def test_governing_tensor_singleton():
    t = governing(3, (0,), 0)
    assert t.arity == 1
    assert t.eval((0,)) == 1
    assert t.eval((1,)) == 0


def test_governing_tensor_triple_values():
    t = governing(3, (0, 1, 2), 0)
    assert t.eval((0, 1, 2)) == 0
    assert t.eval((1, 0, 2)) == 1
    assert t.eval((2, 1, 0)) == 1


def test_governing_tensor_rejects_outsider():
    with pytest.raises(ValueError):
        governing(3, (0, 1), 2)


def test_governing_matches_formula_oracle():
    for n, i in [(3, 2), (4, 3), (4, 2)]:
        for A in itertools.combinations(range(n), i):
            for x in A:
                t = governing(n, A, x)
                for tup in oracles.injective_tuples(range(n), i):
                    assert t.embed((1 << n) - 1).eval(tup) == oracles.gov_value(
                        A, x, tup
                    )


def test_governing_general_frozen_values():
    shape = BlockShape([2, 1])
    t = governing_tensor_general(shape, (0, 1), 0, (0,))
    assert t.eval((0, 2)) == 1
    assert t.eval((0, 1)) == 0
    assert t.eval((2, 0)) == 1
    assert t.eval((2, 1)) == 0


def test_governing_general_rejects_bad_T():
    shape = BlockShape([2, 1])
    with pytest.raises(ValueError):
        governing_tensor_general(shape, (0, 1), 0, (2,))
    with pytest.raises(ValueError):
        governing_tensor_general(shape, (0, 1), 0, ())


def test_governing_general_matches_oracle():
    # every arity, pointer block and nonempty T; from arity 3 on this
    # tells "one of the last two slots" from "the last slot"
    for k in [(2, 2), (2, 1, 1), (3, 2, 1), (2, 2, 1, 1)]:
        shape = BlockShape(k)
        for i in range(1, shape.n + 1):
            tuples = oracles.injective_tuples(range(shape.N), i)
            for A in itertools.combinations(range(shape.n), i):
                for x in A:
                    mem = shape.members(x)
                    for r in range(1, len(mem) + 1):
                        for T in itertools.combinations(mem, r):
                            t = governing_tensor_general(shape, A, x, T)
                            full = t.embed(shape.full_mask())
                            for tup in tuples:
                                want = oracles.gov_general_value(
                                    shape, A, x, T, tup)
                                assert full.eval(tup) == want, (k, A, x, T, tup)


def test_unique_relation_per_subset():
    n = 5
    for i in (2, 3, 4):
        for A in itertools.combinations(range(n), i):
            tensors = [governing(n, A, x) for x in A]
            total = tensors[0]
            for t in tensors[1:]:
                total = total ^ t
            assert total.is_zero()
            assert rank([t.bits for t in tensors]) == i - 1


def test_cons_dims_frozen():
    assert len(cons_space(4, None, 2)) == 6
    assert len(cons_space(4, None, 3)) == 8
    assert len(cons_space(3, None, 4)) == 0
    assert len(cons_space(5, None, 2)) == 10


def test_cons_dim_formula_sweep():
    for n in range(1, 7):
        for i in range(1, n + 1):
            assert len(cons_space(n, None, i)) == cons_dim_formula_general(plain(n), i)


def test_cons_on_proper_subset():
    B = (0, 2, 3, 5)
    assert len(cons_space(6, B, 3)) == cons_dim_formula_general(plain(4), 3)


def test_gov_equals_cons_plain():
    for n, i in [(4, 3), (5, 2), (3, 3), (4, 4), (2, 2)]:
        report = gov_equals_cons_check(plain(n), i)
        assert report["equal"]
        assert report["dim_gov"] == report["dim_cons"] == \
            cons_dim_formula_general(plain(n), i)


def test_gov_dim_matches_naive_span():
    for n, i in [(3, 2), (4, 2), (4, 3), (5, 3)]:
        assert len(gov_space(n, None, i)) == oracles.gov_dim_naive(n, i)


def test_gov_equals_cons_at_arity_one():
    report = gov_equals_cons_check(plain(3), 1)
    assert report == {"dim_gov": 3, "dim_cons": 3, "equal": True}


def test_general_dims_frozen():
    assert len(cons_space_general(BlockShape([2, 1]), 2)) == 2
    assert len(cons_space_general(BlockShape([2, 2]), 2)) == 3
    assert len(cons_space_general(BlockShape([2, 1, 1]), 3)) == 3


def test_general_blocks_of_one_equal_plain():
    shape = BlockShape([1, 1, 1])
    for i in (1, 2, 3):
        general = cons_space_general(shape, i)
        plain = cons_space(3, None, i)
        assert spans_equal([t.bits for t in general], [t.bits for t in plain])


def test_general_dim_formula_and_counting():
    shapes = [
        [2, 1], [3, 1], [2, 2], [2, 1, 1], [2, 2, 1], [1, 1, 1, 1],
        [3, 2], [2, 2, 2], [3, 1, 1],
    ]
    for k in shapes:
        shape = BlockShape(k)
        for i in range(2, shape.n + 1):
            dim = len(cons_space_general(shape, i))
            assert dim == cons_dim_formula_general(shape, i)
            assert dim == oracles.tilde_gov_dim_by_counting(shape, i)


def test_gov_equals_cons_general():
    for k in [[2, 1], [2, 2], [2, 1, 1], [1, 1, 1, 1], [3, 2]]:
        shape = BlockShape(k)
        for i in range(1, shape.n + 1):
            report = gov_equals_cons_check(shape, i)
            assert report["equal"], (k, i, report)


def test_gov_general_dim_matches_naive_span():
    for k in [[2, 1], [2, 2], [2, 1, 1]]:
        shape = BlockShape(k)
        for i in range(2, shape.n + 1):
            got = len(gov_space_general(shape, i))
            assert got == oracles.gov_general_dim_naive(shape, i)


def test_canonical_rewriting_reproduces_basis():
    for n, i in [(3, 2), (4, 3), (5, 3), (5, 4), (6, 4), (6, 6)]:
        space = cons_space(n, None, i)
        canon = oracles.canonical_tuples(n, i)
        assert len(space) == len(canon)
        value_rows = []
        for b in space:
            values = {tup: b.eval(tup) for tup in canon}
            row = 0
            for p, tup in enumerate(canon):
                row |= values[tup] << p
            value_rows.append(row)
            for tup in oracles.injective_tuples(range(n), i):
                assert oracles.rewrite_value(values, tup) == b.eval(tup)
        # canonical values separate the space
        assert rank(value_rows) == len(space)


def test_hall_witt_rows_are_the_three_column_rows():
    # one Hall-Witt row per 3-subset of 4; every other row is a lifted
    # Symmetry row
    rows = cons_rows((1 << 4) - 1, 3)
    assert sum(1 for c in rows if len(c) == 3) == 4
    assert all(len(c) == 2 for c in rows if len(c) != 3)


# criterion 02's shapes plus two with more blocks
CLASS_ROUTE_SHAPES = ((1, 1), (2, 1), (2, 2), (1, 1, 1), (2, 1, 1), (3, 2),
                      (2, 2, 2), (2, 2, 1, 1), (3, 1, 1, 1, 1))


def _kernel_route(gov, cons) -> dict:
    return {"dim_gov": len(gov), "dim_cons": len(cons),
            "equal": spans_equal([t.bits for t in gov], [t.bits for t in cons])}


def test_class_route_matches_kernel_basis():
    # gov_equals_cons_check ranks on column classes; cons_space* still
    # builds the full kernel basis, so the two routes must agree
    for n in range(1, 7):
        for i in range(1, n + 1):
            want = _kernel_route(gov_space(n, None, i), cons_space(n, None, i))
            assert gov_equals_cons_check(plain(n), i) == want, (n, i)
    for k in CLASS_ROUTE_SHAPES:
        shape = BlockShape(k)
        for i in range(1, shape.n + 1):
            want = _kernel_route(gov_space_general(shape, i),
                                 cons_space_general(shape, i))
            assert gov_equals_cons_check(shape, i) == want, (k, i)


def test_class_route_builds_no_kernel_basis(monkeypatch):
    def refuse(*args):
        raise AssertionError("kernel basis built")

    monkeypatch.setattr(tensors, "kernel_basis", refuse)
    assert gov_equals_cons_check(plain(5), 3)["equal"]
    assert gov_equals_cons_check(BlockShape((2, 2, 1)), 3)["equal"]


def _pieces(shape: BlockShape, i: int) -> dict:
    """Where each column of the full support lies in the split route.

    A column taking one member from each of i blocks maps to (its block
    set B, its column in the oracle's _piece_check of the sizes of B):
    the choice of members in mixed radix, first block most significant,
    times i!, plus the lexicographic index of the order its slots visit
    the blocks in.
    Columns meeting a block twice lie in no piece and are left out.
    """
    f = factorial(i)
    lex = {o: p for p, o in enumerate(itertools.permutations(range(i)))}
    out = {}
    for c, t in enumerate(inj_tuples(shape.full_mask(), i)):
        blocks = [shape.block(x) for x in t]
        if len(set(blocks)) < i:
            continue
        B = tuple(sorted(blocks))
        choice = 0
        for s in B:
            member = next(x for x in t if shape.block(x) == s) - shape.first(s)
            choice = choice * shape.k[s] + member
        out[c] = (B, choice * f + lex[tuple(B.index(s) for s in blocks)])
    return out


def _restrict(vec: int, where: dict, B) -> int:
    """The entries of a full-support vector on the columns of block set B."""
    out = 0
    for c, (block_set, col) in where.items():
        if block_set == B and vec >> c & 1:
            out |= 1 << col
    return out


def _piece_verdict(monkeypatch, shape: BlockShape, B, vecs) -> dict:
    """The column oracle's _piece_check of block set B with the governing
    vectors replaced by the echelon basis of vecs."""
    basis = F2Basis(vecs).basis()
    monkeypatch.setattr(statements, "_piece_gov", lambda k: basis)
    return _piece_check(tuple(shape.k[s] for s in B))


def test_piece_gov_is_the_restricted_governing_span():
    # the governing tensors vanish off the pieces and, restricted to the
    # columns of one block set, span what _piece_gov builds directly
    for k in ((2, 1), (2, 2), (3, 1), (2, 1, 1), (3, 2), (2, 2, 1), (1, 1, 1, 1)):
        shape = BlockShape(k)
        for i in range(1, shape.n + 1):
            where = _pieces(shape, i)
            on_pieces = mask_of(where)
            gov = [t.bits for t in gov_space_general(shape, i)]
            assert all(v & ~on_pieces == 0 for v in gov), (k, i)
            for B in itertools.combinations(range(shape.n), i):
                kB = tuple(shape.k[s] for s in B)
                assert spans_equal(_piece_gov(kB),
                                   [_restrict(v, where, B) for v in gov]), (k, i, B)


@pytest.mark.parametrize("arg, i", [(4, 3), (BlockShape((2, 1, 1)), 3)])
def test_class_route_sees_a_governing_vector_leave_cons(monkeypatch, arg, i):
    # an int n stands for the all-ones shape plain(n); each planted vector
    # is checked by the full-support route and, restricted to the block
    # set of the flipped column, by the piece check of that set
    shape = plain(arg) if isinstance(arg, int) else arg
    gov = gov_space_general(shape, i)
    cons = cons_space_general(shape, i)
    inside = F2Basis(t.bits for t in cons)
    g = gov[0]
    flips = [c for c in range(len(inj_tuples(g.support, i)))
             if g.bits ^ 1 << c not in inside]
    assert flips
    where = _pieces(shape, i)
    seen = 0
    for c in flips:
        bad = [g.bits ^ 1 << c] + [t.bits for t in gov[1:]]
        report = class_route_check(shape, i, bad)
        assert report == {"dim_gov": len(gov), "dim_cons": len(cons),
                          "equal": False}, c
        if c not in where:
            continue  # a column meeting a block twice has no piece column
        B = where[c][0]
        report = _piece_verdict(monkeypatch, shape, B,
                                [_restrict(v, where, B) for v in bad])
        assert report["equal"] is False, c
        seen += 1
    assert seen


def _tilde_route(shape: BlockShape, i: int) -> dict:
    # the union-find and annihilation verdict over every explicit row
    gov = gov_space_general(shape, i)
    support = shape.full_mask()
    classes = _column_classes(cons_rows(support, i) + tilde_rows(shape, i),
                              len(inj_tuples(support, i)))
    dim = _class_dim(classes)
    return {"dim_gov": len(gov), "dim_cons": dim,
            "equal": dim == len(gov) and _annihilates(classes, [t.bits for t in gov])}


def test_block_classes_match_the_tilde_rows():
    # the full-support oracle against every explicit tilde row:
    # 127 compositions, 448 (shape, arity) pairs
    for N in range(1, 8):
        for k in oracles.compositions(N):
            shape = BlockShape(k)
            for i in range(1, shape.n + 1):
                assert class_route_check(shape, i) == _tilde_route(shape, i), (k, i)


def test_split_route_matches_the_full_support_route():
    # the same 448 pairs, one piece per block set against the whole support
    for N in range(1, 8):
        for k in oracles.compositions(N):
            shape = BlockShape(k)
            for i in range(1, shape.n + 1):
                assert gov_equals_cons_check(shape, i) == class_route_check(shape, i), (k, i)


def test_template_is_the_top_arity_cons_rows():
    for i in range(1, 8):
        assert _template(i) == cons_rows((1 << i) - 1, i), i


def test_block_route_builds_no_tilde_rows(monkeypatch, capsys):
    # dims builds no row, tuple table or governing tensor over the full
    # support, and still passes every arity against the formula
    def refuse(*args):
        raise AssertionError("full-support table built")

    for name in ("cons_rows", "tilde_rows", "gov_space_general", "inj_index",
                 "inj_tuples"):
        monkeypatch.setattr(tensors, name, refuse)
    for argv, n in ((("--shape", "2,2,1"), 3), (("--shape", "3,1,1,1,1"), 5),
                    (("--n", "6"), 6)):
        assert cli.main(["--json", "dims", *argv]) == 0, argv
        rows = json.loads(capsys.readouterr().out)["results"]["rows"]
        assert [r["i"] for r in rows] == list(range(1, n + 1)), argv


def _block_families(shape: BlockShape, i: int) -> dict:
    """The tilde conditions by family, from their definitions: columns
    meeting a block twice, each distinct-block column tied to the one with
    first members in its head slots, and kernel pairs in the last two."""
    support = shape.full_mask()
    tuples = inj_tuples(support, i)
    where = {t: c for c, t in enumerate(tuples)}
    zero, split = [], []
    for c, t in enumerate(tuples):
        blocks = [shape.block(x) for x in t]
        if len(set(blocks)) < i:
            zero.append((c,))
        else:
            canon = tuple(shape.first(s) for s in blocks[:i - 2]) + t[max(i - 2, 0):]
            if canon != t:
                split.append((where[canon], c))
    pairs = []
    kernel = shape.ker_pi_basis()
    for a, b in kernel:
        for c, d in kernel:
            for rest in inj_tuples(support, i - 2):
                cols = [where.get(rest + (p, q)) for p in (a, b) for q in (c, d)]
                if any(col is not None for col in cols):
                    pairs.append(tuple(sorted(col for col in cols if col is not None)))
    return {"zero column": zero, "split class": split, "ker-pair row": pairs}


@pytest.mark.parametrize("family, k, i", [("zero column", (2, 2, 1), 3),
                                          ("split class", (2, 2, 1), 3),
                                          ("ker-pair row", (2, 2, 1), 2)])
def test_block_route_sees_each_family_broken_alone(monkeypatch, family, k, i):
    # a governing vector plus a vector that solves cons_rows and the other
    # two families but not this one breaks this family alone; the split
    # route sees it on the block set of the first row it breaks, and a
    # break on the zero columns lies in no piece at all
    shape = BlockShape(k)
    support = shape.full_mask()
    families = _block_families(shape, i)
    others = [r for name, rows in families.items() if name != family for r in rows]
    solved = kernel_basis([mask_of(r) for r in cons_rows(support, i) + tuple(others)],
                          len(inj_tuples(support, i)))
    breaks = [v for v in solved
              if any(sum(v >> c & 1 for c in r) & 1 for r in families[family])]
    assert breaks
    gov = [t.bits for t in gov_space_general(shape, i)]
    bad = [gov[0] ^ breaks[0]] + gov[1:]
    want = cons_dim_formula_general(shape, i)
    assert class_route_check(shape, i, bad) == {"dim_gov": want, "dim_cons": want,
                                                "equal": False}
    where = _pieces(shape, i)
    broken = next(r for r in families[family] if sum(breaks[0] >> c & 1 for c in r) & 1)
    if family == "zero column":
        assert broken[0] not in where
        # on every piece the break adds nothing outside the governing span
        for B in itertools.combinations(range(shape.n), i):
            vecs = [_restrict(v, where, B) for v in gov + [breaks[0]]]
            assert _piece_verdict(monkeypatch, shape, B, vecs)["equal"], B
        return
    B = where[broken[0]][0]
    assert all(where[c][0] == B for c in broken)
    report = _piece_verdict(monkeypatch, shape, B, [_restrict(v, where, B) for v in bad])
    assert report["equal"] is False


def test_class_route_opens_when_a_hall_witt_row_is_dropped():
    support = (1 << 4) - 1
    rows = cons_rows(support, 3)
    cols = len(inj_tuples(support, 3))
    assert _class_dim(_column_classes(rows, cols)) == 8
    hw = [t for t, c in enumerate(rows) if len(c) == 3]
    assert len(hw) == 4
    for t in hw:
        kept = [c for s, c in enumerate(rows) if s != t]
        assert _class_dim(_column_classes(kept, cols)) > 8


def test_split_route_opens_when_a_template_row_is_dropped(monkeypatch):
    # every row of the arity-3 template is needed (from arity 4 on, each
    # single row follows from the others), and dropping one drops its copy
    # at every choice of members of the column oracle
    template = _template(3)
    for t in range(len(template)):
        kept = template[:t] + template[t + 1:]
        monkeypatch.setattr(statements, "_template", lambda i: kept)
        for shape in (plain(4), BlockShape((2, 1, 1))):
            report = column_route_check(shape, 3)
            assert report["dim_cons"] > cons_dim_formula_general(shape, 3), (t, shape)
            assert report["equal"] is False


def test_rows_are_sorted_column_tuples():
    shape = BlockShape((2, 2, 1))
    support = shape.full_mask()
    for i in range(1, shape.n + 1):
        cols = len(inj_tuples(support, i))
        for c in cons_rows(support, i) + tilde_rows(shape, i) + \
                block_classes(shape, i)[2]:
            assert c and list(c) == sorted(set(c)) and c[-1] < cols
        root, _, ker = statements._piece_classes(shape.k)
        for c in _template(shape.n) + ker:
            assert c and list(c) == sorted(set(c)) and c[-1] < len(root)


# every piece of a shape with N <= 7; the oracle comparison adds the top
# piece of (1,)*8 and three mixed pieces, one out of descending order
SMALL_PIECES = tuple(tuple(k) for N in range(1, 8) for k in oracles.compositions(N))
ORACLE_PIECES = SMALL_PIECES + ((1,) * 8, (2, 2, 2, 2), (4, 2, 1), (5, 1, 2))


def test_pair_route_matches_the_column_oracle():
    for k in ORACLE_PIECES:
        assert _pair_check(k) == _piece_check(k), k


def test_ker_pair_rows_add_nothing_past_arity_two(monkeypatch):
    # on the column oracle, the ker-pair rows of _piece_classes change no
    # report from arity 3 on (each is a sum of four triangles), and at
    # arity 2 they are the only rows beyond Symmetry
    want = {k: _piece_check(k) for k in SMALL_PIECES}
    classes = statements._piece_classes
    monkeypatch.setattr(statements, "_piece_classes", lambda k: classes(k)[:2] + ((),))
    for k, report in want.items():
        got = _piece_check(k)
        if len(k) != 2 or min(k) == 1:
            assert got == report, k
        else:
            assert got["dim_cons"] > report["dim_cons"] and not got["equal"], k
    assert _piece_check((2, 2))["dim_cons"] == 4 and want[(2, 2)]["dim_cons"] == 3
    assert _piece_check((3, 2))["dim_cons"] == 6 and want[(3, 2)]["dim_cons"] == 4


def test_block_sets_count_every_block_set():
    for k in ((1,), (3, 1, 2, 1, 1, 3), (2, 2, 1, 1), (1,) * 6, (4, 3, 2, 1)):
        shape = BlockShape(k)
        for i in range(shape.n + 2):
            want = Counter(tuple(sorted((k[s] for s in B), reverse=True))
                           for B in itertools.combinations(range(shape.n), i))
            assert dict(tensors.block_sets(shape, i)) == want, (k, i)


def test_block_sets_pruned_walk_matches_the_unpruned_walk():
    for N in range(1, 9):
        for k in oracles.compositions(N):
            shape = BlockShape(k)
            for i in range(shape.n + 2):
                assert list(tensors.block_sets(shape, i)) == \
                    list(statements.block_sets_unpruned(shape, i)), (k, i)


def test_piece_cells_counts_what_pair_check_builds(monkeypatch):
    # the pairs each row builder is handed, and the rows it returns
    built = {}
    for name in ("_triangles", "_four_cycles", "_stars"):
        def counted(blocks, col, name=name, make=getattr(tensors, name)):
            built[name] = make(blocks, col)
            built["pairs"] = len(col)
            return built[name]
        monkeypatch.setattr(tensors, name, counted)
    for k in ((2, 3), (1, 1, 1), (3, 2, 1, 4), (2,) * 5, (3, 1)):
        built.clear()
        assert _pair_check(k)["equal"]
        rows = built.get("_triangles", built.get("_four_cycles"))
        assert tensors.piece_cells(k) == built["pairs"] * (
            len(rows) + len(built["_stars"])), k
    assert tensors.piece_cells((5,)) == 0
