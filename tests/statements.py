"""Checks of paper statements that the command line does not run.

Each function here restates one claim of the paper, the unique
epimorphism of a universal group, the pairing of governing tensors with
a Lie grade, the shuffling identity, the restriction kernel, the pointed
expansion-map recursion, the 2-cocycle identity and the nilpotency
degree of a map, and checks it on the package's own objects.  They read
package internals such as _context and _recursion_holds, so they are
kept apart from oracles.py, whose computations avoid the package's data
structures.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

from genusforge.expmaps import (PhiMap, _context, _label_row, _recursion_holds,
                                _unpack, phi_one_basis)
from genusforge.f2 import kernel_basis, rank, solve, spans_equal
from genusforge.groups import ExpansionGroup, descending_central_series
from genusforge.lie import GradedLie
from genusforge.tensors import BlockShape, gov_space_general


def unique_epimorphism(source, target) -> dict[int, int] | None:
    """Extend g_x -> g'_x multiplicatively; the full element map, or None."""
    if source.shape != target.shape:
        raise ValueError("shape mismatch")
    table = {source.identity: target.identity}
    frontier = [source.identity]
    while frontier:
        nxt = []
        for u in frontier:
            fu = table[u]
            for gs, gt in zip(source.gen_codes, target.gen_codes):
                v = source.mul(u, gs)
                w = target.mul(fu, gt)
                prev = table.get(v)
                if prev is None:
                    table[v] = w
                    nxt.append(v)
                elif prev != w:
                    return None
        frontier = nxt
    return table


def tensor_pairing(L: GradedLie, i: int) -> list[int] | None:
    """Functionals on grade i matching each governing-span tensor.

    Row k of the answer is the mask of a linear form whose value on the
    class of any nested bracket equals the k-th tensor evaluated at the
    same argument tuple; None when some tensor admits no such form.
    The pairing is perfect when the masks have full rank.
    """
    shape = L.shape
    d = L.dims[i - 1] if 1 <= i <= L.nclass else 0
    tuples = list(product(range(shape.N), repeat=i))
    nest = [L.nested(xs)[1] for xs in tuples]
    mats = []
    for t in gov_space_general(shape, i):
        rhs = 0
        for r, xs in enumerate(tuples):
            rhs |= t.eval(xs) << r
        m = solve(nest, rhs, cols=max(d, 1))
        if m is None:
            return None
        mats.append(m)
    return mats


def shuffling_check(shape: BlockShape, A) -> bool:
    """Summing the extractors over all pointers gives the block product.

    The product is built from the generator values phi(g) of each
    element, not from label tables, so for one block A the check
    compares the block character's label table with those values.
    """
    A = tuple(sorted(set(A)))
    ctx = _context(shape)
    if len(A) == 1:
        coords = shape.block_mask(A[0])
    else:
        coords = sum(1 << ctx.index[("phi", A, x)] for i in A for x in shape.members(i))
    G = ctx.group
    masks = [shape.block_mask(s) for s in A]
    prod = 0
    for p, code in enumerate(G.codes.tolist()):
        v = G.phi(code)
        if all((v & m).bit_count() & 1 for m in masks):
            prod |= 1 << p
    return PhiMap(shape, coords).values == prod


def restriction_kernel_check(shape: BlockShape) -> dict:
    """Restrict the Phi space to the commutator subgroup and compare.

    The restriction should hit the full dual of the commutator subgroup
    and its kernel should be exactly layer 1.
    """
    ctx = _context(shape)
    rows = [_label_row(ctx, w) for w in descending_central_series(ctx.group)[0]]
    image_dim = rank(rows)
    ker = kernel_basis(rows, cols=len(ctx.labels))
    return {
        "surjective": image_dim == len(rows),
        "image_dim": image_dim,
        "kernel_dim": len(ker),
        "kernel_matches": spans_equal(ker, [p.coords for p in phi_one_basis(shape)]),
    }


class ExpansionMap:
    """A pointed family of coefficient tables phi_B on one group.

    support lists the characters carried by the map, each as a mask of
    coordinates: the whole block for a non-pointed position, the pointed
    coordinate x alone at pointer.  coords assigns to every subset B of
    the non-pointed support positions the value table of phi_B;
    phi_empty is the pointed character chi_x itself.
    """

    __slots__ = ("group", "support", "pointer", "coords")

    def __init__(self, group: ExpansionGroup, support, pointer: int, coords):
        self.group = group
        self.support = list(support)
        self.pointer = pointer
        self.coords = dict(coords)

    def verify(self) -> bool:
        """The pointed-base case plus the recursion on all pairs.

        coords[B] is the corner table of the support positions outside B,
        so it is re-keyed by complement before the recursion check.
        """
        ctx = _context(self.group.shape)
        chis = [PhiMap(ctx.shape, mask).values for mask in self.support]
        if self.coords[()] != chis[self.pointer]:
            return False
        others = [t for t in range(len(self.support)) if t != self.pointer]
        vals = [self.coords[tuple(t for k, t in enumerate(others) if not (C >> k) & 1)]
                for C in range(1 << len(others))]
        return _recursion_holds(_unpack(vals, ctx.order),
                                _unpack([chis[t] for t in others], ctx.order),
                                ctx.group.mul_table())


def expansion_map(shape: BlockShape, A, x: int) -> ExpansionMap:
    """The pointed family of one extractor: phi_B reads t_B monomials."""
    A = tuple(sorted(set(A)))
    ctx = _context(shape)
    bx = shape.block(x)
    if bx not in A:
        raise ValueError("pointer block must lie in the support")
    support = [shape.block_mask(s) for s in A]
    pointer = A.index(bx)
    support[pointer] = 1 << x
    others = [t for t in range(len(A)) if t != pointer]
    coords = {}
    for r in range(len(others) + 1):
        for B in combinations(others, r):
            sub = tuple(sorted({bx} | {A[t] for t in B}))
            if len(sub) == 1:
                coords[B] = ctx.table(("chi", x))
            else:
                coords[B] = ctx.table(("phi", sub, x))
    return ExpansionMap(ctx.group, support, pointer, coords)


def is_cocycle(th) -> bool:
    """theta(st, u) + theta(s, tu) + theta(t, u) + theta(s, t) = 0 on
    every u, for all pairs (s, t) up to order 256 and 4096 seeded pairs
    above."""
    ctx = _context(th.shape)
    order = ctx.order
    M = ctx.group.mul_table()
    R = _unpack(th.rows, order)
    if order <= 256:
        ps, qs = np.divmod(np.arange(order * order), order)
    else:
        ps, qs = np.random.default_rng(0).integers(0, order, (2, 4096))
    for lo in range(0, len(ps), 256):
        p, q = ps[lo:lo + 256], qs[lo:lo + 256]
        acc = R[M[p, q]] ^ R[p[:, None], M[q]] ^ R[q] ^ R[p, q][:, None]
        if acc.any():
            return False
    return True


def nil_deg(phi: PhiMap) -> int:
    """Largest series depth the map still sees; 0 for the zero map."""
    if phi.coords == 0:
        return 0
    deepest = 1
    series = descending_central_series(_context(phi.shape).group)
    for m, basis in enumerate(series, start=2):
        if any(phi.eval(w) for w in basis):
            deepest = m
    return deepest
