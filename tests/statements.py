"""Checks of paper statements that the command line does not run.

Each function here restates one claim of the paper, the unique
epimorphism of a universal group, the pairing of governing tensors with
a Lie grade, gov = cons over the full support, the shuffling identity,
the restriction kernel, the pointed expansion-map recursion, the
2-cocycle identity and the nilpotency degree of a map, and checks it on
the package's own objects.  They read package internals such as
_context and _recursion_holds, so they are kept apart from oracles.py,
whose computations avoid the package's data structures.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

import numpy as np

from genusforge.expmaps import (PhiMap, _context, _label_row, _recursion_holds,
                                _unpack, phi_one_basis)
from genusforge.f2 import kernel_basis, rank, solve, spans_equal
from genusforge.groups import ExpansionGroup, descending_central_series
from genusforge.lie import GradedLie
from genusforge.tensors import (BlockShape, _annihilates, _class_dim, _column_classes,
                                 cons_rows, gov_space_general, inj_index)
from oracles import nested


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
    nest = [nested(L, xs)[1] for xs in tuples]
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


def block_classes(shape: BlockShape, i: int):
    """Column classes and ker-pair rows equivalent to tilde_rows(shape, i).

    Returns (root, zero, rows) over inj_tuples(full support, i): zero[c]
    marks a column forced to zero, root[c] names the class of c, and
    rows are the ker-pair rows that remain.  A vector satisfies every
    tilde row exactly when it vanishes on the zero columns, is constant
    on each class and satisfies these rows:

    - The zero columns are the tuples meeting a block twice, the third
      family.  A kernel row in one of the first i-2 slots, built on a
      rest tuple, has two columns that differ in one slot by members
      a, b of one block.  If only one of them is injective, the rest
      holds a or b, so the injective one meets that block twice;
      otherwise both columns meet a block twice or neither does.  So
      the first family forces no new zero and, among tuples of distinct
      blocks, says exactly that the value does not see which member of
      its block sits in a head slot: the class of a column replaces
      each head member by its block's first member.
    - A row of kernel pairs (a, b) in block s and (c, d) in block t in
      the last two slots, on a rest tuple, touches only zero columns
      unless s != t and neither block occurs in the rest.  Then its
      four columns are rest + (p, q) and, on the classes, it equals the
      row on the rest's canonical form: first members of distinct
      blocks.  Only those rows are emitted.
    """
    n = shape.n
    idx = inj_index(shape.full_mask(), i)
    cols = len(idx)
    root = list(range(cols))
    zero = bytearray(b"\x01") * cols
    head = max(i - 2, 0)
    first = [shape.first(s) for s in range(n)]
    members = [shape.members(s) for s in range(n)]
    for blocks in permutations(range(n), i):
        canon = tuple(first[s] for s in blocks[:head])
        heads = tuple(product(*(members[s] for s in blocks[:head])))
        for tail in product(*(members[s] for s in blocks[head:])):
            r = idx[canon + tail]
            for h in heads:
                c = idx[h + tail]
                root[c] = r
                zero[c] = 0
    rows = []
    if i >= 2:
        for blocks in permutations(range(n), i - 2):
            rest = tuple(first[s] for s in blocks)
            paired = [s for s in range(n) if s not in blocks and shape.k[s] > 1]
            for s, t in permutations(paired, 2):
                a, c = first[s], first[t]
                for b in members[s][1:]:
                    for d in members[t][1:]:
                        rows.append(tuple(sorted(idx[rest + (p, q)]
                                                 for p in (a, b) for q in (c, d))))
    return root, zero, tuple(rows)


def class_route_check(shape: BlockShape, i: int, gov=None) -> dict:
    """gov = cons at arity i over the full support, without splitting.

    Every cons_rows row of the full support and the ker-pair rows of
    block_classes go through one union-find started from its classes;
    gov (bit tables over the full support) defaults to the basis
    gov_space_general builds.  This is the route gov_equals_cons_check
    took before it split the problem by block set.
    """
    if gov is None:
        gov = [t.bits for t in gov_space_general(shape, i)]
    root, zero, ker = block_classes(shape, i)
    rows = cons_rows(shape.full_mask(), i) + ker
    classes = _column_classes(rows, len(root), root, zero)
    dim_cons = _class_dim(classes)
    dim_gov = rank(gov)
    equal = dim_cons == dim_gov and _annihilates(classes, gov)
    return {"dim_gov": dim_gov, "dim_cons": dim_cons, "equal": equal}


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
