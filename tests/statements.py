"""Checks of paper statements that the command line does not run.

Each function here restates one claim of the paper, the unique
epimorphism of a universal group, the pairing of governing tensors with
a Lie grade, gov = cons over the full support, the shuffling identity,
the restriction kernel, the pointed expansion-map recursion, the
2-cocycle identity and the nilpotency degree of a map, and checks it on
the package's own objects.  They read package internals such as
_context and _recursion_holds, so they are kept apart from oracles.py,
whose computations avoid the package's data structures.

The column route (_template to column_route_check) is the reference
for tensors' pair route: gov = cons per block set on the i! * prod(k)
tuple columns of each piece, by union-find over the two-column rows.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain, combinations, permutations, product
from math import comb, factorial, prod
from typing import Iterable

import numpy as np

from genusforge.expmaps import (PhiMap, _context, _label_row, _recursion_holds,
                                _unpack, phi_one_basis)
from genusforge.f2 import F2Basis, kernel_basis, rank, solve, spans_equal
from genusforge.groups import ExpansionGroup, descending_central_series
from genusforge.lie import GradedLie
from genusforge.tensors import BlockShape, cons_rows, gov_space_general, inj_index
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


@lru_cache(maxsize=None)
def _template(i: int) -> tuple[tuple[int, ...], ...]:
    """cons_rows((1 << i) - 1, i), built from _template(i - 1) alone.

    The columns are the orderings of range(i), lexicographic.  Those
    starting with j are one run of (i-1)! columns whose tails, relabelled
    in order onto range(i-1), are the columns of _template(i - 1), so the
    lift through j is a shift by j * (i-1)!.  The Hall-Witt row (arity 3)
    or the Commutativity rows (arity 4 on) follow, in cons_rows' order:
    the orderings starting (a, b) are a run of (i-2)! columns from
    a * (i-1)! + (b - 1) * (i-2)! when a < b, and from b * (i-1)! +
    a * (i-2)! for (b, a), with the tails in the same order.
    """
    if i < 2:
        return ()
    if i == 2:
        return ((0, 1),)
    step = factorial(i - 1)
    rows = [tuple(c + j * step for c in r)
            for j in range(i) for r in _template(i - 1)]
    if i == 3:
        rows.append((0, 3, 4))  # (0, 1, 2), (1, 2, 0) and (2, 0, 1)
    else:
        run = factorial(i - 2)
        for a, b in combinations(range(i), 2):
            ab, ba = a * step + (b - 1) * run, b * step + a * run
            rows.extend((ab + t, ba + t) for t in range(run))
    return tuple(rows)


def _weights(k: tuple[int, ...]) -> list[int]:
    """Place value of each block's member in a choice index.

    Choice indices follow product over the blocks' members, so
    block s holds digit c // w[s] % k[s] of choice c.
    """
    w, acc = [], 1
    for v in reversed(k):
        w.append(acc)
        acc *= v
    return w[::-1]


def _piece_classes(k: tuple[int, ...]):
    """Column classes and ker-pair rows of BlockShape(k) at its top arity.

    The piece's columns are the tuples that take one member from each
    block: column c * i! + p puts member c // w[s] % k[s] of each block s
    in the slots of the p-th lexicographic ordering of the blocks.  On
    these columns the tilde rows of the full support become:

    - No zero column: the zero columns are the tuples meeting a block
      twice, and none of these does.
    - Classes.  A kernel row in one of the first i-2 slots has two
      columns that differ in one slot by members a, b of one block.  If
      only one is injective, the rest holds a or b, so that one meets
      the block twice; otherwise both meet a block twice or neither
      does.  So on the piece these rows say that the value does not see
      which member of its block sits in a head slot: the class of a
      column keeps the members of the last two blocks of its ordering
      and puts every head block at its first member.
    - Ker-pair rows.  Kernel pairs (a, b) in block s and (c, d) in
      block t, in the last two slots of a rest tuple, touch only
      columns meeting a block twice unless s != t and neither block
      occurs in the rest.  Then, on the classes, the row equals the one
      with every head block at its first member: four columns ending in
      s, t with a or b and c or d.

    Returns (root, zero, rows) as _column_classes takes them.  With
    blocks of size one every column is its own class and there is no
    kernel pair.
    """
    i = len(k)
    f = factorial(i)
    cols = prod(k) * f
    root, zero = list(range(cols)), bytearray(cols)
    if i < 2 or max(k) == 1:
        return root, zero, ()
    w = _weights(k)
    rows = []
    for p, order in enumerate(permutations(range(i))):
        s, t = order[-2:]
        if i > 2:
            for c in range(cols // f):
                keep = c // w[s] % k[s] * w[s] + c // w[t] % k[t] * w[t]
                root[c * f + p] = keep * f + p
        for b in range(1, k[s]):
            for d in range(1, k[t]):
                rows.append(tuple(sorted((x * w[s] + y * w[t]) * f + p
                                         for x in (0, b) for y in (0, d))))
    return root, zero, tuple(rows)


def _piece_gov(k: tuple[int, ...]) -> list[int]:
    """Echelon basis of the governing span of BlockShape(k) at its top
    arity, in the columns of _piece_classes.

    governing_tensor_general(shape, range(i), x, T) takes each choice
    whose member of block x lies in T, in every ordering with x in one of
    the last two slots: one pattern over the orderings, put at each such
    choice.  Choices with different members of x fill disjoint columns,
    so the tensor of T is the sum of those of its members, and the
    one-member sets T span them all.
    """
    i = len(k)
    w = _weights(k)
    orders = list(permutations(range(i)))
    blank = "0" * len(orders)
    basis = F2Basis()
    for x in range(i):
        # binary digits, highest column first, as int(..., 2) reads them
        pattern = "".join("1" if x in order[-2:] else "0"
                          for order in reversed(orders))
        for m in range(k[x]):
            basis.add(int("".join(pattern if c // w[x] % k[x] == m else blank
                                  for c in reversed(range(prod(k)))), 2))
    return basis.basis()


def _column_classes(rows: Iterable[tuple[int, ...]], cols: int,
                    root: list[int] | None = None,
                    zero: bytearray | None = None):
    """Classes of columns that every solution of the rows holds equal.

    A one-column row forces its column to zero and a two-column row
    forces two columns equal, so union-find over those rows leaves
    classes of columns sharing one value, some of them forced to zero.
    root and zero, as _piece_classes gives them, start the union-find
    from classes already known.  Returns (root, zero, wide): root[c] is
    a column naming the class of c, zero[root[c]] whether that class is
    forced to zero, and wide the rows of three or more columns.  A
    vector solves the rows exactly when it is zero on the zero classes,
    constant on each class and sums to zero over every wide row.
    """
    parent = list(range(cols)) if root is None else list(root)
    zero = bytearray(cols) if zero is None else bytearray(zero)

    def find(c: int) -> int:
        top = c
        while parent[top] != top:
            top = parent[top]
        while parent[c] != top:
            parent[c], c = top, parent[c]
        return top

    wide = []
    for r in rows:
        if len(r) == 1:
            zero[find(r[0])] = 1
        elif len(r) == 2:
            a, b = find(r[0]), find(r[1])
            if a != b:
                parent[b] = a
                zero[a] |= zero[b]
        else:
            wide.append(r)
    return [find(c) for c in range(cols)], zero, wide


def _class_dim(classes) -> int:
    """Dimension of the solutions of the rows _column_classes folded.

    Only the wide rows are projected onto the free classes and ranked.
    """
    root, zero, wide = classes
    free: dict[int, int] = {}
    for r in root:
        if not zero[r] and r not in free:
            free[r] = len(free)
    projected = []
    for row in wide:
        m = 0
        for c in row:
            r = root[c]
            if not zero[r]:
                m ^= 1 << free[r]
        projected.append(m)
    return len(free) - rank(projected)


def _annihilates(classes, vecs: Iterable[int]) -> bool:
    """Whether every vector solves the rows _column_classes folded.

    Bit k of a column's mask is that column's entry in vector k, so a
    column agrees with its class on every vector at once when the two
    masks are equal, and the XOR of the masks over a wide row's columns
    is the row's value on every vector at once.
    """
    root, zero, wide = classes
    colmask: dict[int, int] = {}
    for k, v in enumerate(vecs):
        digits = bin(v)[:1:-1]  # digits[c] is bit c
        c = digits.find("1")
        while c >= 0:
            colmask[c] = colmask.get(c, 0) | 1 << k
            c = digits.find("1", c + 1)
    for c, r in enumerate(root):
        m = colmask.get(c, 0)
        if m and zero[r] or m != colmask.get(r, 0):
            return False
    for row in wide:
        acc = 0
        for c in row:
            acc ^= colmask.get(c, 0)
        if acc:
            return False
    return True


def _piece_check(k: tuple[int, ...]) -> dict:
    """gov_equals_cons_check of BlockShape(k) at its top arity len(k),
    on the columns that take one member from each block.

    The rows are _template(len(k)) put at each choice of members, that
    is shifted by the choice's first column, and the ker-pair rows of
    _piece_classes.
    """
    f = factorial(len(k))
    root, zero, ker = _piece_classes(k)
    template = _template(len(k))
    rows = chain((tuple(c + off for c in r) if off else r
                            for off in range(0, len(root), f) for r in template),
                           ker)
    classes = _column_classes(rows, len(root), root, zero)
    dim_cons = _class_dim(classes)
    gov = _piece_gov(k)
    equal = dim_cons == len(gov) and _annihilates(classes, gov)
    return {"dim_gov": len(gov), "dim_cons": dim_cons, "equal": equal}


def column_route_check(shape: BlockShape, i: int) -> dict:
    """gov_equals_cons_check by the column route: _piece_check once per
    tuple of block sizes of the i-block sets, each counted once per set."""
    sizes = Counter(tuple(shape.k[s] for s in B)
                    for B in combinations(range(shape.n), i))
    dim_gov = dim_cons = 0
    equal = True
    for k, count in sizes.items():
        piece = _piece_check(k)
        dim_gov += count * piece["dim_gov"]
        dim_cons += count * piece["dim_cons"]
        equal = equal and piece["equal"]
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


def block_sets_unpruned(shape: BlockShape, i: int):
    """tensors.block_sets as it was before its branches were pruned: every
    count c_v from min(m_v, left) down to 0 is tried, and a branch the
    sizes after it cannot fill is abandoned one level down."""
    sizes = sorted(Counter(shape.k).items(), reverse=True)
    rest = [sum(m for _, m in sizes[j:]) for j in range(len(sizes) + 1)]

    def walk(j: int, left: int, piece: tuple[int, ...], count: int):
        if not left:
            yield piece, count
        elif left <= rest[j]:
            v, m = sizes[j]
            for c in range(min(m, left), -1, -1):
                yield from walk(j + 1, left - c, piece + (v,) * c,
                                count * comb(m, c))

    return walk(0, i, (), 1)


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
        order = ctx.group.order
        return _recursion_holds(_unpack(vals, order),
                                _unpack([chis[t] for t in others], order),
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
            label = ("chi", x) if len(sub) == 1 else ("phi", sub, x)
            coords[B] = PhiMap(shape, 1 << ctx.index[label]).values
    return ExpansionMap(ctx.group, support, pointer, coords)


def is_cocycle(th) -> bool:
    """theta(st, u) + theta(s, tu) + theta(t, u) + theta(s, t) = 0 on
    every u, for all pairs (s, t) up to order 256 and 4096 seeded pairs
    above."""
    ctx = _context(th.shape)
    order = ctx.group.order
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
