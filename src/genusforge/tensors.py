"""Governing tensor spaces and constraint spaces over GF(2).

A multilinear map is stored as a bit table over injective basis tuples;
tuples that repeat an index or leave the support evaluate to zero.
Block structure enters through BlockShape, and the plain spaces are the
all-blocks-of-size-one case.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from math import comb, factorial, prod
from typing import Iterable

from .f2 import F2Basis, bits_of, kernel_basis, parity, rank

__all__ = [
    "BlockShape",
    "governing_tensor_general",
    "gov_equals_cons_check",
    "cons_dim_formula_general",
]


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for j in indices:
        m |= 1 << j
    return m


class BlockShape:
    """Partition of {0..N-1} into n consecutive blocks of sizes k[s]."""

    __slots__ = ("k", "n", "N", "_block", "_starts")

    def __init__(self, k: Iterable[int]) -> None:
        k = tuple(int(v) for v in k)
        if not k or min(k) < 1:
            raise ValueError("block sizes must be positive")
        self.k = k
        self.n = len(k)
        self.N = sum(k)
        starts, acc = [], 0
        for v in k:
            starts.append(acc)
            acc += v
        self._starts = tuple(starts)
        self._block = tuple(s for s, v in enumerate(k) for _ in range(v))

    def block(self, x: int) -> int:
        """Block index of coordinate x."""
        return self._block[x]

    def first(self, s: int) -> int:
        """First coordinate of block s."""
        return self._starts[s]

    def members(self, s: int) -> tuple[int, ...]:
        a = self._starts[s]
        return tuple(range(a, a + self.k[s]))

    def block_mask(self, s: int) -> int:
        return ((1 << self.k[s]) - 1) << self._starts[s]

    def full_mask(self) -> int:
        return (1 << self.N) - 1

    def pi(self, v: int) -> int:
        """Block-sum projection onto F2^n."""
        out = 0
        for s in range(self.n):
            out |= parity(v & self.block_mask(s)) << s
        return out

    def ker_pi_basis(self) -> list[tuple[int, int]]:
        """Pairs (first member, other member) spanning ker pi."""
        out = []
        for s in range(self.n):
            g = self._starts[s]
            for r in self.members(s)[1:]:
                out.append((g, r))
        return out

    def drop(self, blocks) -> "BlockShape":
        """Shape left after removing the given block or blocks."""
        gone = {blocks} if isinstance(blocks, int) else set(blocks)
        kept = [v for s, v in enumerate(self.k) if s not in gone]
        if not kept:
            raise ValueError("cannot drop every block")
        return BlockShape(kept)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BlockShape) and self.k == other.k

    def __hash__(self) -> int:
        return hash(self.k)

    def __repr__(self) -> str:
        return f"BlockShape({list(self.k)})"


@lru_cache(maxsize=None)
def inj_tuples(support: int, arity: int) -> tuple[tuple[int, ...], ...]:
    """Injective basis tuples inside the support, lexicographic."""
    return tuple(itertools.permutations(tuple(bits_of(support)), arity))


@lru_cache(maxsize=None)
def inj_index(support: int, arity: int) -> dict[tuple[int, ...], int]:
    return {t: p for p, t in enumerate(inj_tuples(support, arity))}


class MultiTensor:
    """Multilinear map (F2^N)^arity -> F2 vanishing on repeated indices.

    bits is the value table over inj_tuples(support, arity).
    """

    __slots__ = ("N", "arity", "support", "bits")

    def __init__(self, N: int, arity: int, support: int | None = None,
                 bits: int = 0) -> None:
        if arity < 1:
            raise ValueError("arity must be positive")
        if support is None:
            support = (1 << N) - 1
        if support >> N:
            raise ValueError("support beyond ambient dimension")
        self.N = N
        self.arity = arity
        self.support = support
        self.bits = bits

    def eval(self, tup: Iterable[int]) -> int:
        """Value on a tuple of basis indices."""
        tup = tuple(tup)
        if len(tup) != self.arity:
            raise ValueError("tuple length differs from arity")
        for j in tup:
            if not 0 <= j < self.N:
                raise ValueError(f"index {j} outside 0..{self.N - 1}")
        pos = inj_index(self.support, self.arity).get(tup)
        return 0 if pos is None else self.bits >> pos & 1

    def nonzero(self) -> list[tuple[int, ...]]:
        tuples = inj_tuples(self.support, self.arity)
        return [tuples[p] for p in bits_of(self.bits)]

    def is_zero(self) -> bool:
        return self.bits == 0

    def embed(self, support: int) -> "MultiTensor":
        """The same map indexed over a larger support."""
        if support & self.support != self.support:
            raise ValueError("new support must contain the old one")
        if support == self.support:
            return MultiTensor(self.N, self.arity, support, self.bits)
        idx = inj_index(support, self.arity)
        bits = 0
        for tup in self.nonzero():
            bits |= 1 << idx[tup]
        return MultiTensor(self.N, self.arity, support, bits)

    def __xor__(self, other: "MultiTensor") -> "MultiTensor":
        if (self.N, self.arity) != (other.N, other.arity):
            raise ValueError("shape mismatch")
        sup = self.support | other.support
        return MultiTensor(
            self.N, self.arity, sup,
            self.embed(sup).bits ^ other.embed(sup).bits,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiTensor):
            return NotImplemented
        if (self.N, self.arity) != (other.N, other.arity):
            return False
        sup = self.support | other.support
        return self.embed(sup).bits == other.embed(sup).bits

    def __repr__(self) -> str:
        return (
            f"MultiTensor(N={self.N}, arity={self.arity}, "
            f"support=0b{self.support:b}, weight={self.bits.bit_count()})"
        )


def governing_tensor_general(shape: BlockShape, A: Iterable[int], x: int,
                             T: Iterable[int],
                             support: int | None = None) -> MultiTensor:
    """Block-summed bijection sum with the T-character pinned at the end.

    A collects block indices, x is the distinguished block, and T is a
    nonempty subset of the members of block x replacing its character.
    Each choice of one member per block of A, the T member last, is put
    in every order that leaves the T member in one of the last two slots:
    each order head of the other members gives head + (last,) and, when
    head is nonempty, head[:-1] + (last, head[-1]).  The table is indexed
    over support, by default the union of the chosen members' pools.  The
    plain tensor on n involutions is the shape (1,) * n with T = (x,).
    """
    A = tuple(sorted(set(A)))
    if x not in A:
        raise ValueError("x must lie in A")
    if A and not 0 <= A[0] <= A[-1] < shape.n:
        raise ValueError("A leaves the block index range")
    T = tuple(sorted(set(T)))
    if not T:
        raise ValueError("T must be nonempty")
    if any(shape.block(j) != x for j in T):
        raise ValueError("T must sit inside block x")
    i = len(A)
    pools = [shape.members(s) for s in A if s != x]
    pools.append(T)
    pooled = mask_of(j for pool in pools for j in pool)
    if support is None:
        support = pooled
    elif pooled & ~support:
        raise ValueError("support must contain the pools")
    idx = inj_index(support, i)
    bits = 0
    for choice in itertools.product(*pools):
        last = choice[-1]
        for head in itertools.permutations(choice[:-1]):
            bits |= 1 << idx[head + (last,)]
            if head:
                bits |= 1 << idx[head[:-1] + (last, head[-1])]
    return MultiTensor(shape.N, i, support, bits)


@lru_cache(maxsize=None)
def cons_rows(support: int, arity: int) -> tuple[tuple[int, ...], ...]:
    """Constraint rows cutting the consistent maps out of tilde-Multi.

    Each row is the sorted tuple of column indices over
    inj_tuples(support, arity) whose values must sum to zero.  Arity 2
    imposes Symmetry, arity 3 lifts it through every slot-zero component
    and adds one Hall-Witt row per 3-subset, higher arities lift the
    previous stage and add Commutativity of the first two slots.  At
    arity 3 the Hall-Witt rows are exactly the three-column rows: a
    lifted Symmetry row has two columns.
    """
    members = tuple(bits_of(support))
    if arity > len(members):
        return ()  # no injective tuples, so no columns and no rows
    idx = inj_index(support, arity)
    rows: list[tuple[int, ...]] = []
    if arity >= 3:
        for j in members:
            sub = support & ~(1 << j)
            # tuples starting with j are one lexicographic run whose tails
            # are inj_tuples(sub, arity - 1) in order, so a lift is a shift
            shift = idx[(j,) + inj_tuples(sub, arity - 1)[0]].__add__
            rows.extend(tuple(map(shift, cols))
                        for cols in cons_rows(sub, arity - 1))
    if arity == 2:
        for a, b in itertools.combinations(members, 2):
            rows.append((idx[(a, b)], idx[(b, a)]))
    elif arity == 3:
        for a, b, c in itertools.combinations(members, 3):
            rows.append(tuple(sorted(
                (idx[(a, b, c)], idx[(c, a, b)], idx[(b, c, a)]))))
    elif arity >= 4:
        for a, b in itertools.combinations(members, 2):
            rest = support & ~(1 << a) & ~(1 << b)
            for tail in inj_tuples(rest, arity - 2):
                rows.append((idx[(a, b) + tail], idx[(b, a) + tail]))
    return tuple(rows)


def tilde_rows(shape: BlockShape, arity: int) -> tuple[tuple[int, ...], ...]:
    """Extra vanishing rows for the block-refined constraint space.

    Rows are sorted column tuples, as in cons_rows.  Three families:
    a kernel vector of the block-sum projection in any of the first
    arity-2 slots, kernel vectors in both of the last two slots, and
    basis tuples meeting one block twice.
    """
    support = shape.full_mask()
    idx = inj_index(support, arity)
    kernel = shape.ker_pi_basis()
    rows: list[tuple[int, ...]] = []

    def row(tuples: Iterable[tuple[int, ...]]) -> None:
        # a row's tuples are distinct, so the sum of their indicators has
        # every injective one as a column; idx holds exactly those
        cols = sorted(c for c in map(idx.get, tuples) if c is not None)
        if cols:
            rows.append(tuple(cols))

    for h in range(arity - 2):
        for a, b in kernel:
            for rest in inj_tuples(support, arity - 1):
                row(rest[:h] + (v,) + rest[h:] for v in (a, b))

    if arity >= 2:
        for a, b in kernel:
            for c, d in kernel:
                for rest in inj_tuples(support, arity - 2):
                    row(rest + (p, q) for p in (a, b) for q in (c, d))

    for pos, tup in enumerate(inj_tuples(support, arity)):
        blocks = [shape.block(j) for j in tup]
        if len(set(blocks)) < arity:
            rows.append((pos,))

    return tuple(rows)


def _support_of(n: int, B: Iterable[int] | int | None) -> int:
    if B is None:
        return (1 << n) - 1
    if isinstance(B, int):
        return B
    return mask_of(B)


def _solution_basis(support: int, arity: int, rows: Iterable[tuple[int, ...]],
                    N: int) -> list[MultiTensor]:
    cols = len(inj_tuples(support, arity))
    masks = [mask_of(c) for c in rows]
    return [MultiTensor(N, arity, support, v) for v in kernel_basis(masks, cols)]


def cons_space(n: int, B: Iterable[int] | int | None,
               i: int) -> list[MultiTensor]:
    """Basis of the consistent maps of arity i supported on B."""
    if i < 1:
        raise ValueError("arity must be positive")
    support = _support_of(n, B)
    return _solution_basis(support, i, cons_rows(support, i), n)


def cons_space_general(shape: BlockShape, i: int) -> list[MultiTensor]:
    """Basis of the block-refined consistent maps of arity i."""
    if i < 1:
        raise ValueError("arity must be positive")
    support = shape.full_mask()
    rows = cons_rows(support, i) + tilde_rows(shape, i)
    return _solution_basis(support, i, rows, shape.N)


def gov_space(n: int, B: Iterable[int] | int | None,
              i: int) -> list[MultiTensor]:
    """Echelon basis of the span of governing tensors supported on B."""
    support = _support_of(n, B)
    shape = BlockShape((1,) * n)
    basis = F2Basis()
    for A in itertools.combinations(tuple(bits_of(support)), i):
        for x in A:
            basis.add(governing_tensor_general(shape, A, x, (x,), support).bits)
    return [MultiTensor(n, i, support, v) for v in basis.basis()]


def gov_space_general(shape: BlockShape, i: int) -> list[MultiTensor]:
    """Echelon basis of the span of block-refined governing tensors."""
    support = shape.full_mask()
    basis = F2Basis()
    for A in itertools.combinations(range(shape.n), i):
        for x in A:
            mem = shape.members(x)
            for size in range(1, len(mem) + 1):
                for T in itertools.combinations(mem, size):
                    basis.add(governing_tensor_general(
                        shape, A, x, T, support).bits)
    return [MultiTensor(shape.N, i, support, v) for v in basis.basis()]


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
        for a, b in itertools.combinations(range(i), 2):
            ab, ba = a * step + (b - 1) * run, b * step + a * run
            rows.extend((ab + t, ba + t) for t in range(run))
    return tuple(rows)


def _weights(k: tuple[int, ...]) -> list[int]:
    """Place value of each block's member in a choice index.

    Choice indices follow itertools.product over the blocks' members, so
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
    for p, order in enumerate(itertools.permutations(range(i))):
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
    orders = list(itertools.permutations(range(i)))
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
    rows = itertools.chain((tuple(c + off for c in r) if off else r
                            for off in range(0, len(root), f) for r in template),
                           ker)
    classes = _column_classes(rows, len(root), root, zero)
    dim_cons = _class_dim(classes)
    gov = _piece_gov(k)
    equal = dim_cons == len(gov) and _annihilates(classes, gov)
    return {"dim_gov": len(gov), "dim_cons": dim_cons, "equal": equal}


def gov_equals_cons_check(shape: BlockShape, i: int) -> dict:
    """Compare the governing span with the constraint kernel as subspaces.

    The check splits into one problem per set B of i blocks, and each is
    solved on its own columns:

    - Every cons_rows row reads orderings of one set of i members: a lift
      puts a fixed j in front of a smaller row, a Hall-Witt row permutes
      a, b, c cyclically and a Commutativity row swaps the first two
      slots.
    - Every tilde row is a single zero column or reads tuples that differ
      only in which member of a block they hold.
    - So no row mixes the columns of two block sets.  The tilde rows
      force every column that meets a block twice to zero, and every
      other column takes one member from each block of one B.
    - A governing tensor on the block set A is nonzero only on tuples
      taking one member from each block of A.

    So cons and gov are direct sums over B, dim_gov and dim_cons are sums
    over B, and the spans are equal exactly when they are equal on every
    B.  The rows only compare members, so relabelling the members of B
    onto range(N_B) in order turns the problem of B into the top-arity
    problem of BlockShape(k_B), k_B the sizes of the blocks of B, which
    _piece_check solves once per distinct k_B.  On each piece, dim cons
    comes from _class_dim on the classes of the sparse rows, and the
    spans are equal when every governing vector solves every row, so gov
    lies inside cons, and the two dimensions agree.  No kernel basis and
    no row over the full support is built.
    """
    if i < 1:
        raise ValueError("arity must be positive")
    sizes = Counter(tuple(shape.k[s] for s in B)
                    for B in itertools.combinations(range(shape.n), i))
    dim_gov = dim_cons = 0
    equal = True
    for k, count in sizes.items():
        piece = _piece_check(k)
        dim_gov += count * piece["dim_gov"]
        dim_cons += count * piece["dim_cons"]
        equal = equal and piece["equal"]
    return {"dim_gov": dim_gov, "dim_cons": dim_cons, "equal": equal}


def cons_dim_formula_general(shape: BlockShape, i: int) -> int:
    """Predicted dimension of the block-refined constraint space."""
    if i == 1:
        return shape.N
    return shape.N * comb(shape.n - 1, i - 1) - comb(shape.n, i)
