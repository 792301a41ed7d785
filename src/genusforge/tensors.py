"""Governing tensor spaces and constraint spaces over GF(2).

A multilinear map is stored as a bit table over injective basis tuples;
tuples that repeat an index or leave the support evaluate to zero.
Block structure enters through BlockShape, and the plain spaces are the
all-blocks-of-size-one case.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections import Counter
from functools import lru_cache
from math import comb, prod
from typing import Iterable

from .f2 import F2Basis, bits_of, kernel_basis, parity, rank

__all__ = [
    "BlockShape",
    "governing_tensor_general",
    "block_sets",
    "piece_cells",
    "gov_equals_cons_check",
    "cons_dim_formula_general",
]


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for j in indices:
        m |= 1 << j
    return m


class BlockShape:
    """Partition of {0..N-1} into n consecutive blocks of sizes k[s].

    Only the n block sizes and starts are stored, nothing of size N, so
    a shape with a huge block costs no more than its list of sizes."""

    __slots__ = ("k", "n", "N", "_starts")

    def __init__(self, k: Iterable[int]) -> None:
        k = tuple(int(v) for v in k)
        if not k or min(k) < 1:
            raise ValueError("block sizes must be positive")
        self.k = k
        self.n = len(k)
        self.N = sum(k)
        self._starts = tuple(itertools.accumulate(k[:-1], initial=0))

    def block(self, x: int) -> int:
        """Block index of coordinate x: the last block starting at or
        before x."""
        if not 0 <= x < self.N:
            raise IndexError(f"coordinate {x} outside 0..{self.N - 1}")
        return bisect_right(self._starts, x) - 1

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


def block_sets(shape: BlockShape, i: int):
    """Yield (k_B, count) for each multiset k_B of sizes of i blocks, in
    descending order, with count = prod_v C(m_v, c_v) block sets B of
    those sizes: m_v blocks of size v in the shape, c_v of them in B.
    A branch is entered only if the sizes after it can fill it: c_v is
    at least left - rest[j + 1], so no piece is built that is then
    abandoned."""
    sizes = sorted(Counter(shape.k).items(), reverse=True)
    rest = [sum(m for _, m in sizes[j:]) for j in range(len(sizes) + 1)]

    def walk(j: int, left: int, piece: tuple[int, ...], count: int):
        if not left:
            yield piece, count
        elif left <= rest[j]:
            v, m = sizes[j]
            for c in range(min(m, left), max(0, left - rest[j + 1]) - 1, -1):
                yield from walk(j + 1, left - c, piece + (v,) * c,
                                count * comb(m, c))

    return walk(0, i, (), 1)


def piece_cells(k: tuple[int, ...]) -> int:
    """Pairs times rows, star vectors included, that _pair_check builds
    for the piece k, counted without building them."""
    e1 = e2 = e3 = 0  # members, pairs and triangles
    for v in k:
        e1, e2, e3 = e1 + v, e2 + v * e1, e3 + v * e2
    return e2 * ((e3 if len(k) > 2 else prod(v - 1 for v in k)) + e1)


def _pair_columns(blocks: list[range]) -> dict[tuple[int, int], int]:
    """Column of each pair of members of two distinct blocks, lower first."""
    pairs = (p for A, B in itertools.combinations(blocks, 2)
             for p in itertools.product(A, B))
    return {p: c for c, p in enumerate(pairs)}


def _triangles(blocks: list[range], col: dict) -> list[int]:
    """Rows from arity 3 on: the pairs of one member each of three blocks."""
    return [1 << col[a, b] | 1 << col[a, c] | 1 << col[b, c]
            for A, B, C in itertools.combinations(blocks, 3)
            for a, b, c in itertools.product(A, B, C)]


def _four_cycles(blocks: list[range], col: dict) -> list[int]:
    """Rows at arity 2: 4-cycles through the first member of each block."""
    (a, *A), (c, *C) = blocks
    return [1 << col[a, c] | 1 << col[a, d] | 1 << col[b, c] | 1 << col[b, d]
            for b in A for d in C]


def _stars(blocks: list[range], col: dict) -> list[int]:
    """Governing vectors: the pairs holding each member."""
    stars = [0] * blocks[-1].stop
    for (a, b), c in col.items():
        stars[a] |= 1 << c
        stars[b] |= 1 << c
    return stars


def _pair_check(k: tuple[int, ...]) -> dict:
    """gov_equals_cons_check of BlockShape(k) at its top arity i = len(k),
    on the pairs of members of two distinct blocks.

    The piece's columns are the tuples taking one member from each block.
    Its rows are the cons_rows of the members, the block classes (a head
    slot does not see which member of its block it holds) and the
    ker-pair rows of the last two slots.  On them:

    - Classes.  A lifted Symmetry row swaps the last two slots, and a
      lifted Commutativity row swaps slots h and h+1, h = 0 ... i-4;
      slots i-3 and i-2 are never swapped.  So the two-column rows
      generate S_{i-2} on the head slots times S_2 on the last two, and
      with the block classes a column's class is fixed by the set of its
      last two members: one class per pair, none forced to zero.
    - Triangles.  A Hall-Witt row, lifted by a prefix p, reads p + (a, b,
      c), p + (c, a, b) and p + (b, c, a), whose classes are the pairs
      bc, ab and ca of members of three distinct blocks.  Every such
      triangle arises, with p the other blocks.
    - 4-cycles.  A ker-pair row reads rest + (x, y) for x in {a, b} of
      block s and y in {c, d} of block t: the pairs of a 4-cycle.  At
      i >= 3 it is the sum of the four triangles through x, y and one
      member z of a third block, since each pair xz and yz occurs twice,
      so only i = 2, which has no triangle, keeps these rows.
    - Stars.  The governing tensor of member m of block x is 1 on the
      columns holding m in one of the last two slots, that is on every
      class whose pair holds m.

    So dim_cons = pairs - rank(rows), and the spans are equal exactly
    when every star meets every row evenly and rank(stars) = dim_cons:
    the cut space and the cycle space of the complete multipartite graph
    on the members (Diestel, Graph Theory, 1.9).  At i = 1 the columns
    are the k_0 members, with no row, and the governing tensors are
    their unit vectors.
    """
    if len(k) == 1:
        return {"dim_gov": k[0], "dim_cons": k[0], "equal": True}
    blocks = [range(a, a + v) for a, v in zip(itertools.accumulate(k, initial=0), k)]
    col = _pair_columns(blocks)
    rows = (_triangles if len(k) > 2 else _four_cycles)(blocks, col)
    stars = _stars(blocks, col)
    dim_gov, dim_cons = rank(stars), len(col) - rank(rows)
    equal = dim_cons == dim_gov and not any(
        parity(s & r) for r in rows for s in stars)
    return {"dim_gov": dim_gov, "dim_cons": dim_cons, "equal": equal}


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
    _pair_check solves on the pairs of members.  Reordering the blocks
    permutes the pairs, rows and stars among themselves, so the answer
    depends only on the multiset of k_B, whose block sets block_sets
    counts.  No kernel basis and no full-support row is built.
    """
    if i < 1:
        raise ValueError("arity must be positive")
    pieces = [(count, _pair_check(k)) for k, count in block_sets(shape, i)]
    return {"dim_gov": sum(c * p["dim_gov"] for c, p in pieces),
            "dim_cons": sum(c * p["dim_cons"] for c, p in pieces),
            "equal": all(p["equal"] for _, p in pieces)}


def cons_dim_formula_general(shape: BlockShape, i: int) -> int:
    """Predicted dimension of the block-refined constraint space."""
    if i == 1:
        return shape.N
    return shape.N * comb(shape.n - 1, i - 1) - comb(shape.n, i)
