"""Bit-packed linear algebra over GF(2).

Vectors are plain ints used as bitmasks: bit j holds coordinate j
(little-endian by index).  A matrix is a sequence of such row masks.
Elimination always pivots on the first set bit it meets, so identical
inputs give identical outputs.
"""

from __future__ import annotations

from typing import Iterable, Iterator

__all__ = [
    "parity",
    "bits_of",
    "rank",
    "kernel_basis",
    "spans_equal",
    "F2Basis",
    "F2Solver",
]


def low_bit(x: int) -> int:
    """Index of the lowest set bit of a nonzero int."""
    return (x & -x).bit_length() - 1


def parity(x: int) -> int:
    """Bit parity of x."""
    return x.bit_count() & 1


def bits_of(x: int) -> Iterator[int]:
    """Yield the indices of the set bits of x, lowest first."""
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def rank(m: Iterable[int]) -> int:
    """GF(2) row rank of an iterable of row masks."""
    return len(F2Basis(m))


def rref(m: Iterable[int]) -> dict[int, int]:
    """Reduced row echelon form as a map pivot column -> row mask.

    Keys appear in the order their pivots were found.  F2Basis's forward
    elimination leaves each row free of the pivots found before it; one
    back-substitution, highest pivot first, then clears the later ones
    using rows that are already reduced, so a single pass over each row's
    higher pivot bits suffices.
    """
    echelon = F2Basis(m)
    piv, mask = echelon.rows, echelon.mask
    for p in sorted(piv, reverse=True):
        v = piv[p]
        hit = v & mask & ~((2 << p) - 1)
        if hit:
            for q in bits_of(hit):
                v ^= piv[q]
            piv[p] = v
    return piv


def kernel_basis(m: Iterable[int], cols: int) -> list[int]:
    """Basis of {x : m.x = 0} over cols columns, one vector per free
    column, ascending."""
    piv = rref(m)
    out = []
    for f in range(cols):
        if f in piv:
            continue
        x = 1 << f
        for p, r in piv.items():
            if r >> f & 1:
                x |= 1 << p
        out.append(x)
    return out


def solve(m: Iterable[int], b: int, cols: int) -> int | None:
    """Some x with m.x = b (bit k of b pairs with row k), else None.

    m has cols columns.  Free variables are set to zero, so the answer is
    deterministic.
    """
    aug = [r | (b >> k & 1) << cols for k, r in enumerate(m)]
    piv = rref(aug)
    if cols in piv:
        return None
    x = 0
    for p, r in piv.items():
        x |= (r >> cols & 1) << p
    return x


def spans_equal(a: Iterable[int], b: Iterable[int]) -> bool:
    """Whether two vector collections span the same subspace."""
    ba, bb = F2Basis(a), F2Basis(b)
    if len(ba) != len(bb):
        return False
    return all(v in bb for v in ba.basis())


class F2Basis:
    """Growable echelon basis for a subspace of bitmask vectors.

    reduce gives the canonical representative of a coset, so membership
    and quotient bookkeeping both come for free.
    """

    __slots__ = ("rows", "mask")

    def __init__(self, vecs: Iterable[int] = ()) -> None:
        self.rows: dict[int, int] = {}
        self.mask = 0
        for v in vecs:
            self.add(v)

    def add(self, v: int) -> bool:
        """Insert v; report whether the dimension grew."""
        v = self.reduce(v)
        if not v:
            return False
        p = low_bit(v)
        self.rows[p] = v
        self.mask |= 1 << p
        return True

    def reduce(self, v: int) -> int:
        while True:
            hit = v & self.mask
            if not hit:
                return v
            v ^= self.rows[low_bit(hit)]

    def __contains__(self, v: int) -> bool:
        return self.reduce(v) == 0

    def __len__(self) -> int:
        return len(self.rows)

    def basis(self) -> list[int]:
        return [self.rows[p] for p in sorted(self.rows)]


class F2Solver:
    """Echelon basis that remembers how each vector was assembled.

    Every add consumes the next combination index, stored or not, so
    express answers in terms of the original insertion order.
    """

    __slots__ = ("rows", "mask", "count")

    def __init__(self, vecs: Iterable[int] = ()) -> None:
        self.rows: dict[int, tuple[int, int]] = {}
        self.mask = 0
        self.count = 0
        for v in vecs:
            self.add(v)

    def add(self, v: int) -> bool:
        vec, combo = self._walk(v, 1 << self.count)
        self.count += 1
        if not vec:
            return False
        p = low_bit(vec)
        self.rows[p] = (vec, combo)
        self.mask |= 1 << p
        return True

    def _walk(self, v: int, combo: int) -> tuple[int, int]:
        while True:
            hit = v & self.mask
            if not hit:
                return v, combo
            w, c = self.rows[low_bit(hit)]
            v ^= w
            combo ^= c

    def express(self, w: int) -> int | None:
        """Combination bitmask over added vectors reaching w, or None."""
        vec, combo = self._walk(w, 0)
        return None if vec else combo

    def __len__(self) -> int:
        return len(self.rows)
