"""Bit-packed linear algebra over GF(2).

Vectors are plain ints used as bitmasks: bit j holds coordinate j
(little-endian by index).  A matrix is a sequence of such row masks.
Elimination always pivots on the first set bit it meets, so identical
inputs give identical outputs.
"""

from __future__ import annotations

from typing import Iterable, Iterator

__all__ = [
    "low_bit",
    "parity",
    "dot",
    "bits_of",
    "rank",
    "rref",
    "kernel_basis",
    "solve",
    "in_span",
    "spans_equal",
    "F2Basis",
    "F2Solver",
    "F2Vector",
    "F2Matrix",
]


def low_bit(x: int) -> int:
    """Index of the lowest set bit of a nonzero int."""
    return (x & -x).bit_length() - 1


def parity(x: int) -> int:
    """Bit parity of x."""
    return x.bit_count() & 1


def dot(a: int, b: int) -> int:
    """GF(2) inner product of two bitmask vectors."""
    return (a & b).bit_count() & 1


def bits_of(x: int) -> Iterator[int]:
    """Yield the indices of the set bits of x, lowest first."""
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def _rows_of(m) -> list[int]:
    if isinstance(m, F2Matrix):
        return m.data
    return [v.bits if isinstance(v, F2Vector) else v for v in m]


def _cols_of(m, cols: int | None) -> int:
    if isinstance(m, F2Matrix):
        return m.cols
    if cols is None:
        raise ValueError("column count required for raw rows")
    return cols


def rank(m) -> int:
    """GF(2) row rank of an F2Matrix or an iterable of row masks."""
    piv: dict[int, int] = {}
    mask = 0
    for v in _rows_of(m):
        v = _strip(v, piv, mask)
        if v:
            p = low_bit(v)
            piv[p] = v
            mask |= 1 << p
    return len(piv)


def _strip(v: int, piv: dict[int, int], mask: int) -> int:
    # clear every pivot bit of v; the lowest one present strictly increases
    while True:
        hit = v & mask
        if not hit:
            return v
        v ^= piv[low_bit(hit)]


def rref(m) -> dict[int, int]:
    """Reduced row echelon form as a map pivot column -> row mask.

    Keys appear in the order their pivots were found.  Forward
    elimination leaves each row free of the pivots found before it; one
    back-substitution, highest pivot first, then clears the later ones
    using rows that are already reduced, so a single pass over each row's
    higher pivot bits suffices.
    """
    piv: dict[int, int] = {}
    mask = 0
    for v in _rows_of(m):
        v = _strip(v, piv, mask)
        if v:
            p = low_bit(v)
            piv[p] = v
            mask |= 1 << p
    for p in sorted(piv, reverse=True):
        v = piv[p]
        hit = v & mask & ~((2 << p) - 1)
        if hit:
            for q in bits_of(hit):
                v ^= piv[q]
            piv[p] = v
    return piv


def kernel_basis(m, cols: int | None = None) -> list[int]:
    """Basis of {x : m.x = 0}, one vector per free column, ascending."""
    cols = _cols_of(m, cols)
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


def solve(m, b: int, cols: int | None = None) -> int | None:
    """Some x with m.x = b (bit k of b pairs with row k), else None.

    Free variables are set to zero, so the answer is deterministic.
    """
    cols = _cols_of(m, cols)
    if isinstance(b, F2Vector):
        b = b.bits
    rows = _rows_of(m)
    aug = [r | (b >> k & 1) << cols for k, r in enumerate(rows)]
    piv = rref(aug)
    if cols in piv:
        return None
    x = 0
    for p, r in piv.items():
        x |= (r >> cols & 1) << p
    return x


def in_span(vecs: Iterable[int], v: int) -> bool:
    """Whether v lies in the GF(2) span of the given vectors."""
    return F2Basis(_rows_of(vecs)).reduce(
        v.bits if isinstance(v, F2Vector) else v
    ) == 0


def spans_equal(a: Iterable[int], b: Iterable[int]) -> bool:
    """Whether two vector collections span the same subspace."""
    ba, bb = F2Basis(_rows_of(a)), F2Basis(_rows_of(b))
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


class F2Vector:
    """Fixed-length GF(2) vector on a packed bitmask."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int = 0) -> None:
        if bits >> n:
            raise ValueError("bits beyond length")
        self.n = n
        self.bits = bits

    @classmethod
    def from_string(cls, s: str) -> "F2Vector":
        """Parse a '0'/'1' string, index 0 first."""
        bits = 0
        for j, ch in enumerate(s):
            if ch == "1":
                bits |= 1 << j
            elif ch != "0":
                raise ValueError(f"bad bit {ch!r}")
        return cls(len(s), bits)

    def __str__(self) -> str:
        return "".join("1" if self.bits >> j & 1 else "0" for j in range(self.n))

    def __repr__(self) -> str:
        return f"F2Vector({self.n}, 0b{self.bits:0{max(self.n, 1)}b})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, F2Vector)
            and self.n == other.n
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __xor__(self, other: "F2Vector") -> "F2Vector":
        if self.n != other.n:
            raise ValueError("length mismatch")
        return F2Vector(self.n, self.bits ^ other.bits)

    def dot(self, other: "F2Vector") -> int:
        return dot(self.bits, other.bits)


class F2Matrix:
    """GF(2) matrix stored as one bitmask per row."""

    __slots__ = ("cols", "data")

    def __init__(self, cols: int, rows: Iterable[int] = ()) -> None:
        self.cols = cols
        self.data = [v.bits if isinstance(v, F2Vector) else v for v in rows]
        for v in self.data:
            if v >> cols:
                raise ValueError("row wider than cols")

    @classmethod
    def from_strings(cls, rows: Iterable[str]) -> "F2Matrix":
        vecs = [F2Vector.from_string(s) for s in rows]
        if not vecs:
            raise ValueError("need at least one row")
        if len({v.n for v in vecs}) != 1:
            raise ValueError("ragged rows")
        return cls(vecs[0].n, vecs)

    @property
    def rows(self) -> int:
        return len(self.data)

    def row(self, k: int) -> F2Vector:
        return F2Vector(self.cols, self.data[k])

    def apply(self, x: int) -> int:
        """m.x as a bitmask over row indices."""
        out = 0
        for k, r in enumerate(self.data):
            out |= dot(r, x) << k
        return out

    def rank(self) -> int:
        return rank(self)

    def kernel_basis(self) -> list[F2Vector]:
        return [F2Vector(self.cols, x) for x in kernel_basis(self)]

    def solve(self, b) -> F2Vector | None:
        x = solve(self, b)
        return None if x is None else F2Vector(self.cols, x)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, F2Matrix)
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return f"F2Matrix(cols={self.cols}, rows={self.rows})"
