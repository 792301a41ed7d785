"""Expansion groups over F2: semidirect factors, generated products,
universal groups for block shapes, axiom checks, central series, corners.

Elements live in products of factors F2[F2^S] x| F2^S. Each factor stores a
polynomial part in square-free monomial coordinates t_B (bit index = subset
mask of the ambient set S, bit 0 = t_empty, t_s^2 = 0) and a vector part in
F2^S. Group-like and monomial coordinates are related by x_s = 1 + t_s; that
translation is fixed here once and never revisited. Whole elements are packed
into integer codes, field by field, so closures are plain sorted int arrays.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import product as iproduct
from typing import Iterable, Sequence

import numpy as np

from .f2 import F2Basis, bits_of
from .tensors import BlockShape

ENUM_CEILING = 1 << 22


def _power_text(v: int) -> str:
    return f"2^{v.bit_length() - 1}" if v > 0 and v & (v - 1) == 0 else str(v)


class ResourceLimitError(RuntimeError):
    """A computation was refused because it would pass a size ceiling.

    ceiling and limit name the ceiling that tripped: the element ceiling
    of enumeration by default, the value-table ceiling for expansion maps.
    """

    def __init__(self, predicted_order: int | None = None,
                 ceiling: int | None = None, limit: str = "enumeration ceiling"):
        self.predicted_order = predicted_order
        if ceiling is None:
            ceiling = ENUM_CEILING
        if predicted_order is None:
            msg = f"enumeration exceeded the ceiling of {ceiling} elements"
        else:
            msg = (f"predicted order {_power_text(predicted_order)} exceeds "
                   f"the {limit} {_power_text(ceiling)}")
        super().__init__(msg)


@lru_cache(maxsize=None)
def _clear_masks(m: int) -> tuple[int, ...]:
    """Mask of monomial slots whose subset index omits j, for each j < m."""
    out = []
    for j in range(m):
        mask = 0
        for B in range(1 << m):
            if not (B >> j) & 1:
                mask |= 1 << B
        out.append(mask)
    return tuple(out)


def _act(v: int, a: int, m: int) -> int:
    """Vector v acting on polynomial a: e_j sends t_B to t_B + t_(B|{j})."""
    masks = _clear_masks(m)
    for j in bits_of(v):
        a ^= (a & masks[j]) << (1 << j)
    return a


class SemidirectElement:
    """One factor coordinate (poly, vec) of F2[F2^S] x| F2^S.

    i is the distinguished index and ambient the ordered index set S; poly is
    a bitmask over subsets of S, vec a bitmask over positions in ambient.
    """

    __slots__ = ("i", "ambient", "poly", "vec")

    def __init__(self, i: int, ambient: Iterable[int], poly: int = 0, vec: int = 0):
        self.i = i
        self.ambient = tuple(ambient)
        self.poly = poly
        self.vec = vec

    def mul(self, other: "SemidirectElement") -> "SemidirectElement":
        if (self.i, self.ambient) != (other.i, other.ambient):
            raise ValueError("factor mismatch")
        m = len(self.ambient)
        return SemidirectElement(self.i, self.ambient,
                                 self.poly ^ _act(self.vec, other.poly, m),
                                 self.vec ^ other.vec)

    __mul__ = mul

    def inv(self) -> "SemidirectElement":
        m = len(self.ambient)
        return SemidirectElement(self.i, self.ambient,
                                 _act(self.vec, self.poly, m), self.vec)

    def is_identity(self) -> bool:
        return self.poly == 0 and self.vec == 0

    def is_involution(self) -> bool:
        return self.mul(self).is_identity()

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SemidirectElement)
                and (self.i, self.ambient, self.poly, self.vec)
                == (other.i, other.ambient, other.poly, other.vec))

    def __hash__(self) -> int:
        return hash((self.i, self.ambient, self.poly, self.vec))

    def __repr__(self) -> str:
        return (f"SemidirectElement(i={self.i}, poly={self.poly:#x}, "
                f"vec={self.vec:#x})")


class GroupElement:
    """Tuple of factor coordinates with componentwise multiplication."""

    __slots__ = ("components",)

    def __init__(self, components: Iterable[SemidirectElement]):
        self.components = tuple(components)

    def mul(self, other: "GroupElement") -> "GroupElement":
        if (not isinstance(other, GroupElement)
                or len(self.components) != len(other.components)):
            raise ValueError("shape mismatch")
        return GroupElement(a.mul(b) for a, b in zip(self.components, other.components))

    __mul__ = mul

    def inv(self) -> "GroupElement":
        return GroupElement(c.inv() for c in self.components)

    def is_identity(self) -> bool:
        return all(c.is_identity() for c in self.components)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroupElement) and self.components == other.components

    def __hash__(self) -> int:
        return hash(self.components)

    def __repr__(self) -> str:
        return f"GroupElement({list(self.components)!r})"


def mul(a: GroupElement, b: GroupElement) -> GroupElement:
    """Product of two elements of the same product of factors."""
    return a.mul(b)


def commutator(a: GroupElement, b: GroupElement) -> GroupElement:
    return a.mul(b).mul(a.inv().mul(b.inv()))


def nested_commutator(g_list: Sequence[GroupElement]) -> GroupElement:
    """Right-nested commutator [g1,[g2,[...,[g_(m-1),g_m]...]]]."""
    gs = list(g_list)
    if len(gs) < 2:
        raise ValueError("need at least two elements")
    acc = gs[-1]
    for g in gs[-2::-1]:
        acc = commutator(g, acc)
    return acc


class _Comp:
    """Packed-field layout of one factor inside an element code."""

    __slots__ = ("i", "ambient", "m", "poly_off", "vec_off", "poly_mask",
                 "vec_mask", "pos")

    def __init__(self, i: int, ambient: tuple[int, ...], poly_off: int):
        self.i = i
        self.ambient = ambient
        self.m = len(ambient)
        self.poly_off = poly_off
        self.vec_off = poly_off + (1 << self.m)
        self.poly_mask = (1 << (1 << self.m)) - 1
        self.vec_mask = (1 << self.m) - 1
        self.pos = {s: t for t, s in enumerate(ambient)}

    @property
    def width(self) -> int:
        return (1 << self.m) + self.m


def _layout(specs: Iterable[tuple[int, tuple[int, ...]]]) -> tuple[tuple[_Comp, ...], int]:
    comps, off = [], 0
    for i, ambient in specs:
        c = _Comp(i, ambient, off)
        comps.append(c)
        off += c.width
    return tuple(comps), off


class ExpansionGroup:
    """Enumerated group on packed integer element codes.

    Codes concatenate per-factor fields [poly | vec]; the closure is a sorted
    array for binary search. phi reads one code bit per coordinate of [N].
    """

    def __init__(self, shape: BlockShape, comps: tuple[_Comp, ...],
                 gen_codes: Iterable[int], phi_bits: Iterable[int],
                 expected_order: int | None = None):
        self.shape = shape
        self.comps = comps
        self.width = sum(c.width for c in comps)
        self.gen_codes = [int(g) for g in gen_codes]
        self.phi_bits = tuple(phi_bits)
        self.expected_order = expected_order
        self.identity = 0
        self.vec_field_mask = 0
        for c in comps:
            self.vec_field_mask |= c.vec_mask << c.vec_off
        if expected_order is not None and expected_order > ENUM_CEILING:
            raise ResourceLimitError(expected_order)
        self.codes = self._close(self.gen_codes)
        self._report: dict | None = None
        self._series: list[list[int]] | None = None
        self._cayley = None

    # -- scalar element arithmetic on codes --

    def mul(self, a: int, b: int) -> int:
        out = 0
        for c in self.comps:
            a1 = (a >> c.poly_off) & c.poly_mask
            v1 = (a >> c.vec_off) & c.vec_mask
            a2 = (b >> c.poly_off) & c.poly_mask
            v2 = (b >> c.vec_off) & c.vec_mask
            out |= (a1 ^ _act(v1, a2, c.m)) << c.poly_off
            out |= (v1 ^ v2) << c.vec_off
        return out

    def inv(self, a: int) -> int:
        out = 0
        for c in self.comps:
            a1 = (a >> c.poly_off) & c.poly_mask
            v1 = (a >> c.vec_off) & c.vec_mask
            out |= _act(v1, a1, c.m) << c.poly_off
            out |= v1 << c.vec_off
        return out

    def conj(self, g: int, w: int) -> int:
        return self.mul(self.mul(g, w), self.inv(g))

    def commutator(self, a: int, b: int) -> int:
        return self.mul(self.mul(a, b), self.mul(self.inv(a), self.inv(b)))

    def nested_commutator(self, codes: Sequence[int]) -> int:
        if len(codes) < 2:
            raise ValueError("need at least two elements")
        acc = codes[-1]
        for g in codes[-2::-1]:
            acc = self.commutator(g, acc)
        return acc

    def phi(self, code: int) -> int:
        out = 0
        for x, pos in enumerate(self.phi_bits):
            out |= ((code >> pos) & 1) << x
        return out

    # -- element/code conversion --

    def element(self, code: int) -> GroupElement:
        parts = []
        for c in self.comps:
            parts.append(SemidirectElement(c.i, c.ambient,
                                           (code >> c.poly_off) & c.poly_mask,
                                           (code >> c.vec_off) & c.vec_mask))
        return GroupElement(parts)

    def code_of(self, g: GroupElement) -> int:
        if len(g.components) != len(self.comps):
            raise ValueError("shape mismatch")
        out = 0
        for c, part in zip(self.comps, g.components):
            if (part.i, part.ambient) != (c.i, c.ambient):
                raise ValueError("factor mismatch")
            out |= part.poly << c.poly_off
            out |= part.vec << c.vec_off
        return out

    @property
    def generators(self) -> list[GroupElement]:
        return [self.element(g) for g in self.gen_codes]

    @property
    def order(self) -> int:
        return len(self.codes)

    def __len__(self) -> int:
        return len(self.codes)

    def contains(self, code: int) -> bool:
        if isinstance(self.codes, np.ndarray):
            i = int(np.searchsorted(self.codes, np.uint64(code)))
            return i < len(self.codes) and int(self.codes[i]) == code
        i = bisect_left(self.codes, code)
        return i < len(self.codes) and self.codes[i] == code

    def __contains__(self, g) -> bool:
        return self.contains(self.code_of(g) if isinstance(g, GroupElement) else int(g))

    def iter_codes(self) -> Iterable[int]:
        for c in self.codes:
            yield int(c)

    def iter_elements(self) -> Iterable[GroupElement]:
        for c in self.codes:
            yield self.element(int(c))

    def with_generators(self, gens: Iterable) -> "ExpansionGroup":
        """Same layout and phi, different generating set; re-enumerates."""
        codes = [g if isinstance(g, int) else self.code_of(g) for g in gens]
        return ExpansionGroup(self.shape, self.comps, codes, self.phi_bits)

    # -- vectorized code arithmetic --

    def _gen_table(self, gc: int):
        const = 0
        parts = []
        for c in self.comps:
            a2 = (gc >> c.poly_off) & c.poly_mask
            v2 = (gc >> c.vec_off) & c.vec_mask
            const |= v2 << c.vec_off
            if a2:
                tab = np.fromiter((_act(v, a2, c.m) << c.poly_off
                                   for v in range(1 << c.m)),
                                  dtype=np.uint64, count=1 << c.m)
                parts.append((np.uint64(c.vec_off), np.uint64(c.vec_mask), tab))
        return np.uint64(const), parts

    @staticmethod
    def _step(codes: np.ndarray, table) -> np.ndarray:
        const, parts = table
        out = codes ^ const
        for off, mask, tab in parts:
            vx = ((codes >> off) & mask).astype(np.int64)
            out = out ^ tab[vx]
        return out

    def right_mul_array(self, codes: np.ndarray, gc: int) -> np.ndarray:
        return self._step(codes, self._gen_table(gc))

    def cayley_tree(self):
        """Generator positions, right-multiplication permutations and a
        spanning tree of the Cayley graph, built once per group.

        perms[g, p] is the position of codes[p] * gen_codes[g].  The tree
        is breadth-first from the identity, one (children, parents,
        generators) triple of arrays per layer, with codes[child] =
        codes[parent] * gen_codes[generator].  Indices are int32.
        """
        if self._cayley is None:
            codes = self.codes
            order, ngens = len(codes), len(self.gen_codes)
            gen_pos = np.searchsorted(
                codes, np.array(self.gen_codes, dtype=np.uint64)).astype(np.int32)
            perms = np.empty((ngens, order), dtype=np.int32)
            for gi, g in enumerate(self.gen_codes):
                perms[gi] = np.searchsorted(codes, self.right_mul_array(codes, g))
            seen = np.zeros(order, dtype=bool)
            seen[0] = True
            frontier = np.zeros(1, dtype=np.int32)
            tree = []
            while True:
                kids = perms[:, frontier].ravel()
                fresh = ~seen[kids]
                # the first edge into each new child joins the tree; edge
                # g * len(frontier) + j leaves frontier[j] by generator g
                kids, first = np.unique(kids[fresh], return_index=True)
                if not kids.size:
                    break
                seen[kids] = True
                edges = np.flatnonzero(fresh)[first]
                tree.append((kids, frontier[edges % frontier.size],
                             (edges // frontier.size).astype(np.int32)))
                frontier = kids
            self._cayley = (gen_pos, perms, tuple(tree))
        return self._cayley

    def mul_left_array(self, x: int, arr: np.ndarray) -> np.ndarray:
        """x * arr[k] for every k, x fixed."""
        out = np.zeros_like(arr)
        for c in self.comps:
            a1 = (x >> c.poly_off) & c.poly_mask
            v1 = (x >> c.vec_off) & c.vec_mask
            p = (arr >> np.uint64(c.poly_off)) & np.uint64(c.poly_mask)
            masks = _clear_masks(c.m)
            for j in bits_of(v1):
                p = p ^ ((p & np.uint64(masks[j])) << np.uint64(1 << j))
            v = (arr >> np.uint64(c.vec_off)) & np.uint64(c.vec_mask)
            out = out | ((p ^ np.uint64(a1)) << np.uint64(c.poly_off))
            out = out | ((v ^ np.uint64(v1)) << np.uint64(c.vec_off))
        return out

    def phi_bit_array(self, codes: np.ndarray, x: int) -> np.ndarray:
        return ((codes >> np.uint64(self.phi_bits[x])) & np.uint64(1)).astype(np.uint8)

    # -- closure --

    def _close(self, gen_codes: list[int]):
        if self.width <= 63:
            return self._close_np(gen_codes)
        return self._close_set(gen_codes)

    def _close_np(self, gen_codes: list[int]) -> np.ndarray:
        """Breadth-first closure as a sorted array, deduplicated by sorting:
        no hashing, so its cost is a few sorts per layer."""
        tables = [self._gen_table(g) for g in gen_codes]
        seen = np.zeros(1, dtype=np.uint64)
        frontier = seen
        while frontier.size:
            nxt = np.concatenate([self._step(frontier, t) for t in tables])
            nxt.sort()
            nxt = nxt[np.concatenate(([True], nxt[1:] != nxt[:-1]))]
            pos = np.minimum(np.searchsorted(seen, nxt), seen.size - 1)
            fresh = nxt[seen[pos] != nxt]
            if not fresh.size:
                break
            # two disjoint sorted runs: the stable sort merges them in one pass
            seen = np.concatenate([seen, fresh])
            seen.sort(kind="stable")
            if seen.size > ENUM_CEILING:
                raise ResourceLimitError(self.expected_order)
            frontier = fresh
        return seen

    def _close_set(self, gen_codes: list[int]) -> list[int]:
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for u in frontier:
                for g in gen_codes:
                    w = self.mul(u, g)
                    if w not in seen:
                        seen.add(w)
                        if len(seen) > ENUM_CEILING:
                            raise ResourceLimitError(self.expected_order)
                        nxt.append(w)
            frontier = nxt
        return sorted(seen)

    def close_subgroup(self, gen_codes: Iterable[int]):
        """Closure of a custom generating set inside this layout."""
        gens = sorted(set(int(g) for g in gen_codes) - {0})
        if not gens:
            return (np.array([0], dtype=np.uint64) if self.width <= 63
                    else [0])
        if self.width <= 63:
            return self._close_np(gens)
        return self._close_set(gens)

    # -- dump --

    def to_text(self) -> str:
        """One element per line as hex component fields, after a header."""
        def enc(code: int) -> str:
            parts = []
            for c in self.comps:
                field = ((code >> c.poly_off) & c.poly_mask) \
                    | (((code >> c.vec_off) & c.vec_mask) << (1 << c.m))
                parts.append(format(field, "x"))
            return " ".join(parts)

        lines = ["shape " + " ".join(str(v) for v in self.shape.k)]
        for g in self.gen_codes:
            lines.append("gen " + enc(g))
        for c in self.codes:
            lines.append(enc(int(c)))
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return (f"ExpansionGroup(shape={list(self.shape.k)}, "
                f"order=2^{self.order.bit_length() - 1})")


# -- constructors --

def single_factor_order_exponent(n: int) -> int:
    return 2 ** (n - 1) + n - 1


def universal_order_exponent(shape: BlockShape) -> int:
    n = shape.n
    return shape.N * 2 ** (n - 1) - 2 ** n + n + 1


def build_single_factor(n: int, i: int) -> ExpansionGroup:
    """The factor F2[F2^([n]-i)] x| F2^([n]-i) on generators g_(i,j)."""
    if not 0 <= i < n:
        raise ValueError("factor index out of range")
    ambient = tuple(j for j in range(n) if j != i)
    comps, _ = _layout([(i, ambient)])
    c = comps[0]
    gen_codes, phi_bits = [], []
    for j in range(n):
        if j == i:
            gen_codes.append(1 << c.poly_off)
            phi_bits.append(c.poly_off)
        else:
            gen_codes.append(1 << (c.vec_off + c.pos[j]))
            phi_bits.append(c.vec_off + c.pos[j])
    return ExpansionGroup(BlockShape((1,) * n), comps, gen_codes, phi_bits,
                          expected_order=1 << single_factor_order_exponent(n))


def product_expansion(a: ExpansionGroup, b: ExpansionGroup) -> ExpansionGroup:
    """Subgroup of the direct product generated by the paired generators."""
    if a.shape != b.shape:
        raise ValueError("shape mismatch")
    specs = [(c.i, c.ambient) for c in a.comps] + [(c.i, c.ambient) for c in b.comps]
    comps, _ = _layout(specs)
    gens = [ga | (gb << a.width) for ga, gb in zip(a.gen_codes, b.gen_codes)]
    return ExpansionGroup(a.shape, comps, gens, a.phi_bits)


def build_universal(n: int) -> ExpansionGroup:
    """Product of all single factors, generated by the paired generators."""
    if n < 1:
        raise ValueError("n must be positive")
    predicted = 1 << universal_order_exponent(BlockShape((1,) * n))
    if predicted > ENUM_CEILING:
        raise ResourceLimitError(predicted)
    G = build_single_factor(n, 0)
    for i in range(1, n):
        G = product_expansion(G, build_single_factor(n, i))
    G.expected_order = predicted
    return G


def build_universal_general(shape: BlockShape) -> ExpansionGroup:
    """Universal group of a block shape: one factor per coordinate x, with
    same-block generators acting through t_empty and others through vectors."""
    specs = []
    for x in range(shape.N):
        ambient = tuple(s for s in range(shape.n) if s != shape.block(x))
        specs.append((x, ambient))
    comps, _ = _layout(specs)
    gen_codes = []
    for j in range(shape.N):
        code = 0
        for c in comps:
            if shape.block(j) == shape.block(c.i):
                if j == c.i:
                    code |= 1 << c.poly_off
            else:
                code |= 1 << (c.vec_off + c.pos[shape.block(j)])
        gen_codes.append(code)
    phi_bits = [c.poly_off for c in comps]
    return ExpansionGroup(shape, comps, gen_codes, phi_bits,
                          expected_order=1 << universal_order_exponent(shape))


# -- normal closures, corners, quotients --

def normal_closure(G: ExpansionGroup, start_codes: Iterable[int]):
    """Smallest subgroup containing the given codes and normal in G."""
    gens = sorted(set(int(c) for c in start_codes))
    while True:
        H = G.close_subgroup(gens)
        if isinstance(H, np.ndarray):
            def member(c):
                i = int(np.searchsorted(H, np.uint64(c)))
                return i < len(H) and int(H[i]) == c
        else:
            Hset = set(H)
            member = Hset.__contains__
        new = []
        for s in gens:
            for g in G.gen_codes:
                c = G.conj(g, s)
                if not member(c):
                    new.append(c)
        if not new:
            return H
        gens = sorted(set(gens) | set(new))


class CosetGroup:
    """Quotient of an enumerated group by a normal subgroup, with cosets
    represented by their minimal element code."""

    def __init__(self, parent: ExpansionGroup, normal, kept: list[int],
                 shape: BlockShape):
        self.parent = parent
        self.normal = normal
        self.kept = kept
        self.shape = shape
        self.identity = 0
        self.gen_codes = [self.rep(parent.gen_codes[x]) for x in kept]
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for u in frontier:
                for g in self.gen_codes:
                    w = self.mul(u, g)
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        self.codes = sorted(seen)

    def rep(self, code: int) -> int:
        if isinstance(self.normal, np.ndarray):
            return int(self.parent.mul_left_array(code, self.normal).min())
        return min(self.parent.mul(code, n) for n in self.normal)

    def mul(self, a: int, b: int) -> int:
        return self.rep(self.parent.mul(a, b))

    def inv(self, a: int) -> int:
        return self.rep(self.parent.inv(a))

    def conj(self, g: int, w: int) -> int:
        return self.rep(self.parent.conj(g, w))

    def commutator(self, a: int, b: int) -> int:
        return self.rep(self.parent.commutator(a, b))

    def phi(self, code: int) -> int:
        full = self.parent.phi(code)
        out = 0
        for t, x in enumerate(self.kept):
            out |= ((full >> x) & 1) << t
        return out

    @property
    def order(self) -> int:
        return len(self.codes)

    def __len__(self) -> int:
        return len(self.codes)

    def iter_codes(self) -> Iterable[int]:
        return iter(self.codes)

    def __repr__(self) -> str:
        return (f"CosetGroup(shape={list(self.shape.k)}, "
                f"order=2^{self.order.bit_length() - 1})")


def corner(G: ExpansionGroup, i: int) -> CosetGroup:
    """Quotient by the normal closure of the generators in block i."""
    if G.shape.n < 2:
        raise ValueError("corner needs at least two blocks")
    ncl = normal_closure(G, [G.gen_codes[x] for x in G.shape.members(i)])
    kept = [x for x in range(G.shape.N) if G.shape.block(x) != i]
    return CosetGroup(G, ncl, kept, G.shape.drop(i))


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


# -- axiom verification --

def _xor_closed_sorted(codes: np.ndarray) -> bool:
    """Is a sorted array of distinct codes closed under XOR?"""
    size = int(codes.size)
    if size & (size - 1):
        return False
    if int(codes[0]) != 0:
        return False
    r = size.bit_length() - 1
    span = np.array([0], dtype=np.uint64)
    for t in range(r):
        span = np.sort(np.concatenate([span, span ^ codes[1 << t]]))
    if bool(np.array_equal(span, codes)):
        return True
    # candidate basis was dependent; settle it exactly
    basis = F2Basis()
    for c in codes:
        basis.add(int(c))
    return size == 1 << len(basis)


def _is_elementary_abelian(G, codes) -> bool:
    """Exact check that a subset of codes is an elementary abelian subgroup."""
    vmask = getattr(G, "vec_field_mask", None)
    if vmask is not None and isinstance(codes, np.ndarray):
        if not np.any(codes & np.uint64(vmask)):
            return _xor_closed_sorted(np.sort(codes))
    items = [int(c) for c in codes]
    if vmask is not None and all((c & vmask) == 0 for c in items):
        basis = F2Basis(items)
        return len(items) == 1 << len(basis)
    if len(items) ** 2 > ENUM_CEILING:
        raise ResourceLimitError()
    S = set(items)
    for a in items:
        if G.mul(a, a) != G.identity:
            return False
        for b in items:
            ab = G.mul(a, b)
            if ab not in S or ab != G.mul(b, a):
                return False
    return True


def _phi_zero_sets(G):
    """Codes with phi = 0 and codes with pi(phi) = 0."""
    shape = G.shape
    if isinstance(getattr(G, "codes", None), np.ndarray):
        codes = G.codes
        bits = [G.phi_bit_array(codes, x) for x in range(shape.N)]
        nz = np.zeros(codes.size, dtype=np.uint8)
        for b in bits:
            nz |= b
        pi_nz = np.zeros(codes.size, dtype=np.uint8)
        for s in range(shape.n):
            acc = np.zeros(codes.size, dtype=np.uint8)
            for x in shape.members(s):
                acc ^= bits[x]
            pi_nz |= acc
        return codes[nz == 0], codes[pi_nz == 0]
    ker, tilde = [], []
    for c in G.iter_codes():
        ph = G.phi(c)
        if ph == 0:
            ker.append(c)
        if shape.pi(ph) == 0:
            tilde.append(c)
    return ker, tilde


def _commutator_span(G) -> F2Basis:
    """Basis of [G,G] as an F2-span of codes, saturated under conjugation.

    Valid once ker(phi) is elementary abelian: products there are XOR."""
    B = F2Basis()
    queue = []
    for s, gi in enumerate(G.gen_codes):
        for gj in G.gen_codes[s + 1:]:
            w = G.commutator(gi, gj)
            if B.add(w):
                queue.append(w)
    while queue:
        w = queue.pop()
        for g in G.gen_codes:
            u = w ^ G.conj(g, w)
            if B.add(u):
                queue.append(u)
    return B


def check_expansion_axioms(G) -> dict[str, bool]:
    """Verify the defining conditions and the block condition on an
    enumerated group; failures come back as report fields, not errors.

    An ExpansionGroup keeps the report, which descending_central_series
    reads instead of checking again."""
    report = {}
    report["axiom1"] = all(G.phi(g) == 1 << x for x, g in enumerate(G.gen_codes))
    if report["axiom1"]:
        if isinstance(getattr(G, "codes", None), np.ndarray):
            # phi(u g) = phi(u) + phi(g) for all u, read on every phi bit at once
            codes = G.codes
            mask = 0
            for pos in G.phi_bits:
                mask |= 1 << pos
            M = np.uint64(mask)
            report["axiom1"] = all(
                bool(np.all(((G.right_mul_array(codes, g) ^ codes) & M)
                            == np.uint64(g & mask)))
                for g in G.gen_codes)
        else:
            for u in G.iter_codes():
                pu = G.phi(u)
                for g in G.gen_codes:
                    if G.phi(G.mul(u, g)) != pu ^ G.phi(g):
                        report["axiom1"] = False
                        break
                if not report["axiom1"]:
                    break
    ker, tilde = _phi_zero_sets(G)
    report["axiom2"] = _is_elementary_abelian(G, ker)
    if report["axiom2"]:
        span = _commutator_span(G)
        ker_set = (set(int(c) for c in ker) if not isinstance(ker, np.ndarray)
                   else None)
        def in_ker(c):
            if ker_set is not None:
                return c in ker_set
            i = int(np.searchsorted(ker, np.uint64(c)))
            return i < len(ker) and int(ker[i]) == c
        report["axiom3"] = (len(ker) == 1 << len(span)
                            and all(in_ker(b) for b in span.basis()))
    else:
        report["axiom3"] = False
    report["axiom4"] = all(G.mul(g, g) == G.identity for g in G.gen_codes)
    report["tilde_condition"] = _is_elementary_abelian(G, tilde)
    if isinstance(G, ExpansionGroup):
        G._report = report
    return report


# -- central series and the augmentation filtration --

def descending_central_series(G: ExpansionGroup) -> list[list[int]]:
    """Bases of [G,G], [G,[G,G]], ... down to the first trivial term.

    Terms below [G,G] are additive subspaces of ker(phi) in code coordinates,
    so each comes back as an XOR basis."""
    if not isinstance(G, ExpansionGroup):
        raise TypeError("series requires an enumerated product-model group")
    report = G._report if G._report is not None else check_expansion_axioms(G)
    if not all(report.values()):
        raise ValueError("expansion axioms do not hold")
    if G._series is not None:
        return [list(b) for b in G._series]

    def saturate(B: F2Basis) -> F2Basis:
        queue = list(B.basis())
        while queue:
            w = queue.pop()
            for g in G.gen_codes:
                u = w ^ G.conj(g, w)
                if B.add(u):
                    queue.append(u)
        return B

    series = []
    cur = _commutator_span(G)
    while True:
        series.append(list(cur.basis()))
        if not cur.basis():
            break
        nxt = F2Basis()
        for w in cur.basis():
            for g in G.gen_codes:
                nxt.add(w ^ G.conj(g, w))
        cur = saturate(nxt)
        if len(series) > 64:
            raise RuntimeError("series failed to terminate")
    G._series = [list(b) for b in series]
    return series


def grade_dims(G: ExpansionGroup) -> tuple[int, ...]:
    """Dimensions of the graded pieces of the descending central series."""
    s = descending_central_series(G)
    total = G.order.bit_length() - 1
    dims = [total - len(s[0])]
    for a, b in zip(s, s[1:]):
        dims.append(len(a) - len(b))
    while dims and dims[-1] == 0:
        dims.pop()
    return tuple(dims)


def nilpotency_class(G: ExpansionGroup) -> int:
    return len(grade_dims(G))


def augmentation_power_span(G: ExpansionGroup, i: int) -> list[int]:
    """Basis of I^(i-2) * [G,G], the augmentation-ideal power applied to the
    commutator subgroup through the conjugation module structure."""
    if i < 2:
        raise ValueError("power index starts at 2")
    base = descending_central_series(G)[0]
    B = F2Basis()
    for w in base:
        for tup in iproduct(G.gen_codes, repeat=i - 2):
            v = w
            for g in tup:
                v = v ^ G.conj(g, v)
            B.add(v)
    return B.basis()
