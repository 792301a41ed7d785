"""Expansion groups over F2: universal groups for block shapes on packed
element codes, axiom checks, the central series.

Elements live in products of factors F2[F2^S] x| F2^S. Each factor stores a
polynomial part in square-free monomial coordinates t_B (bit index = subset
mask of the ambient set S, bit 0 = t_empty, t_s^2 = 0) and a vector part in
F2^S. Group-like and monomial coordinates are related by x_s = 1 + t_s; that
translation is fixed here once and never revisited. Whole elements are packed
into integer codes, field by field, so closures are plain sorted int arrays.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as iproduct
from typing import Iterable, Sequence

import numpy as np

from .f2 import F2Basis, bits_of
from .tensors import BlockShape

ENUM_CEILING = 1 << 22
# element codes live in uint64 arrays, with the top bit left spare
CODE_WIDTH_LIMIT = 63


def _power_text(v: int) -> str:
    return f"2^{v.bit_length() - 1}" if v > 0 and v & (v - 1) == 0 else str(v)


class ResourceLimitError(RuntimeError):
    """A computation was refused because it would pass a size ceiling.

    ceiling and limit name the ceiling that tripped: the element ceiling
    of enumeration by default, the value-table ceiling for expansion maps.
    width is set instead when element codes are too wide to store.
    """

    def __init__(self, predicted_order: int | None = None,
                 ceiling: int | None = None, limit: str = "enumeration ceiling",
                 width: int | None = None):
        self.predicted_order = predicted_order
        self.width = width
        if ceiling is None:
            ceiling = ENUM_CEILING
        if width is not None:
            msg = (f"element codes {width} bits wide exceed the code-width "
                   f"limit of {CODE_WIDTH_LIMIT} bits")
        elif predicted_order is None:
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


def _layout(specs: Iterable[tuple[int, tuple[int, ...]]]) -> tuple[_Comp, ...]:
    comps, off = [], 0
    for i, ambient in specs:
        c = _Comp(i, ambient, off)
        comps.append(c)
        off += c.width
    return tuple(comps)


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
        if self.width > CODE_WIDTH_LIMIT:
            raise ResourceLimitError(width=self.width)
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

    @property
    def order(self) -> int:
        return len(self.codes)

    def __len__(self) -> int:
        return len(self.codes)

    def contains(self, code: int) -> bool:
        return _member(self.codes, code)

    def __contains__(self, code) -> bool:
        return self.contains(int(code))

    def iter_codes(self) -> Iterable[int]:
        for c in self.codes:
            yield int(c)

    def with_generators(self, gens: Iterable[int]) -> "ExpansionGroup":
        """Same layout and phi, different generating set; re-enumerates."""
        return ExpansionGroup(self.shape, self.comps, gens, self.phi_bits)

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

    def mul_table(self) -> np.ndarray:
        """M[p, q], the position of codes[p] * codes[q], as int32; not cached.

        Column 0 is the identity's; each tree edge codes[kid] =
        codes[parent] * g gives M[:, kid] = perms[g, M[:, parent]], one
        numpy step per tree layer.
        """
        _, perms, tree = self.cayley_tree()
        M = np.empty((self.order, self.order), dtype=np.int32)
        M[:, 0] = np.arange(self.order)
        for kids, parents, gens in tree:
            M[:, kids] = perms[gens, M[:, parents]]
        return M

    def phi_bit_array(self, codes: np.ndarray, x: int) -> np.ndarray:
        return ((codes >> np.uint64(self.phi_bits[x])) & np.uint64(1)).astype(np.uint8)

    # -- closure --

    def _close(self, gen_codes: list[int]) -> np.ndarray:
        """Breadth-first closure as a sorted array, deduplicated by sorting:
        no hashing, so its cost is a few sorts per layer."""
        tables = [self._gen_table(g) for g in gen_codes]
        seen = np.zeros(1, dtype=np.uint64)
        frontier = seen
        while frontier.size and tables:
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

def universal_order_exponent(shape: BlockShape) -> int:
    n = shape.n
    return shape.N * 2 ** (n - 1) - 2 ** n + n + 1


def build_universal(n: int) -> ExpansionGroup:
    """Universal group on n marked involutions: the all-ones block shape."""
    if n < 1:
        raise ValueError("n must be positive")
    return build_universal_general(BlockShape((1,) * n))


def build_universal_general(shape: BlockShape) -> ExpansionGroup:
    """Universal group of a block shape: one factor per coordinate x, with
    same-block generators acting through t_empty and others through vectors."""
    specs = []
    for x in range(shape.N):
        ambient = tuple(s for s in range(shape.n) if s != shape.block(x))
        specs.append((x, ambient))
    comps = _layout(specs)
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


# -- homomorphisms --

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

def _member(codes: np.ndarray, code: int) -> bool:
    """Whether code occurs in the sorted array codes."""
    i = int(np.searchsorted(codes, np.uint64(code)))
    return i < len(codes) and int(codes[i]) == code


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


def _is_elementary_abelian(G: ExpansionGroup, codes: np.ndarray) -> bool:
    """Exact check that a sorted array of codes is an elementary abelian
    subgroup."""
    if not np.any(codes & np.uint64(G.vec_field_mask)):
        return _xor_closed_sorted(codes)
    items = [int(c) for c in codes]
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


def _phi_zero_sets(G: ExpansionGroup) -> tuple[np.ndarray, np.ndarray]:
    """Codes with phi = 0 and codes with pi(phi) = 0, both sorted."""
    shape = G.shape
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


def check_expansion_axioms(G: ExpansionGroup) -> dict[str, bool]:
    """Verify the defining conditions and the block condition on an
    enumerated group; failures come back as report fields, not errors.

    The group keeps the report, which descending_central_series reads
    instead of checking again."""
    report = {}
    report["axiom1"] = all(G.phi(g) == 1 << x for x, g in enumerate(G.gen_codes))
    if report["axiom1"]:
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
    ker, tilde = _phi_zero_sets(G)
    report["axiom2"] = _is_elementary_abelian(G, ker)
    if report["axiom2"]:
        span = _commutator_span(G)
        report["axiom3"] = (len(ker) == 1 << len(span)
                            and all(_member(ker, b) for b in span.basis()))
    else:
        report["axiom3"] = False
    report["axiom4"] = all(G.mul(g, g) == G.identity for g in G.gen_codes)
    report["tilde_condition"] = _is_elementary_abelian(G, tilde)
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
