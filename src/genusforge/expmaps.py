"""Expansion maps on universal groups, in monomial coordinates.

A map Phi on the group is stored by its coefficients over the
distinguished basis of labels (S, x): x a coordinate and S a bitmask of
blocks other than block(x).  The label reads the t_S monomial of the
polynomial part of component x, so (0, x) is the character chi_x and
(S, x) with S nonempty is the coefficient extractor Phi_(A,x) with
A = S + block(x).  Each label reads one code bit and no two labels read
the same bit, so a map is read one way only: at the element code c it
takes parity(c & mask), mask being the OR of its labels' bits.  eval is
one AND and one bit count, and a value table, a bit mask indexed by the
group's sorted code order, is that rule applied to every code at once.
Cornering, commuting vectors, the theta 2-cocycle, and layer
reconstruction all act on the coefficient side; tables are materialized
only on small groups.

Cornering follows one rule.  At block i the label (S, x) survives
exactly when i is in S, and becomes (S - {i}, x) in the corner's
numbering, with block i squeezed out.  The B-fold corner, read back in
the ambient labels, sends (S, x) to (S - B, x) when B lies inside S and
drops it otherwise (_pulled_corner); cocycle_view and theta read every
corner this way, with no chain of corners through the sub-shapes.

phi_layer reads each nilpotency layer off the shape in closed form, with
no series, kernel or group arithmetic (proof in its docstring).  Layer
reconstruction is one preimage in label coordinates and builds no value
table: layer j is the maps whose corners lie in the corner layers j-1,
joined with layer 1.  Every commuting vector is the corner vector
of a map, which realize_commuting_vector reads off the corners (see
reconstruct_report), so no vector is obstructed and theta and
solve_cochain are not called there.

Whole-table identities read one product table, the group's mul_table
M[p, q] = position of codes[p] * codes[q], built once and kept on the
group.  coboundary gathers a uint8 value array through M, and one
recursion check, phi_B(st) = phi_B(s) + phi_B(t) + the sum over
nonempty S disjoint from B of chi_S(s) phi_(B+S)(t), certifies the
cornered tables of cocycle_view.

The block character of block s is the PhiMap whose coordinates are the
members of s, since the first N labels are the characters.  A row of
theta depends only on the block characters at its element, so theta
keeps one row per block-character pattern and shares it; it reads its
rows and the patterns in one pass of the reading rule.
solve_cochain propagates values breadth-first from the identity along
theta's generator columns, one numpy step per generator per layer, and
checks every Cayley edge at once; when order^2 <= 2^20 the coboundary of
its table, through M, must also equal theta.  Value tables and M stop at
groups.TABLE_CEILING elements, where M takes 256 MiB.  numpy is imported only
inside the functions that build or read these arrays.
"""

from __future__ import annotations

from itertools import combinations

from . import groups
from .f2 import F2Basis, bits_of, kernel_basis, rank
from .groups import ExpansionGroup, ResourceLimitError, build_universal_general
from .tensors import BlockShape, governing_tensor_general

__all__ = [
    "CommVector",
    "ThetaCocycle",
    "build_phi_basis",
    "phi_layer",
    "lcomm_check",
    "corner_operator",
    "cocycle_view",
    "coboundary",
    "theta",
    "solve_cochain",
    "reconstruct_report",
]


def _pack(bits: np.ndarray) -> list[int]:
    """One int per row of a 2-D 0/1 array, bit q from column q."""
    import numpy as np
    packed = np.packbits(bits, axis=-1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _unpack(tabs, order: int) -> np.ndarray:
    """Inverse of _pack: one uint8 row of length order per int."""
    import numpy as np
    nbytes = (order + 7) // 8
    buf = b"".join(t.to_bytes(nbytes, "little") for t in tabs)
    return np.unpackbits(np.frombuffer(buf, dtype=np.uint8).reshape(len(tabs), nbytes),
                         axis=-1, bitorder="little", count=order)


def _squeeze(S: int, b: int) -> int:
    """The bitmask S with bit b taken out and the bits above it moved down:
    block numbers read without block b."""
    low = (1 << b) - 1
    return (S & low) | (S >> 1 & ~low)


class _Context:
    """Universal group of a shape plus its label bookkeeping: the labels,
    their code bits and the corner matrices.

    labels[p] is the label (S, x) at coordinate p: the characters (0, x)
    first, then for each support A of two or more blocks, in
    combinations order, the labels (A - block(x), x) with x running over
    A's coordinates.  This order is the coordinate order of every map.
    bitpos[p] is the code bit label p reads, the t_S bit of factor x,
    whose polynomial field numbers its monomials by the blocks other than
    block(x).  Labels and corner matrices come from the shape; the group
    is enumerated only when a value table is asked for.  The group keeps
    its own product table, so _CONTEXTS.clear() frees it with the context.
    """

    __slots__ = ("shape", "group", "labels", "index", "bitpos", "_corners")

    def __init__(self, shape: BlockShape):
        self.shape = shape
        self.group = build_universal_general(shape)
        labels = [(0, x) for x in range(shape.N)]
        for size in range(2, shape.n + 1):
            for A in combinations(range(shape.n), size):
                mask = sum(1 << s for s in A)
                for i in A:
                    labels.extend((mask ^ 1 << i, x) for x in shape.members(i))
        self.labels = labels
        self.index = {lab: p for p, lab in enumerate(labels)}
        comps = self.group.comps
        self.bitpos = [comps[x].poly_off + _squeeze(S, shape.block(x)) for S, x in labels]
        self._corners = {}


_CONTEXTS: dict[tuple[int, ...], _Context] = {}


def _context(shape: BlockShape) -> _Context:
    ctx = _CONTEXTS.get(shape.k)
    if ctx is None:
        ctx = _Context(shape)
        _CONTEXTS[shape.k] = ctx
    return ctx


def _code_mask(ctx: _Context, coords: int) -> int:
    """The OR of the code bits of the labels in coords: bitpos is
    injective, so the map reads parity(code & mask)."""
    mask = 0
    for p in bits_of(coords):
        mask |= 1 << ctx.bitpos[p]
    return mask


def _value_rows(shape: BlockShape, maps) -> np.ndarray:
    """Row r holds the uint8 values of the map with coordinates maps[r]
    at every element, in the group's sorted code order: one pass of
    parity(codes & mask).  Refused past groups.TABLE_CEILING before the
    group is enumerated."""
    import numpy as np
    ctx = _context(shape)
    G = ctx.group
    if G.order > groups.TABLE_CEILING:
        raise ResourceLimitError(G.order, groups.TABLE_CEILING, "table ceiling")
    masks = np.array([_code_mask(ctx, c) for c in maps], dtype=np.uint64)
    return np.bitwise_count(G.codes & masks[:, None]) & 1


def _pattern(chis: np.ndarray) -> np.ndarray:
    """Entry q has bit b set when block character chis[b] is 1 at element q."""
    import numpy as np
    pattern = np.zeros(chis.shape[-1], dtype=np.intp)
    for b, chi in enumerate(chis):
        pattern |= chi.astype(np.intp) << b
    return pattern


class PhiMap:
    """Function on the universal group, by basis coefficients."""

    __slots__ = ("shape", "coords")

    def __init__(self, shape: BlockShape, coords: int = 0):
        self.shape = shape
        self.coords = coords

    def eval(self, code: int) -> int:
        return (code & _code_mask(_context(self.shape), self.coords)).bit_count() & 1

    @property
    def values(self) -> int:
        """Bit q is the value at the q-th element in sorted code order; the
        zero map is 0 without enumerating."""
        if not self.coords:
            return 0
        return _pack(_value_rows(self.shape, [self.coords]))[0]

    def is_zero(self) -> bool:
        return self.coords == 0

    def __xor__(self, other: "PhiMap") -> "PhiMap":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return PhiMap(self.shape, self.coords ^ other.coords)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PhiMap) and self.shape == other.shape
                and self.coords == other.coords)

    def __hash__(self) -> int:
        return hash((self.shape.k, self.coords))

    def __repr__(self) -> str:
        return f"PhiMap(shape={list(self.shape.k)}, coords={bin(self.coords)})"


class CommVector:
    """One corner map per block, pairwise compatible under cornering."""

    __slots__ = ("shape", "entries")

    def __init__(self, shape: BlockShape, entries):
        entries = tuple(entries)
        if len(entries) != shape.n:
            raise ValueError("need one entry per block")
        for i, phi in enumerate(entries):
            if phi.shape != shape.drop(i):
                raise ValueError(f"entry {i} lives on the wrong corner")
        self.shape = shape
        self.entries = entries

    def __repr__(self) -> str:
        return f"CommVector(shape={list(self.shape.k)})"


class ThetaCocycle:
    """Pairing table theta(sigma, tau) in the group's sorted code order."""

    __slots__ = ("shape", "rows")

    def __init__(self, shape: BlockShape, rows):
        rows = tuple(rows)
        if rows and rows[0] & 1:
            raise ValueError("theta must vanish at the identity pair")
        self.shape = shape
        self.rows = rows

    @classmethod
    def from_function(cls, shape: BlockShape, fn) -> "ThetaCocycle":
        codes = [int(c) for c in _context(shape).group.codes]
        rows = []
        for a in codes:
            row = 0
            for q, b in enumerate(codes):
                row |= fn(a, b) << q
            rows.append(row)
        return cls(shape, rows)

    def __repr__(self) -> str:
        return f"ThetaCocycle(shape={list(self.shape.k)}, order={len(self.rows)})"


def _recursion_holds(vals: np.ndarray, chis: np.ndarray, M: np.ndarray) -> bool:
    """The recursion T_B(st) = T_B(s) + T_B(t) + sum over nonempty S
    disjoint from B of chi_S(s) T_(B+S)(t), on every pair and every B.

    vals[B] is the uint8 table T_B for each subset mask B of the
    len(chis) blocks, chis[b] the uint8 table of block character b, and M
    the group's product table.  chi_S(s) depends only on the pattern of
    block characters at s, so the sum is built once per pattern.
    """
    import numpy as np
    masks = np.arange(len(vals))
    pattern = _pattern(chis)
    for B, tab in enumerate(vals):
        rhs = np.zeros_like(vals)
        for S in range(1, len(vals)):
            if not S & B:
                rhs[(masks & S) == S] ^= vals[B | S]
        if (tab[M] ^ tab[:, None] ^ tab[None, :] ^ rhs[pattern]).any():
            return False
    return True


# -- the distinguished basis --

def build_phi_basis(shape: BlockShape) -> list[PhiMap]:
    """Characters first, then the coefficient extractors, one PhiMap each."""
    ctx = _context(shape)
    return [PhiMap(shape, 1 << p) for p in range(len(ctx.labels))]


# -- cornering --

def corner_operator(shape: BlockShape, i: int, phi: PhiMap) -> PhiMap:
    """Strip block i: extractors lose one support block, characters die."""
    if not 0 <= i < shape.n:
        raise ValueError("block index out of range")
    if shape.n == 1:
        raise ValueError("cannot corner a single block")
    if phi.shape != shape:
        raise ValueError("map lives on a different shape")
    mat = _corner_matrix(shape, i)
    out = 0
    for p in bits_of(phi.coords):
        out ^= mat[p]
    return PhiMap(shape.drop(i), out)


def _corner_matrix(shape: BlockShape, i: int) -> list[int]:
    """Corner coordinates of every basis label under the block-i operator,
    built once per shape and block.

    The label (S, x) survives when i is in S and becomes (S - {i}, x) in
    the corner's numbering; every other label dies.  So characters die,
    and so do extractors whose support misses block i or whose pointer
    lies in it.
    """
    ctx = _context(shape)
    mat = ctx._corners.get(i)
    if mat is None:
        sub = _context(shape.drop(i))
        mat = []
        for S, x in ctx.labels:
            y = x - shape.k[i] if shape.block(x) > i else x
            mat.append(1 << sub.index[(_squeeze(S, i), y)] if S >> i & 1 else 0)
        ctx._corners[i] = mat
    return mat


def _corner_preimages(shape: BlockShape, i: int) -> list[int]:
    """The transpose of _corner_matrix(shape, i): entry q holds the labels
    whose image is corner label q.  Each label has at most one image, so
    the pull-back of a corner functional f is the OR of the entries at
    the bits of f; an image of two or more bits is refused."""
    pre = [0] * len(_context(shape.drop(i)).labels)
    for p, image in enumerate(_corner_matrix(shape, i)):
        if image & (image - 1):
            raise ValueError(f"corner matrix of block {i} sends label {p} to "
                             "more than one corner label")
        if image:
            pre[image.bit_length() - 1] |= 1 << p
    return pre


def _pull_back(pre: list[int], f: int) -> int:
    """The labels whose corner image lies in f, read through _corner_preimages."""
    out = 0
    for q in bits_of(f):
        out |= pre[q]
    return out


def _pulled_corner(ctx: _Context, coords: int, B: int) -> int:
    """The B-fold corner of the map with coordinates coords, read back in
    the ambient labels: (S, x) goes to (S - B, x) when B lies inside S
    and is dropped otherwise, B a bitmask of blocks.

    Extractor values only watch monomials and vector coordinates away
    from the removed blocks, so the renamed map is the pullback along
    the quotient that kills the generators of those blocks.  Two kept
    labels keep distinct images, and B empty gives the map itself.
    """
    out = 0
    for p in bits_of(coords):
        S, x = ctx.labels[p]
        if S & B == B:
            out |= 1 << ctx.index[(S ^ B, x)]
    return out


# -- pointwise identities --

def lcomm_check(shape: BlockShape, A, pointer_x: int, gens) -> tuple[int, int]:
    """Extractor value on a nested commutator vs the governing tensor."""
    A = tuple(sorted(set(A)))
    gens = tuple(gens)
    if len(gens) != len(A):
        raise ValueError("tuple length must match the support size")
    ctx = _context(shape)
    if len(A) == 1:
        code = ctx.group.gen_codes[gens[0]]
    else:
        code = ctx.group.nested_commutator([ctx.group.gen_codes[y] for y in gens])
    # the tensor refuses a pointer outside A, which the label would not
    tensor = governing_tensor_general(shape, A, shape.block(pointer_x), (pointer_x,))
    S = sum(1 << s for s in A) & ~(1 << shape.block(pointer_x))
    left = (code >> ctx.bitpos[ctx.index[(S, pointer_x)]]) & 1
    return left, tensor.eval(gens)


# -- coboundaries and cocycles --

def coboundary(phi: PhiMap) -> ThetaCocycle:
    """dPhi(sigma, tau) = Phi(sigma tau) + Phi(sigma) + Phi(tau)."""
    val = _value_rows(phi.shape, [phi.coords])[0]
    M = _context(phi.shape).group.mul_table()
    return ThetaCocycle(phi.shape, _pack(val[M] ^ val[:, None] ^ val[None, :]))


def cocycle_view(phi: PhiMap) -> dict:
    """All cornered tables of one map with the recursion certificate.

    tables[B] is the value table on the ambient group of the B-fold
    corner pulled back along the quotient killing the blocks of B
    (_pulled_corner; the full set of blocks gives 0); the certificate
    checks, on every pair and every B, the recursion
    phi_B(st) = phi_B(s) + sum over S disjoint from B of
    chi_S(s) phi_{B+S}(t), the empty S counting 1.  At B empty this is
    the coboundary expansion of phi itself.
    """
    shape = phi.shape
    n = shape.n
    ctx = _context(shape)
    by_mask = [_pulled_corner(ctx, phi.coords, B) for B in range(1 << n)]
    vals = _value_rows(shape, by_mask + [shape.block_mask(s) for s in range(n)])
    packed = _pack(vals[:1 << n])
    tables = {B: packed[sum(1 << s for s in B)]
              for r in range(n + 1) for B in combinations(range(n), r)}
    certified = _recursion_holds(vals[:1 << n], vals[1 << n:], ctx.group.mul_table())
    return {"tables": tables, "certified": certified}


def theta(shape: BlockShape, v: CommVector) -> ThetaCocycle:
    """theta(s,t) sums chi_B(s) times the B-fold corner of v at t.

    The corners are read off the map whose corners are v, the lift that
    realize_commuting_vector returns; a vector that is not commuting is
    refused by its lift check (see reconstruct_report).  chi_B(s) is 1
    exactly when every block character of B is 1 at s, so row s depends
    only on the pattern of the n block characters at s: the row of
    pattern m is the value table of the sum over nonempty B inside m of
    the pulled-back B-fold corners.  Each of the 2^n pattern rows is
    built once, and the rows of elements with the same pattern are one
    shared int: about 2^n * order bits in place of order^2.
    """
    lift = realize_commuting_vector(shape, v)
    ctx = _context(shape)
    n = shape.n
    by_pattern = [0] * (1 << n)
    for B in range(1, 1 << n):
        coords = _pulled_corner(ctx, lift.coords, B)
        for m in range(1 << n):
            if m & B == B:
                by_pattern[m] ^= coords
    vals = _value_rows(shape, by_pattern + [shape.block_mask(s) for s in range(n)])
    shared = _pack(vals[:1 << n])
    return ThetaCocycle(shape, [shared[m] for m in _pattern(vals[1 << n:]).tolist()])


def solve_cochain(G: ExpansionGroup, th: ThetaCocycle):
    """Value table with coboundary th, vanishing at the identity and the
    generators; None when th is no coboundary.

    Each Cayley edge p -> p*g forces val(p*g) = val(p) + th(p, g).  The
    values are propagated breadth-first from the identity, one numpy step
    per generator per layer; then every edge is checked at once and the
    generators must read 0.  Any conflict means th is not a coboundary.
    When order^2 <= 2^20 the coboundary of the table must equal th,
    through G's product table.
    """
    import numpy as np
    order = G.order
    if len(th.rows) != order:
        raise ValueError("table size differs from the group order")
    codes, rows = G.codes, th.rows
    gen_pos = np.searchsorted(codes, np.array(G.gen_codes, dtype=np.uint64))
    perms = np.array([np.searchsorted(codes, G.right_mul_array(codes, g))
                      for g in G.gen_codes], dtype=np.intp).reshape(-1, order)
    # col[g, p] = th(p, g), the generator columns of th
    col = np.array([[1 if r & m else 0 for r in rows]
                    for m in [1 << gp for gp in gen_pos.tolist()]],
                   dtype=np.uint8).reshape(-1, order)
    val = np.zeros(order, dtype=np.uint8)
    seen = np.zeros(order, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.intp)
    while frontier.size:
        layer = [frontier[:0]]
        for perm, c in zip(perms, col):
            kids = perm[frontier]
            fresh = ~seen[kids]
            kids, parents = kids[fresh], frontier[fresh]
            seen[kids] = True
            val[kids] = val[parents] ^ c[parents]
            layer.append(kids)
        frontier = np.concatenate(layer)
    if val[gen_pos].any() or (val[perms] != val ^ col).any():
        return None
    if order * order <= 1 << 20:
        if max(rows) >> order:
            return None  # bits past the order are in no coboundary row
        d = val[G.mul_table()] ^ val[:, None] ^ val[None, :]
        if (d != _unpack(rows, order)).any():
            return None
    return _pack(val[None])[0]


# -- realization and layer reconstruction --

def realize_commuting_vector(shape: BlockShape, v: CommVector) -> PhiMap:
    """The map with no character part whose corners are the given vector.

    Cornering at block i sends each label it keeps to one corner label,
    so the lift reads that label's coefficient off entry i; a label kept
    by several blocks takes the OR of their readings.  The lift's corners
    equal v exactly when v is commuting (see reconstruct_report).  No
    system is solved and no value table is built.
    """
    if v.shape != shape:
        raise ValueError("vector lives on a different shape")
    coords = 0
    for i, phi in enumerate(v.entries):
        coords |= _pull_back(_corner_preimages(shape, i), phi.coords)
    lift = PhiMap(shape, coords)
    if any(corner_operator(shape, i, lift) != phi for i, phi in enumerate(v.entries)):
        raise ValueError("vector is not commuting")
    return lift


def phi_layer(shape: BlockShape, j: int) -> list[PhiMap]:
    """Maps vanishing on the (j+1)-th term of the central series, term
    j-1 counted from [G,G]: each label (S, x) with |S| < j, in label
    order, then chi_A, the sum of the labels of support A = S + block(x),
    for each A of j+1 or more blocks, in label order.

    Proof.  The series lies in Q, the codes with zero vector part, where
    the product is XOR; each label reads its own bit, so a map vanishes
    on a span in Q when its coordinates meet each spanning code's labels
    evenly.  P_A is the even-weight span of the labels of support A.
    (1) Block shift: on Q, 1 + g_z (w -> w + conj(g_z, w)) sends (S, x)
    to (S + b, x), b = block(z), when b is not in S + block(x), and to 0
    otherwise, since g_z acts on factor x by x_b = 1 + t_b when b is not
    block(x) (groups._act_plan).  So 1 + g_z maps A's labels one to one
    into those of A + b, and P_A into P_(A+b), or to 0 when b is in A.
    (2) [g_x, g_y] = (1 + g_y)(0, x) + (1 + g_x)(0, y) is ({block y}, x)
    + ({block x}, y) when the blocks differ and 0 otherwise; over x in
    block a and y in block b these pairs span P_{a,b}.
    (3) [G,G] is the sum V of P_A over |A| >= 2.  By (1) and (2), V holds
    the generator commutators and is closed under every 1 + g_z, so it
    holds their normal span, which is [G,G] (groups._commutator_span).
    Conversely, for |A| >= 3 two labels of A, of blocks s and s', are the
    shift by 1 + g_z of two labels of A - c, z in a block c of A other
    than s and s'; pairs span P_A, so P_A lies in the sum of
    (1 + g_z) P_(A-c), and in [G,G] by induction from (2), as [G,G] is
    normal.
    (4) Term t+1 is the span of (1 + g_z) term t over the generators, so
    by (1) and the pair shift of (3), term t is the sum of P_A over
    |A| >= t+2.  Supports share no labels, so a map vanishes on term j-1
    exactly when it is 0 or chi_A on the labels of each A of j+1 or more
    blocks; the labels of smaller supports, |S| < j, are free.
    """
    if j < 0:
        raise ValueError("layer index must be nonnegative")
    if j == 0:
        return []
    free, chis = [], {}
    for p, (S, x) in enumerate(_context(shape).labels):
        if S.bit_count() < j:
            free.append(PhiMap(shape, 1 << p))
        else:
            A = S | 1 << shape.block(x)
            chis[A] = chis.get(A, 0) | 1 << p
    return free + [PhiMap(shape, c) for c in chis.values()]


def reconstruct_report(shape: BlockShape, j: int, corner_spaces) -> dict:
    """Layer j as the maps whose corners lie in the corner layers j-1.

    corner_spaces[i] spans the (j-1)-th layer on the corner without
    block i; the vectors need not be independent.  The functionals
    vanishing on each space are pulled back through the transpose of the
    block-i corner matrix (_corner_preimages), one kernel over the
    shape's labels takes every condition at once, and the preimage is
    joined with layer 1.  No value table is built.

    The preimage is the span of the realized commuting vectors plus the
    characters.  Cornering at block i sends the label (S, x), with i in
    S, to (S - {i}, x) and kills every other label, so each corner label
    has exactly one preimage and the maps every corner kills are the N
    characters.  A label (S, x) is then fixed once for every block of S,
    and two such values agree
    exactly when the two corners commute there: every commuting vector
    in the product of the corner spaces is the corner vector of a map,
    and these vectors form a space of dimension dim(preimage) - N.  A map
    phi with corners v has theta(v) = d phi by the expansion equation, so
    no vector is obstructed: obstruction_count is 0.  commvect_dim counts
    the coefficient vectors over the given spanning lists, so each list's
    dependencies add len - rank.  tests/oracles.py
    keeps the route that solves the commuting conditions and puts every
    vector through theta and solve_cochain first.
    """
    if j < 2:
        raise ValueError("reconstruction starts at layer 2")
    corner_spaces = [list(c) for c in corner_spaces]
    if len(corner_spaces) != shape.n or any(not c for c in corner_spaces):
        raise ValueError("need a nonempty basis for every corner")
    conds, dependent = [], 0
    for i, maps in enumerate(corner_spaces):
        sub = shape.drop(i)
        if any(phi.shape != sub for phi in maps):
            raise ValueError(f"corner basis {i} lives on the wrong shape")
        space = [phi.coords for phi in maps]
        dependent += len(space) - rank(space)
        pre = _corner_preimages(shape, i)
        conds.extend(_pull_back(pre, f)
                     for f in kernel_basis(space, cols=len(_context(sub).labels)))
    preimage = kernel_basis(conds, cols=len(_context(shape).labels))
    span = F2Basis(preimage)
    for phi in phi_layer(shape, 1):
        span.add(phi.coords)
    basis = span.basis()
    return {
        "shape": list(shape.k),
        "j": j,
        "dim": len(basis),
        "basis_coords": basis,
        "obstruction_count": 0,
        "commvect_dim": len(preimage) - shape.N + dependent,
    }
