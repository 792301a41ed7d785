"""Independent brute-force reference computations for the test suite.

Everything here recomputes expected values from first principles with
deliberately different data structures (dict tables, frozensets) than
the package itself, so agreement is meaningful.
"""

from __future__ import annotations

import functools
import itertools
from itertools import combinations, product
from math import comb

import numpy as np

from genusforge.arith import AcceptableVector, _primes_1mod4, jacobi
from genusforge.expmaps import (CommVector, PhiMap, _context, corner_operator,
                                phi_layer, realize_commuting_vector,
                                solve_cochain, theta)
from genusforge.f2 import F2Basis, F2Solver, bits_of, kernel_basis, low_bit, rank
from genusforge.groups import (TABLE_CEILING, ExpansionGroup, ResourceLimitError,
                               _clear_masks, _commutator_span, _is_elementary_abelian,
                               _member, check_expansion_axioms, check_generator_axioms,
                               descending_central_series, universal_order_exponent)
from genusforge.lie import GradedLie
from genusforge.tensors import BlockShape


def compositions(total: int):
    """Every block shape (k_1, ..., k_n) with k_1 + ... + k_n = total."""
    if total == 0:
        yield ()
        return
    for head in range(1, total + 1):
        for tail in compositions(total - head):
            yield (head,) + tail


# ---------------------------------------------------------------------------
# naive GF(2) spans over arbitrary hashable "coordinates"


def span_dim(sets) -> int:
    """Dimension of the span of subsets under symmetric difference."""
    basis: dict = {}
    for s in sets:
        s = frozenset(s)
        while s:
            key = min(s)
            if key in basis:
                s = s ^ basis[key]
            else:
                basis[key] = s
                break
    return len(basis)


def in_naive_span(sets, target) -> bool:
    return span_dim(list(sets)) == span_dim(list(sets) + [target])


# ---------------------------------------------------------------------------
# governing tensors evaluated straight from their defining formulas


def gov_value(A, x, tup) -> int:
    """Value of the plain governing tensor at a basis tuple."""
    total = 0
    if len(A) == 1:
        return int(tup[0] == x)
    for perm in itertools.permutations(sorted(A)):
        if perm[-1] == x or perm[-2] == x:
            total ^= int(all(t == p for t, p in zip(tup, perm)))
    return total


def gov_general_value(shape, A, x, T, tup) -> int:
    """Value of the block-refined governing tensor at a basis tuple."""
    T = set(T)
    if len(A) == 1:
        return int(tup[0] in T)
    symbols = [("b", s) for s in sorted(A) if s != x] + [("T",)]
    total = 0
    for perm in itertools.permutations(symbols):
        if perm[-1] != ("T",) and perm[-2] != ("T",):
            continue
        prod = 1
        for t, sym in zip(tup, perm):
            if sym[0] == "b":
                prod &= int(shape.block(t) == sym[1])
            else:
                prod &= int(t in T)
        total ^= prod
    return total


def injective_tuples(indices, arity):
    return list(itertools.permutations(sorted(indices), arity))


def gov_support_set(n, A, x):
    """Nonzero injective tuples of the plain governing tensor."""
    tuples = injective_tuples(range(n), len(A))
    return frozenset(t for t in tuples if gov_value(A, x, t))


def gov_dim_naive(n, i) -> int:
    sets = []
    for A in itertools.combinations(range(n), i):
        for x in A:
            sets.append(gov_support_set(n, A, x))
    return span_dim(sets)


def gov_general_dim_naive(shape, i) -> int:
    sets = []
    tuples = injective_tuples(range(shape.N), i)
    for A in itertools.combinations(range(shape.n), i):
        for x in A:
            mem = shape.members(x)
            for size in range(1, len(mem) + 1):
                for T in itertools.combinations(mem, size):
                    s = frozenset(
                        t for t in tuples
                        if gov_general_value(shape, A, x, T, t)
                    )
                    sets.append(s)
    return span_dim(sets)


def tilde_gov_dim_by_counting(shape, i) -> int:
    """Per-subset count of the block-refined governing span."""
    total = 0
    for A in itertools.combinations(range(shape.n), i):
        total += sum(shape.k[s] for s in A) - 1
    return total


# ---------------------------------------------------------------------------
# canonical tuples and the rewriting procedure


def canonical_tuples(n, i):
    """Injective tuples with increasing prefix and maximal last entry."""
    if i == 1:
        return [(x,) for x in range(n)]
    out = []
    for A in itertools.combinations(range(n), i):
        m = A[-1]
        for p in A[:-1]:
            prefix = tuple(sorted(set(A) - {m, p}))
            out.append(prefix + (p, m))
    return out


def rewrite_value(values, tup) -> int:
    """Resolve any injective tuple from canonical values.

    Sorting the prefix uses Commutativity, swapping the last two entries
    uses Symmetry, and a maximal entry stuck at the end of the prefix is
    pushed out with one Hall-Witt split.
    """
    i = len(tup)
    tup = tuple(sorted(tup[: i - 2])) + tuple(tup[i - 2:])
    m = max(tup)
    if tup[-1] == m:
        return values[tup]
    if tup[-2] == m:
        swapped = tup[: i - 2] + (tup[-1], tup[-2])
        return values[swapped]
    pre, c, a, b = tup[: i - 3], tup[i - 3], tup[i - 2], tup[i - 1]
    return rewrite_value(values, pre + (b, a, c)) ^ rewrite_value(
        values, pre + (a, b, c)
    )


# ---------------------------------------------------------------------------
# small group-theory references


def closure_by_sets(gens, mul, identity):
    """Breadth-first closure using plain Python sets."""
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def group_order_by_sets(gens, mul, identity) -> int:
    return len(closure_by_sets(gens, mul, identity))


def act_factor(v: int, a: int, m: int) -> int:
    """Vector v acting on the polynomial a of one factor of size m: e_j
    sends t_B to t_B + t_(B|{j}), one j at a time."""
    masks = _clear_masks(m)
    for j in bits_of(v):
        a ^= (a & masks[j]) << (1 << j)
    return a


def mul_by_factors(G, a: int, b: int) -> int:
    """G.mul one factor at a time: (a1, v1)(a2, v2) = (a1 + v1.a2, v1 + v2)."""
    out = 0
    for c in G.comps:
        a1 = (a >> c.poly_off) & c.poly_mask
        v1 = (a >> c.vec_off) & c.vec_mask
        a2 = (b >> c.poly_off) & c.poly_mask
        v2 = (b >> c.vec_off) & c.vec_mask
        out |= (a1 ^ act_factor(v1, a2, c.m)) << c.poly_off
        out |= (v1 ^ v2) << c.vec_off
    return out


def inv_by_factors(G, a: int) -> int:
    out = 0
    for c in G.comps:
        a1 = (a >> c.poly_off) & c.poly_mask
        v1 = (a >> c.vec_off) & c.vec_mask
        out |= act_factor(v1, a1, c.m) << c.poly_off
        out |= v1 << c.vec_off
    return out


def conj_by_factors(G, g: int, w: int) -> int:
    return mul_by_factors(G, mul_by_factors(G, g, w), inv_by_factors(G, g))


def commutator_by_factors(G, a: int, b: int) -> int:
    return mul_by_factors(G, mul_by_factors(G, a, b),
                          mul_by_factors(G, inv_by_factors(G, a), inv_by_factors(G, b)))


def label_row_by_labels(ctx, w: int) -> int:
    """Bit p is the value of label p at the code w, one label at a time."""
    row = 0
    for p, bit in enumerate(ctx.bitpos):
        row |= ((w >> bit) & 1) << p
    return row


def phi_layer_by_series(shape: BlockShape, j: int) -> list[PhiMap]:
    """Layer j by its definition: the kernel of the label rows of a basis
    of series term j-1, read off the group's central series; every label
    once that term is trivial, and nothing at j = 0."""
    if j < 0:
        raise ValueError("layer index must be nonnegative")
    if j == 0:
        return []
    ctx = _context(shape)
    width = len(ctx.labels)
    series = descending_central_series(ctx.group)
    term = series[j - 1] if j <= len(series) else []
    if not term:
        return [PhiMap(shape, 1 << p) for p in range(width)]
    conds = [label_row_by_labels(ctx, w) for w in term]
    return [PhiMap(shape, c) for c in kernel_basis(conds, cols=width)]


def layer_one_by_supports(shape: BlockShape) -> list[int]:
    """Coordinates of the characters, then of chi_A, the sum of the
    labels (A - {s}, x) over s in A and x in block s, for each support A
    of two or more blocks in combinations order."""
    ctx = _context(shape)
    out = [1 << x for x in range(shape.N)]
    for size in range(2, shape.n + 1):
        for A in combinations(range(shape.n), size):
            mask = sum(1 << s for s in A)
            out.append(sum(1 << ctx.index[(mask ^ 1 << s, x)]
                           for s in A for x in shape.members(s)))
    return out


def eval_by_labels(phi: PhiMap, code: int) -> int:
    """A map's value at one code, as the XOR of its labels' bits there."""
    ctx = _context(phi.shape)
    out = 0
    for p in bits_of(phi.coords):
        out ^= (code >> ctx.bitpos[p]) & 1
    return out


def values_by_labels(phi: PhiMap) -> int:
    """A map's value table as the XOR of one packed table per label, each
    read bit by bit off the enumerated codes."""
    ctx = _context(phi.shape)
    codes = ctx.group.codes.tolist()
    out = 0
    for p in bits_of(phi.coords):
        bit = ctx.bitpos[p]
        out ^= sum(((c >> bit) & 1) << q for q, c in enumerate(codes))
    return out


def drop_index(shape: BlockShape, dropped: int, s: int) -> int:
    """Index of original block s inside shape.drop(dropped)."""
    return s - 1 if s > dropped else s


def corner_chain(phi: PhiMap, B) -> PhiMap:
    """Corner phi at each block of B in turn, B indexing phi's blocks:
    the B-fold corner through every sub-shape on the way."""
    for k, b in enumerate(sorted(B)):
        phi = corner_operator(phi.shape, b - k, phi)
    return phi


def inflate(shape: BlockShape, gone, phi: PhiMap) -> PhiMap:
    """Rename a map on the corner without the blocks gone back to the
    ambient labels: the corner's blocks and coordinates are renumbered
    through the kept ones, one label at a time."""
    gone = sorted({gone} if isinstance(gone, int) else set(gone))
    corner = shape.drop(gone)
    if phi.shape != corner:
        raise ValueError("map does not live on the indicated corner")
    kept_blocks = [s for s in range(shape.n) if s not in gone]
    kept_xs = [x for x in range(shape.N) if shape.block(x) not in gone]
    ctx = _context(shape)
    sub = _context(corner)
    out = 0
    for p in bits_of(phi.coords):
        S, x = sub.labels[p]
        big = sum(1 << kept_blocks[s] for s in range(corner.n) if S >> s & 1)
        out ^= 1 << ctx.index[(big, kept_xs[x])]
    return PhiMap(shape, out)


def is_commuting(v: CommVector) -> bool:
    """Every two entries of v agree on their common corner."""
    shape = v.shape
    for i, j in combinations(range(shape.n), 2):
        if shape.n == 2:
            continue
        left = corner_operator(shape.drop(i), drop_index(shape, i, j), v.entries[i])
        right = corner_operator(shape.drop(j), drop_index(shape, j, i), v.entries[j])
        if left != right:
            return False
    return True


def pull_back_by_labels(mat: list[int], f: int) -> int:
    """The labels whose image under a corner matrix meets f."""
    return sum(1 << p for p, image in enumerate(mat) if image & f)


def _act_set(vec, polys):
    """Reference action on square-free monomials, one index at a time."""
    out = frozenset(polys)
    for j in sorted(vec):
        nxt = set()
        for B in out:
            if j in B:
                nxt ^= {B}
            else:
                nxt ^= {B, B | frozenset([j])}
        out = frozenset(nxt)
    return out


def tuple_model_gens(k):
    """Universal block-shape generators in a tuple-of-frozensets model.

    Component x of generator j is ({t_empty} if j == x else nothing, no
    vector) inside the same block, and (nothing, {block(j)}) across blocks.
    """
    n = len(k)
    N = sum(k)
    block = [s for s, v in enumerate(k) for _ in range(v)]
    gens = []
    for j in range(N):
        comps = []
        for x in range(N):
            if block[j] == block[x]:
                polys = frozenset([frozenset()]) if j == x else frozenset()
                vec = frozenset()
            else:
                polys = frozenset()
                vec = frozenset([block[j]])
            comps.append((polys, vec))
        gens.append(tuple(comps))
    identity = tuple((frozenset(), frozenset()) for _ in range(N))
    return gens, identity


def tuple_model_mul(a, b):
    out = []
    for (p1, v1), (p2, v2) in zip(a, b):
        out.append((p1 ^ _act_set(v1, p2), v1 ^ v2))
    return tuple(out)


def tuple_model_inv(a):
    return tuple((_act_set(v, p), v) for p, v in a)


def series_dims_by_sets(gens, mul, inv, identity):
    """Graded dimensions of the descending central series, all set-based."""
    import math

    def comm(a, b):
        return mul(mul(a, b), mul(inv(a), inv(b)))

    def subgroup(elements):
        elements = [e for e in set(elements) if e != identity]
        if not elements:
            return {identity}
        return closure_by_sets(elements, mul, identity)

    G = closure_by_sets(gens, mul, identity)
    dims = []
    prev = G
    cur = subgroup([comm(a, b) for a in G for b in G])
    while len(cur) > 1:
        dims.append(int(math.log2(len(prev) / len(cur))))
        nxt = subgroup([comm(g, w) for g in G for w in cur])
        prev, cur = cur, nxt
    dims.append(int(math.log2(len(prev))))
    return tuple(dims)


def descending_central_series_by_conj_close(G) -> list[list[int]]:
    """Bases of [G,G], [G,[G,G]], ... down to the first trivial term, each
    term stepped by w ^ conj(g, w) over the generators and then closed
    under the same map until no vector is added.  The closing pass is the
    one the package drops by proof; this route keeps it and neither reads
    nor fills the group's series cache."""
    if not isinstance(G, ExpansionGroup):
        raise TypeError("series requires a product-model group")
    report = G._report
    if report is None:
        report = check_generator_axioms(G)
        if all(report.values()):
            G._report = report
        else:
            report = check_expansion_axioms(G)
    if not all(report.values()):
        raise ValueError("expansion axioms do not hold")
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
        queue = nxt.basis()
        while queue:
            w = queue.pop()
            for g in G.gen_codes:
                u = w ^ G.conj(g, w)
                if nxt.add(u):
                    queue.append(u)
        cur = nxt
        if len(series) > 64:
            raise RuntimeError("series failed to terminate")
    return series


def augmentation_power_span_by_tuples(G, i: int) -> list[int]:
    """Basis of I^(i-2) * [G,G] spanned by (1 + g_(i-2)) ... (1 + g_1) w
    over every w of a basis of [G,G] and every tuple of i-2 generators."""
    B = F2Basis()
    for w in descending_central_series(G)[0]:
        for tup in product(G.gen_codes, repeat=i - 2):
            v = w
            for g in tup:
                v = v ^ G.conj(g, v)
            B.add(v)
    return B.basis()


# ---------------------------------------------------------------------------
# quotients of an enumerated group and their Lie algebras, built from sets


def normal_closure(G, start_codes) -> set[int]:
    """Smallest subgroup containing the given codes and normal in G."""
    gens = set(int(c) for c in start_codes)
    while True:
        H = closure_by_sets(sorted(gens), G.mul, 0)
        new = {G.conj(g, s) for s in gens for g in G.gen_codes} - H
        if not new:
            return H
        gens |= new


class QuotientGroup:
    """G modulo a normal subgroup, each coset named by its least code.

    The generators are the cosets of G's generators listed in kept, and
    shape is the block shape they carry.
    """

    def __init__(self, G, normal, kept, shape: BlockShape):
        self.parent = G
        self.normal = np.array(sorted(normal), dtype=np.uint64)
        self.kept = list(kept)
        self.shape = shape
        self.identity = 0
        self.gen_codes = [self.rep(G.gen_codes[x]) for x in kept]
        self.codes = sorted(closure_by_sets(self.gen_codes, self.mul, 0))

    def rep(self, code: int) -> int:
        return int(mul_left_array(self.parent, code, self.normal).min())

    def mul(self, a: int, b: int) -> int:
        return self.rep(self.parent.mul(a, b))

    def conj(self, g: int, w: int) -> int:
        return self.rep(self.parent.conj(g, w))

    def commutator(self, a: int, b: int) -> int:
        return self.rep(self.parent.commutator(a, b))

    def phi(self, code: int) -> int:
        """The parent's phi read on the kept coordinates; well defined
        when phi of every normal subgroup element vanishes there."""
        full = self.parent.phi(code)
        return sum(((full >> x) & 1) << t for t, x in enumerate(self.kept))

    @property
    def order(self) -> int:
        return len(self.codes)


def _elementary_abelian_by_sets(G, subset) -> bool:
    S = set(subset)
    return all(G.mul(a, a) == G.identity for a in S) and all(
        G.mul(a, b) in S and G.mul(a, b) == G.mul(b, a)
        for a, b in combinations(S, 2))


def check_expansion_axioms_by_sets(G: QuotientGroup) -> dict[str, bool]:
    """The expansion axioms and the block condition, checked element by
    element: phi additive with phi(g_x) = e_x, ker(phi) elementary abelian
    and equal to [G,G], generators of order 2, and the preimage of ker pi
    elementary abelian."""
    ker = [c for c in G.codes if G.phi(c) == 0]
    derived = normal_closure(
        G, [G.commutator(a, b) for a, b in combinations(G.gen_codes, 2)])
    return {
        "axiom1": all(G.phi(g) == 1 << x for x, g in enumerate(G.gen_codes))
        and all(G.phi(G.mul(u, g)) == G.phi(u) ^ G.phi(g)
                for u in G.codes for g in G.gen_codes),
        "axiom2": _elementary_abelian_by_sets(G, ker),
        "axiom3": set(ker) == derived,
        "axiom4": all(G.mul(g, g) == G.identity for g in G.gen_codes),
        "tilde_condition": _elementary_abelian_by_sets(
            G, [c for c in G.codes if G.shape.pi(G.phi(c)) == 0]),
    }


def axiom1_by_whole_array(G) -> bool:
    """Axiom 1 read on every code: phi(g_x) = e_x, and one right_mul_array
    over all of G.codes per generator g, testing
    phi(u g) = phi(u) + phi(g) on every phi bit at once."""
    if not all(G.phi(g) == 1 << x for x, g in enumerate(G.gen_codes)):
        return False
    codes = G.codes
    mask = np.uint64(sum(1 << pos for pos in set(G.phi_bits)))
    return all(bool(np.all(((G.right_mul_array(codes, g) ^ codes) & mask)
                           == (np.uint64(g) & mask)))
               for g in G.gen_codes)


def phi_zero_sets_by_bits(G) -> tuple[np.ndarray, np.ndarray]:
    """Codes with phi = 0 and codes with pi(phi) = 0, from one 0/1 array
    per phi bit: phi is nonzero where any bit is 1, and pi(phi) where the
    XOR of some block's bits is 1."""
    codes = G.codes
    bits = [((codes >> np.uint64(p)) & np.uint64(1)).astype(np.uint8)
            for p in G.phi_bits]
    nz = np.zeros(codes.size, dtype=np.uint8)
    for b in bits:
        nz |= b
    pi_nz = np.zeros(codes.size, dtype=np.uint8)
    for s in range(G.shape.n):
        acc = np.zeros(codes.size, dtype=np.uint8)
        for x in G.shape.members(s):
            acc ^= bits[x]
        pi_nz |= acc
    return codes[nz == 0], codes[pi_nz == 0]


def check_expansion_axioms_by_whole_array(G) -> dict[str, bool]:
    """The enumerated axiom report with axiom 1 from axiom1_by_whole_array
    and the zero sets from phi_zero_sets_by_bits; the subgroup tests are
    the package's."""
    ker, tilde = phi_zero_sets_by_bits(G)
    derived = _is_elementary_abelian(G, ker)
    span = _commutator_span(G)
    return {
        "axiom1": axiom1_by_whole_array(G),
        "axiom2": derived,
        "axiom3": derived and len(ker) == 1 << len(span)
        and all(_member(ker, b) for b in span.basis()),
        "axiom4": all(G.mul(g, g) == G.identity for g in G.gen_codes),
        "tilde_condition": _is_elementary_abelian(G, tilde),
    }


def corner(G, i: int) -> QuotientGroup:
    """Quotient by the normal closure of the generators in block i."""
    shape = G.shape.drop(i)
    ncl = normal_closure(G, [G.gen_codes[x] for x in G.shape.members(i)])
    kept = [x for x in range(G.shape.N) if G.shape.block(x) != i]
    return QuotientGroup(G, ncl, kept, shape)


def _span_map(G, gens):
    """Greedy basis and coordinate table of a subgroup of ker(phi).

    Valid because ker(phi) is elementary abelian, so the subgroup is a
    vector space and every element is a product of a basis subset.
    """
    table = {G.identity: 0}
    basis = []
    for w in gens:
        if w in table:
            continue
        for e, bits in list(table.items()):
            table[G.mul(e, w)] = bits | (1 << len(basis))
        basis.append(w)
    return basis, table


def lie_from_quotient(G: QuotientGroup) -> GradedLie:
    """Associated graded algebra of the descending central series, each
    term enumerated as a set; the group must satisfy the expansion axioms."""
    if not all(check_expansion_axioms_by_sets(G).values()):
        raise ValueError("expansion axioms do not hold")

    def conj_closed(seed):
        out, seen = [], set()
        queue = [w for w in seed if w != G.identity]
        while queue:
            w = queue.pop()
            if w in seen:
                continue
            seen.add(w)
            out.append(w)
            for g in G.gen_codes:
                c = G.conj(g, w)
                if c != G.identity and c not in seen:
                    queue.append(c)
        return out

    gens = list(G.gen_codes)
    seed = [G.commutator(a, b) for a, b in combinations(gens, 2)]
    subgroups = []
    cur_gens = conj_closed(seed)
    while cur_gens:
        _, table = _span_map(G, cur_gens)
        subgroups.append(table)
        nxt = conj_closed([G.commutator(g, w) for g in gens for w in table])
        cur_gens = nxt
    total = G.order.bit_length() - 1
    head = (len(subgroups[0]).bit_length() - 1) if subgroups else 0
    if total - head != G.shape.N:
        raise ValueError("generators do not span the abelianization")
    dims = [G.shape.N]
    reps = {1: gens}
    coord = {}
    for m in range(2, len(subgroups) + 2):
        cur = subgroups[m - 2]
        nxt = subgroups[m - 1] if m - 1 < len(subgroups) else {G.identity: 0}
        basis, table = _span_map(G, list(nxt) + sorted(cur))
        lead = len(nxt).bit_length() - 1
        reps[m] = basis[lead:]
        dims.append(len(basis) - lead)

        def cm(code: int, table=table, lead=lead) -> int:
            return table[code] >> lead

        coord[m] = cm
    nclass = len(dims)
    tables = {}
    for m in range(1, nclass):
        tables[m] = [[coord[m + 1](G.commutator(gx, r)) for r in reps[m]]
                     for gx in gens]
    for r in reps[nclass]:
        for gx in gens:
            if G.commutator(gx, r) != G.identity:
                raise ValueError("series did not terminate at the top grade")
    return GradedLie(G.shape, dims, tables)


# ---------------------------------------------------------------------------
# elementary number theory


def jacobi_by_euler(a, p) -> int:
    """Legendre symbol of a mod an odd prime via Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def is_prime_naive(m) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# the cochain solver as a breadth-first walk, one Cayley edge at a time


def _pack_bits(arr) -> int:
    return int.from_bytes(np.packbits(arr, bitorder="little").tobytes(), "little")


def mul_left_array(G, x: int, arr: np.ndarray) -> np.ndarray:
    """x * arr[k] for every k, x fixed: the left action field by field."""
    out = np.zeros_like(arr)
    for c in G.comps:
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


def coboundary_rows(G, table: int) -> list[int]:
    """Rows of the coboundary of a value table, one left product at a time."""
    codes, order = G.codes, G.order
    bits = np.unpackbits(
        np.frombuffer(table.to_bytes((order + 7) // 8, "little"), dtype=np.uint8),
        bitorder="little", count=order)
    full = (1 << order) - 1
    rows = []
    for p, c in enumerate(codes):
        row = _pack_bits(bits[np.searchsorted(codes, mul_left_array(G, int(c), codes))])
        row ^= full if (table >> p) & 1 else 0
        rows.append(row ^ table)
    return rows


def solve_cochain_bfs(G, th):
    """Value table with coboundary th, spread over the Cayley graph.

    The identity gets 0 and every generator is seeded 0; each edge then
    forces the product's value.  A conflicting edge means th is not a
    coboundary under this seeding, hence not one at all, and the answer
    is absent.  Small groups get a full closing verification.
    """
    order = G.order
    if len(th.rows) != order:
        raise ValueError("table size differs from the group order")
    codes = G.codes
    gen_pos = [int(np.searchsorted(codes, np.uint64(g))) for g in G.gen_codes]
    perms = [np.searchsorted(codes, G.right_mul_array(codes, g))
             for g in G.gen_codes]
    val = np.full(order, -1, dtype=np.int8)
    val[0] = 0
    for gp in gen_pos:
        val[gp] = 0
    frontier = [0] + gen_pos
    while frontier:
        nxt = []
        for p in frontier:
            for gi, perm in enumerate(perms):
                q = int(perm[p])
                cand = int(val[p]) ^ ((th.rows[p] >> gen_pos[gi]) & 1)
                if val[q] < 0:
                    val[q] = cand
                    nxt.append(q)
                elif int(val[q]) != cand:
                    return None
        frontier = nxt
    table = _pack_bits((val == 1).astype(np.uint8))
    if order * order <= 1 << 20 and coboundary_rows(G, table) != list(th.rows):
        return None
    return table


def solve_cochain_exhaustive(G, th):
    """Value table with coboundary th, vanishing at the identity and the
    generators, found by trying every such table; None when none has.

    The table is unique when it exists: two of them differ by a
    homomorphism to F2 that kills the generators.  Orders up to 8 only.
    """
    order = G.order
    if order > 8:
        raise ValueError("exhaustive search is for orders up to 8")
    codes = [int(c) for c in G.codes]
    fixed = {0} | {codes.index(g) for g in G.gen_codes}
    free = [p for p in range(order) if p not in fixed]
    want = list(th.rows)
    for pick in product((0, 1), repeat=len(free)):
        table = sum(b << p for b, p in zip(pick, free))
        if coboundary_rows(G, table) == want:
            return table
    return None


# ---------------------------------------------------------------------------
# layer reconstruction with the coboundary test ahead of realization


def reconstruct_report_cochain_first(shape: BlockShape, j: int, corner_spaces) -> dict:
    """Commuting vectors from corner layers, filtered, lifted, spanned.

    corner_spaces[i] is a basis of the (j-1)-th layer on the corner
    without block i.  The commuting conditions cut a kernel; survivors
    of the coboundary test are realized and joined with layer 1.

    This is the cochain-first route: theta and solve_cochain run on every
    kernel vector before it is realized, so every vector pays for value
    tables.  genusforge.expmaps.reconstruct_report skips both, because no
    commuting vector is obstructed.
    """
    if j < 2:
        raise ValueError("reconstruction starts at layer 2")
    corner_spaces = [list(c) for c in corner_spaces]
    if len(corner_spaces) != shape.n or any(not c for c in corner_spaces):
        raise ValueError("need a nonempty basis for every corner")
    for i, space in enumerate(corner_spaces):
        for phi in space:
            if phi.shape != shape.drop(i):
                raise ValueError(f"corner basis {i} lives on the wrong shape")
    predicted = 1 << universal_order_exponent(shape)
    if predicted > TABLE_CEILING:
        raise ResourceLimitError(predicted, TABLE_CEILING, "table ceiling")
    ctx = _context(shape)
    sizes = [len(c) for c in corner_spaces]
    offs = [sum(sizes[:i]) for i in range(shape.n)]
    width = sum(sizes)
    conds = []
    for i, jj in combinations(range(shape.n), 2):
        if shape.n == 2:
            continue
        sub = _context(shape.drop((i, jj)))
        li = [corner_operator(shape.drop(i), drop_index(shape, i, jj), p).coords
              for p in corner_spaces[i]]
        lj = [corner_operator(shape.drop(jj), drop_index(shape, jj, i), p).coords
              for p in corner_spaces[jj]]
        for l in range(len(sub.labels)):
            row = 0
            for k, c in enumerate(li):
                row |= ((c >> l) & 1) << (offs[i] + k)
            for k, c in enumerate(lj):
                row |= ((c >> l) & 1) << (offs[jj] + k)
            if row:
                conds.append(row)
    if conds:
        kernel = kernel_basis(conds, cols=width)
    else:
        kernel = [1 << t for t in range(width)]
    span = F2Basis()
    obstructions = 0
    for kv in kernel:
        entries = []
        for i in range(shape.n):
            c = 0
            for k in range(sizes[i]):
                if (kv >> (offs[i] + k)) & 1:
                    c ^= corner_spaces[i][k].coords
            entries.append(PhiMap(shape.drop(i), c))
        v = CommVector(shape, entries)
        if solve_cochain(ctx.group, theta(shape, v)) is None:
            obstructions += 1
            continue
        span.add(realize_commuting_vector(shape, v).coords)
    for phi in phi_layer(shape, 1):
        span.add(phi.coords)
    basis = [PhiMap(shape, c) for c in span.basis()]
    return {
        "shape": list(shape.k),
        "j": j,
        "dim": len(basis),
        "basis_coords": [p.coords for p in basis],
        "obstruction_count": obstructions,
        "commvect_dim": len(kernel),
    }


# ---------------------------------------------------------------------------
# GF(2) elimination that keeps every stored row fully reduced


def rref_incremental(m) -> dict[int, int]:
    """Reduced row echelon form as a map pivot column -> row mask."""
    piv: dict[int, int] = {}
    mask = 0
    for v in m:
        while v & mask:
            v ^= piv[low_bit(v & mask)]
        if v:
            p = low_bit(v)
            for q, w in piv.items():
                if w >> p & 1:
                    piv[q] = w ^ v
            piv[p] = v
            mask |= 1 << p
    return piv


# ---------------------------------------------------------------------------
# the consistent-vector search, testing each candidate prime one symbol at
# a time


def residue_row_by_jacobi(q: int, pool) -> int:
    """Bitmask over pool with bit pi set when jacobi(q, pool[pi]) is 1."""
    r = 0
    for pi, p in enumerate(pool):
        if jacobi(q, p) == 1:
            r |= 1 << pi
    return r


def search_consistent_scan(k, prime_budget: int):
    """First strongly consistent vector with the given omega profile.

    Slots are filled entry by entry with ascending primes 1 mod 4 below
    the budget, each within-entry list itself ascending, backtracking
    on quadratic-residue conflicts against earlier entries.  Returns
    None once the pool is exhausted.  Each symbol is computed once per
    call.
    """
    k = tuple(int(v) for v in k)
    if not k or any(v < 1 for v in k):
        raise ValueError("omega targets must be positive")
    pool = _primes_1mod4(prime_budget)
    ends = []
    total = 0
    for v in k:
        total += v
        ends.append(total)
    entry_of = [sum(1 for e in ends if e <= t) for t in range(total)]
    chosen: list[int] = []

    @functools.cache
    def symbol(qi: int, pi: int) -> int:
        return jacobi(pool[qi], pool[pi])

    def fits(t: int, pi: int) -> bool:
        for s, qi in enumerate(chosen):
            if qi == pi:
                return False
            if entry_of[s] != entry_of[t] and symbol(qi, pi) != 1:
                return False
        return True

    def extend(t: int) -> bool:
        if t == total:
            return True
        start = 0
        if t > 0 and entry_of[t - 1] == entry_of[t]:
            start = chosen[-1] + 1
        for pi in range(start, len(pool)):
            if fits(t, pi):
                chosen.append(pi)
                if extend(t + 1):
                    return True
                chosen.pop()
        return False

    if not extend(0):
        return None
    facts = []
    at = 0
    for v in k:
        facts.append(sorted(pool[pi] for pi in chosen[at:at + v]))
        at += v
    prods = [1] * len(k)
    for i, f in enumerate(facts):
        for p in f:
            prods[i] *= p
    return AcceptableVector(prods, facts)


# ---------------------------------------------------------------------------
# the Lie axiom checks and the epimorphism, every right-nested bracket
# built from scratch


def nested(L: GradedLie, xs) -> tuple[int, int]:
    """Right-nested bracket of grade-1 basis vectors e_{xs[0]}, ..."""
    return nested_mixed(L, [1 << x for x in xs])


def nested_mixed(L: GradedLie, vecs) -> tuple[int, int]:
    """Right-nested bracket of arbitrary grade-1 elements."""
    if not vecs:
        raise ValueError("need at least one entry")
    acc = (1, vecs[-1])
    for v in reversed(vecs[:-1]):
        acc = L.bracket((1, v), acc)
    return acc


def lie_epimorphism_tuples(universal: GradedLie, target: GradedLie) -> dict[int, list[int]]:
    """Graded map fixed on grade 1 and extended along nested brackets.

    Each grade m is solved over all N^m nested brackets of length m, and
    the map is checked on every one of them before surjectivity and
    bracket compatibility; failures raise RuntimeError.
    """
    if universal.shape != target.shape:
        raise ValueError("shape mismatch")
    N = universal.shape.N
    if universal.nclass < target.nclass:
        raise RuntimeError("classification violation: target outlives the source")
    out = {1: [1 << x for x in range(N)]}
    for m in range(2, universal.nclass + 1):
        ds = universal.dims[m - 1]
        sol = F2Solver()
        tgt_parts = []
        pairs = []
        for xs in product(range(N), repeat=m):
            vs = nested(universal, xs)[1]
            vt = nested(target, xs)[1]
            sol.add(vs)
            tgt_parts.append(vt)
            pairs.append((vs, vt))
        imgs = []
        for k in range(ds):
            combo = sol.express(1 << k)
            if combo is None:
                raise RuntimeError(
                    "classification violation: grade not spanned by nested brackets")
            img = 0
            for j in bits_of(combo):
                img ^= tgt_parts[j]
            imgs.append(img)
        for vs, vt in pairs:
            mapped = 0
            for k in bits_of(vs):
                mapped ^= imgs[k]
            if mapped != vt:
                raise RuntimeError(
                    "classification violation: inconsistent extension")
        out[m] = imgs
    for m in range(1, target.nclass + 1):
        if rank(out.get(m, [])) != target.dims[m - 1]:
            raise RuntimeError("classification violation: not surjective")
    for m in range(1, universal.nclass + 1):
        nxt = out.get(m + 1, [])
        tab = universal.tables.get(m)
        for x in range(N):
            for k in range(universal.dims[m - 1]):
                lhs = 0
                if tab is not None:
                    if tab[x][k] >> len(nxt):
                        raise RuntimeError(
                            "classification violation: bracket leaves the grades")
                    for j in bits_of(tab[x][k]):
                        lhs ^= nxt[j]
                rhs = target.bracket_gen(x, m, out[m][k])
                if lhs != rhs:
                    raise RuntimeError(
                        "classification violation: brackets disagree")
    return out


def check_lie_axioms_direct(L: GradedLie, shape: BlockShape | None = None) -> dict:
    """Verify the defining conditions and the block conditions.

    axiom1: grade 1 is the phi target and the bracket is alternating,
    symmetric, graded, and satisfies Jacobi on basis triples.  axiom2:
    the kernel of psi is abelian.  axiom3: brackets against grade 1
    span every higher grade.  axiom4: right-nested brackets of grade-1
    entries do not see the order of the leading entries, vanish on a
    repeated leading entry, and [e_x, [e_x, -]] kills every grade.
    tilde1/tilde2 are the block refinements.
    """
    if shape is None:
        shape = L.shape
    N = shape.N
    nclass = L.nclass
    report = {}

    ok = L.dims[0] == N
    for x in range(N):
        if ok and L.bracket((1, 1 << x), (1, 1 << x))[1]:
            ok = False
    for x in range(N):
        for y in range(N):
            if L.bracket((1, 1 << x), (1, 1 << y))[1] != \
                    L.bracket((1, 1 << y), (1, 1 << x))[1]:
                ok = False
    if ok:
        for x in range(N):
            for y in range(N):
                ab = L.bracket((1, 1 << x), (1, 1 << y))
                for m in range(1, nclass + 1):
                    for k in range(L.dims[m - 1]):
                        c = (m, 1 << k)
                        acc = L.bracket((1, 1 << x), L.bracket((1, 1 << y), c))[1]
                        acc ^= L.bracket((1, 1 << y), L.bracket((1, 1 << x), c))[1]
                        acc ^= L.bracket(ab, c)[1]
                        if acc:
                            ok = False
    report["axiom1"] = ok

    ok = True
    for m1 in range(2, nclass + 1):
        for m2 in range(m1, nclass + 1):
            for k1 in range(L.dims[m1 - 1]):
                for k2 in range(L.dims[m2 - 1]):
                    if L.bracket((m1, 1 << k1), (m2, 1 << k2))[1]:
                        ok = False
    report["axiom2"] = ok

    ok = True
    for m in range(2, nclass + 1):
        tab = L.tables.get(m - 1)
        if tab is None:
            ok = ok and L.dims[m - 1] == 0
            continue
        vecs = [e for row in tab for e in row]
        if rank(vecs) != L.dims[m - 1]:
            ok = False
    report["axiom3"] = ok

    ok = True
    for i in range(4, nclass + 2):
        for xs in product(range(N), repeat=i):
            base = nested(L, xs)[1]
            for s in range(i - 3):
                ys = list(xs)
                ys[s], ys[s + 1] = ys[s + 1], ys[s]
                if nested(L, ys)[1] != base:
                    ok = False
        free = i - 4
        for s, t in combinations(range(i - 2), 2):
            for sigma in range(1 << N):
                for rest in product(range(N), repeat=free + 2):
                    vecs = []
                    r = iter(rest)
                    for pos in range(i - 2):
                        if pos == s or pos == t:
                            vecs.append(sigma)
                        else:
                            vecs.append(1 << next(r))
                    vecs.append(1 << next(r))
                    vecs.append(1 << next(r))
                    if nested_mixed(L, vecs)[1]:
                        ok = False
    for x in range(N):
        for m in range(1, nclass + 1):
            for k in range(L.dims[m - 1]):
                if L.bracket_gen(x, m + 1, L.bracket_gen(x, m, 1 << k)):
                    ok = False
    report["axiom4"] = ok

    kb = [(1 << g) ^ (1 << r) for g, r in shape.ker_pi_basis()]
    ok = all(L.bracket((1, u), (1, v))[1] == 0 for u in kb for v in kb)
    for u in kb:
        for m in range(2, nclass + 1):
            for k in range(L.dims[m - 1]):
                acc = 0
                for x in bits_of(u):
                    acc ^= L.bracket_gen(x, m, 1 << k)
                if acc:
                    ok = False
    report["tilde1"] = ok

    ok = True
    for j in range(2, nclass + 2):
        for xs in product(range(N), repeat=j):
            blocks = [shape.block(x) for x in xs]
            if len(set(blocks)) < j and nested(L, xs)[1]:
                ok = False
    report["tilde2"] = ok
    return report
