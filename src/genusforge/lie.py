"""Graded Lie algebras attached to expansion groups.

A graded algebra here is a tuple of F2 coordinate spaces, one per grade,
with every bracket driven by grade 1: the table entry for (generator x,
grade m basis vector k) is the coordinate mask of the bracket in grade
m+1, and brackets between grades >= 2 vanish identically.  Grade 1 is
always identified with the target space of phi, coordinate x <-> e_x.
"""

from __future__ import annotations

from itertools import combinations

from .f2 import F2Basis, F2Solver, bits_of, low_bit, rank
from .groups import ExpansionGroup, descending_central_series
from .tensors import BlockShape

__all__ = [
    "governing_algebra_general",
    "lie_from_group",
    "check_lie_axioms",
    "lie_epimorphism",
]


class GradedLie:
    """Graded Lie algebra over F2 with brackets driven by grade 1.

    dims[m-1] is the dimension of grade m and a homogeneous element is
    the pair (m, bits) with bits a coordinate mask.  tables[m][x][k]
    holds [e_x, b_k] for b_k the k-th basis vector of grade m, written
    in grade m+1 coordinates; the table for the top grade is omitted.
    """

    __slots__ = ("shape", "dims", "tables")

    def __init__(self, shape: BlockShape, dims, tables):
        self.shape = shape
        self.dims = tuple(dims)
        self.tables = tables

    @property
    def nclass(self) -> int:
        return len(self.dims)

    def bracket_gen(self, x: int, m: int, bits: int) -> int:
        """[e_x, v] for homogeneous v in grade m, as grade m+1 bits."""
        tab = self.tables.get(m)
        if tab is None:
            return 0
        out = 0
        row = tab[x]
        for k in bits_of(bits):
            out ^= row[k]
        return out

    def bracket(self, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        """Bracket of homogeneous elements (grade, bits)."""
        (m1, b1), (m2, b2) = a, b
        if m1 == 1:
            out = 0
            for x in bits_of(b1):
                out ^= self.bracket_gen(x, m2, b2)
            return m2 + 1, out
        if m2 == 1:
            return self.bracket(b, a)
        return m1 + m2, 0

    def __repr__(self) -> str:
        return f"GradedLie(shape={list(self.shape.k)}, dims={list(self.dims)})"


# -- governing models in chain coordinates --

def _grade_meta(shape: BlockShape):
    """Per grade i >= 2: ordered (blocks, members, offset) triples.

    The component for a block set A is the even-weight subspace of the
    coordinates of its member union, in the chain basis (m_t, m_{t+1})
    over the sorted member list; offsets concatenate the components.
    """
    metas = {}
    for i in range(2, shape.n + 1):
        entries = []
        by_blocks = {}
        off = 0
        for A in combinations(range(shape.n), i):
            mem = tuple(sorted(x for s in A for x in shape.members(s)))
            entries.append((A, mem, off))
            by_blocks[A] = (mem, off)
            off += len(mem) - 1
        metas[i] = (entries, by_blocks, off)
    return metas


def _chain_bits(mem: tuple[int, ...], u: int, v: int) -> int:
    """Chain coordinates of e_u + e_v inside the component on mem."""
    p, q = mem.index(u), mem.index(v)
    if p > q:
        p, q = q, p
    return (1 << q) - (1 << p)


def governing_algebra_general(shape: BlockShape) -> GradedLie:
    """Universal graded Lie algebra of a block shape, chain basis.

    Grade 1 is F2^N.  Grade i >= 2 splits over block i-sets A; the
    bracket with e_x embeds a component into the one on A + {block x}
    and kills it when block x already occurs.
    """
    n, N = shape.n, shape.N
    metas = _grade_meta(shape)
    dims = [N] + [metas[i][2] for i in range(2, n + 1)]
    tables = {}
    if n >= 2:
        _, by2, _ = metas[2]
        tab1 = []
        for x in range(N):
            bx = shape.block(x)
            row = []
            for y in range(N):
                by = shape.block(y)
                if bx == by:
                    row.append(0)
                else:
                    mem, off = by2[tuple(sorted((bx, by)))]
                    row.append(_chain_bits(mem, x, y) << off)
            tab1.append(row)
        tables[1] = tab1
    for m in range(2, n):
        entries, _, _ = metas[m]
        _, by_next, _ = metas[m + 1]
        tab = []
        for x in range(N):
            bx = shape.block(x)
            row = []
            for A, mem, _ in entries:
                for t in range(len(mem) - 1):
                    if bx in A:
                        row.append(0)
                    else:
                        mem2, off2 = by_next[tuple(sorted(A + (bx,)))]
                        row.append(_chain_bits(mem2, mem[t], mem[t + 1]) << off2)
            tab.append(row)
        tables[m] = tab
    return GradedLie(shape, dims, tables)


# -- Lie algebras of enumerated groups --

def lie_from_group(G: ExpansionGroup) -> GradedLie:
    """Associated graded algebra of the descending central series.

    Grade 1 is G/[G,G] identified with the phi target via the marked
    generators; grade m >= 2 is the m-th subquotient with brackets
    induced by group commutators against the generators.
    """
    series = descending_central_series(G)
    spans = [list(b) for b in series if b]
    total = G.order.bit_length() - 1
    head = len(spans[0]) if spans else 0
    if total - head != G.shape.N:
        raise ValueError("generators do not span the abelianization")
    layers = spans + [[]]
    dims = [G.shape.N]
    reps = {1: list(G.gen_codes)}
    coord = {}
    for m in range(2, len(spans) + 2):
        nxt = layers[m - 1]
        B = F2Basis(nxt)
        rep_m = [v for v in layers[m - 2] if B.add(v)]
        sol = F2Solver(nxt)
        for v in rep_m:
            sol.add(v)
        lead = len(nxt)

        def cm(code: int, sol=sol, lead=lead) -> int:
            combo = sol.express(code)
            if combo is None:
                raise ValueError("commutator escaped its expected layer")
            return combo >> lead

        coord[m] = cm
        reps[m] = rep_m
        dims.append(len(rep_m))
    nclass = len(dims)
    # [g_x, r] per grade; past grade 1, r is a series vector with zero
    # vector part, so act(r, -) is the identity and [g_x, r] = r ^ act(g_x, r)
    comms = {m: [[G.commutator(gx, r) if m == 1 else r ^ G.act(gx, r) for r in reps[m]]
                 for gx in G.gen_codes] for m in range(1, nclass + 1)}
    tables = {m: [[coord[m + 1](c) for c in row] for row in comms[m]]
              for m in range(1, nclass)}
    if any(any(row) for row in comms[nclass]):
        raise ValueError("series did not terminate at the top grade")
    return GradedLie(G.shape, dims, tables)


# -- axiom verification --

def _images(tab, vecs, n: int) -> list[list[int]]:
    """out[x][j] = the XOR of tab[x][k] over the set bits k of vecs[j].

    With tab a grade-m bracket table this is [e_x, vecs[j]] for each of
    the n generators x, read as GradedLie.bracket_gen reads it: a missing
    table gives zero.  The bits of each vector are walked once for all x.
    """
    if tab is None:
        return [[0] * len(vecs) for _ in range(n)]
    kss = []
    for v in vecs:
        ks = []
        while v:
            b = v & -v
            ks.append(b.bit_length() - 1)
            v ^= b
        kss.append(ks)
    out = []
    for x in range(n):
        row = tab[x]
        o = []
        for ks in kss:
            acc = 0
            for k in ks:
                acc ^= row[k]
            o.append(acc)
        out.append(o)
    return out


def check_lie_axioms(L: GradedLie) -> dict:
    """Verify the defining conditions and the block conditions.

    Everything below reads two tables per grade m.  up[m][x][k] is
    [e_x, b_k] for b_k the k-th basis vector of grade m, and the
    composition table C[m][x][y][k] is [e_x, [e_y, b_k]], both built by
    one bit walk over L.tables (`_images`).

    axiom1: grade 1 is the phi target and the bracket is alternating,
    symmetric, graded, and satisfies Jacobi on basis triples.  Jacobi
    runs over x < y only: it is checked after alternation and symmetry,
    so the x = y term is [[e_x, e_x], c] = 0 and the y > x term is the
    x < y one with its first two summands swapped.  On c = b_k of grade
    m it reads C[m][x][y][k] + C[m][y][x][k] = [[e_x, e_y], b_k].  For
    m >= 2 the right side is 0, a bracket of two grades >= 2, so the
    check is C[m][x][y] == C[m][y][x].  For m = 1 it is the bracket of
    grade 2 with e_k, [e_k, [e_x, e_y]] = C[1][k][x][y].  axiom2: the
    kernel of psi is abelian; it holds by the representation, since
    GradedLie.bracket returns 0 for two grades >= 2 and the kernel of
    psi is the sum of those grades, so it is reported True without a
    loop (tests/oracles.py keeps the loop).  axiom3: brackets against
    grade 1 span every higher grade.

    axiom4: right-nested brackets of grade-1 entries do not see the
    order of the leading entries, and [e_x, [e_x, -]] kills every grade.
    Together these make a nested bracket vanish on a repeated leading
    entry sigma of any grade-1 element: moved to the front,
    [sigma, [sigma, w]] splits into [e_x, [e_x, w]] terms and pairs
    [e_x, [e_y, w]] + [e_y, [e_x, w]] that cancel.  The order condition
    is checked on spans, not tuples.  Let S_1 be the grade-1 basis and
    S_{m+1} a basis of span{[e_x, s] : s in S_m}, which is the span of
    the nested brackets of length m+1.  A swap of the entries in slots
    j, j+1 of a nested bracket of length i, with j <= i-4, compares
    P[e_x, [e_y, w]] with P[e_y, [e_x, w]] for w a nested bracket of
    length i-j-2 >= 2 and P the bracketing by the first j entries.  The
    j = 0 swaps, all lengths up to nclass+1, say exactly that
    [e_x, [e_y, s]] = [e_y, [e_x, s]] for s in S_m, 2 <= m <= nclass-1,
    by linearity in w, and only x < y needs checking; the j > 0 swaps
    follow by applying the linear P to a j = 0 case.  By linearity in s
    the swap is C[m][x][y] + C[m][y][x] applied to each s in S_m, and
    [e_x, [e_x, b_k]] is the diagonal C[m][x][x][k].

    tilde1/tilde2 are the block refinements.  tilde2 asks every nested
    bracket of length 2..nclass+1 that meets a block twice to vanish.
    Let W(S) be the span of the nested brackets whose entries come from
    distinct blocks forming the set S: W({s}) is spanned by the e_y of
    block s and W(S) by the [e_y, w] with block(y) = s in S and w in
    W(S - {s}).  The condition checked is that [e_x, -] kills W(S) when
    block(x) is in S, for |S| <= nclass.  Each such bracket is a nested
    bracket meeting a block twice.  Conversely, a tuple meeting a block
    twice has a shortest suffix doing so; that suffix is x followed by
    entries of distinct blocks forming some S that holds block(x), so
    its bracket vanishes, and the whole bracket, the leading entries
    applied to it, vanishes too.
    """
    shape = L.shape
    N = shape.N
    nclass = L.nclass
    tables = L.tables
    report = {}
    pairs = list(combinations(range(N), 2))
    up = {m: _images(tables.get(m), [1 << k for k in range(L.dims[m - 1])], N)
          for m in range(1, nclass + 1)}
    # one[x][y] = [e_x, e_y], the grade-1 brackets on the generators
    one = up[1] if L.dims[0] == N else _images(tables.get(1), [1 << y for y in range(N)], N)
    C = {m: list(zip(*(_images(tables.get(m + 1), up[m][y], N) for y in range(N))))
         for m in range(1, nclass + 1)}

    ok = (L.dims[0] == N and not any(one[x][x] for x in range(N))
          and all(one[x][y] == one[y][x] for x, y in pairs))
    if ok:
        C1 = C[1]
        ok = all(C1[x][y][k] ^ C1[y][x][k] == C1[k][x][y]
                 for x, y in pairs for k in range(N))
        ok = ok and all(C[m][x][y] == C[m][y][x]
                        for m in range(2, nclass + 1) for x, y in pairs)
    report["axiom1"] = ok
    report["axiom2"] = True

    report["axiom3"] = all(
        rank(e for row in tables.get(m - 1, ()) for e in row) == L.dims[m - 1]
        for m in range(2, nclass + 1))

    ok = not any(any(C[m][x][x]) for m in range(1, nclass + 1) for x in range(N))
    # the nonzero rows C[m][x][y] + C[m][y][x]; S_m is needed only up to
    # the last grade that has one, since a zero row passes on any span
    swaps = {m: [row for row in ([a ^ b for a, b in zip(C[m][x][y], C[m][y][x])]
                                 for x, y in pairs) if any(row)]
             for m in range(2, nclass)}
    span = [1 << x for x in range(N)]  # S_m, starting at m = 1
    for m in range(2, max((m for m, rows in swaps.items() if rows), default=1) + 1):
        span = F2Basis(v for row in _images(tables.get(m - 1), span, N) for v in row).basis()
        if any(any(row) for row in _images(swaps[m], span, len(swaps[m]))):
            ok = False
    report["axiom4"] = ok

    kb = shape.ker_pi_basis()
    ok = not any(one[g][u] ^ one[g][v] ^ one[r][u] ^ one[r][v]
                 for g, r in kb for u, v in kb)
    ok = ok and not any(a ^ b for g, r in kb for m in range(2, nclass + 1)
                        for a, b in zip(up[m][g], up[m][r]))
    report["tilde1"] = ok

    ok = True
    # W[S] for block sets S (bitmasks) of the current size, as a basis
    W = {1 << s: [1 << y for y in shape.members(s)] for s in range(shape.n)}
    top = min(shape.n, nclass)
    for size in range(1, top + 1):
        grown: dict[int, F2Basis] = {}
        for S, ws in W.items():
            imgs = _images(tables.get(size), ws, N)
            for s in range(shape.n):
                if S >> s & 1:
                    if any(any(imgs[x]) for x in shape.members(s)):
                        ok = False
                elif size < top:
                    B = grown.setdefault(S | 1 << s, F2Basis())
                    for y in shape.members(s):
                        for v in imgs[y]:
                            B.add(v)
        W = {S: B.basis() for S, B in grown.items()}
    report["tilde2"] = ok
    return report


# -- comparison maps --

def lie_epimorphism(universal: GradedLie, target: GradedLie) -> dict[int, list[int]]:
    """Graded map fixed on grade 1 and extended along the bracket tables.

    Returns, per grade, the image mask of each source basis vector.
    Grade m+1 of the source must be spanned by its table entries
    [e_x, b_k], b_k in grade m's basis, so the images are unique, and
    f([e_x, b_k]) = [e_x, f(b_k)] must hold for every generator x and
    basis vector b_k.  By linearity and induction on length that gives
    f(nested_src(xs)) = nested_tgt(xs) for every tuple xs of generators,
    which tests/oracles.lie_epimorphism_tuples checks by walking them;
    both accept the same pairs and return the same images.  A failure of
    spanning, surjectivity or compatibility means the source was not
    universal for the shape, and raises a classification violation.

    Each grade is one elimination, pivoting on the lowest bit, of the
    rows entry | image << w over the entries [e_x, b_k], x-major, and
    the target brackets [e_x, f(b_k)] read by one `_images` walk; w is
    at least every entry's width, so an entry past the grade is
    eliminated whole.  A stored row's target part is the image of the
    entries it combines, so back-substitution leaves pivot j as
    e_j | f(e_j) << w when e_j is spanned, and f maps each stored entry
    to its own bracket.  A row whose entry part reduces to 0 while its
    target part does not is a dependency the images break: the first
    such row is where the brackets disagree, and it is not stored.  The
    checks run in order: spanning per grade, surjectivity, then per
    entry an entry past the next grade or the first disagreeing row.
    """
    if universal.shape != target.shape:
        raise ValueError("shape mismatch")
    N = universal.shape.N
    nclass = universal.nclass
    if nclass < target.nclass:
        raise RuntimeError("classification violation: target outlives the source")
    out = {1: [1 << x for x in range(N)]}
    checks = []  # per grade: its entries, the next grade's dim, the first bad row
    for m in range(1, nclass + 1):
        tab, d = universal.tables.get(m), universal.dims[m - 1]
        nxt = universal.dims[m] if m < nclass else 0
        entries = [tab[x][k] if tab is not None else 0 for x in range(N) for k in range(d)]
        images = [v for row in _images(target.tables.get(m), out[m], N) for v in row]
        w = max(entries, default=0).bit_length()
        src, rows, mask, bad = (1 << w) - 1, {}, 0, None
        for i, e in enumerate(entries):
            v = e | images[i] << w
            while hit := v & mask:
                v ^= rows[low_bit(hit)]
            if v & src:
                rows[p := low_bit(v)] = v
                mask |= 1 << p
            elif v and bad is None:
                bad = i
        checks.append((entries, nxt, bad))
        if m == nclass:
            break
        for p in sorted(rows, reverse=True):
            for q in bits_of(rows[p] & mask & ~((2 << p) - 1)):
                rows[p] ^= rows[q]
        if any(rows.get(j, 0) & src != 1 << j for j in range(nxt)):
            raise RuntimeError("classification violation: grade not spanned")
        out[m + 1] = [rows[j] >> w for j in range(nxt)]
    for m in range(1, target.nclass + 1):
        if rank(out.get(m, [])) != target.dims[m - 1]:
            raise RuntimeError("classification violation: not surjective")
    for entries, nxt, bad in checks:
        for i, e in enumerate(entries):
            if e >> nxt:
                raise RuntimeError("classification violation: bracket leaves the grades")
            if i == bad:
                raise RuntimeError("classification violation: brackets disagree")
    return out
