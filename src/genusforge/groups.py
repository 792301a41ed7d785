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

import math
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .f2 import F2Basis
from .tensors import BlockShape

__all__ = [
    "ENUM_CEILING",
    "TABLE_CEILING",
    "ResourceLimitError",
    "ExpansionGroup",
    "universal_order_exponent",
    "build_universal_general",
    "check_generator_axioms",
    "check_expansion_axioms",
    "descending_central_series",
    "grade_dims",
    "augmentation_power_span",
]

ENUM_CEILING = 1 << 22
# product and value tables stop here, where the int32 product table takes 256 MiB
TABLE_CEILING = 1 << 13
# element codes live in uint64 arrays, with the top bit left spare
CODE_WIDTH_LIMIT = 63


def _work_dtype(width: int) -> np.dtype:
    """The dtype codes of this width are worked on in: uint32 if they fit, else uint64."""
    import numpy as np
    return np.dtype(np.uint32 if width <= 32 else np.uint64)


def _power_text(v: int) -> str:
    return f"2^{v.bit_length() - 1}" if v > 0 and v & (v - 1) == 0 else str(v)


class ResourceLimitError(RuntimeError):
    """A computation was refused because it would pass a size ceiling.

    ceiling and limit name the ceiling that tripped: the element ceiling
    of enumeration by default, TABLE_CEILING for product and value tables.
    width is set instead when element codes are too wide to store, and
    pairs when a check over every pair of a set of that many elements
    would take more products than the element ceiling.
    """

    def __init__(self, predicted_order: int | None = None,
                 ceiling: int | None = None, limit: str = "enumeration ceiling",
                 width: int | None = None, pairs: int | None = None):
        self.predicted_order = predicted_order
        self.width = width
        if ceiling is None:
            ceiling = ENUM_CEILING
        if width is not None:
            msg = (f"element codes {width} bits wide exceed the code-width "
                   f"limit of {CODE_WIDTH_LIMIT} bits")
        elif pairs is not None:
            msg = (f"pair check of {pairs} x {pairs} products exceeds the "
                   f"{limit} of {ceiling}")
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


def _act_plan(comps: tuple[_Comp, ...]) -> tuple[tuple[int, int, int, int, int], ...]:
    """(2^m + j, P_m, 2^(2^m) - 1, C_(m,j), 2^j) for each factor size m
    present and each j < m: P_m holds the t_empty bits of the factors of
    size m, C_(m,j) their _clear_masks(m)[j] fields."""
    plan = []
    for m in sorted({c.m for c in comps}):
        same = [c.poly_off for c in comps if c.m == m]
        P = sum(1 << off for off in same)
        for j, mask in enumerate(_clear_masks(m)):
            C = sum(mask << off for off in same)
            plan.append(((1 << m) + j, P, (1 << (1 << m)) - 1, C, 1 << j))
    return tuple(plan)


class ExpansionGroup:
    """Group generated by packed integer codes inside a product of factors.

    Codes concatenate per-factor fields [poly | vec]. In a factor of size
    m, (a1, v1)(a2, v2) = (a1 + x^v1 a2, v1 + v2), where x^v multiplies by
    x_j = 1 + t_j for each j in v: t_B goes to t_B + t_(B|{j}) for each B
    that omits j.  act applies every factor's vector part to a polynomial
    code at once, by a plan built here with one entry per factor size m
    present and each j < m (_act_plan): the vector bit j of every factor
    of size m sits 2^m + j above its t_empty bit, so shifting the code
    down by 2^m + j and masking with P_m, the t_empty bits of those
    factors, leaves one bit per factor at its t_empty position.
    Multiplying by 2^(2^m) - 1, the sum of 2^k for k < 2^m, copies that
    bit onto the 2^m bits of the factor's own polynomial field.  Factor
    fields are disjoint, so the copies of different factors neither
    overlap nor carry, and the product is their OR.  Masking with
    C_(m,j) keeps the slots t_B with j not in B, and the shift by 2^j
    moves t_B to t_(B|{j}), where B|{j} = B + 2^j < 2^m: the result
    stays inside the field it came from.  Each entry is a few big-int
    steps over every factor of that size; entries of different sizes
    touch disjoint fields, and those of one size apply x_0, x_1, ... in
    turn.  mul, inv, conj and commutator are closed forms in act.

    The group is its presentation: generators and the product on codes.
    The order, the axiom report and the central series come from
    generator arithmetic (check_generator_axioms) on Python ints, with no
    size limit. codes, the sorted uint64 array of every element, is
    enumerated on its first read, by a value table, mul_table or the
    enumerated check_expansion_axioms; that read checks the element
    ceiling and the code-width limit first, since the array is all they
    protect.  The enumeration (_close) lists the cosets of a normal
    XOR span W, built from mul and inv alone, in cyclic blocks of the
    abelian quotient H/W, one array step per block, and lays W over each
    coset with one XOR broadcast: for a universal group W = [G,G] and
    the closure lists 2^N cosets in N blocks, not the 2^(N + dim[G,G])
    elements.
    mul_table is built once and kept on the group, below
    TABLE_CEILING.  numpy is imported only inside the functions that
    build or read the array.  phi reads one code bit per coordinate of
    [N], and phi_mask is the OR of those bits.
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
        self.poly_field_mask = ((1 << self.width) - 1) ^ self.vec_field_mask
        self.phi_mask = 0
        for pos in self.phi_bits:
            self.phi_mask |= 1 << pos
        self._plan = _act_plan(comps)
        self._codes: np.ndarray | None = None
        self._order: int | None = None
        self._derived: F2Basis | None = None
        self._report: dict | None = None
        self._series: list[list[int]] | None = None
        self._mul: np.ndarray | None = None
        self.closure_stats: dict | None = None

    @property
    def codes(self) -> np.ndarray:
        """Every element as a sorted uint64 array, enumerated on first read
        unless the predicted order passes the element ceiling or the codes
        are too wide for uint64."""
        if self._codes is None:
            if self.expected_order is not None and self.expected_order > ENUM_CEILING:
                raise ResourceLimitError(self.expected_order)
            if self.width > CODE_WIDTH_LIMIT:
                raise ResourceLimitError(width=self.width)
            self._codes = self._close(self.gen_codes)
        return self._codes

    # -- scalar element arithmetic on codes --

    def act(self, a: int, p: int) -> int:
        """x^v p in every factor at once, v the factor's vector part of a
        and p a pure-polynomial code (see the class docstring)."""
        for shift, P, spread, C, up in self._plan:
            v = (a >> shift) & P
            if v:
                p ^= (p & C & (v * spread)) << up
        return p

    def mul(self, a: int, b: int) -> int:
        return ((a & self.poly_field_mask) ^ self.act(a, b & self.poly_field_mask)
                ^ ((a ^ b) & self.vec_field_mask))

    def inv(self, a: int) -> int:
        """(a1, v)^-1 = (x^v a1, v), since x^v x^v = 1."""
        return self.act(a, a & self.poly_field_mask) | (a & self.vec_field_mask)

    def conj(self, g: int, w: int) -> int:
        """g w g^-1; for pure-polynomial w this is g's vector part acting
        on w: (a, v)(b, 0)(x^v a, v) = (x^v b, 0)."""
        if w & self.vec_field_mask:
            return self.mul(self.mul(g, w), self.inv(g))
        return self.act(g, w)

    def commutator(self, a: int, b: int) -> int:
        """a b a^-1 b^-1 = (1 + x^vb) a1 + (1 + x^va) b1, with zero vector
        part, for a = (a1, va) and b = (b1, vb) in every factor:
        a b = (a1 + x^va b1, va + vb), a^-1 b^-1 = (x^va a1 + x^(va+vb) b1, va + vb),
        and x^(va+vb) x^va = x^vb, x^(va+vb) x^(va+vb) = 1 give
        (a b)(a^-1 b^-1) = (a1 + x^va b1 + x^vb a1 + b1, 0)."""
        a1, b1 = a & self.poly_field_mask, b & self.poly_field_mask
        return a1 ^ b1 ^ self.act(b, a1) ^ self.act(a, b1)

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
        """2^(N + dim[G,G]) when check_generator_axioms passes, else the
        number of enumerated codes."""
        if self._order is None:
            if all(check_generator_axioms(self).values()):
                self._order = 1 << (len(self.gen_codes) + len(_commutator_span(self)))
            else:
                self._order = len(self.codes)
        return self._order

    def with_generators(self, gens: Iterable[int]) -> "ExpansionGroup":
        """Same layout and phi, different generating set."""
        return ExpansionGroup(self.shape, self.comps, gens, self.phi_bits)

    # -- vectorized code arithmetic --

    def _gen_table(self, gc: int, dtype: np.dtype, reduce=lambda u: u):
        """Right multiplication by gc on codes of the given dtype, each value
        passed through reduce: a constant XOR plus, per factor that gc
        moves, one lookup keyed by the factor's vector field."""
        import numpy as np
        const = 0
        parts = []
        for c in self.comps:
            a2 = (gc >> c.poly_off) & c.poly_mask
            v2 = (gc >> c.vec_off) & c.vec_mask
            const |= v2 << c.vec_off
            if a2:
                tab = np.fromiter((reduce(self.act(v << c.vec_off, a2 << c.poly_off))
                                   for v in range(1 << c.m)),
                                  dtype=dtype, count=1 << c.m)
                parts.append((dtype.type(c.vec_off), dtype.type(c.vec_mask), tab))
        return dtype.type(reduce(const)), parts

    @staticmethod
    def _step(codes: np.ndarray, table) -> np.ndarray:
        const, parts = table
        out = codes ^ const
        for off, mask, tab in parts:
            out ^= tab[(codes >> off) & mask]
        return out

    def right_mul_array(self, codes: np.ndarray, gc: int) -> np.ndarray:
        return self._step(codes, self._gen_table(gc, codes.dtype))

    def mul_table(self) -> np.ndarray:
        """M[p, q], the position of codes[p] * codes[q], as int32, built on
        the first call and kept on the group.

        An order past TABLE_CEILING is refused before the table is
        allocated, and before the codes are enumerated whenever the order
        comes from the presentation.  Column q is right multiplication by
        codes[q], located by searchsorted in the sorted codes.
        """
        if self._mul is None:
            import numpy as np
            if self.order > TABLE_CEILING:
                raise ResourceLimitError(self.order, TABLE_CEILING, "table ceiling")
            codes = self.codes
            M = np.empty((len(codes), len(codes)), dtype=np.int32)
            for q, c in enumerate(codes.tolist()):
                M[:, q] = np.searchsorted(codes, self.right_mul_array(codes, c))
            self._mul = M
        return self._mul

    # -- closure --

    def _close(self, gen_codes: list[int]) -> np.ndarray:
        """The subgroup H generated by gen_codes, as a sorted uint64 array:
        cyclic blocks of coset representatives of a normal subgroup W,
        then one XOR broadcast and one sort.

        W is the span of the commutators a b a^-1 b^-1 of the generators,
        closed under w -> w ^ g w g^-1 for every generator g, by mul and
        inv, each generator inverted once.  The proof reads only those
        and the vector-part rule (the vector part of a product is the sum
        of the vector parts), no expansion axiom, so the enumerated
        check_expansion_axioms stays independent of
        check_generator_axioms.  Let Q be the codes with zero vector
        part.  W ⊆ Q, because vector parts add.  A zero vector part acts
        as the identity, so left multiplication by w in Q is XOR: Q is
        elementary abelian, W is a subgroup, and conjugation by g, a
        homomorphism, is linear on Q.  W ⊆ H, being made of products of
        generators.  Conjugation by a generator maps W into W and is
        injective on a finite set, so g W g^-1 = W, and the generators
        generate H: W is normal in H.  Every commutator of two
        generators lies in W, so their images commute and H/W is
        abelian, H/W = <g_1 W> ... <g_k W>.  The coset W h is h ^ W.

        A coset is held by red(h) = W.reduce(h), its member with 0 at
        every pivot of W, unique since a nonzero vector of W has its
        lowest bit at a pivot; red is linear with kernel W.  Right multiplication by
        g is u -> u ^ const ^ sum of tab[field(u)] (_gen_table), so for
        u = red(u), red(u g) = u ^ red(const) ^ sum of red(tab[field(u)]):
        with each generator's table reduced once, a step maps
        representatives to representatives.

        reps lists a subgroup R of H/W, W first.  For a generator g, the
        cosets of R in R<g W> are R g^i for i below the order d of gW
        modulo R, pairwise disjoint, so the blocks R g, R g^2, ... are
        appended, each one step from the last, while red(g^i), the
        block's first entry, is not in R, which first fails at i = d;
        red(g^i) = red(red(g^(i-1)) g), as red(u) g lies in u g W.  Then
        reps lists H/W, each coset once, and H is reps ^ span, span being
        W doubled out, sorted once.  Codes are worked on in _work_dtype.
        The element ceiling is checked against reps x 2^dim W before
        every block is stepped.  closure_stats records the cosets, the
        blocks (N for a universal group, each generator doubling R) and
        dim W.
        """
        import numpy as np
        mul, inv = self.mul, {g: self.inv(g) for g in gen_codes}
        W = _normal_span(list(inv), lambda a, b: mul(mul(a, b), mul(inv[a], inv[b])),
                         lambda g, w: mul(mul(g, w), inv[g]))
        dtype = _work_dtype(self.width)
        reps, steps = np.zeros(1, dtype=dtype), 0
        for g in inv:
            table = self._gen_table(g, dtype, W.reduce)
            blocks, head = [reps], W.reduce(g)
            while not (reps == head).any():
                if (len(reps) * (len(blocks) + 1)) << len(W) > ENUM_CEILING:
                    raise ResourceLimitError(self.expected_order)
                blocks.append(self._step(blocks[-1], table))
                steps += 1
                head = W.reduce(mul(head, g))
            reps = np.concatenate(blocks)
        span = np.zeros(1, dtype=dtype)
        for b in W.basis():
            span = np.concatenate([span, span ^ dtype.type(b)])
        codes = (reps[:, None] ^ span[None, :]).ravel()
        codes.sort()
        self.closure_stats = {"cosets": len(reps), "coset_steps": steps,
                              "span_dim": len(W)}
        return codes.astype(np.uint64, copy=False)

    def __repr__(self) -> str:
        return (f"ExpansionGroup(shape={list(self.shape.k)}, "
                f"order=2^{self.order.bit_length() - 1})")


# -- constructors --

def universal_order_exponent(shape: BlockShape) -> int:
    n = shape.n
    return shape.N * 2 ** (n - 1) - 2 ** n + n + 1


def build_universal(n: int) -> ExpansionGroup:
    """Universal group on n marked involutions: the all-ones block shape.

    No package module calls it; it stays only because bench/spans.py
    looks it up by name to trace it."""
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


# -- axiom verification --

def _member(codes: np.ndarray, code: int) -> bool:
    """Whether code occurs in the sorted array codes."""
    import numpy as np
    i = int(np.searchsorted(codes, np.uint64(code)))
    return i < len(codes) and int(codes[i]) == code


def _xor_closed_sorted(codes: np.ndarray) -> bool:
    """Is a sorted array of distinct codes closed under XOR?

    A closed set is a subspace V of some dimension r, so it has 2^r
    codes, 0 among them.  Take V's reduced echelon basis b_1 < ... < b_r
    by highest bit h_1 < ... < h_r, each h_k set in b_k alone.  The XOR
    v_S of the b_k with k in S has bit h_k exactly when k is in S, and
    v_S ^ v_S' = v_(S^S') has its highest bit at h_max(S^S'), so v_S < v_S'
    exactly when max(S^S') lies in S'.  Sorted V therefore lists v_S at
    position sum over k in S of 2^(k-1): codes[2^t] is b_(t+1), and the
    span of codes[1], codes[2], ..., codes[2^(r-1)] is all of codes.
    Doubling span = [span, span ^ codes[2^t]] for t = 0, ..., r-1 puts
    the XOR of the candidates indexed by S at that same position, so a
    closed set equals span entry by entry, with no sort.  Conversely
    span lists the XOR of every subset of the candidates, so if it
    equals codes then codes is a span, hence closed.
    """
    import numpy as np
    size = int(codes.size)
    if size & (size - 1):
        return False
    if int(codes[0]) != 0:
        return False
    r = size.bit_length() - 1
    span = codes[:1]
    for t in range(r):
        span = np.concatenate([span, span ^ codes[1 << t]])
    return bool(np.array_equal(span, codes))


def _is_elementary_abelian(G: ExpansionGroup, codes: np.ndarray) -> bool:
    """Exact check that a sorted array of codes is an elementary abelian
    subgroup."""
    import numpy as np
    if not np.any(codes & np.uint64(G.vec_field_mask)):
        return _xor_closed_sorted(codes)
    items = [int(c) for c in codes]
    if len(items) ** 2 > ENUM_CEILING:
        raise ResourceLimitError(pairs=len(items))
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
    """Codes with phi = 0 and codes with pi(phi) = 0, both sorted.

    phi(u) = 0 exactly when u & phi_mask = 0.  Entry s of pi(phi(u)) is
    the parity of u & M_s, M_s the XOR of the phi bits of block s's
    coordinates (a bit read twice cancels, as it does in the sum).  The
    low bit of an OR of popcounts is the OR of their low bits, so one OR
    over the n popcounts and one final parity test suffice.  Each M_s
    lies inside phi_mask, so the phi = 0 codes are found among the
    pi(phi) = 0 ones."""
    import numpy as np
    codes = G.codes
    odd = np.zeros(codes.size, dtype=np.uint8)
    for s in range(G.shape.n):
        block = 0
        for x in G.shape.members(s):
            block ^= 1 << G.phi_bits[x]
        odd |= np.bitwise_count(codes & np.uint64(block))
    tilde = codes[(odd & 1) == 0]
    return tilde[(tilde & np.uint64(G.phi_mask)) == 0], tilde


def _commutator_span(G: ExpansionGroup) -> F2Basis:
    """Basis of [G,G] as an F2-span of codes, saturated under conjugation,
    built once per group; callers read it and never add to it.

    Commutators have zero vector part, and the pure-polynomial codes form
    an elementary abelian subgroup whose product is XOR, so the span of
    the generator commutators, closed under w -> w + g w g^-1 = [w, g],
    is the normal closure of those commutators: [G,G]."""
    if G._derived is None:
        G._derived = _normal_span(G.gen_codes, G.commutator, G.conj)
    return G._derived


def _normal_span(gens: list[int], commutator, conj) -> F2Basis:
    """The span of commutator(a, b) over pairs of gens, closed under
    w -> w + conj(g, w) for every g in gens."""
    B = F2Basis()
    queue = [w for a, b in combinations(gens, 2) if B.add(w := commutator(a, b))]
    while queue:
        w = queue.pop()
        for g in gens:
            u = w ^ conj(g, w)
            if B.add(u):
                queue.append(u)
    return B


def check_generator_axioms(G: ExpansionGroup) -> dict[str, bool]:
    """The expansion axioms from the generators alone, without enumerating.

    Write P for the ambient product of the factors, Q for its codes with
    zero vector part, N = len(G.gen_codes) and W for _commutator_span(G).
    The report is all True exactly when these hold:

    (a) every phi bit is the t_empty bit of a factor (axiom1);
    (b) N = shape.N and phi(g_x) = e_x for every x (axiom1);
    (c) g_x^2 = 1 for every x (axiom4);
    (d) every vector of W has zero vector part (axiom2, axiom3);
    (e) g_first(s) g_b has zero vector part for every block s and every
        b in s (tilde_condition).

    Proof that (a)-(e) give axioms 1-4 and the tilde condition.  In a
    factor, (a1, v1)(a2, v2) = (a1 + v1.a2, v1 + v2), and e_j sends t_B
    to t_B + t_(B+j), which never reaches t_empty; so the t_empty bit of
    a product is the sum of the t_empty bits, and by (a) phi is a
    homomorphism on all of P.  With (b) this is axiom 1, and phi maps G
    onto F2^N.  Q is closed under the product, which is XOR there, so Q
    is elementary abelian.  By (d) W lies in Q, so W is a subgroup;
    each vector added to W is a commutator of G ([gi, gj], or [w, g] =
    w + g w g^-1 for w in W), so W lies in [G,G]; conjugation is
    additive on Q, so W is closed under conjugation by every generator,
    hence normal.  Modulo W the
    generators commute and, by (c), square to 1, so G/W is elementary
    abelian of order at most 2^N: [G,G] lies in W, and W = [G,G].  phi
    kills [G,G] and G/[G,G] has at most 2^N elements, all mapped onto
    F2^N, so ker phi = [G,G] = W: elementary abelian (axiom 2), equal to
    [G,G] (axiom 3), and |G| = 2^(N + dim W).  (c) is axiom 4.  The
    tilde set is phi^-1 of the sums of e_a + e_b over same-block pairs,
    so it is generated by W and the products h_(s,b) = g_first(s) g_b;
    by (e) these lie in Q, so the tilde set is a subgroup of Q, hence
    elementary abelian.

    (d) holds for every product the factor rule computes, since vector
    parts add; it is checked because the rest of the proof reads W as a
    subgroup of Q.  The conditions are sufficient, not necessary: a
    False entry names the condition that failed, and the enumerated
    check_expansion_axioms then decides the axioms.
    """
    gens, shape, vec = G.gen_codes, G.shape, G.vec_field_mask
    t_empty = {c.poly_off for c in G.comps}
    marked = len(gens) == shape.N and all(
        G.phi(g) == 1 << x for x, g in enumerate(gens))
    tilde = marked and not any(G.mul(gens[shape.first(shape.block(x))], g) & vec
                               for x, g in enumerate(gens))
    derived = not any(w & vec for w in _commutator_span(G).basis())
    return {
        "axiom1": marked and all(pos in t_empty for pos in G.phi_bits),
        "axiom2": derived,
        "axiom3": derived,
        "axiom4": all(G.mul(g, g) == G.identity for g in gens),
        "tilde_condition": tilde,
    }


def check_expansion_axioms(G: ExpansionGroup) -> dict[str, bool]:
    """Verify the defining conditions and the block condition on an
    enumerated group; failures come back as report fields, not errors.

    Axiom 1 asks phi(u g) = phi(u) + phi(g) for every code u and every
    generator g, read on every phi bit at once, and it is read on the
    distinct vector parts of the codes, not on the codes.  Right
    multiplication by g is u -> u ^ const ^ sum of tab[(u >> off) & mask]
    (_gen_table), where each (off, mask) reads one factor's vector field,
    so (u g) ^ u depends on u & vec_field_mask alone, and the vector part
    v of u, taken as a code, has (v g) ^ v = (u g) ^ u.  The test
    therefore holds on every code exactly when it holds on every distinct
    vector part: one AND, one sort and an adjacent-difference mask, then
    one right_mul_array per generator on that short array.

    The group keeps the report, which descending_central_series reads
    instead of checking again."""
    import numpy as np
    report = {}
    report["axiom1"] = all(G.phi(g) == 1 << x for x, g in enumerate(G.gen_codes))
    if report["axiom1"]:
        dtype = _work_dtype(G.width)
        vecs = G.codes.astype(dtype) & dtype.type(G.vec_field_mask)
        vecs.sort()
        vecs = vecs[np.concatenate(([True], vecs[1:] != vecs[:-1]))]
        M = dtype.type(G.phi_mask)
        report["axiom1"] = all(
            bool(np.all(((G.right_mul_array(vecs, g) ^ vecs) & M)
                        == dtype.type(g & G.phi_mask)))
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

def _series_through(G: ExpansionGroup, t: float) -> list[list[int]]:
    """Bases of the series terms 0, ..., t, or up to the first trivial
    term; G._series keeps them, and only the missing terms are built.

    Term 0 is [G,G], and term t+1 is spanned by w ^ conj(g, w) over a
    basis w of term t and the generators g, with no closing pass.  Every
    term lies in Q, the codes with zero vector part, where the product is
    XOR and conj(g, w) = act(g, w) reads g's vector part alone; vector
    parts add, so the operators 1 + g commute on Q.  For V normal in Q,
    h (1 + g) V = (1 + g)(h V) = (1 + g) V, so sum_g (1 + g) V is normal.
    [V, G] is spanned by [v, g] = (1 + g) v over every g in G, and
    1 + g h = (1 + g) + (1 + h) + (1 + g)(1 + h) with (1 + h) V in V, so
    the generators span it.  [G,G] is normal, hence so is every term.

    The axioms are read from the stored report, else from
    check_generator_axioms; if that is not all True, the enumerated
    check_expansion_axioms decides."""
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
    if G._series is None:
        G._series = [_commutator_span(G).basis()]
    series = G._series
    while series[-1] and len(series) <= t:
        if len(series) > 64:
            raise RuntimeError("series failed to terminate")
        nxt = F2Basis()
        for w in series[-1]:
            for g in G.gen_codes:
                nxt.add(w ^ G.conj(g, w))
        series.append(nxt.basis())
    return series


def descending_central_series(G: ExpansionGroup) -> list[list[int]]:
    """Bases of [G,G], [G,[G,G]], ... down to the first trivial term, each
    an XOR basis of codes in ker(phi) (see _series_through)."""
    return [list(b) for b in _series_through(G, math.inf)]


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


def augmentation_power_span(G: ExpansionGroup, i: int) -> list[int]:
    """Basis of I^(i-2) * [G,G], the augmentation-ideal power applied to the
    commutator subgroup: series term i-2, which is sum_g (1 + g) applied
    i-2 times (_series_through), built no deeper and empty past the class."""
    if i < 2:
        raise ValueError("power index starts at 2")
    series = _series_through(G, i - 2)
    return list(series[i - 2]) if i - 2 < len(series) else []
