"""Acceptable vectors, quadratic-residue consistency, maximality bounds.

An acceptable vector lists pairwise coprime squarefree integers whose
prime factors are all 1 mod 4.  Strong consistency asks every prime of
one entry to be a square modulo every prime of any other entry; with
the congruence restriction this relation is symmetric, and for two
entries it decides maximality of the attached expansion.
"""

from __future__ import annotations

from math import comb, gcd, isqrt

__all__ = [
    "FactorBudgetError",
    "validate_acceptable",
    "is_strongly_consistent",
    "maximality_bound",
    "decide_maximal_n2",
    "search_consistent",
]

FACTOR_BUDGET = 10 ** 6


class FactorBudgetError(RuntimeError):
    """An entry resisted trial factoring within the divisor budget."""


class AcceptableVector:
    """Validated vector with its per-entry prime factorizations."""

    __slots__ = ("a", "factorizations")

    def __init__(self, a, factorizations):
        self.a = tuple(a)
        self.factorizations = tuple(tuple(f) for f in factorizations)

    @property
    def omega(self) -> tuple[int, ...]:
        return tuple(len(f) for f in self.factorizations)

    def primes(self) -> list[int]:
        return [p for f in self.factorizations for p in f]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AcceptableVector) and self.a == other.a

    def __hash__(self) -> int:
        return hash(self.a)

    def __repr__(self) -> str:
        return f"AcceptableVector({list(self.a)})"


def jacobi(a: int, m: int) -> int:
    """Jacobi symbol by binary reciprocity; Legendre for prime modulus."""
    if m < 1 or m % 2 == 0:
        raise ValueError("modulus must be odd and positive")
    a %= m
    out = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                out = -out
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            out = -out
        a %= m
    return out if m == 1 else 0


def _trial_factor(e: int, budget: int) -> list[int]:
    """Distinct prime factors, or a loud failure past the budget."""
    out = []
    rem = e
    d = 2
    while d <= budget and d * d <= rem:
        if rem % d == 0:
            out.append(d)
            rem //= d
            if rem % d == 0:
                raise ValueError(f"entry {e}: not squarefree, {d}^2 divides it")
            d += 1
        else:
            d += 1 if d == 2 else 2
    if rem > 1:
        if rem > budget * budget:
            raise FactorBudgetError(
                f"entry {e}: cofactor {rem} exceeds the trial budget {budget}")
        out.append(rem)
    return out


def validate_acceptable(a, budget: int = FACTOR_BUDGET) -> AcceptableVector:
    """Factor every entry and enforce the acceptability rules."""
    a = [int(e) for e in a]
    facts = []
    for i, e in enumerate(a):
        if e < 2:
            raise ValueError(f"entry {i} ({e}): must be at least 2")
        primes = _trial_factor(e, budget)
        for p in primes:
            if p % 4 != 1:
                raise ValueError(
                    f"entry {i} ({e}): prime factor {p} is not 1 mod 4")
        facts.append(primes)
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            g = gcd(a[i], a[j])
            if g != 1:
                raise ValueError(
                    f"entries {i} and {j} share the factor {g}")
    return AcceptableVector(a, facts)


def is_strongly_consistent(v: AcceptableVector) -> bool:
    """Every cross-entry prime pair must be mutually square."""
    n = len(v.a)
    for i in range(n):
        for j in range(i + 1, n):
            for p in v.factorizations[i]:
                for q in v.factorizations[j]:
                    if jacobi(p, q) != 1:
                        return False
    return True


def maximality_bound(n: int, omega) -> tuple[int, list[int]]:
    """Upper bound for the rank together with its per-grade split.

    omega is the number of primes of each of the n entries, or their
    total; every entry has at least one prime."""
    if n < 1:
        raise ValueError("need at least one block")
    if isinstance(omega, int):
        if omega < n:
            raise ValueError(f"omega {omega} is below n = {n}: each of the "
                             "n entries has at least one prime")
    elif any(w < 1 for w in omega):
        raise ValueError(f"omega {list(omega)} has an entry below 1: each "
                         "entry has at least one prime")
    w = omega if isinstance(omega, int) else sum(omega)
    total = w * 2 ** (n - 1) - 2 ** n + 1
    grades = [w * comb(n - 1, j - 1) - comb(n, j) for j in range(1, n + 1)]
    return total, grades


def decide_maximal_n2(v: AcceptableVector) -> bool:
    """Maximality verdict; proven only for at most two entries."""
    n = len(v.a)
    if n <= 1:
        return True
    if n == 2:
        return is_strongly_consistent(v)
    raise ValueError("undecidable at this scope")


def _primes_1mod4(limit: int) -> list[int]:
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for d in range(2, isqrt(limit) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytearray(len(sieve[d * d::d]))
    return [p for p in range(5, limit + 1) if sieve[p] and p % 4 == 1]


def search_consistent(k, prime_budget: int):
    """First strongly consistent vector with the given omega profile.

    Slots are filled entry by entry with ascending primes 1 mod 4 below
    the budget, each within-entry list itself ascending, backtracking
    on quadratic-residue conflicts against earlier entries.  Returns
    None once the pool is exhausted.

    Candidates are bitmasks over the pool: the residue row of a chosen
    prime q has bit pi set when q is a square modulo pool[pi], and a slot
    may take any prime that every earlier entry's rows allow.  Rows are
    built the first time their prime is chosen.
    """
    k = tuple(int(v) for v in k)
    if not k or any(v < 1 for v in k):
        raise ValueError("omega targets must be positive")
    pool = _primes_1mod4(prime_budget)
    # the place of each slot within its entry
    slots = [s for v in k for s in range(v)]
    rows: dict[int, int] = {}
    chosen: list[int] = []

    def row(qi: int) -> int:
        r = rows.get(qi)
        if r is None:
            q = pool[qi]
            r = 0
            for pi, p in enumerate(pool):
                if jacobi(q, p) == 1:
                    r |= 1 << pi
            rows[qi] = r
        return r

    def extend(t: int, prior: int, cross: int, used: int) -> bool:
        # prior: allowed by the entries before this slot's entry;
        # cross: prior narrowed by this entry's primes chosen so far
        if t == len(slots):
            return True
        if slots[t]:
            allowed = prior & ~used & -(2 << chosen[-1])
        else:
            prior = cross
            allowed = prior & ~used
        while allowed:
            b = allowed & -allowed
            allowed ^= b
            pi = b.bit_length() - 1
            chosen.append(pi)
            if extend(t + 1, prior, cross & row(pi), used | b):
                return True
            chosen.pop()
        return False

    if not extend(0, 0, (1 << len(pool)) - 1, 0):
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
