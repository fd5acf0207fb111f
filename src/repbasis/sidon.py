"""Sidon sets in [1, n]: greedy and algebraic constructions.

A Sidon set has all pairwise sums a + b (a <= b) distinct.  The density
machinery needs, for a given ambient bound n, a Sidon subset D of [1, n]
with 4*|D|**2 > n, i.e. |D| > sqrt(n)/2, and takes the larger of the
first-fit (Mian-Chowla) set and the Erdos-Turan set.  The module keeps
nothing between calls but the first-fit elements in [1, FIRST_FIT_REACH]:
each SidonLadder holds its own state, and greedy_sidon walks first-fit
anew past that reach.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from math import inf, isqrt
from typing import Iterable

from .errors import DensityUnreachableError, InputTooLargeError, InputTooSmallError, require_int
from .repcore import FiniteBasis, _require_ints

# Largest ambient bound the constructions accept: a first-fit walk's bitsets
# grow with its largest element, and reaching 10**8 takes 27 s and peaks at
# 130 MB.
SIDON_N_LIMIT = 10**8

# The ladder reads first-fit only on [1, FIRST_FIT_REACH], which holds 81
# elements: past n = 12034 the first-fit set never ties or beats the
# Erdos-Turan set (checked to 10**8), so walking it further buys nothing.
FIRST_FIT_REACH = 2**14


@dataclass(frozen=True, eq=True)
class SidonSet(FiniteBasis):
    """A Sidon set in [1, ambient_n]; ambient_n defaults only as it follows a defaulted field."""

    ambient_n: int = 0

    def __post_init__(self):
        super().__post_init__()
        require_int(self.ambient_n, "ambient_n")
        if self.elements and not 1 <= self.elements[0] <= self.elements[-1] <= self.ambient_n:
            raise ValueError("elements must lie in [1, ambient_n]")

    def density_ok(self) -> bool:
        """Exact check 4*|D|**2 > n."""
        return 4 * len(self.elements) ** 2 > self.ambient_n


def is_sidon(items: Iterable[int]) -> bool:
    """True when all pairwise sums of the distinct values are distinct, that
    is when k distinct values give k(k+1)/2 distinct sums a + b (a <= b)."""
    items = tuple(items)
    _require_ints(items)
    els = sorted(set(items))
    k = len(els)
    return len({a + b for i, a in enumerate(els) for b in els[i:]}) == k * (k + 1) // 2


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _first_fit(n: int) -> tuple[int, ...]:
    """The first-fit (Mian-Chowla) elements in [1, n], for n >= 1.

    A candidate c above the newest element g fails first-fit exactly when
    c = b + d for an element b and a difference d = a - e of elements
    e < a <= b (2c exceeds every pair sum).  So three int bitsets suffice:
    `below` has bit j when g - j is an element, `diffs` bit d for each
    difference (bit 0 included), and `window` bit j when g + j is
    forbidden.  Adding the element g + j at the lowest clear bit j of
    `window` shifts `below` up and `window` down by j, ORs `below` into
    `diffs` and `diffs` into `window`.
    """
    elements, below, diffs, window = [1], 1, 1, 1
    while (gap := (window ^ (window + 1)).bit_length() - 1) + elements[-1] <= n:
        below = (below << gap) | 1
        diffs |= below
        window = (window >> gap) | diffs
        elements.append(elements[-1] + gap)
    return tuple(elements)


_FIRST_FIT = _first_fit(FIRST_FIT_REACH)


def _largest_prime(n: int) -> int:
    """The largest prime p with 2*p*p <= n, counted down from isqrt(n // 2);
    needs n >= 8."""
    return next(p for p in itertools.count(isqrt(n // 2), -1) if _is_prime(p))


def _next_prime(q: int) -> int:
    """The least prime above q."""
    return next(p for p in itertools.count(q + 1) if _is_prime(p))


def _check_bound(n: int, least: int, construction: str) -> None:
    """Refuse an n that is not an integer, below least or past SIDON_N_LIMIT."""
    if require_int(n, "Sidon bound n") < least:
        raise InputTooSmallError(f"{construction} construction needs n >= {least}")
    if n > SIDON_N_LIMIT:
        raise InputTooLargeError(f"Sidon bound n={n} exceeds {SIDON_N_LIMIT}")


def greedy_sidon(n: int) -> SidonSet:
    """First-fit Sidon set: scan 1..n, keep every value that preserves the
    distinct-sums property.  Prefix-monotone in n."""
    _check_bound(n, 1, "greedy")
    if n <= FIRST_FIT_REACH:
        return SidonSet(_FIRST_FIT[: bisect_right(_FIRST_FIT, n)], n)
    return SidonSet(_first_fit(n), n)


def erdos_turan_sidon(n: int) -> SidonSet:
    """Sidon set {2pk + (k*k mod p) + 1 : 0 <= k < p} for the largest prime
    p with 2*p*p <= n.  Needs n >= 8 so that p = 2 is admissible."""
    _check_bound(n, 8, "algebraic")
    return SidonSet(_et_elements(_largest_prime(n)), n)


def _et_elements(p: int) -> tuple[int, ...]:
    # max element 2p(p-1) + ((p-1)^2 mod p) + 1 <= 2p^2 - p, inside [1, n]
    return tuple(2 * p * k + (k * k) % p + 1 for k in range(p))


def sidon_for_density(n: int) -> SidonSet:
    """The better construction at n, as a SidonLadder picks it, which must
    beat sqrt(n)/2.

    Raises DensityUnreachableError when even the better set has
    4*|D|**2 <= n, and InputTooLargeError past SIDON_N_LIMIT.
    """
    _check_bound(n, 1, "greedy")
    ladder = SidonLadder()
    ladder.advance(n)
    best = ladder.best_elements()
    if not best.density_ok():
        raise DensityUnreachableError(
            f"no known Sidon set in [1, {n}] has more than sqrt(n)/2 elements"
        )
    return best


class SidonLadder:
    """A cursor over both constructions as the ambient bound n grows.

    The admissible-x scans move the bound forward.  A ladder holds n, the
    number of first-fit elements in [1, min(n, FIRST_FIT_REACH)], the
    largest prime p with 2p^2 <= n (0 while n < 8) and the prime after p.
    It never visits the bounds in between: it jumps from one event (the
    next first-fit element up to FIRST_FIT_REACH, the next bound 2q^2 of a
    prime q, the caller's limit) to the next.
    """

    def __init__(self):
        self._n = 0
        self._count = 0  # first-fit elements in [1, min(n, FIRST_FIT_REACH)]
        self._p = 0  # the largest prime p with 2*p*p <= n, 0 if none
        self._q = 2  # the prime after _p

    def advance(self, n: int) -> None:
        if require_int(n, "Sidon bound n") < self._n:
            raise ValueError("ladder only moves forward")
        if 2 * self._q * self._q <= n:
            p = _largest_prime(n)
            self._p, self._q = p, _next_prime(p)
        self._count = bisect_right(_FIRST_FIT, n)
        self._n = n

    def advance_to_growth(self, limit: int) -> int | None:
        """Move the bound to the first n <= limit where best_size() grows and
        return that n; return None once the bound reaches limit without it."""
        require_int(limit, "limit")
        best = self.best_size()
        while True:
            g = _FIRST_FIT[self._count] if self._count < len(_FIRST_FIT) else inf
            e = 2 * self._q * self._q
            n = min(g, e)
            if n > limit:
                break
            if n == e:
                self._p, self._q = self._q, _next_prime(self._q)
            self._n = n
            self._count += n == g
            if self.best_size() > best:
                return n
        self._n = max(self._n, limit)
        return None

    def greedy_prefix(self) -> list[int]:
        return list(_FIRST_FIT[: self._count])

    def best_size(self) -> int:
        """Size of the better construction at the current bound."""
        return max(self._count, self._p)

    def best_elements(self) -> SidonSet:
        """Materialize the better construction; the greedy set wins a tie."""
        if self._p > self._count:
            return SidonSet(_et_elements(self._p), self._n)
        return SidonSet(_FIRST_FIT[: self._count], self._n)
