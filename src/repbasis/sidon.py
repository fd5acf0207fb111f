"""Sidon sets in [1, n]: greedy and algebraic constructions.

A Sidon set has all pairwise sums a + b (a <= b) distinct.  The density
machinery needs, for a given ambient bound n, a Sidon subset D of [1, n]
with 4*|D|**2 > n, i.e. |D| > sqrt(n)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import DensityUnreachableError, InputTooLargeError, InputTooSmallError
from .repcore import FiniteBasis

# Largest ambient bound the constructions accept: the greedy ladder's bitsets
# grow with the largest element, and advance(10**8) takes 27 s and 105 MB.
SIDON_N_LIMIT = 10**8


@dataclass(frozen=True, eq=True)
class SidonSet(FiniteBasis):
    """A Sidon set in [1, ambient_n]; ambient_n defaults only as it follows a defaulted field."""

    ambient_n: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.elements and not 1 <= self.elements[0] <= self.elements[-1] <= self.ambient_n:
            raise ValueError("elements must lie in [1, ambient_n]")

    def density_ok(self) -> bool:
        """Exact check 4*|D|**2 > n."""
        return 4 * len(self.elements) ** 2 > self.ambient_n


def is_sidon(items: Iterable[int]) -> bool:
    """True when all pairwise sums of the distinct values are distinct."""
    els = sorted(set(items))
    seen = set()
    for i, a in enumerate(els):
        for b in els[i:]:
            s = a + b
            if s in seen:
                return False
            seen.add(s)
    return True


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


def _reject_too_large(n: int) -> None:
    if n > SIDON_N_LIMIT:
        raise InputTooLargeError(f"Sidon bound n={n} exceeds {SIDON_N_LIMIT}")


def greedy_sidon(n: int) -> SidonSet:
    """First-fit Sidon set: scan 1..n, keep every value that preserves the
    distinct-sums property.  Prefix-monotone in n."""
    if n < 1:
        raise InputTooSmallError("greedy construction needs n >= 1")
    _reject_too_large(n)
    ladder = SidonLadder()
    ladder.advance(n)
    return SidonSet(tuple(ladder.greedy_prefix()), n)


def erdos_turan_sidon(n: int) -> SidonSet:
    """Sidon set {2pk + (k*k mod p) + 1 : 0 <= k < p} for the largest prime
    p with 2*p*p <= n.  Needs n >= 8 so that p = 2 is admissible."""
    if n < 8:
        raise InputTooSmallError("algebraic construction needs n >= 8")
    _reject_too_large(n)
    p = math.isqrt(n // 2)  # the largest p with 2*p*p <= n
    while not _is_prime(p):
        p -= 1
    return SidonSet(_et_elements(p), n)


def _et_elements(p: int) -> tuple[int, ...]:
    # max element 2p(p-1) + ((p-1)^2 mod p) + 1 <= 2p^2 - p, inside [1, n]
    return tuple(2 * p * k + (k * k) % p + 1 for k in range(p))


def sidon_for_density(n: int) -> SidonSet:
    """The larger of the two constructions, which must beat sqrt(n)/2.

    Raises DensityUnreachableError when even the better set has
    4*|D|**2 <= n, and InputTooLargeError past SIDON_N_LIMIT.
    """
    best = greedy_sidon(n)
    if n >= 8:
        algebraic = erdos_turan_sidon(n)
        if len(algebraic) > len(best):
            best = algebraic
    if not best.density_ok():
        raise DensityUnreachableError(
            f"no known Sidon set in [1, {n}] has more than sqrt(n)/2 elements"
        )
    return best


class SidonLadder:
    """Incremental view of both constructions as the ambient bound grows.

    The admissible-x scans move the bound forward; recomputing either
    construction from scratch per bound would be quadratic overall.  The
    greedy set is extended in place (first-fit is prefix-monotone) and the
    algebraic prime ratchets forward at each bound 2q^2.

    The ladder never visits the bounds in between: it jumps from one event
    (the next greedy element, the next ratchet bound, the caller's limit) to
    the next.  A candidate c above the newest element g fails first-fit
    exactly when c = b + d for an element b and a difference d = a - e of
    elements e < a <= b (2c exceeds every pair sum).  So three int bitsets
    find the next greedy element at once: `_below` has bit j when g - j is
    an element, `_diffs` bit d for each difference (bit 0 included), and
    `_window` bit j when g + j is forbidden.  Adding g shifts `_below` up
    and `_window` down by the gap, ORs `_below` into `_diffs` and `_diffs`
    into `_window`; the lowest zero bit of `_window` is the next element.
    """

    def __init__(self):
        self._greedy: list[int] = []
        self._below = self._diffs = self._window = 0
        self._next = 1  # the smallest greedy element not yet added
        self._prime = 0
        self._next_q = 2
        self._next_q_at = 8  # 2 * next_q**2, the bound that admits next_q
        self._n = 0

    def advance(self, n: int) -> None:
        if n < self._n:
            raise ValueError("ladder only moves forward")
        while self._next <= n:
            self._add_next()
        while self._next_q_at <= n:
            self._ratchet()
        self._n = n

    def advance_to_growth(self, limit: int) -> int | None:
        """Move the bound to the first n <= limit where best_size() grows and
        return that n; return None once the bound reaches limit without it."""
        best = self.best_size()
        while (n := min(self._next, self._next_q_at)) <= limit:
            self._n = n
            if n == self._next_q_at:
                self._ratchet()
            if n == self._next:
                self._add_next()
            if self.best_size() > best:
                return n
        self._n = max(self._n, limit)
        return None

    def _ratchet(self) -> None:
        """Admit next_q, whose bound 2q^2 the ladder has reached."""
        q = self._next_q
        if _is_prime(q):
            self._prime = q
        self._next_q = q + 1
        self._next_q_at = 2 * (q + 1) ** 2

    def _add_next(self) -> None:
        """Append the next greedy element g and find the one after it."""
        g = self._next
        gap = g - (self._greedy[-1] if self._greedy else 0)
        self._greedy.append(g)
        self._below = (self._below << gap) | 1
        self._diffs |= self._below
        window = self._window = (self._window >> gap) | self._diffs
        self._next = g + (window ^ (window + 1)).bit_length() - 1

    def greedy_prefix(self) -> list[int]:
        return list(self._greedy)

    def best_size(self) -> int:
        """Size of the better construction at the current bound."""
        return max(len(self._greedy), self._prime)

    def best_elements(self) -> SidonSet:
        """Materialize the better construction (algebraic wins ties only if
        strictly larger, matching sidon_for_density)."""
        if self._prime > len(self._greedy):
            return SidonSet(_et_elements(self._prime), self._n)
        return SidonSet(tuple(self._greedy), self._n)
