"""Sidon sets in [1, n]: greedy and algebraic constructions.

A Sidon set has all pairwise sums a + b (a <= b) distinct.  The density
machinery needs, for a given ambient bound n, a Sidon subset D of [1, n]
with 4*|D|**2 > n, i.e. |D| > sqrt(n)/2.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Iterable

from .errors import DensityUnreachableError, InputTooLargeError, InputTooSmallError, require_int
from .repcore import FiniteBasis, _require_ints

# Largest ambient bound the constructions accept: the shared greedy walk's
# bitsets grow with the largest element, and reaching 10**8 takes 27 s, peaks
# at 130 MB and leaves about 38 MB held for the life of the process.
SIDON_N_LIMIT = 10**8

# The two fixed sequences every SidonLadder reads, grown on demand and kept
# for the life of the process.  _walk = (elements, below, diffs, window) holds
# the Mian-Chowla elements found so far and the first-fit bitsets after the
# last of them (see SidonLadder); each step replaces it whole, in one
# assignment, so a step that raises leaves the walk as it was.  _PRIMES holds
# the primes in order.  One thread at a time grows them, under _GROWING;
# readers need no lock, as a sequence only ever gets longer.
_walk = ((1,), 1, 1, 1)
_PRIMES = [2]
_GROWING = threading.Lock()


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


def _greedy_at(i: int) -> int:
    """The Mian-Chowla element of index i (from 0), walking to it first."""
    while len(_walk[0]) <= i:
        _grow_walk()
    return _walk[0][i]


def _grow_walk() -> None:
    """Add the next Mian-Chowla element, at the lowest clear bit of window."""
    global _walk
    with _GROWING:
        elements, below, diffs, window = _walk
        gap = (window ^ (window + 1)).bit_length() - 1
        below = (below << gap) | 1
        diffs |= below
        _walk = (elements + (elements[-1] + gap,), below, diffs, (window >> gap) | diffs)


def _prime_at(i: int) -> int:
    """The prime of index i (from 0), found first by trial division."""
    while len(_PRIMES) <= i:
        with _GROWING:
            _PRIMES.append(next(q for q in itertools.count(_PRIMES[-1] + 1) if _is_prime(q)))
    return _PRIMES[i]


def _admitted_primes(n: int, known: int = 0) -> int:
    """How many primes p have 2*p*p <= n, counting on past the first known."""
    while 2 * _prime_at(known) ** 2 <= n:
        known += 1
    return known


def _check_bound(n: int, least: int, construction: str) -> None:
    """Refuse an n that is not an integer, below least or past SIDON_N_LIMIT."""
    if require_int(n, "Sidon bound n") < least:
        raise InputTooSmallError(f"{construction} construction needs n >= {least}")
    if n > SIDON_N_LIMIT:
        raise InputTooLargeError(f"Sidon bound n={n} exceeds {SIDON_N_LIMIT}")


def _ladder_at(n: int) -> SidonLadder:
    """A fresh ladder advanced to n; refuses n < 1 and n past SIDON_N_LIMIT."""
    _check_bound(n, 1, "greedy")
    ladder = SidonLadder()
    ladder.advance(n)
    return ladder


def greedy_sidon(n: int) -> SidonSet:
    """First-fit Sidon set: scan 1..n, keep every value that preserves the
    distinct-sums property.  Prefix-monotone in n."""
    return SidonSet(tuple(_ladder_at(n).greedy_prefix()), n)


def erdos_turan_sidon(n: int) -> SidonSet:
    """Sidon set {2pk + (k*k mod p) + 1 : 0 <= k < p} for the largest prime
    p with 2*p*p <= n.  Needs n >= 8 so that p = 2 is admissible."""
    _check_bound(n, 8, "algebraic")
    return SidonSet(_et_elements(_PRIMES[_admitted_primes(n) - 1]), n)


def _et_elements(p: int) -> tuple[int, ...]:
    # max element 2p(p-1) + ((p-1)^2 mod p) + 1 <= 2p^2 - p, inside [1, n]
    return tuple(2 * p * k + (k * k) % p + 1 for k in range(p))


def sidon_for_density(n: int) -> SidonSet:
    """The better construction at n, as a SidonLadder picks it, which must
    beat sqrt(n)/2.

    Raises DensityUnreachableError when even the better set has
    4*|D|**2 <= n, and InputTooLargeError past SIDON_N_LIMIT.
    """
    best = _ladder_at(n).best_elements()
    if not best.density_ok():
        raise DensityUnreachableError(
            f"no known Sidon set in [1, {n}] has more than sqrt(n)/2 elements"
        )
    return best


class SidonLadder:
    """A cursor over both constructions as the ambient bound n grows.

    The admissible-x scans move the bound forward, and every scan reads
    the same two fixed sequences: the Mian-Chowla (first-fit) elements and
    the primes.  Both are grown on demand in module state shared by every
    ladder of the process, so a ladder holds only n, the number of greedy
    elements in [1, n] and the number of primes p with 2p^2 <= n; a later
    ladder re-reads what an earlier one walked instead of walking it again.

    The ladder never visits the bounds in between: it jumps from one event
    (the next greedy element, the next bound 2p^2 of a prime p, the
    caller's limit) to the next.  The walk finds the next greedy element at
    once: a candidate c above the newest element g fails first-fit exactly
    when c = b + d for an element b and a difference d = a - e of elements
    e < a <= b (2c exceeds every pair sum).  So three int bitsets suffice:
    `below` has bit j when g - j is an element, `diffs` bit d for each
    difference (bit 0 included), and `window` bit j when g + j is
    forbidden.  Adding the element g + j at the lowest clear bit j of
    `window` shifts `below` up and `window` down by j, ORs `below` into
    `diffs` and `diffs` into `window`.
    """

    def __init__(self):
        self._n = 0
        self._count = 0  # greedy elements in [1, n]
        self._primes = 0  # primes p with 2*p*p <= n

    def advance(self, n: int) -> None:
        if require_int(n, "Sidon bound n") < self._n:
            raise ValueError("ladder only moves forward")
        while _greedy_at(self._count) <= n:
            self._count += 1
        self._primes = _admitted_primes(n, self._primes)
        self._n = n

    def advance_to_growth(self, limit: int) -> int | None:
        """Move the bound to the first n <= limit where best_size() grows and
        return that n; return None once the bound reaches limit without it."""
        require_int(limit, "limit")
        best = self.best_size()
        while True:
            g, p = _greedy_at(self._count), _prime_at(self._primes)
            n = min(g, 2 * p * p)
            if n > limit:
                break
            self._n = n
            self._count += n == g
            self._primes += n == 2 * p * p
            if self.best_size() > best:
                return n
        self._n = max(self._n, limit)
        return None

    def greedy_prefix(self) -> list[int]:
        return list(_walk[0][: self._count])

    def best_size(self) -> int:
        """Size of the better construction at the current bound."""
        return max(self._count, _PRIMES[self._primes - 1] if self._primes else 0)

    def best_elements(self) -> SidonSet:
        """Materialize the better construction; the greedy set wins a tie."""
        if (size := self.best_size()) > self._count:
            return SidonSet(_et_elements(size), self._n)
        return SidonSet(_walk[0][: self._count], self._n)
