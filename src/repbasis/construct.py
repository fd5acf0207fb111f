"""Staged construction of nested integer sets with prescribed pair-sum counts.

A run alternates two moves.  An extension stage adjoins a pair {-c, c+u}
so the next target value u gains one representation.  A densification
stage adjoins a dilated Sidon set so the element count inside [-x, x]
beats sqrt(x)/phi(x) at a recorded checkpoint x.  Both moves keep every
pair-sum count at or below the prescribed bound f, so `build` runs them
directly; the public `extend_target` and `densify` check their inputs first.
This module holds the search cap, the moves, the Lindström abort
certificate and `build`; the trace types and the trace text live in `trace`.
"""

from __future__ import annotations

import math
from collections import Counter

from .errors import PhiTooSlowError, PreconditionViolatedError, require_int, require_type
from .repcore import (
    FiniteBasis,
    PhiSpec,
    RepTarget,
    TargetSequence,
    counting,
    d0_of,
    density_exceeds,
    rep_function,
    sum_counter,
    target_prefix,
)
from .sidon import SidonLadder, SidonSet
from .trace import ConstructionTrace, StageRecord, _refuse_past_pair_limit
# bench/tracing.py wraps these two by their old home, construct; the line goes
# once the tracer looks them up in trace
from .trace import trace_dumps, trace_loads  # noqa: F401

DEFAULT_SEARCH_CAP = 10**9


def _as_phi(phi: PhiSpec | str) -> PhiSpec:
    if isinstance(phi, str):
        return PhiSpec.parse(phi)
    if not isinstance(phi, PhiSpec):
        raise TypeError(f"phi must be a PhiSpec or a spec string, got {type(phi).__name__}")
    return phi


def _reject_bad_pair_counts(A: FiniteBasis, f: RepTarget, context: str) -> Counter:
    counts = sum_counter(A)
    for n in sorted(counts):
        fv = f._value(n)
        if counts[n] > fv:
            raise PreconditionViolatedError(
                f"{context}: pair-sum count {counts[n]} exceeds prescribed {fv} at n={n}",
                witness=n,
            )
    return counts


def _reject_zero_member(A: FiniteBasis, context: str) -> None:
    if 0 in A:
        raise PreconditionViolatedError(f"{context}: 0 must not be an element", witness=0)


def _lindstrom_last(phi: PhiSpec, scale: int, extra_count: int, limit: int) -> int:
    """Largest n <= limit, to within a dyadic block, that Lindström's bound
    cannot rule out; 0 when it rules out every n in [1, limit].

    Every Sidon set in [1, n] has fewer than sqrt(n) + n**(1/4) + 1 elements
    (Lindström 1969), so for n in a block [lo, hi] the count is at most
    extra_count + s + ceil(sqrt(s)) with s = ceil(sqrt(hi)).  The bar
    sqrt(x)/phi(x) increases, so the block is ruled out when that count is
    at most the bar at x = scale*lo.  Below x = 2**2047 the count and phi(x)
    are floats, and phi(x) is off by less than about 3e-13 of itself (the
    exponent `pow` takes stays below 710), so y = count*phi(x)*(1 + 2**-40)
    is at least count*phi(x), and y*y <= x, a float against an integer and
    so exact, proves count <= sqrt(x)/phi(x).  Where y*y overflows to inf,
    y <= isqrt(x), exact too, proves it, as it implies y*y <= x.
    """
    hi = limit
    while hi >= 1:
        lo = 1 << (hi.bit_length() - 1)
        s = math.isqrt(hi - 1) + 1  # ceil(sqrt(hi))
        t = math.isqrt(s - 1) + 1  # ceil(sqrt(s))
        x = scale * lo
        # from x = 2**2047 on the count or pow's phi(x) leaves the float range;
        # y = inf there rules nothing out (bit_length, as 2**2047 is not folded
        # into a constant and costs 2 us)
        y = (extra_count + s + t) * phi.evaluate(x) * (1 + 2**-40) if x.bit_length() < 2048 else math.inf
        if y * y > x and y > math.isqrt(x):
            return hi
        hi = lo - 1
    return 0


def _density_search(
    phi: PhiSpec,
    scale: int,
    extra_count: int,
    min_x: int,
    cap: int | None,
    context: str,
) -> tuple[int, int, SidonSet]:
    """Smallest n >= 1 such that x = scale*n clears every admission rule:
    x > min_x, the best Sidon set D in [1, n] has 4|D|^2 > n, and
    extra_count + |D| strictly beats sqrt(x)/phi(x).

    While |D| stays the same, both rules can only turn false as n grows,
    so they are evaluated at the first n and wherever |D| grows.  The scan
    ends at the last n that Lindström's bound leaves open.

    Returns (n, x, D).  Raises PhiTooSlowError once x would pass cap, an
    integer >= 1 that defaults to DEFAULT_SEARCH_CAP when None.
    """
    cap = DEFAULT_SEARCH_CAP if cap is None else require_int(cap, "search cap", 1)
    n = min_x // scale + 1
    last = _lindstrom_last(phi, scale, extra_count, cap // scale)
    if n <= last:
        ladder = SidonLadder()
        ladder.advance(n)
        while n is not None:
            size = ladder.best_size()
            if 4 * size * size > n and density_exceeds(extra_count + size, scale * n, phi):
                return n, scale * n, ladder.best_elements()
            n = ladder.advance_to_growth(last)
    raise PhiTooSlowError(
        f"{context}: no x <= {cap} (step {scale}) reaches "
        f"count > sqrt(x)/phi(x) with phi={phi}",
        cap=cap,
    )


def base_case(
    f: RepTarget, phi: PhiSpec | str, *, search_cap: int | None = None
) -> StageRecord:
    """First stage: a dilated Sidon set plus the pair {-c, c+u_1}.

    Scans n = 1, 2, ... and keeps the first stage whose element count in
    [-x, x], x = 3*alpha*n, strictly beats sqrt(x)/phi(x).
    """
    require_type(f, RepTarget, "f")
    phi = _as_phi(phi)
    u1 = target_prefix(f, 1)[0]
    d0 = d0_of(f)
    c = 4 * d0 if u1 >= 0 else -4 * d0
    alpha = abs(2 * c + 2 * u1)
    scale = 3 * alpha
    n, x, D = _density_search(phi, scale, 2, 0, search_cap, "base stage scan")
    A1 = FiniteBasis.from_iterable([scale * d for d in D] + [-c, c + u1])
    # the dilation spreads D past both tag elements, so nothing collides
    assert len(A1) == len(D) + 2 and counting(A1, -x, x) == len(A1)
    return StageRecord(index=1, set=A1, added=A1, x=x)


def _extension_pair(A: FiniteBasis, f: RepTarget, prefix) -> tuple[int, ...]:
    """The pair {-c, c+u}, u = prefix[-1], that gives u one more
    representation in A; () when A already represents u as many times as
    the prefix names it.  c lies past max|a|, so no other pair sum moves."""
    target = prefix[-1]
    if rep_function(A, target) >= prefix.count(target):
        return ()
    d = max(d0_of(f), abs(target), A.max_abs())
    c = 4 * d + 1 if target >= 0 else -(4 * d + 1)
    return (-c, c + target)


def _dilated_sidon(
    A: FiniteBasis, f: RepTarget, phi: PhiSpec, M: int, cap: int | None
) -> tuple[FiniteBasis, int]:
    """The dilated Sidon set that lifts A's count in [-x, x] past
    sqrt(x)/phi(x) at the first multiple x > M of 5T, T = max(d0, max|a|),
    where it can; returns (D, x)."""
    scale = 5 * max(d0_of(f), A.max_abs())
    _, x, D = _density_search(phi, scale, len(A), M, cap, "densification scan")
    dilated = FiniteBasis.from_iterable(scale * d for d in D)
    # every new element lands in (max|a|, x], so the union count is exact
    assert A.max_abs() < dilated.elements[0] and dilated.elements[-1] <= x
    return dilated, x


def extend_target(A: FiniteBasis, f: RepTarget, u: TargetSequence, m: int) -> FiniteBasis:
    """Extend A so target u_{m+1} gains a representation.

    Requires that A already covers the first m targets, never exceeds f,
    and omits 0; violations raise PreconditionViolatedError with the
    offending integer as witness.  When u_{m+1} is already covered the
    set is returned unchanged.
    """
    require_type(f, RepTarget, "f")
    require_type(u, TargetSequence, "u")
    prefix = u.prefix(require_int(m, "m", 0) + 1)
    _reject_zero_member(A, "extension")
    counts = _reject_bad_pair_counts(A, f, "extension")
    needed_before = Counter(prefix[:m])
    for n in sorted(needed_before):
        if counts[n] < needed_before[n]:
            raise PreconditionViolatedError(
                f"extension: first {m} targets not covered at n={n} "
                f"(have {counts[n]}, need {needed_before[n]})",
                witness=n,
            )
    pair = _extension_pair(A, f, prefix)
    return A.union(pair) if pair else A


def densify(
    A: FiniteBasis,
    f: RepTarget,
    phi: PhiSpec | str,
    M: int,
    *,
    search_cap: int | None = None,
) -> tuple[FiniteBasis, int]:
    """Adjoin a dilated Sidon set so the count in [-x, x] beats
    sqrt(x)/phi(x) at some checkpoint x > M.

    x runs over multiples of 5T, T = max(d0, max|a|); the first multiple
    whose counted density clears the bar is kept.  Requires that A never
    exceeds f and omits 0.  Returns (B, x).
    """
    require_type(f, RepTarget, "f")
    phi = _as_phi(phi)
    require_int(M, "densification: M", 1, PreconditionViolatedError)
    _reject_zero_member(A, "densification")
    _reject_bad_pair_counts(A, f, "densification")
    D, x = _dilated_sidon(A, f, phi, M, search_cap)
    return A.union(D), x


def build(
    f: RepTarget,
    phi: PhiSpec | str,
    L: int,
    *,
    search_cap: int | None = None,
) -> ConstructionTrace:
    """Run the base stage plus L extension/densification rounds.

    Produces 2L+1 stages and L+1 checkpoints; stage 2l covers target
    u_{l+1} and stage 2l+1 certifies checkpoint x_{l+1} > x_l.  Each move
    keeps every pair-sum count within f by design, so the rounds run the
    moves without the public functions' input checks and count no pair
    sums; verify_trace re-checks every claim.

    phi may be given as a spec string such as "log2" or "pow:1/4".  A
    trace whose last stage, the largest, the verifier would refuse as past
    its pair limit is refused with InputTooLargeError.
    """
    require_int(L, "stage count L", 1)
    # refuses an f that is no RepTarget; drawn round by round, so an early abort draws few
    targets = TargetSequence(f)
    phi = _as_phi(phi)
    stages = [base_case(f, phi, search_cap=search_cap)]
    for l in range(1, L + 1):
        previous = stages[-1]
        pair = FiniteBasis.from_iterable(_extension_pair(previous.set, f, targets.prefix(l + 1)))
        extended = previous.set.union(pair)
        stages.append(StageRecord(2 * l, extended, pair))
        D, x = _dilated_sidon(extended, f, phi, previous.x, search_cap)
        stages.append(StageRecord(2 * l + 1, extended.union(D), D, x))
    _refuse_past_pair_limit(len(stages[-1].set), f"stage {stages[-1].index}")
    return ConstructionTrace(f=f, phi=phi, u_prefix=tuple(targets.prefix(L + 1)), stages=tuple(stages))
