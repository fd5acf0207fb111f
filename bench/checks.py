"""Checks that decide whether a repbasis operation succeeded.

Nothing here imports repbasis.  Pair counts, the target enumeration, the
density comparison, the Sidon constructions and the abort certificate are
computed again from the definitions in PAPER.md, so a verdict of the
program is compared with an independent one, never with a stored copy of
an earlier output.
"""

from __future__ import annotations

import math
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

INF = math.inf


class Target:
    """A prescribed function f in the JSON shape of an f file."""

    def __init__(self, window: int, values: dict[int, float], default: float):
        self.window = window
        self.values = dict(values)
        self.default = default

    @classmethod
    def constant(cls, value) -> "Target":
        return cls(0, {0: value}, value)

    @classmethod
    def from_json(cls, data: dict) -> "Target":
        def count(raw):
            return INF if raw == "inf" else raw

        values = {int(k): count(v) for k, v in data["values"].items()}
        return cls(data["window"], values, count(data["default"]))

    def to_json(self) -> dict:
        def count(v):
            return "inf" if v == INF else v

        return {
            "window": self.window,
            "values": {str(n): count(v) for n, v in sorted(self.values.items())},
            "default": count(self.default),
        }

    def value(self, n: int):
        if abs(n) <= self.window:
            return self.values[n]
        return self.default

    def d0(self) -> int:
        zeros = [abs(n) for n, v in self.values.items() if v == 0]
        return max(zeros) + 1 if zeros else 1


def targets(f: Target, m: int) -> list[int]:
    """The first m targets u_1, ..., u_m: round t scans 0, 1, -1, ..., t, -t
    and emits n while min(f(n), t) exceeds the earlier emissions of n."""
    out: list[int] = []
    seen: Counter = Counter()
    t = 0
    while len(out) < m:
        t += 1
        for n in [0] + [s * k for k in range(1, t + 1) for s in (1, -1)]:
            if min(f.value(n), t) > seen[n]:
                out.append(n)
                seen[n] += 1
    return out[:m]


def base_scale(f: Target) -> int:
    """Step of the base-stage scan: x runs over multiples of 3|2c + 2u_1|,
    c = 4*d0 signed like u_1."""
    u1 = targets(f, 1)[0]
    c = 4 * f.d0() if u1 >= 0 else -4 * f.d0()
    return 3 * abs(2 * c + 2 * u1)


def pair_counts(elements) -> Counter:
    """r_A(n) for every n, by the double loop over pairs a <= b."""
    els = sorted(elements)
    counts: Counter = Counter()
    for i, a in enumerate(els):
        for b in els[i:]:
            counts[a + b] += 1
    return counts


def rep(elements: set, n: int) -> int:
    """r_A(n) at one n, for A given as a set."""
    return sum(1 for a in elements if 2 * a <= n and (n - a) in elements)


def first_excess(elements, f: Target):
    """Smallest n with r_A(n) > f(n), or None."""
    counts = pair_counts(elements)
    bad = [n for n, r in counts.items() if r > f.value(n)]
    return min(bad) if bad else None


def is_sidon(elements) -> bool:
    return max(pair_counts(elements).values(), default=0) <= 1


def count_in(elements, x: int) -> int:
    return sum(1 for a in elements if -x <= a <= x)


def exceeds(count: int, x: int, phi: str) -> bool:
    """count > sqrt(x)/phi(x), decided exactly.

    For pow:p/q the claim is count**(2q) > x**(q-2p).  For the log kinds it
    is count*phi(x) > sqrt(x); each Decimal operation is correctly rounded,
    so a difference wider than the tolerance below is a certain verdict, and
    a narrower one is retried at higher precision.
    """
    kind, _, param = phi.partition(":")
    if kind == "pow":
        eps = Fraction(param)
        p, q = eps.numerator, eps.denominator
        return count ** (2 * q) > x ** (q - 2 * p)
    coefficient = Fraction(param) if kind == "clog" else Fraction(1)
    if kind not in ("log2", "ln", "clog"):
        raise ValueError(f"unknown phi {phi!r}")
    for prec in (40, 80, 160, 320):
        with localcontext() as ctx:
            ctx.prec = prec
            log = Decimal(x + 2).ln()
            if kind == "log2":
                log = log / Decimal(2).ln()
            lhs = Decimal(count) * Decimal(coefficient.numerator) * log / Decimal(coefficient.denominator)
            rhs = Decimal(x).sqrt()
            tolerance = (abs(lhs) + rhs) * Decimal(10) ** (5 - prec)
            if lhs - rhs > tolerance:
                return True
            if rhs - lhs > tolerance:
                return False
    raise ValueError(f"density comparison at x={x} did not separate at 320 digits")


def _ceil_sqrt(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def certify_abort(phi: str, scale: int, extra: int, cap: int) -> str | None:
    """Prove that no x = scale*n <= cap admits a Sidon set D in [1, n] with
    extra + |D| > sqrt(x)/phi(x).

    Lindstrom (1969): |D| < sqrt(n) + n**(1/4) + 1, so |D| <= s + t with
    s = ceil(sqrt(hi)) and t = ceil(sqrt(s)) for every n <= hi.  The demand
    sqrt(x)/phi(x) increases for x >= 1 for every admissible phi, so a block
    [lo, hi] of n is ruled out once extra + s + t does not exceed the demand
    at x = scale*lo.  Blocks are dyadic; a block that fails is halved.
    Returns None when certified, else the n that could not be ruled out.
    """
    last = cap // scale
    pending = []
    lo = 1
    while lo <= last:
        pending.append((lo, min(2 * lo - 1, last)))
        lo *= 2
    while pending:
        lo, hi = pending.pop()
        s = _ceil_sqrt(hi)
        bound = s + _ceil_sqrt(s)
        if not exceeds(extra + bound, scale * lo, phi):
            continue
        if lo == hi:
            return f"Lindstrom bound cannot rule out n={lo} (x={scale * lo})"
        mid = (lo + hi) // 2
        pending += [(lo, mid), (mid + 1, hi)]
    return None


def mian_chowla(n: int) -> list[int]:
    """First-fit Sidon set in [1, n]: keep c when no c + a (a <= c kept or
    c itself) repeats an earlier sum."""
    kept: list[int] = []
    sums: set[int] = set()
    for c in range(1, n + 1):
        new = [c + a for a in kept] + [2 * c]
        if not sums.intersection(new):
            kept.append(c)
            sums.update(new)
    return kept


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def erdos_turan(n: int) -> list[int]:
    """{2pk + (k^2 mod p) + 1 : 0 <= k < p} for the largest prime p with
    2p^2 <= n (empty when there is none)."""
    p = max((q for q in range(2, math.isqrt(n // 2) + 1) if _is_prime(q)), default=0)
    return [2 * p * k + (k * k) % p + 1 for k in range(p)]


def check_trace(data: dict, f: Target, phi: str) -> str | None:
    """Every claim of a trace in its JSON form, re-derived from scratch.

    Checks stage kinds and order, nesting, that 0 is never an element,
    r_A(n) <= f(n), the target prefix and its coverage, and the exact density
    at each strictly increasing checkpoint.  Returns the first problem found.
    """
    if data["phi"] != phi:
        return f"trace phi {data['phi']!r}, asked for {phi!r}"
    if Target.from_json(data["f"]).to_json() != f.to_json():
        return "trace f differs from the requested f"
    stages = data["stages"]
    if len(stages) % 2 == 0:
        return "even number of stages"
    u_prefix = data["u_prefix"]
    if u_prefix != targets(f, (len(stages) + 1) // 2):
        return f"u_prefix {u_prefix} is not the target enumeration"
    prev: set[int] = set()
    last_x = 0
    for j, stage in enumerate(stages, start=1):
        kind = "BASE" if j == 1 else ("TARGET_EXTENSION" if j % 2 == 0 else "DENSIFICATION")
        if stage["index"] != j or stage["kind"] != kind:
            return f"stage {j} is {stage['index']}/{stage['kind']}, want {kind}"
        elements = stage["set"]
        if elements != sorted(set(elements)):
            return f"stage {j} set is not strictly increasing"
        current, added = set(elements), set(stage["added"])
        if 0 in current:
            return f"stage {j} contains 0"
        if (added & prev) or (prev | added) != current:
            return f"stage {j} is not stage {j - 1} plus its added elements"
        need = Counter(u_prefix[: (j + 2) // 2])
        for u, k in need.items():
            if rep(current, u) < k:
                return f"stage {j} represents target {u} fewer than {k} times"
        if j % 2 == 1:
            x = stage.get("x")
            if x is None or x <= last_x:
                return f"stage {j} checkpoint {x} does not increase"
            if not exceeds(count_in(elements, x), x, phi):
                return f"stage {j} count {count_in(elements, x)} does not beat the bar at x={x}"
            last_x = x
        elif "x" in stage:
            return f"stage {j} carries a checkpoint"
        prev = current
    # r_A only grows along a nested chain, so the last set bounds them all
    excess = first_excess(prev, f)
    if excess is not None:
        return f"r_A({excess}) exceeds f({excess})"
    return None
