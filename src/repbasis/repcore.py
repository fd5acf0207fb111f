"""Pair-sum counting over finite integer sets and prescribed-count targets.

Everything here is exact integer arithmetic except the density comparison,
which guards its float evaluation with an explicit margin.
"""

from __future__ import annotations

import json
import math
import operator
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Mapping

from .errors import (EmptySetError, InputTooLargeError, PreconditionViolatedError, _refuse_past_limit, echo,
                     require_int, require_type)

# Sentinel for "no finite bound at this n".  A plain float keeps min(),
# comparisons and JSON handling unsurprising.
INFINITY = math.inf

# Strict comparisons against sqrt(x)/phi(x) must clear this margin before a
# float verdict is trusted; ties and hairline wins count as failures.
DENSITY_MARGIN = 1e-9

# rep_profile refuses windows past this many entries rather than exhaust memory
PROFILE_WINDOW_LIMIT = 10**6


def _encode_count(value):
    return "inf" if value == INFINITY else int(value)


def _decode_count(raw, *, what: str):
    return INFINITY if raw == "inf" else require_int(raw, f'{what} (or "inf")')


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """json object_pairs_hook that rejects a key given twice in one object,
    where json.loads would silently keep the last value."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"duplicate key {echo(key)} in a JSON object")
        out[key] = value
    return out


def _json_loads(text: str):
    """json.loads that refuses a key given twice in one object, and nesting
    too deep for the parser with a ValueError, not a RecursionError."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError as exc:
        raise ValueError(str(exc)) from None


def _check_keys(data, required, optional=(), *, what: str, error=ValueError) -> None:
    """Refuse anything but a JSON object holding every key of `required` and
    no key outside `required` and `optional`, with one message shape:
    "<what> keys: missing [...]; unexpected [...]"."""
    if not isinstance(data, dict):
        raise error(f"{what} must be a JSON object")
    missing = sorted(required - data.keys())
    unexpected = sorted(data.keys() - required - set(optional))
    if missing or unexpected:
        found = (("missing", missing), ("unexpected", unexpected))
        raise error(f"{what} keys: " + "; ".join(f"{word} {echo(keys)}" for word, keys in found if keys))


@dataclass(frozen=True, eq=True)
class RepTarget:
    """Prescribed representation counts: explicit on |n| <= window_radius, a
    constant default outside.

    The default must be >= 1 (or INFINITY), so only finitely many integers can
    be assigned zero.
    """

    window_radius: int
    values: Mapping[int, int | float]
    default: int | float = 1

    def __post_init__(self):
        w = require_int(self.window_radius, "window", 0)
        if self.default != INFINITY:
            require_int(self.default, "default", 1)
        # 2w + 1 distinct keys, each an integer in [-w, w], cover the window
        # exactly; checked without building the window, which may be huge
        cover = f"values must cover exactly the integers n with |n| <= window={echo(w)}"
        for n, v in self.values.items():
            if type(n) is not int:  # messages are built only on these slow paths
                require_int(n, f"{cover}; key")
            if not -w <= n <= w:
                raise ValueError(f"{cover}; key {echo(n)} lies outside")
            if v != INFINITY and (type(v) is not int or v < 0):
                require_int(v, f"value at n={n}", 0)
        if len(self.values) != 2 * w + 1:  # too few keys: name the smallest n missing
            missing = next(n for n, key in zip(range(-w, w + 1), [*sorted(self.values), None]) if n != key)
            raise ValueError(f"{cover}; n={missing} is missing")
        object.__setattr__(self, "values", dict(self.values))

    @classmethod
    def constant(cls, value) -> "RepTarget":
        return cls(0, {0: value}, value)

    def value(self, n: int):
        """f(n) for an integer n."""
        return self._value(require_int(n, "n", error=PreconditionViolatedError))

    def _value(self, n: int):
        """f(n), unchecked, for the loops that look up every counted sum;
        the keys of `values` are exactly the integers of the window."""
        return self.values.get(n, self.default)

    def zero_points(self) -> list[int]:
        """All n with target value 0 (necessarily inside the window)."""
        return sorted(n for n, v in self.values.items() if v == 0)

    def max_finite(self, radius: int):
        """Largest finite prescribed value on [-radius, radius], or None
        when every value there is INFINITY."""
        candidates = [v for n, v in self.values.items() if abs(n) <= radius]
        if radius > self.window_radius:
            candidates.append(self.default)
        finite = [v for v in candidates if v != INFINITY]
        return max(finite) if finite else None

    def to_dict(self) -> dict:
        return {
            "window": self.window_radius,
            "values": {str(n): _encode_count(v) for n, v in sorted(self.values.items())},
            "default": _encode_count(self.default),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RepTarget":
        _check_keys(data, {"window", "values", "default"}, what="target")
        raw_values = data["values"]
        if not isinstance(raw_values, dict):
            raise ValueError("target values must be an object")
        values = {}
        for key, raw in raw_values.items():
            try:
                n = int(key)
            except (TypeError, ValueError):
                raise ValueError(f"target value key {echo(key)} is not an integer") from None
            # one spelling per n, so no two keys name the same n
            if str(n) != key:
                raise ValueError(f"target value key {echo(key)} names n={n} but is not written '{n}'")
            values[n] = _decode_count(raw, what=f"value at n={n}")
        return cls(data["window"], values, _decode_count(data["default"], what="default"))


def _require_ints(items, what: str = "element", error: type[Exception] = ValueError) -> None:
    """Refuse any item that is not an int, in one C-level pass; the first
    offender is looked up, and named as `what` with `error`, only on failure."""
    if not {int}.issuperset(map(type, items)):
        for e in items:
            require_int(e, what, error=error)


@dataclass(frozen=True, eq=True)
class FiniteBasis:
    """A finite set of integers, stored strictly increasing.

    Zero is representable (verification has to inspect corrupted stage sets),
    but every construction step rejects and never produces it.
    """

    elements: tuple[int, ...] = ()

    def __post_init__(self):
        els = self.elements
        if type(els) is not tuple:
            require_type(els, tuple, "elements")
        _require_ints(els)
        if not all(map(operator.lt, els, els[1:])):
            raise ValueError("elements must be strictly increasing")

    @classmethod
    def from_iterable(cls, items: Iterable[int]) -> "FiniteBasis":
        return cls(tuple(sorted(set(items))))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, value: int) -> bool:
        i = bisect_left(self.elements, value)
        return i < len(self.elements) and self.elements[i] == value

    def max_abs(self) -> int:
        if not self.elements:
            return 0
        return max(-self.elements[0], self.elements[-1])

    def union(self, extra: Iterable[int]) -> "FiniteBasis":
        return FiniteBasis.from_iterable((*self.elements, *extra))


def _require_basis(A) -> None:
    require_type(A, FiniteBasis, "A", PreconditionViolatedError)


def rep_function(A: FiniteBasis, n: int) -> int:
    """Number of unordered pairs a <= b in A with a + b = n."""
    _require_basis(A)
    require_int(n, "n", error=PreconditionViolatedError)
    count = 0
    for a in A.elements:
        if 2 * a > n:
            break
        if (n - a) in A:
            count += 1
    return count


def sum_counter(A: FiniteBasis) -> Counter:
    """Multiplicity of every realized pair sum a <= b over A.

    Every pair is enumerated, in the order of the double loop over
    i <= j, but Counter tallies them in one C-level pass."""
    _require_basis(A)
    els = A.elements
    return Counter(chain.from_iterable(map(a.__add__, els[i:]) for i, a in enumerate(els)))


def rep_profile(A: FiniteBasis) -> dict[int, int]:
    """Pair-sum counts over the canonical window [-2*max|a|, 2*max|a|].

    Every n in the window appears, zeros included.  The window has
    4*max|a| + 1 entries, so this is meant for small sets; past
    PROFILE_WINDOW_LIMIT entries it raises InputTooLargeError.
    """
    _require_basis(A)
    if not A.elements:
        raise EmptySetError("rep_profile needs a non-empty set")
    reach = 2 * A.max_abs()
    if 2 * reach + 1 > PROFILE_WINDOW_LIMIT:
        raise InputTooLargeError(
            f"rep_profile window of {2 * reach + 1} entries exceeds {PROFILE_WINDOW_LIMIT}"
        )
    profile = {n: 0 for n in range(-reach, reach + 1)}
    profile.update(sum_counter(A))
    return profile


def counting(A: FiniteBasis, y, x) -> int:
    """Number of elements of A in the closed interval [y, x]."""
    _require_basis(A)
    if y > x:
        return 0
    els = A.elements
    return bisect_right(els, x) - bisect_left(els, y)


def d0_of(f: RepTarget) -> int:
    """Smallest positive d such that f(n) >= 1 whenever |n| >= d."""
    zeros = require_type(f, RepTarget, "f").zero_points()
    if not zeros:
        return 1
    return max(abs(n) for n in zeros) + 1


class TargetSequence:
    """Deterministic enumeration u_1, u_2, ... hitting every n exactly f(n)
    times in the limit.

    Round t covers n = 0, 1, -1, ..., t, -t.  It emits n once per round
    from the first round that covers n, round max(|n|, 1), until n has f(n)
    emissions: exactly when t - max(|n|, 1) < f(n).  Once that fails for n
    it fails in every later round, so a round emits the previous round's
    list plus the newly covered n, less those whose emissions are spent.
    Prefixes are stable: growing the sequence never rewrites older terms.
    A sequence caches its emissions, so share one per owner.
    """

    def __init__(self, source: RepTarget):
        self.source = require_type(source, RepTarget, "f")
        self._emitted: list[int] = []
        self._live: list[int] = []  # the last round's terms, in the order 0, 1, -1, 2, -2, ...
        self._round = 0

    def _advance_round(self) -> None:
        self._round += 1
        t, value = self._round, self.source._value
        self._live.extend((0, 1, -1) if t == 1 else (t, -t))
        self._live = [n for n in self._live if t - (abs(n) or 1) < value(n)]
        self._emitted.extend(self._live)

    def prefix(self, m: int) -> list[int]:
        """The first m terms (m >= 0)."""
        require_int(m, "prefix length", 0)
        while len(self._emitted) < m:
            self._advance_round()
        return self._emitted[:m]


def target_prefix(f: RepTarget, m: int) -> list[int]:
    return TargetSequence(f).prefix(m)


_PHI_KINDS = ("log2", "ln", "pow", "clog")


@dataclass(frozen=True, eq=True)
class PhiSpec:
    """Growth function for the density requirement sqrt(x)/phi(x).

    Grammar: "log2" -> log2(x+2); "ln" -> ln(x+2); "pow:<eps>" -> x**eps with
    0 < eps < 1/2; "clog:<c>" -> c*ln(x+2) with c > 0.  Parameters are exact
    rationals.  Every admissible phi tends to infinity.
    """

    kind: str
    parameter: Fraction | None = None

    def __post_init__(self):
        if self.kind not in _PHI_KINDS:
            raise ValueError(f"unknown phi kind {echo(self.kind)}")
        if self.parameter is not None:
            if isinstance(self.parameter, bool) or not isinstance(self.parameter, (int, Fraction)):
                raise ValueError(f"bad phi parameter {echo(self.parameter)}")
        if self.kind in ("log2", "ln"):
            if self.parameter is not None:
                raise ValueError(f"phi kind {self.kind!r} takes no parameter")
        elif self.kind == "pow":
            if self.parameter is None or not (0 < self.parameter < Fraction(1, 2)):
                raise ValueError("pow exponent must satisfy 0 < eps < 1/2")
        elif self.kind == "clog":
            if self.parameter is None or self.parameter <= 0:
                raise ValueError("clog coefficient must be positive")
        as_float = None
        if self.parameter is not None:
            # phi is evaluated in floats, so the parameter must be one; it is
            # named by its power of ten, as its digits may be too many to print
            try:
                as_float = float(self.parameter)
            except OverflowError:
                as_float = math.inf
            if not 0 < as_float < math.inf:
                power = round(math.log10(self.parameter.numerator) - math.log10(self.parameter.denominator))
                raise ValueError(f"phi parameter of {self.kind} is about 10^{power}, outside the float range")
            # str() writes the parameter in full, which the interpreter refuses
            # past its digit limit; the larger of its two terms bounds the digits
            _refuse_past_limit(max(map(abs, self.parameter.as_integer_ratio())), f"phi parameter of {self.kind}")
        # converted once, as evaluate reads it on every call; not a field, so
        # eq, hash and repr see only kind and parameter
        object.__setattr__(self, "_float", as_float)

    @classmethod
    def parse(cls, text: str) -> "PhiSpec":
        if not isinstance(text, str):
            raise ValueError("phi spec must be a string")
        head, sep, tail = text.partition(":")
        if not sep:
            return cls(head)
        try:
            parameter = Fraction(tail)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad phi parameter {echo(tail)}") from None
        return cls(head, parameter)

    def __str__(self) -> str:
        if self.parameter is None:
            return self.kind
        return f"{self.kind}:{self.parameter}"

    def evaluate(self, x) -> float:
        """phi(x) for x >= 0, as a float, or math.inf when that passes the
        float range.  Handles arbitrarily large ints."""
        if x < 0:
            raise ValueError("phi is evaluated on non-negative x")
        if self.kind == "log2":
            return math.log2(x + 2)
        if self.kind == "ln":
            return math.log(x + 2)
        if self.kind == "clog":
            return self._float * math.log(x + 2)
        # pow: route through exp/log so huge integers do not overflow float pow
        if x == 0:
            return 0.0
        return _exp(self._float * math.log(x))


def _exp(log_value: float) -> float:
    """e**log_value, or math.inf when that passes the float range."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def real_sqrt(x) -> float:
    """sqrt(x) as a float, or math.inf when that passes the float range."""
    if x < 0:
        raise ValueError("sqrt of negative value")
    try:
        return math.sqrt(x)
    except OverflowError:
        return _exp(0.5 * math.log(x))


def density_demand(x, phi: PhiSpec) -> float:
    """The bar sqrt(x)/phi(x) that a count must strictly exceed, for an
    integer x >= 1.

    A number below 1 gets the bar's own message, and anything else that is
    not an int is refused by the integer rule.  Once sqrt(x) passes the
    float range the bar is taken in log space, and it is math.inf only when
    the bar itself passes the float range: no count a finite set can hold
    comes near it, so no verdict turns on it.
    """
    if type(x) is not int and not (isinstance(x, (int, float)) and x < 1):
        require_int(x, "x", 1)
    if x < 1:
        raise ValueError(f"the density bar is defined for x >= 1, got x={echo(x)}")
    if type(phi) is not PhiSpec:  # the scans pass a PhiSpec, so they skip the check
        require_type(phi, PhiSpec, "phi")
    root = real_sqrt(x)
    if root < INFINITY:
        return root / phi.evaluate(x)
    if phi.kind == "pow":
        log_phi = phi._float * math.log(x)
    else:
        log_phi = math.log(phi.evaluate(x))
    return _exp(0.5 * math.log(x) - log_phi)


def density_exceeds(count: int, x, phi: PhiSpec) -> bool:
    """Strict count > sqrt(x)/phi(x) for an integer count and an integer
    x >= 1, trusted only past the float margin."""
    if type(count) is not int:  # the scans pass ints, so they skip the check
        require_int(count, "count")
    return count > density_demand(x, phi) + DENSITY_MARGIN
