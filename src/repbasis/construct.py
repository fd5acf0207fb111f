"""Staged construction of nested integer sets with prescribed pair-sum counts.

A run alternates two moves.  An extension stage adjoins a pair {-c, c+u}
so the next target value u gains one representation.  A densification
stage adjoins a dilated Sidon set so the element count inside [-x, x]
beats sqrt(x)/phi(x) at a recorded checkpoint x.  Both moves keep every
pair-sum count at or below the prescribed bound f, so `build` runs them
directly; the public `extend_target` and `densify` check their inputs first.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from collections import Counter
from dataclasses import dataclass
from json.encoder import c_make_encoder, encode_basestring_ascii

from .errors import MalformedTraceError, PhiTooSlowError, PreconditionViolatedError, echo
from .repcore import (
    FiniteBasis,
    PhiSpec,
    RepTarget,
    TargetSequence,
    _check_keys,
    _json_loads,
    counting,
    d0_of,
    density_exceeds,
    density_out_of_reach,
    rep_function,
    sum_counter,
    target_prefix,
)
from .sidon import SidonLadder, SidonSet

DEFAULT_SEARCH_CAP = 10**9
SEARCH_CAP_ENV = "REPBASIS_SEARCH_CAP"

KIND_BASE = "BASE"
KIND_EXTENSION = "TARGET_EXTENSION"
KIND_DENSIFICATION = "DENSIFICATION"


def resolve_search_cap(cap: int | None = None) -> int:
    """Explicit argument, else the REPBASIS_SEARCH_CAP env var, else 10**9."""
    if cap is None:
        raw = os.environ.get(SEARCH_CAP_ENV)
        if raw is None:
            return DEFAULT_SEARCH_CAP
        try:
            cap = int(raw)
        except ValueError:
            raise ValueError(f"{SEARCH_CAP_ENV} must be a positive integer, got {echo(raw)}") from None
    if not isinstance(cap, int) or isinstance(cap, bool) or cap < 1:
        raise ValueError(f"search cap must be a positive integer, got {echo(cap)}")
    return cap


def _as_phi(phi: PhiSpec | str) -> PhiSpec:
    if isinstance(phi, str):
        return PhiSpec.parse(phi)
    if not isinstance(phi, PhiSpec):
        raise TypeError(f"phi must be a PhiSpec or a spec string, got {type(phi).__name__}")
    return phi


def expected_m_covered(index: int) -> int:
    # base covers u_1; stages 2l and 2l+1 both certify the first l+1 targets
    return (index + 2) // 2


def expected_kind(index: int) -> str:
    if index == 1:
        return KIND_BASE
    return KIND_EXTENSION if index % 2 == 0 else KIND_DENSIFICATION


@dataclass(frozen=True, eq=True)
class StageRecord:
    """One stage of a construction: the set after the move, what was added,
    and the density checkpoint when the stage certifies one."""

    index: int
    kind: str
    set: FiniteBasis
    added: FiniteBasis
    x: int | None = None

    @property
    def m_covered(self) -> int:
        """How many leading targets the stage certifies, fixed by its index."""
        return expected_m_covered(self.index)


@dataclass(frozen=True, eq=True)
class ConstructionTrace:
    f: RepTarget
    phi: PhiSpec
    u_prefix: tuple[int, ...]
    stages: tuple[StageRecord, ...]

    def final_set(self) -> FiniteBasis:
        return self.stages[-1].set

    def checkpoints(self) -> list[tuple[int, int, FiniteBasis]]:
        """(stage index, x, stage set) for every stage that records an x."""
        return [(s.index, s.x, s.set) for s in self.stages if s.x is not None]


def _reject_bad_pair_counts(A: FiniteBasis, f: RepTarget, context: str) -> Counter:
    counts = sum_counter(A)
    for n in sorted(counts):
        fv = f.value(n)
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
    extra_count + s + ceil(sqrt(s)) with s = ceil(sqrt(hi)).  The block is
    ruled out when that count is out of reach for x in [scale*lo, scale*hi].
    """
    hi = limit
    while hi >= 1:
        lo = 1 << (hi.bit_length() - 1)
        s = math.isqrt(hi - 1) + 1  # ceil(sqrt(hi))
        t = math.isqrt(s - 1) + 1  # ceil(sqrt(s))
        if not density_out_of_reach(extra_count + s + t, scale * lo, scale * hi, phi):
            return hi
        hi = lo - 1
    return 0


def _density_search(
    phi: PhiSpec,
    scale: int,
    extra_count: int,
    min_x: int | None,
    cap: int,
    context: str,
) -> tuple[int, int, SidonSet]:
    """Smallest n >= 1 such that x = scale*n clears every admission rule:
    x > min_x when given, the best Sidon set D in [1, n] has 4|D|^2 > n,
    and extra_count + |D| strictly beats sqrt(x)/phi(x).

    While |D| stays the same, both rules can only turn false as n grows,
    so they are evaluated at the first n and wherever |D| grows.  The scan
    ends at the last n that Lindström's bound leaves open.

    Returns (n, x, D).  Raises PhiTooSlowError once x would pass cap.
    """
    n = 1 if min_x is None else min_x // scale + 1
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
    phi = _as_phi(phi)
    cap = resolve_search_cap(search_cap)
    u1 = target_prefix(f, 1)[0]
    d0 = d0_of(f)
    c = 4 * d0 if u1 >= 0 else -4 * d0
    alpha = abs(2 * c + 2 * u1)
    scale = 3 * alpha
    n, x, D = _density_search(phi, scale, 2, None, cap, "base stage scan")
    A1 = FiniteBasis.from_iterable([scale * d for d in D] + [-c, c + u1])
    # the dilation spreads D past both tag elements, so nothing collides
    assert len(A1) == len(D) + 2 and counting(A1, -x, x) == len(A1)
    return StageRecord(index=1, kind=KIND_BASE, set=A1, added=A1, x=x)


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
    A: FiniteBasis, f: RepTarget, phi: PhiSpec, M: int, cap: int
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
    if m < 0:
        raise ValueError("m must be >= 0")
    prefix = u.prefix(m + 1)
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
    phi = _as_phi(phi)
    cap = resolve_search_cap(search_cap)
    if M < 1:
        raise PreconditionViolatedError(f"densification: M must be >= 1, got {M}")
    _reject_zero_member(A, "densification")
    _reject_bad_pair_counts(A, f, "densification")
    D, x = _dilated_sidon(A, f, phi, M, cap)
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

    phi may be given as a spec string such as "log2" or "pow:1/4".
    """
    if not isinstance(L, int) or isinstance(L, bool) or L < 1:
        raise ValueError(f"stage count L must be an integer >= 1, got {echo(L)}")
    phi = _as_phi(phi)
    cap = resolve_search_cap(search_cap)
    u_prefix = tuple(target_prefix(f, L + 1))
    stages = [base_case(f, phi, search_cap=cap)]
    for l in range(1, L + 1):
        previous = stages[-1]
        pair = FiniteBasis.from_iterable(_extension_pair(previous.set, f, u_prefix[: l + 1]))
        extended = previous.set.union(pair)
        stages.append(StageRecord(2 * l, KIND_EXTENSION, extended, pair))
        D, x = _dilated_sidon(extended, f, phi, previous.x, cap)
        stages.append(StageRecord(2 * l + 1, KIND_DENSIFICATION, extended.union(D), D, x))
    return ConstructionTrace(f=f, phi=phi, u_prefix=u_prefix, stages=tuple(stages))


def validate_trace_structure(trace: ConstructionTrace) -> None:
    """Shape rules every trace object must satisfy before semantic checks.

    Raises MalformedTraceError; semantic violations (densities, coverage,
    nesting) are the verify module's job and come back as report entries.
    """
    stages = trace.stages
    if not stages:
        raise MalformedTraceError("trace has no stages")
    if len(stages) % 2 == 0:
        raise MalformedTraceError("trace must end on a checkpoint stage (odd stage count)")
    for pos, s in enumerate(stages, start=1):
        if s.index != pos:
            raise MalformedTraceError(f"stage at position {pos} carries index {echo(s.index)}")
        if s.kind != expected_kind(pos):
            raise MalformedTraceError(
                f"stage {pos} kind {echo(s.kind)} does not match position (want {expected_kind(pos)!r})"
            )
        if (s.x is not None) != (pos % 2 == 1):
            raise MalformedTraceError(f"stage {pos} must carry x exactly when its index is odd")
        if s.x is not None and s.x < 1:
            raise MalformedTraceError(f"stage {pos} checkpoint x must be positive, got {echo(s.x)}")
    want_targets = (len(stages) + 1) // 2
    if len(trace.u_prefix) != want_targets:
        raise MalformedTraceError(
            f"u_prefix length {len(trace.u_prefix)} does not match stage count "
            f"(want {want_targets})"
        )


def trace_to_dict(trace: ConstructionTrace) -> dict:
    stages = []
    for s in trace.stages:
        entry: dict = {
            "index": s.index,
            "kind": s.kind,
            "set": list(s.set),
            "added": list(s.added),
        }
        if s.x is not None:
            entry["x"] = s.x
        stages.append(entry)
    return {
        "f": trace.f.to_dict(),
        "phi": str(trace.phi),
        "u_prefix": list(trace.u_prefix),
        "stages": stages,
    }


# Before Python 3.13, json.dumps with an indent runs the pure-Python encoder,
# so there canonical_json hands each container of scalars to the C encoder
# itself; an interpreter without the C encoder has only json.dumps.
_INDENT_IN_C = sys.version_info >= (3, 13) or c_make_encoder is None
_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _flat_encoder(newline_indent: str):
    """The C encoder with sorted keys, writing each item of one container
    on its own line after newline_indent."""
    return c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii,
                          None, ": ", "," + newline_indent, True, False, True)


def _canonical_parts(obj, newline_indent: str, parts: list) -> None:
    """Append obj's canonical text to parts; newline_indent starts the line
    of obj's closing bracket."""
    is_dict = isinstance(obj, dict)
    if not obj or not (is_dict or isinstance(obj, (list, tuple))):
        parts += _flat_encoder(newline_indent)(obj, 0)  # a scalar or an empty container
        return
    inner = newline_indent + "  "
    if _SCALAR_TYPES.issuperset(map(type, obj.values() if is_dict else obj)):
        text = "".join(_flat_encoder(inner)(obj, 0))
        parts += (text[0], inner, text[1:-1], newline_indent, text[-1])
        return
    parts.append("{" if is_dict else "[")
    for i, item in enumerate(sorted(obj.items()) if is_dict else obj):
        parts.append("," + inner if i else inner)
        if is_dict:
            parts += (encode_basestring_ascii(item[0]), ": ")
            item = item[1]
        _canonical_parts(item, inner, parts)
    parts += (newline_indent, "}" if is_dict else "]")


def canonical_json(obj) -> str:
    """The canonical text of a JSON document whose keys are all strings:
    byte for byte json.dumps(obj, sort_keys=True, indent=2) plus one newline.
    A raw newline never occurs inside an encoded string, so writing each
    container of scalars with the C encoder changes no byte."""
    if _INDENT_IN_C:
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    parts: list[str] = []
    _canonical_parts(obj, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def trace_dumps(trace: ConstructionTrace) -> str:
    """Canonical text form: sorted keys, two-space indent, one trailing
    newline.  Identical traces serialize to identical bytes."""
    return canonical_json(trace_to_dict(trace))


def _require_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedTraceError(f"{what} must be an integer, got {echo(value)}")
    return value


def _int_list(raw, what: str) -> list[int]:
    if not isinstance(raw, list):
        raise MalformedTraceError(f"{what} must be a list")
    if not {int}.issuperset(map(type, raw)):  # one C-level pass; walk only to name the offender
        for v in raw:
            _require_int(v, f"{what} entry")
    return raw


def _strict_basis(raw, what: str) -> FiniteBasis:
    if isinstance(raw, list):
        try:  # FiniteBasis makes the one type pass and the order pass
            return FiniteBasis(tuple(raw))
        except ValueError:
            pass
    _int_list(raw, what)  # names a non-list or the first non-integer entry
    raise MalformedTraceError(f"{what} must be strictly increasing")


def trace_from_dict(data) -> ConstructionTrace:
    """Parse and structurally validate the canonical trace mapping."""
    _check_keys(data, {"f", "phi", "u_prefix", "stages"}, what="trace", error=MalformedTraceError)
    try:
        f = RepTarget.from_dict(data["f"])
    except ValueError as exc:
        raise MalformedTraceError(f"bad target function: {exc}") from None
    try:
        phi = PhiSpec.parse(data["phi"])
    except ValueError as exc:
        raise MalformedTraceError(f"bad phi: {exc}") from None
    u_prefix = tuple(_int_list(data["u_prefix"], "u_prefix"))
    if not isinstance(data["stages"], list):
        raise MalformedTraceError("stages must be a list")
    stages = []
    for pos, raw in enumerate(data["stages"], start=1):
        _check_keys(raw, {"index", "kind", "set", "added"}, ("x",), what=f"stage {pos}",
                    error=MalformedTraceError)
        stages.append(
            StageRecord(
                index=_require_int(raw["index"], f"stage {pos} index"),
                kind=raw["kind"],
                set=_strict_basis(raw["set"], f"stage {pos} set"),
                added=_strict_basis(raw["added"], f"stage {pos} added"),
                x=_require_int(raw["x"], f"stage {pos} x") if "x" in raw else None,
            )
        )
    trace = ConstructionTrace(f=f, phi=phi, u_prefix=u_prefix, stages=tuple(stages))
    validate_trace_structure(trace)
    return trace


def trace_loads(text: str) -> ConstructionTrace:
    try:  # bad syntax, a duplicate key, an over-long integer or too deep nesting
        data = _json_loads(text)
    except ValueError as exc:
        raise MalformedTraceError(f"trace is not valid JSON: {exc}") from None
    return trace_from_dict(data)
