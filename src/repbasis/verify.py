"""Brute-force oracles for every claim a construction trace makes.

Nothing here reuses the construction's intermediate quantities (c, d, T,
or the Sidon set).  Each check re-derives its verdict from the stage
sets, the checkpoints, and the prescribed function alone, so agreement
with the builder is evidence rather than tautology.  The module imports
only `errors`, `repcore` and `trace`, so a verdict runs none of the
builder's code (`construct`, `sidon`).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .errors import PreconditionViolatedError, _int_text, _refuse_past_limit, echo, require_int, require_type
from .repcore import (
    INFINITY,
    FiniteBasis,
    RepTarget,
    _require_basis,
    counting,
    density_demand,
    density_exceeds,
    rep_function,
    sum_counter,
)
from .trace import (
    KIND_BASE,
    KIND_DENSIFICATION,
    KIND_EXTENSION,
    ConstructionTrace,
    StageRecord,
    _refuse_past_pair_limit,
)

# condition names, numbered as the stage invariants they certify
COND_PAIR_BOUND = "condition_1_pair_bound"
COND_COVERAGE = "condition_2_coverage"
COND_DENSITY = "condition_3_density"
COND_ZERO_FREE = "condition_4_zero_free"
COND_NESTING = "nesting"
COND_MONOTONE = "checkpoint_monotone"
COND_U_PREFIX = "u_prefix_consistency"


@dataclass(frozen=True, eq=True)
class CheckResult:
    condition: str
    stage: int | None
    passed: bool
    witness: int | None
    detail: str

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True, eq=True)
class _CheckList:
    """A sequence of checks that passes when every check passes."""

    checks: tuple[CheckResult, ...]
    _key = "checks"  # the key to_dict lists the checks under

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {"passed": self.passed, self._key: [c.to_dict() for c in self.checks]}


class InvariantReport(_CheckList):
    """The per-stage invariants followed by the trace-global checks."""


@dataclass(frozen=True, eq=True)
class DecompositionReport(_CheckList):
    kind: str

    def to_dict(self) -> dict:
        return {"kind": self.kind, **super().to_dict()}


def _ok(condition: str, stage: int | None, detail: str = "") -> CheckResult:
    return CheckResult(condition, stage, True, None, detail)


def _fail(condition: str, stage: int | None, witness: int | None, detail: str) -> CheckResult:
    return CheckResult(condition, stage, False, witness, detail)


def check_invariants(trace: ConstructionTrace) -> InvariantReport:
    """Re-verify the four per-stage invariants plus trace-global coherence,
    in verify_trace's walk, whose other parts it drops.

    Structural defects (bad indices, misplaced checkpoints, an extension
    that adds neither 0 nor 2 elements) are refused with MalformedTraceError
    when the trace is made; semantic violations come back as failed entries
    with a concrete integer witness.
    """
    return _walk(trace)[0]


def _recount(A: FiniteBasis) -> tuple[set, Counter]:
    """The pair-sum tally of A, as the set of its distinct sums and the
    counts of those that occur more than once.  When the k(k+1)/2 pairs give
    as many distinct sums, nothing repeats and the pairs are not counted
    again."""
    els, k = A.elements, len(A)
    sums = {a + b for i, a in enumerate(els) for b in els[i:]}
    return sums, Counter() if len(sums) == k * (k + 1) // 2 else _repeats(sum_counter(A))


def _repeats(counts: Counter) -> Counter:
    """The entries of `counts` above 1."""
    return Counter({n: r for n, r in counts.items() if r > 1})


def _stage_invariants(
    trace: ConstructionTrace,
    s: StageRecord,
    nesting: CheckResult,
    sums: set,
    repeats: Counter,
    zeros: list[int],
) -> list[CheckResult]:
    """Zero-freeness, nesting, pair bound, coverage and density of one stage;
    `nesting` is its _nesting_check, `sums` and `repeats` its pair-sum tally
    (the distinct sums, and the counts of those that repeat), and `zeros`
    the points where trace.f prescribes 0."""
    f = trace.f

    def count(n: int) -> int:
        return repeats.get(n) or int(n in sums)

    checks: list[CheckResult] = []
    if 0 in s.set:
        checks.append(_fail(COND_ZERO_FREE, s.index, 0, "0 is an element of the stage set"))
    else:
        checks.append(_ok(COND_ZERO_FREE, s.index))

    checks.append(nesting)

    # a count above f(n) is a repeat above f(n), or a sum met once where f
    # prescribes 0
    over = [n for n, r in repeats.items() if r > f._value(n)]
    n = min(over + [z for z in zeros if z in sums], default=None)
    if n is not None:
        detail = f"rep count {count(n)} exceeds prescribed {f._value(n)} at n={n}"
        checks.append(_fail(COND_PAIR_BOUND, s.index, n, detail))
    else:
        checks.append(_ok(COND_PAIR_BOUND, s.index, "pair-sum counts within bounds"))

    need = Counter(trace.u_prefix[: s.m_covered])
    n = min((n for n in need if count(n) < need[n]), default=None)
    if n is not None:
        detail = f"target n={n} needs {need[n]} representations, set gives {count(n)}"
        checks.append(_fail(COND_COVERAGE, s.index, n, detail))
    else:
        checks.append(_ok(COND_COVERAGE, s.index, f"first {s.m_covered} targets covered"))

    if s.x is not None:
        cnt = counting(s.set, -s.x, s.x)
        demand = density_demand(s.x, trace.phi)
        if density_exceeds(cnt, s.x, trace.phi):
            detail = f"count {cnt} > sqrt(x)/phi(x) = {demand:.6f}"
            checks.append(_ok(COND_DENSITY, s.index, detail))
        else:
            detail = f"count {cnt} does not clear sqrt(x)/phi(x) = {demand:.6f} at x={s.x}"
            checks.append(_fail(COND_DENSITY, s.index, s.x, detail))
    return checks


def _trace_invariants(trace: ConstructionTrace) -> list[CheckResult]:
    """Checkpoint monotonicity and the u_prefix enumeration."""
    checks: list[CheckResult] = []
    seen_x = [(idx, x) for idx, x, _ in trace.checkpoints()]
    pairs = zip(seen_x, seen_x[1:])
    monotone_fail = next(((idx, x) for (_, x_prev), (idx, x) in pairs if x <= x_prev), None)
    if monotone_fail:
        idx, x = monotone_fail
        checks.append(_fail(COND_MONOTONE, idx, x, f"checkpoint x={x} does not increase"))
    else:
        checks.append(_ok(COND_MONOTONE, None, "checkpoints strictly increase"))

    u_prefix = trace.u_prefix
    expected_prefix = _spiral(trace.f, len(u_prefix))
    if expected_prefix != u_prefix:
        pos = next(i for i, (a, b) in enumerate(zip(expected_prefix, u_prefix)) if a != b)
        detail = f"u_prefix[{pos}] is {u_prefix[pos]}, enumeration gives {expected_prefix[pos]}"
        checks.append(_fail(COND_U_PREFIX, None, u_prefix[pos], detail))
    else:
        checks.append(_ok(COND_U_PREFIX, None, "u_prefix matches the deterministic enumeration"))
    return checks


def _spiral(f: RepTarget, m: int) -> tuple[int, ...]:
    """The first m targets, by their definition: round t = 1, 2, ... scans
    n = 0, 1, -1, ..., t, -t and emits each n while t - max(|n|, 1) < f(n)."""
    out: list[int] = []
    t = 0
    while len(out) < m:
        t += 1
        scan = chain((0,), chain.from_iterable((j, -j) for j in range(1, t + 1)))
        out += [n for n in scan if t - max(abs(n), 1) < f._value(n)]
    return tuple(out[:m])


def _nesting_check(s: StageRecord, prev: FiniteBasis | None) -> CheckResult:
    """Stage 1 (no prev) must list itself as added; a later stage must be prev
    plus added elements prev lacks, so a pass implies prev | added == set.

    Stage sets are strictly increasing, so one C-level comparison of the
    elements settles a pass; only a failure builds the sets that name its
    smallest witness."""
    index = s.index
    if prev is None:
        if s.set.elements == s.added.elements:
            return _ok(COND_NESTING, index, "base stage added equals its set")
        w = min(set(s.set) ^ set(s.added))
        return _fail(COND_NESTING, index, w, "base stage must list itself as added")
    if sorted(prev.elements + s.added.elements) == list(s.set.elements):
        return _ok(COND_NESTING, index, "stage extends the previous set by exactly its added elements")
    before, added = set(prev), set(s.added)
    overlap = before & added
    if overlap:
        w = min(overlap)
        return _fail(COND_NESTING, index, w, f"added element {w} already present before stage {index}")
    # prev and added are disjoint, so their union differs from the set
    w = min((before | added) ^ set(s.set))
    detail = f"stage {index} set is not the previous set plus its added elements (mismatch at {w})"
    return _fail(COND_NESTING, index, w, detail)


def check_decomposition(A: FiniteBasis, added, kind: str) -> DecompositionReport:
    """Rebuild the three parts of 2B, B = A plus the added elements, and
    test the disjointness and piecewise count claims for the given kind.

    For an extension the covered target u (the sum of the two added
    elements) may legitimately appear among the old pair sums; its count
    rises by exactly one and it is exempt from the disjointness demand.
    """
    _require_basis(A)
    # every entry is checked before sorted compares any two
    added_tuple = tuple(sorted([require_int(t, "added element", error=PreconditionViolatedError)
                                for t in added]))
    if not added_tuple:
        raise PreconditionViolatedError("decomposition needs a nonempty added list")
    if kind not in (KIND_EXTENSION, KIND_DENSIFICATION):
        raise ValueError(f"kind must be {KIND_EXTENSION!r} or {KIND_DENSIFICATION!r}, got {echo(kind)}")
    if kind == KIND_EXTENSION and len(added_tuple) != 2:
        raise PreconditionViolatedError(
            f"an extension adjoins exactly two elements, got {len(added_tuple)}"
        )
    # a witness or detail writes a pair sum in full, so it must be printable,
    # as a trace's shape rules also demand; a + a with |a| largest is the largest
    _refuse_past_limit(2 * max(A.max_abs(), -added_tuple[0], added_tuple[-1]), "pair sum", PreconditionViolatedError)
    _refuse_past_pair_limit(len(A) + len(added_tuple), "decomposition")
    return _decompose(A, *_recount(A), added_tuple, kind)


def _decompose(A: FiniteBasis, sums: set, repeats: Counter, added: tuple[int, ...], kind: str) -> DecompositionReport:
    """The decomposition checks of A plus the sorted `added`, given the
    pair-sum tally of A (`sums`, its distinct sums, and `repeats`, the counts
    of those that repeat), which becomes the union's in place.  With F the
    distinct added elements that A lacks, the union's sums are, as a
    multiset, the old sums, a + t for a in A and t in F, and t + t' for
    t <= t' in F.

    The cross and self sums are added to `sums` once, and the number of
    sums that gains decides all five uniqueness and disjointness checks.
    When one fails, A is counted afresh, the union's counts are A's plus the
    cross and self sums over F, and the checks run one by one, so that each
    names its smallest witness."""
    els = A.elements
    u = added[0] + added[1] if kind == KIND_EXTENSION else None
    cross = [t + a for t in added for a in els]
    self_part = [t + s for i, t in enumerate(added) for s in added[i:]]
    had_u, before = u in sums, len(sums)
    sums.update(cross)
    sums.update(self_part)
    # the set gains one sum per new sum, less the repeats among the new sums
    # and less the distinct new sums that were old ones.  u is a self sum, so
    # all five checks pass exactly when those two shortfalls add up to had_u.
    # Then a repeated t, or a t already in A, would give 2t twice, so F is
    # `added`, every new sum but u is met once, u once more than before, and
    # the piecewise formula holds by arithmetic
    if len(sums) - before == len(cross) + len(self_part) - had_u:
        if had_u:
            repeats[u] = (repeats.get(u) or 1) + 1
        u_exempt = _disjoint_check("old_self_disjoint", set(), set(), exempt=u)
        return DecompositionReport(kind=kind, checks=(*_PASSED, u_exempt, _PIECEWISE_OK))
    # a check fails: count A afresh, as `sums` no longer tells the old sums
    # from the new
    counts = sum_counter(A)
    checks = _part_checks(counts.keys(), cross, self_part, u)
    # the piecewise formula on every cross and self sum: 1 on a new sum, the old
    # count on an old one, one more than that at the covered target; off those
    # sums the formula and the union both give the old count
    expected = dict.fromkeys(chain(cross, self_part), 1)
    for n in expected.keys() & counts.keys():
        expected[n] = counts[n] + (n == u)
    # `added` may repeat a value or hold one of A's, so F is deduplicated
    F = sorted(set(added).difference(els))
    union = counts.copy()
    union.update([t + a for t in F for a in els])
    union.update([t + s for i, t in enumerate(F) for s in F[i:]])
    # one C-level comparison settles a full match, as every cross and self sum
    # is a key of the union's counts; otherwise the per-sum scan names the
    # smallest witness
    if expected.items() <= union.items():
        checks.append(_PIECEWISE_OK)
    else:
        n = next(n for n in sorted(expected) if union[n] != expected[n])
        detail = f"rep count at n={n} is {union[n]}, piecewise formula gives {expected[n]}"
        checks.append(_fail("piecewise_formula", None, n, detail))
    # `sums` already holds every sum of the union, as each cross or self sum
    # is one; only the repeats change
    repeats.clear()
    repeats.update(_repeats(union))
    return DecompositionReport(kind=kind, checks=tuple(checks))


def _part_checks(old, cross: list[int], self_part: list[int], u: int | None) -> list[CheckResult]:
    """The uniqueness checks of the cross and self parts, and the disjointness
    checks of them and the old sums `old` (a set or key view), u exempt."""
    cross_set, self_set = set(cross), set(self_part)
    return [
        _unique_part_check("cross_part_unique", cross, cross_set),
        _unique_part_check("self_part_unique", self_part, self_set),
        _disjoint_check("old_cross_disjoint", old, cross_set, exempt=None),
        _disjoint_check("cross_self_disjoint", cross_set, self_set, exempt=None),
        _disjoint_check("old_self_disjoint", old, self_set, exempt=u),
    ]


def _unique_part_check(name: str, part: list[int], distinct: set[int]) -> CheckResult:
    # the part's sums are distinct exactly when its set is as long as its list
    if len(distinct) != len(part):
        n = min(n for n, k in Counter(part).items() if k > 1)
        return _fail(name, None, n, f"sum {n} realized {part.count(n)} times within one part")
    return _ok(name, None, "all sums within the part are distinct")


def _disjoint_check(name: str, left, right: set[int], exempt: int | None) -> CheckResult:
    # C-level intersection that probes the smaller of the key view or set in
    # the larger
    overlap = left & right
    if exempt is not None:
        overlap.discard(exempt)
    if overlap:
        n = min(overlap)
        detail = f"sum {n} appears in both parts"
        if exempt is not None:
            detail += f" (only {exempt} is exempt)"
        return _fail(name, None, n, detail)
    detail = "parts share no sum"
    if exempt is not None:
        detail += f" besides the covered target {exempt}"
    return _ok(name, None, detail)


# the records of a passing stage's checks that do not name u: parts that
# hold no sums pass them
_PASSED = tuple(_part_checks(set(), [], [], None)[:4])
_PIECEWISE_OK = _ok("piecewise_formula", None, "piecewise counts match the union's pair counts")


def upper_bound_check(A: FiniteBasis, x: int, r: int) -> bool:
    """Exact pigeonhole sanity bound: with k elements in [-x, x], the
    k(k+1)/2 pair sums land in [-2x, 2x], so k(k+1)/2 <= r(4x+1) whenever
    every rep count is at most r."""
    require_int(x, "x", 0, PreconditionViolatedError)
    require_int(r, "r", 0, PreconditionViolatedError)
    return _pigeonhole(counting(A, -x, x), x, r)[0]


def _pigeonhole(k: int, x: int, r: int) -> tuple[bool, int, int]:
    """Whether k(k+1)/2 <= r(4x+1), with both sides."""
    pairs, slots = k * (k + 1) // 2, r * (4 * x + 1)
    return pairs <= slots, pairs, slots


def _run_bound(run: tuple[StageRecord, ...], x: int, r: int) -> CheckResult:
    """The upper-bound record of one nested run at the checkpoint (x, r).

    Each stage of the run contains the one before it, so its count in
    [-x, x] never falls and the bound, once broken, stays broken.  The
    run's last stage decides it; only a failure bisects for the first
    stage that breaks it, which the record names."""
    def exceeds(s: StageRecord) -> bool:
        return not upper_bound_check(s.set, x, r)

    last = run[-1]
    s = run[bisect_left(run, True, hi=len(run) - 1, key=exceeds)] if exceeds(last) else last
    k = counting(s.set, -x, x)
    fits, pairs, slots = _pigeonhole(k, x, r)
    # r may be an f value near the digit limit, so the product may pass it
    detail = f"stages {run[0].index}-{last.index}: k={k}, k(k+1)/2={pairs}, bound r(4x+1)={_int_text(slots)}"
    if fits:
        return _ok("upper_bound", s.index, detail)
    return _fail("upper_bound", s.index, x, f"{detail}; stages {s.index}-{last.index} fail")


@dataclass(frozen=True, eq=True)
class EqualityEntry:
    n: int
    stage: int
    required: int
    actual: int

    @property
    def passed(self) -> bool:
        return self.actual == self.required

    ok = passed

    def to_dict(self) -> dict:
        return {**vars(self), "ok": self.passed}


class EqualityReport(_CheckList):
    """Exhausted-target equalities; its checks are EqualityEntry records."""

    _key = "entries"

    @property
    def entries(self) -> tuple[EqualityEntry, ...]:
        return self.checks


def check_equality_coverage(trace: ConstructionTrace) -> EqualityReport:
    """Exact equality where the target is exhausted.

    A finite value f(n) is exhausted once the covered prefix contains n
    exactly f(n) times; the final stage must then give n exactly f(n)
    representations.  Prescribed zeros are exhausted from the start and
    are checked against every stage.
    """
    require_type(trace, ConstructionTrace, "trace")
    final = trace.stages[-1]
    covered = Counter(trace.u_prefix[: final.m_covered])
    entries: list[EqualityEntry] = []
    for n in sorted(covered):
        fv = trace.f._value(n)
        if fv != INFINITY and covered[n] == fv:
            entries.append(
                EqualityEntry(n=n, stage=final.index, required=fv, actual=rep_function(final.set, n))
            )
    for n in trace.f.zero_points():
        for s in trace.stages:
            entries.append(
                EqualityEntry(n=n, stage=s.index, required=0, actual=rep_function(s.set, n))
            )
    return EqualityReport(tuple(entries))


@dataclass(frozen=True, eq=True)
class VerificationReport:
    invariants: InvariantReport
    decompositions: tuple[tuple[int, DecompositionReport], ...]
    equality: EqualityReport
    upper_bounds: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return not self.failures()

    def failures(self) -> list[str]:
        line = "{0.condition} stage={0.stage} witness={0.witness}: {0.detail}".format
        out = [line(c) for c in self.invariants.failures()]
        out += [f"decomposition stage={idx} {c.condition} witness={c.witness}: {c.detail}"
                for idx, rep in self.decompositions for c in rep.failures()]
        out += [f"equality n={e.n} stage={e.stage}: rep count {e.actual}, prescribed {e.required}"
                for e in self.equality.failures()]
        return out + [line(c) for c in self.upper_bounds if not c.passed]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "invariants": self.invariants.to_dict(),
            "decompositions": [
                {"stage": idx, **rep.to_dict()} for idx, rep in self.decompositions
            ],
            "equality": self.equality.to_dict(),
            "upper_bounds": [c.to_dict() for c in self.upper_bounds],
        }


def verify_trace(trace: ConstructionTrace) -> VerificationReport:
    """Full oracle bundle: invariants, per-stage decompositions, exhausted
    equalities, and the pigeonhole bound of every checkpoint over every
    maximal nested run of stages.

    A run starts at stage 1 and at each stage whose nesting check fails,
    and takes in every later stage whose check passes.  Along a run each
    set contains the one before, so one record per (run, checkpoint)
    decides the bound at every stage of the run: a pass at the run's last
    stage, or a failure at its first stage that breaks the bound, from
    which every later stage of the run breaks it too.

    A shape defect, such as an extension stage that adds neither 0 nor 2
    elements, is refused with MalformedTraceError when the trace is made;
    an argument that is not a trace is refused with TypeError.
    """
    invariants, decompositions, upper_bounds = _walk(trace)
    return VerificationReport(invariants, decompositions, check_equality_coverage(trace), upper_bounds)


def _walk(trace: ConstructionTrace) -> tuple[InvariantReport, tuple, tuple]:
    """The invariant report, the decompositions and the upper-bound records
    of one walk over the stages.

    The walk tallies each pair once, as a set of the distinct sums and a
    Counter of the sums that repeat.  Stage 1, and a stage whose nesting
    check fails, are tallied pair by pair, and sum_counter counts them only
    when their pairs do not give distinct sums.  Any other stage takes the
    tally its decomposition derives in place from its predecessor's: the
    cross and self sums are added to the set once, and the union is counted
    afresh only when a decomposition check fails.  A stage that is
    recounted also opens a nested run, and _run_bound writes each run's
    records once the walk is done.

    Before the first tally, a stage whose pairs pass PAIR_LIMIT is refused
    with InputTooLargeError: the pairs of its set, or of the previous set
    plus its added elements, which its decomposition tallies.
    """
    require_type(trace, ConstructionTrace, "trace")
    for s, prev in zip(trace.stages, (None, *trace.stages)):
        _refuse_past_pair_limit(max(len(s.set), len(prev.set) + len(s.added) if prev else 0), f"stage {s.index}")
    bounds = [(x, r) for _, x, _ in trace.checkpoints() if (r := trace.f.max_finite(2 * x)) is not None]
    zeros = trace.f.zero_points()
    invariants: list[CheckResult] = []
    decompositions = []
    starts = []  # the position of each nested run's first stage
    prev = sums = repeats = None
    for i, s in enumerate(trace.stages):
        nesting = _nesting_check(s, prev)
        if s.kind != KIND_BASE and len(s.added) > 0:
            decompositions.append((s.index, _decompose(prev, sums, repeats, s.added.elements, s.kind)))
        if prev is None or not nesting.passed:
            starts.append(i)
            sums, repeats = _recount(s.set)
        invariants += _stage_invariants(trace, s, nesting, sums, repeats, zeros)
        prev = s.set
    stages = trace.stages
    upper_bounds = tuple(_run_bound(stages[a:b], x, r)
                         for a, b in zip(starts, [*starts[1:], len(stages)]) for x, r in bounds)
    return InvariantReport(tuple(invariants + _trace_invariants(trace))), tuple(decompositions), upper_bounds
