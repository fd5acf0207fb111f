"""A whole-report reference verifier, run against verify_trace.

The reference re-derives every entry of a verification report with plain
double loops.  It recounts the pair sums of every stage, and of the old
set and the union of every decomposition, it decides the upper bound of
each nested run at every stage of the run, and it takes no fast path.  A
derandomized property test runs both on one-round and multi-round builds,
on deep generated traces and on mutated copies of them, and asserts
byte-identical JSON reports and equal failure lists."""

import copy
import json
import random
import sys
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_verify import BUILT, F_ONES, F_TWOS, F_ZEROS, _nested_runs  # noqa: E402

from repbasis import (  # noqa: E402
    INFINITY,
    KIND_BASE,
    KIND_EXTENSION,
    MalformedTraceError,
    build,
    check_invariants,
    density_demand,
    density_exceeds,
    target_prefix,
    trace_from_dict,
    trace_to_dict,
    upper_bound_check,
    verify_trace,
)
from repbasis.trace import expected_kind  # noqa: E402

# the benchmark's generator of deep valid traces (f = 1, phi = pow:9/20)
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import gen  # noqa: E402


def _ok(condition, stage, detail=""):
    return {"condition": condition, "stage": stage, "passed": True, "witness": None, "detail": detail}


def _fail(condition, stage, witness, detail):
    return {"condition": condition, "stage": stage, "passed": False, "witness": witness,
            "detail": detail}


def _pair_counts(elements):
    counts = Counter()
    for i, a in enumerate(elements):
        counts.update(a + b for b in elements[i:])
    return counts


def _inside(elements, x):
    return sum(1 for a in elements if -x <= a <= x)


def _stage_checks(trace, s, prev, counts):
    f, index, els = trace.f, s.index, s.set.elements
    checks = [_fail("condition_4_zero_free", index, 0, "0 is an element of the stage set")
              if 0 in els else _ok("condition_4_zero_free", index)]
    current, added = set(els), set(s.added.elements)
    before = set(prev.elements) if prev is not None else set()
    if prev is None:
        if els != s.added.elements:
            checks.append(_fail("nesting", index, min(current ^ added),
                                "base stage must list itself as added"))
        else:
            checks.append(_ok("nesting", index, "base stage added equals its set"))
    elif before & added:
        w = min(before & added)
        checks.append(_fail("nesting", index, w, f"added element {w} already present before stage {index}"))
    elif before | added != current:
        w = min((before | added) ^ current)
        checks.append(_fail("nesting", index, w, f"stage {index} set is not the previous set plus "
                            f"its added elements (mismatch at {w})"))
    else:
        checks.append(_ok("nesting", index,
                          "stage extends the previous set by exactly its added elements"))
    over = sorted(n for n in counts if counts[n] > f.value(n))
    checks.append(_fail("condition_1_pair_bound", index, over[0], f"rep count {counts[over[0]]} "
                        f"exceeds prescribed {f.value(over[0])} at n={over[0]}") if over
                  else _ok("condition_1_pair_bound", index, "pair-sum counts within bounds"))
    need = Counter(trace.u_prefix[: s.m_covered])
    short = sorted(n for n in need if counts[n] < need[n])
    checks.append(_fail("condition_2_coverage", index, short[0], f"target n={short[0]} needs "
                        f"{need[short[0]]} representations, set gives {counts[short[0]]}") if short
                  else _ok("condition_2_coverage", index, f"first {s.m_covered} targets covered"))
    if s.x is not None:
        k, demand = _inside(els, s.x), density_demand(s.x, trace.phi)
        checks.append(_ok("condition_3_density", index, f"count {k} > sqrt(x)/phi(x) = {demand:.6f}")
                      if density_exceeds(k, s.x, trace.phi) else
                      _fail("condition_3_density", index, s.x, f"count {k} does not clear "
                            f"sqrt(x)/phi(x) = {demand:.6f} at x={s.x}"))
    return checks


def _decomposition(A, added, kind):
    old, self_part = _pair_counts(A), _pair_counts(added)
    cross = Counter()
    for a in A:
        cross.update(a + t for t in added)
    u = added[0] + added[1] if kind == KIND_EXTENSION else None
    checks = []
    for name, part in (("cross_part_unique", cross), ("self_part_unique", self_part)):
        repeated = sorted(n for n in part if part[n] > 1)
        checks.append(_fail(name, None, repeated[0], f"sum {repeated[0]} realized "
                            f"{part[repeated[0]]} times within one part") if repeated
                      else _ok(name, None, "all sums within the part are distinct"))
    for name, left, right, exempt in (("old_cross_disjoint", old, cross, None),
                                      ("cross_self_disjoint", cross, self_part, None),
                                      ("old_self_disjoint", old, self_part, u)):
        shared = sorted(n for n in left if n in right and n != exempt)
        if shared:
            note = "" if exempt is None else f" (only {exempt} is exempt)"
            checks.append(_fail(name, None, shared[0], f"sum {shared[0]} appears in both parts{note}"))
        else:
            note = "" if exempt is None else f" besides the covered target {exempt}"
            checks.append(_ok(name, None, f"parts share no sum{note}"))
    actual = _pair_counts(sorted(set(A) | set(added)))
    for n in sorted(set(old) | set(cross) | set(self_part)):
        expected = old[n] + 1 if n == u else (old[n] if n in old else 1)
        if actual[n] != expected:
            checks.append(_fail("piecewise_formula", None, n,
                                f"rep count at n={n} is {actual[n]}, piecewise formula gives {expected}"))
            break
    else:
        checks.append(_ok("piecewise_formula", None, "piecewise counts match the union's pair counts"))
    return {"kind": kind, "passed": all(c["passed"] for c in checks), "checks": checks}


def reference_report(trace) -> dict:
    """verify_trace(trace).to_dict(), re-derived pair by pair."""
    f, stages = trace.f, trace.stages
    checkpoints = [(s.index, s.x) for s in stages if s.x is not None]
    invariants, decompositions, upper_bounds, all_counts, runs = [], [], [], [], []
    prev = None
    for s in stages:
        if s.kind != KIND_BASE and len(s.added) > 0:
            if s.kind == KIND_EXTENSION and len(s.added) != 2:
                raise MalformedTraceError(
                    f"extension stage {s.index} must add 0 or 2 elements, got {len(s.added)}")
            report = _decomposition(prev.elements, s.added.elements, s.kind)
            decompositions.append({"stage": s.index, **report})
        counts = _pair_counts(s.set.elements)
        all_counts.append(counts)
        checks = _stage_checks(trace, s, prev, counts)
        invariants += checks
        # stage 1 and every stage whose nesting check fails open a run
        if prev is None or not checks[1]["passed"]:
            runs.append([])
        runs[-1].append(s)
        prev = s.set
    for run in runs:
        for _, x in checkpoints:
            r = f.max_finite(2 * x)
            if r is None:
                continue
            slots = r * (4 * x + 1)
            inside = [_inside(s.set.elements, x) for s in run]
            failing = [i for i, k in enumerate(inside) if k * (k + 1) // 2 > slots]
            t = failing[0] if failing else len(run) - 1
            s, k = run[t], inside[t]
            detail = (f"stages {run[0].index}-{run[-1].index}: k={k}, k(k+1)/2={k * (k + 1) // 2}, "
                      f"bound r(4x+1)={slots}")
            upper_bounds.append(_fail("upper_bound", s.index, x,
                                      f"{detail}; stages {s.index}-{run[-1].index} fail")
                                if failing else _ok("upper_bound", s.index, detail))
    late = [(idx, x) for (_, x_prev), (idx, x) in zip(checkpoints, checkpoints[1:]) if x <= x_prev]
    invariants.append(_fail("checkpoint_monotone", late[0][0], late[0][1], f"checkpoint "
                            f"x={late[0][1]} does not increase") if late
                      else _ok("checkpoint_monotone", None, "checkpoints strictly increase"))
    enumerated = target_prefix(f, len(trace.u_prefix))
    wrong = [i for i, u in enumerate(trace.u_prefix) if u != enumerated[i]]
    invariants.append(_fail("u_prefix_consistency", None, trace.u_prefix[wrong[0]],
                            f"u_prefix[{wrong[0]}] is {trace.u_prefix[wrong[0]]}, enumeration "
                            f"gives {enumerated[wrong[0]]}") if wrong
                      else _ok("u_prefix_consistency", None,
                               "u_prefix matches the deterministic enumeration"))
    covered = Counter(trace.u_prefix[: stages[-1].m_covered])
    entries = [(n, stages[-1].index, f.value(n), all_counts[-1][n]) for n in sorted(covered)
               if f.value(n) != INFINITY and covered[n] == f.value(n)]
    for n in sorted(n for n in f.values if f.value(n) == 0):
        entries += [(n, s.index, 0, counts[n]) for s, counts in zip(stages, all_counts)]
    equality = [{"n": n, "stage": i, "required": want, "actual": got, "ok": got == want}
                for n, i, want, got in entries]
    report = {
        "invariants": {"passed": all(c["passed"] for c in invariants), "checks": invariants},
        "decompositions": decompositions,
        "equality": {"passed": all(e["ok"] for e in equality), "entries": equality},
        "upper_bounds": upper_bounds,
    }
    return {"passed": not reference_failures(report), **report}


def reference_failures(report: dict) -> list[str]:
    """VerificationReport.failures(), read from a report mapping."""
    out = [f"{c['condition']} stage={c['stage']} witness={c['witness']}: {c['detail']}"
           for c in report["invariants"]["checks"] if not c["passed"]]
    out += [f"decomposition stage={d['stage']} {c['condition']} witness={c['witness']}: "
            f"{c['detail']}" for d in report["decompositions"] for c in d["checks"]
            if not c["passed"]]
    out += [f"equality n={e['n']} stage={e['stage']}: rep count {e['actual']}, "
            f"prescribed {e['required']}" for e in report["equality"]["entries"] if not e["ok"]]
    out += [f"{c['condition']} stage={c['stage']} witness={c['witness']}: {c['detail']}"
            for c in report["upper_bounds"] if not c["passed"]]
    return out


def _inherited(data, pos):
    stage = data["stages"][pos]
    return sorted(set(stage["set"]) - set(stage["added"]))


def _zero(data, rng):
    stage = rng.choice(data["stages"])
    stage["set"] = sorted(set(stage["set"]) | {0})


def _drop(data, rng, onward=False):
    # the stage loses an inherited element; with onward, so does every later
    # stage, which leaves them nested over a stage that is not
    pos = rng.randrange(1, len(data["stages"]))
    if _inherited(data, pos):
        e = rng.choice(_inherited(data, pos))
        for stage in data["stages"][pos:] if onward else [data["stages"][pos]]:
            stage["set"] = [a for a in stage["set"] if a != e]


def _swap(data, rng):
    # an inherited element gives way to one that no stage adds, so the stage
    # has as many elements as its predecessor plus its added ones
    pos = rng.randrange(1, len(data["stages"]))
    stage = data["stages"][pos]
    if _inherited(data, pos):
        e = rng.choice(_inherited(data, pos))
        fresh = next(a for a in range(e + 1, e + 10**6) if a not in stage["set"])
        stage["set"] = sorted(set(stage["set"]) - {e} | {fresh})


def _collide(data, rng, onward=False):
    # e = b + c - a makes a + e = b + c a second representation; with onward,
    # every later stage holds e too, so they stay nested and keep that count
    pos = rng.randrange(len(data["stages"]))
    stage = data["stages"][pos]
    if len(stage["set"]) >= 3:
        a, b, c = rng.sample(stage["set"], 3)
        e = b + c - a
        if e not in stage["set"]:
            stage["added"] = sorted(stage["added"] + [e])
            for later in data["stages"][pos:] if onward else [stage]:
                later["set"] = sorted(set(later["set"]) | {e})


def _prefix(data, rng):
    pos = rng.randrange(len(data["u_prefix"]))
    data["u_prefix"][pos] += rng.choice((-1, 1)) * rng.randrange(1, 10**6)


def _readd(data, rng):
    # a densification stage lists an element it inherited among its added ones
    stages = data["stages"]
    pos = rng.randrange(2, len(stages), 2) if len(stages) > 2 else 0
    if pos and _inherited(data, pos):
        stages[pos]["added"] = sorted(stages[pos]["added"] + [rng.choice(_inherited(data, pos))])


def _empty_extension(data, rng):
    # an extension adds nothing, and every later stage lacks its pair
    stages = data["stages"]
    pos = rng.randrange(1, len(stages), 2)
    pair = set(stages[pos]["added"])
    stages[pos]["added"] = []
    for stage in stages[pos:]:
        stage["set"] = [a for a in stage["set"] if a not in pair]
        stage["added"] = [a for a in stage["added"] if a not in pair]


def _inflate_x(data, rng):
    stage = rng.choice(data["stages"][::2])
    stage["x"] *= 10


def _f_zero(data, rng):
    if "0" in data["f"]["values"]:
        data["f"]["values"]["0"] = 0


EDITS = {
    "zero": _zero,
    "drop": _drop,
    "drop_onward": lambda data, rng: _drop(data, rng, onward=True),
    "collide": _collide,
    "collide_onward": lambda data, rng: _collide(data, rng, onward=True),
    "prefix": _prefix,
    "readd": _readd,
    "swap": _swap,
    "empty_extension": _empty_extension,
    "inflate_x": _inflate_x,
    "f_zero": _f_zero,
}

# one-round builds, multi-round builds, and generated traces of 17 and 41 stages
CORPUS = (
    [trace_to_dict(build(f, phi, 1)) for f, phi in BUILT]
    + [trace_to_dict(build(f, "pow:2/5", 4)) for f in (F_ONES, F_TWOS, F_ZEROS)]
    + [gen.make_trace(5, 8, 6), gen.make_trace(2, 20, 4)]
)


def _outcome(verify, trace):
    """The JSON report and failure lines, or the malformed-trace message."""
    try:
        return verify(trace)
    except MalformedTraceError as exc:
        return str(exc)


def _verify_trace(trace):
    report = verify_trace(trace)
    return json.dumps(report.to_dict()), report.failures()


def _reference(trace):
    report = reference_report(trace)
    return json.dumps(report), reference_failures(report)


def _same_outcome(data, edits, rng):
    for edit in edits:
        EDITS[edit](data, rng)
    try:
        trace = trace_from_dict(data)
    except MalformedTraceError:
        return
    assert _outcome(_verify_trace, trace) == _outcome(_reference, trace)


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_each_edit_of_each_trace_matches_the_reference(edit):
    for data in CORPUS:
        _same_outcome(copy.deepcopy(data), [edit], random.Random(1))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.sampled_from(range(len(CORPUS))),
       st.lists(st.sampled_from(sorted(EDITS)), min_size=1, max_size=2), st.integers(0, 2**32))
def test_edited_reports_match_the_reference(which, edits, seed):
    _same_outcome(copy.deepcopy(CORPUS[which]), edits, random.Random(seed))


def test_corpus_is_valid_deep_and_matches_the_reference():
    for data in CORPUS:
        trace = trace_from_dict(data)
        assert _verify_trace(trace) == _reference(trace)
        assert verify_trace(trace).passed
    assert max(len(data["stages"]) for data in CORPUS) >= 41
    assert any(len(trace_from_dict(data).stages) >= 9 for data in CORPUS[:len(BUILT) + 3])


def test_49_stage_trace_with_a_drop_at_stage_25():
    # stages 25 and 26 are not nested and are recounted; every other stage
    # after the first is derived from its predecessor
    data, expected = gen.mutate(gen.make_trace(1, 24, 12), "drop", 25, random.Random(1))
    trace = trace_from_dict(data)
    assert _verify_trace(trace) == _reference(trace)
    named = reference_report(trace)["invariants"]["checks"]
    assert expected in {(c["condition"], c["stage"], c["witness"]) for c in named if not c["passed"]}


def _assert_upper_bounds_are_exact(trace):
    """Each (run, checkpoint) record against upper_bound_check at every
    stage of the run: it fails exactly when some stage fails, it names the
    smallest such stage, and every later stage of the run fails too."""
    bounds = [(x, r) for _, x, _ in trace.checkpoints() if (r := trace.f.max_finite(2 * x)) is not None]
    runs = _nested_runs(trace)
    records = verify_trace(trace).upper_bounds
    assert len(records) == len(runs) * len(bounds)
    for record, (run, (x, r)) in zip(records, product(runs, bounds)):
        failing = [s.index for s in run if not upper_bound_check(s.set, x, r)]
        assert record.passed == (not failing)
        assert record.stage == (failing[0] if failing else run[-1].index)
        assert record.witness == (x if failing else None)
        assert failing == [s.index for s in run if failing and s.index >= failing[0]]
        assert record.detail.startswith(f"stages {run[0].index}-{run[-1].index}: ")


@pytest.mark.parametrize("edit", ["unedited", *sorted(EDITS)])
def test_each_upper_bound_record_is_exact_for_each_edit_of_each_trace(edit):
    for data in CORPUS:
        data = copy.deepcopy(data)
        EDITS.get(edit, lambda data, rng: None)(data, random.Random(1))
        try:
            trace = trace_from_dict(data)
        except MalformedTraceError:
            continue
        _assert_upper_bounds_are_exact(trace)


def _chain(added, drop=None, onward=True):
    """A five-stage trace under f = 1 whose stages adjoin the lists of
    `added` in turn, with checkpoints 2, 50 and 1000.  drop = (stage, e)
    takes e out of that stage's set, and out of every later one when
    onward, so that stage's nesting check fails (and without onward, the
    next stage's too, as it holds e again without adding it)."""
    stages, current = [], set()
    for index, new in enumerate(added, start=1):
        current |= set(new)
        stage = {"index": index, "kind": expected_kind(index), "set": sorted(current), "added": sorted(new)}
        if index % 2:
            stage["x"] = (2, 50, 1000)[index // 2]
        stages.append(stage)
    if drop:
        at, e = drop
        for stage in stages[at - 1:] if onward else [stages[at - 1]]:
            stage["set"].remove(e)
    return trace_from_dict({"f": F_ONES.to_dict(), "phi": "log2",
                            "u_prefix": target_prefix(F_ONES, 3), "stages": stages})


# r = 1 at every checkpoint, so x = 2 allows k(k+1)/2 <= 9: three elements
# in [-2, 2] fit and four do not; x = 50 and x = 1000 are never broken
CHAINS = {
    "first_stage": (_chain([[-2, -1, 1, 2], [10, 20], [30], [], [40]]),
                    [(1, False), (5, True), (5, True)]),
    "middle": (_chain([[1], [2, 100], [-1, -2], [], [200]]),
               [(3, False), (5, True), (5, True)]),
    "last_stage": (_chain([[1], [2, 100], [300], [], [-1, -2]]),
                   [(5, False), (5, True), (5, True)]),
    # stage 3 loses -2 for good: runs 1-2, which fails at stage 2, and 3-5,
    # which passes, though the chain's last stage alone would pass both
    "split": (_chain([[1, -2], [-1, 2], [300], [], [400]], drop=(3, -2)),
              [(2, False), (2, True), (2, True), (5, True), (5, True), (5, True)]),
    # only stage 3 lacks -2: runs 1-2, 3 (of length 1) and 4-5
    "length_one": (_chain([[1, -2], [-1, 2], [300], [], [400]], drop=(3, -2), onward=False),
                   [(2, False), (2, True), (2, True), (3, True), (3, True), (3, True),
                    (4, False), (5, True), (5, True)]),
}


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_hand_made_runs_fail_at_their_first_failing_stage(name):
    trace, expected = CHAINS[name]
    records = verify_trace(trace).upper_bounds
    assert [(c.stage, c.passed) for c in records] == expected
    _assert_upper_bounds_are_exact(trace)
    assert json.dumps(verify_trace(trace).to_dict()) == json.dumps(reference_report(trace))


def test_a_failing_record_names_its_run_and_the_stages_that_fail():
    report = verify_trace(CHAINS["middle"][0])
    assert report.upper_bounds[0].witness == 2
    assert ("upper_bound stage=3 witness=2: stages 1-5: k=4, k(k+1)/2=10, bound r(4x+1)=9; "
            "stages 3-5 fail") in report.failures()
    assert report.upper_bounds[1].detail == "stages 1-5: k=4, k(k+1)/2=10, bound r(4x+1)=201"


@pytest.mark.parametrize("kind", ["clean", "zero", "drop", "collide", "prefix"])
def test_check_invariants_is_the_invariant_report_of_verify_trace(kind):
    # check_invariants runs verify_trace's walk and drops its other parts
    for seed, rounds, per_densify in ((1, 4, 3), (5, 8, 6), (3, 12, 12)):
        data = gen.make_trace(seed, rounds, per_densify)
        if kind != "clean":  # an odd stage is a densification, which may add any number
            data, _ = gen.mutate(data, kind, len(data["stages"]) // 2 | 1, random.Random(seed))
        trace = trace_from_dict(data)
        assert check_invariants(trace) == verify_trace(trace).invariants
