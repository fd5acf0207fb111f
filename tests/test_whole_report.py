"""A whole-report reference verifier, run against verify_trace.

The reference re-derives every entry of a verification report with plain
double loops.  It recounts the pair sums of every stage, and of the old
set and the union of every decomposition, and it takes no fast path.  A
derandomized property test runs both on one-round and multi-round builds,
on deep generated traces and on mutated copies of them, and asserts
byte-identical JSON reports and equal failure lists."""

import copy
import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_verify import BUILT, F_ONES, F_TWOS, F_ZEROS  # noqa: E402

from repbasis import (  # noqa: E402
    INFINITY,
    KIND_BASE,
    KIND_EXTENSION,
    MalformedTraceError,
    build,
    density_demand,
    density_exceeds,
    target_prefix,
    trace_from_dict,
    trace_to_dict,
    verify_trace,
)
from repbasis.trace import validate_trace_structure  # noqa: E402

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
        checks.append(_ok("piecewise_formula", None, "piecewise counts match brute force"))
    return {"kind": kind, "passed": all(c["passed"] for c in checks), "checks": checks}


def reference_report(trace) -> dict:
    """verify_trace(trace).to_dict(), re-derived pair by pair."""
    validate_trace_structure(trace)
    f, stages = trace.f, trace.stages
    checkpoints = [(s.index, s.x) for s in stages if s.x is not None]
    invariants, decompositions, upper_bounds, all_counts = [], [], [], []
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
        invariants += _stage_checks(trace, s, prev, counts)
        for _, x in checkpoints:
            r = f.max_finite(2 * x)
            if r is not None:
                k = _inside(s.set.elements, x)
                detail = f"k={k}, k(k+1)/2={k * (k + 1) // 2}, bound r(4x+1)={r * (4 * x + 1)}"
                upper_bounds.append(_ok("upper_bound", s.index, detail)
                                    if k * (k + 1) // 2 <= r * (4 * x + 1)
                                    else _fail("upper_bound", s.index, x, detail))
        prev = s.set
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
