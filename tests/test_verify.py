"""Oracle checks: invariants, decompositions, equalities, and mutations."""

import copy
import json
from collections import Counter
from itertools import combinations_with_replacement, product

import pytest

import repbasis.trace
import repbasis.verify
from repbasis import (
    INFINITY,
    ConstructionTrace,
    KIND_BASE,
    KIND_DENSIFICATION,
    KIND_EXTENSION,
    FiniteBasis,
    InputTooLargeError,
    MalformedTraceError,
    PhiSpec,
    PreconditionViolatedError,
    RepTarget,
    StageRecord,
    TargetSequence,
    build,
    check_decomposition,
    check_equality_coverage,
    check_invariants,
    cli,
    counting,
    greedy_sidon,
    sum_counter,
    trace_dumps,
    trace_from_dict,
    trace_to_dict,
    upper_bound_check,
    verify_trace,
)
from repbasis.verify import _decompose

F_ONES = RepTarget.constant(1)
F_TWOS = RepTarget.constant(2)
F_ZEROS = RepTarget(2, {n: 0 for n in range(-2, 3)}, 1)
F_INF_DEFAULT = RepTarget(1, {-1: 1, 0: 1, 1: 1}, INFINITY)
LOG2 = PhiSpec.parse("log2")
POW14 = PhiSpec.parse("pow:1/4")


# a one-stage trace whose set {1, 8, 50} is not its added list [50]
BASE_MISMATCH = {
    "f": F_ONES.to_dict(),
    "phi": "log2",
    "u_prefix": [0],
    "stages": [{"index": 1, "kind": KIND_BASE, "set": [1, 8, 50], "added": [50], "x": 50}],
}


@pytest.fixture(scope="module")
def ones_trace():
    return build(F_ONES, LOG2, 1)


@pytest.fixture(scope="module")
def pow_trace_dict():
    return trace_to_dict(build(F_ONES, POW14, 1))


def _failed_conditions(report):
    return {(c.condition, c.witness) for c in report.failures()}


class TestInvariants:
    def test_built_trace_passes(self, ones_trace):
        report = check_invariants(ones_trace)
        assert report.passed
        assert len(report.checks) == 16
        assert report.failures() == []

    def test_zero_window_trace_passes(self):
        assert check_invariants(build(F_ZEROS, LOG2, 1)).passed

    def test_report_is_serializable(self, ones_trace):
        payload = check_invariants(ones_trace).to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["passed"] is True

    def test_inserted_zero_is_caught(self, ones_trace):
        data = trace_to_dict(ones_trace)
        data["stages"][2]["set"] = sorted(data["stages"][2]["set"] + [0])
        report = check_invariants(trace_from_dict(data))
        assert not report.passed
        assert ("condition_4_zero_free", 0) in _failed_conditions(report)

    def test_dropped_added_element_is_caught(self, ones_trace):
        data = trace_to_dict(ones_trace)
        data["stages"][1]["set"].remove(-97)
        report = check_invariants(trace_from_dict(data))
        assert not report.passed
        assert ("nesting", -97) in _failed_conditions(report)

    def test_inflated_checkpoint_is_caught(self, pow_trace_dict):
        data = copy.deepcopy(pow_trace_dict)
        data["stages"][2]["x"] *= 10
        report = check_invariants(trace_from_dict(data))
        assert not report.passed
        assert ("condition_3_density", 4900) in _failed_conditions(report)

    def test_pair_bound_violation_is_caught(self, ones_trace):
        # splice in elements that force 8 = 4+4 = -16+24 under f = 1
        data = trace_to_dict(ones_trace)
        for stage in data["stages"]:
            stage["set"] = sorted(set(stage["set"]) | {-16})
        data["stages"][0]["added"] = data["stages"][0]["set"]
        report = check_invariants(trace_from_dict(data))
        assert not report.passed
        assert ("condition_1_pair_bound", 8) in _failed_conditions(report)

    def test_uncovered_target_is_caught(self, ones_trace):
        # drop the pair {-97, 98} that covers u_2 = 1, so stage 2 adds nothing
        data = trace_to_dict(ones_trace)
        for index in (1, 2):
            stage = data["stages"][index]
            stage["set"] = [e for e in stage["set"] if e not in (-97, 98)]
            stage["added"] = [e for e in stage["added"] if e not in (-97, 98)]
        report = check_invariants(trace_from_dict(data))
        assert not report.passed
        assert ("condition_2_coverage", 1) in _failed_conditions(report)

    def test_shrinking_checkpoints_are_caught(self, ones_trace):
        data = trace_to_dict(ones_trace)
        data["stages"][2]["x"] = 24
        report = check_invariants(trace_from_dict(data))
        conditions = {c.condition for c in report.failures()}
        assert "checkpoint_monotone" in conditions

    def test_tampered_u_prefix_is_caught(self, ones_trace):
        data = trace_to_dict(ones_trace)
        data["u_prefix"] = [0, 2]
        report = check_invariants(trace_from_dict(data))
        assert ("u_prefix_consistency", 2) in _failed_conditions(report)

    def test_structural_damage_raises(self, ones_trace):
        data = trace_to_dict(ones_trace)
        data["stages"][2]["index"] = 5
        with pytest.raises(MalformedTraceError):
            trace_from_dict(data)


class TestDecomposition:
    def test_extension_pair(self):
        report = check_decomposition(FiniteBasis((1, 2)), (-9, 9), KIND_EXTENSION)
        assert report.passed and report.kind == KIND_EXTENSION

    def test_densification_block(self):
        report = check_decomposition(
            FiniteBasis((1, 2)), (10, 20, 40, 80, 130), KIND_DENSIFICATION
        )
        assert report.passed
        names = [c.condition for c in report.checks]
        assert names == [
            "cross_part_unique",
            "self_part_unique",
            "old_cross_disjoint",
            "cross_self_disjoint",
            "old_self_disjoint",
            "piecewise_formula",
        ]

    def test_empty_previous_set(self):
        assert check_decomposition(FiniteBasis(), (-9, 9), KIND_EXTENSION).passed

    def test_covered_target_exemption(self):
        # the extension pair sums to 0, which the old set already realizes;
        # an extension may add that one representation, a densification may not
        A = FiniteBasis((-4, 4))
        as_extension = check_decomposition(A, (-17, 17), KIND_EXTENSION)
        assert as_extension.passed
        as_densification = check_decomposition(A, (-17, 17), KIND_DENSIFICATION)
        assert not as_densification.passed
        assert ("old_self_disjoint", 0) in _failed_conditions(as_densification)

    def test_cross_collision_detected(self):
        report = check_decomposition(FiniteBasis((1, 2)), (3,), KIND_DENSIFICATION)
        assert not report.passed
        assert ("old_cross_disjoint", 4) in _failed_conditions(report)

    @pytest.mark.parametrize(
        "A, added, kind",
        [
            ((1, 2, 3, 4), (5,), KIND_DENSIFICATION),  # cross sum 6 meets an old sum counted twice
            ((1, 2, 3, 4), (-1, 6), KIND_EXTENSION),  # the covered target 5 is counted twice
            ((1, 2, 3, 4), (2, 7), KIND_DENSIFICATION),  # an added element is already present
            ((1, 2), (10, 20, 40, 80, 130), KIND_DENSIFICATION),
            ((-4, 4), (-17, 17), KIND_EXTENSION),
            ((), (-9, 9), KIND_EXTENSION),
            ((1, 4), (-20, 25), KIND_EXTENSION),  # the covered target 5 is an old sum
            # the covered target 5 is an old sum, and cross sums 2 and 8 meet old sums
            ((1, 4), (-2, 7), KIND_EXTENSION),
            # the covered target 51 is new but is the cross sum 1 + 50
            ((1, 10), (1, 50), KIND_EXTENSION),
            # 100 is already in A; every other sum lies far from the rest
            ((1, 100, 10**4), (100, 10**6, -(10**7)), KIND_DENSIFICATION),
        ],
    )
    def test_matches_the_per_sum_references(self, A, added, kind):
        A = FiniteBasis(A)
        checks = {c.condition: c for c in check_decomposition(A, added, kind).checks}
        union = sum_counter(A.union(added))
        witnesses, detail = _reference_decomposition(A, added, kind, union)
        for name, witness in witnesses.items():
            assert (checks[name].passed, checks[name].witness) == (witness is None, witness)
        if detail is not None:
            assert checks["piecewise_formula"].detail == detail
        # the tally of A becomes the union's in place, on a passing stage and a failing one
        sums, repeats = _split(sum_counter(A))
        report = _decompose(A, sums, repeats, tuple(sorted(added)), kind)
        assert (sums, dict(repeats)) == _split(union)
        assert report.checks == tuple(checks.values())

    def test_empty_added_rejected(self):
        with pytest.raises(PreconditionViolatedError):
            check_decomposition(FiniteBasis((1, 2)), (), KIND_DENSIFICATION)

    def test_extension_needs_exactly_two(self):
        with pytest.raises(PreconditionViolatedError):
            check_decomposition(FiniteBasis((1, 2)), (9,), KIND_EXTENSION)
        with pytest.raises(PreconditionViolatedError):
            check_decomposition(FiniteBasis((1, 2)), (-9, 9, 10), KIND_EXTENSION)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            check_decomposition(FiniteBasis((1, 2)), (-9, 9), "BASE")

    @pytest.mark.parametrize("added", [(1.5, 2.5), (True, 5), ("a", "b"), (5, None)])
    @pytest.mark.parametrize("kind", [KIND_EXTENSION, KIND_DENSIFICATION])
    def test_non_integer_added_rejected(self, added, kind):
        with pytest.raises(PreconditionViolatedError, match="^added element must be an integer, got "):
            check_decomposition(FiniteBasis((1, 2)), added, kind)

    @pytest.mark.parametrize("A", [(1, 2), [1, 2]])
    def test_basis_must_be_a_finite_basis(self, A):
        with pytest.raises(PreconditionViolatedError, match=f"A must be a FiniteBasis, got {type(A).__name__}"):
            check_decomposition(A, (5, 6), KIND_DENSIFICATION)


class TestUpperBound:
    @pytest.mark.parametrize("A", [(1, 2), [1, 2]])
    def test_basis_must_be_a_finite_basis(self, A):
        with pytest.raises(PreconditionViolatedError, match=f"A must be a FiniteBasis, got {type(A).__name__}"):
            upper_bound_check(A, 3, 1)

    def test_sparse_set_passes(self):
        assert upper_bound_check(FiniteBasis((1, 2, 4, 8)), 8, 1)
        # a SidonSet is a FiniteBasis: 8 greedy elements in [1, 50], 36 sums, 201 slots
        assert upper_bound_check(greedy_sidon(100), 50, 1)

    def test_empty_set_is_vacuous(self):
        assert upper_bound_check(FiniteBasis(), 5, 1)

    def test_overfull_set_fails(self):
        # 3 elements in [-1, 1] give 6 pair sums but only 5 slots at r = 1
        assert not upper_bound_check(FiniteBasis((-1, 0, 1)), 1, 1)

    def test_count_is_restricted_to_the_interval(self):
        wide = FiniteBasis(tuple(range(-50, 51, 2)))
        assert upper_bound_check(wide, 1, 1)


class TestEqualityCoverage:
    def test_exhausted_targets(self, ones_trace):
        report = check_equality_coverage(ones_trace)
        assert report.passed
        realized = {(e.n, e.stage, e.required, e.actual) for e in report.entries}
        final = ones_trace.stages[-1].index
        assert realized == {(0, final, 1, 1), (1, final, 1, 1)}

    def test_prescribed_zeros_checked_at_every_stage(self):
        report = check_equality_coverage(build(F_ZEROS, LOG2, 1))
        assert report.passed
        zero_entries = [e for e in report.entries if e.required == 0]
        assert len(zero_entries) == 5 * 3  # five zeros, three stages
        assert {e.stage for e in zero_entries} == {1, 2, 3}

    def test_unexhausted_targets_are_skipped(self):
        report = check_equality_coverage(build(F_TWOS, LOG2, 1))
        assert report.entries == ()

    def test_violation_reported(self, ones_trace):
        data = trace_to_dict(ones_trace)
        # drop the representation of 1 from the final stage only; nesting
        # breaks too, but the equality report must flag n = 1 itself
        data["stages"][2]["set"] = [e for e in data["stages"][2]["set"] if e != 98]
        report = check_equality_coverage(trace_from_dict(data))
        assert not report.passed
        assert [(e.n, e.actual) for e in report.failures()] == [(1, 0)]


class TestVerifyTrace:
    def test_full_bundle(self, ones_trace):
        report = verify_trace(ones_trace)
        assert report.passed
        assert report.failures() == []
        assert len(report.decompositions) == 2
        assert {idx for idx, _ in report.decompositions} == {2, 3}
        # 3 nested stages make one run; 2 checkpoints, finite prescription everywhere
        assert len(report.upper_bounds) == 2
        payload = report.to_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_an_under_emitting_target_spiral_is_caught(self, monkeypatch):
        # the builder's spiral emits each n once too few; the verifier derives
        # the spiral from f alone and names the first term that differs
        def under_emit(seq):
            seq._round += 1
            t, value = seq._round, seq.source._value
            seq._live.extend((0, 1, -1) if t == 1 else (t, -t))
            seq._live = [n for n in seq._live if t - (abs(n) or 1) < value(n) - 1]
            seq._emitted.extend(seq._live)

        monkeypatch.setattr(TargetSequence, "_advance_round", under_emit)
        trace = build(F_TWOS, "pow:2/5", 4)
        assert trace.u_prefix == (0, 1, -1, 2, -2)
        failed = [c for c in verify_trace(trace).invariants.failures() if c.condition == "u_prefix_consistency"]
        assert [(c.witness, c.detail) for c in failed] == [(2, "u_prefix[3] is 2, enumeration gives 0")]

    def test_infinite_origin_skips_nothing_here(self):
        f = RepTarget(0, {0: INFINITY}, 1)
        report = verify_trace(build(f, LOG2, 1))
        assert report.passed
        # max finite value over every window is the default 1; one run
        assert len(report.upper_bounds) == 2

    def test_failures_surface_in_bundle(self, pow_trace_dict):
        data = copy.deepcopy(pow_trace_dict)
        data["stages"][2]["x"] *= 10
        report = verify_trace(trace_from_dict(data))
        assert not report.passed
        assert any("condition_3_density" in line for line in report.failures())

    def test_added_element_already_present(self, ones_trace):
        data = trace_to_dict(ones_trace)
        data["stages"][2]["added"] = [-4, 490]
        report = verify_trace(trace_from_dict(data))
        nesting = [c for c in report.invariants.failures() if c.condition == "nesting"]
        assert [(c.stage, c.witness) for c in nesting] == [(3, -4)]

    def test_upper_bound_failure(self):
        data = {
            "f": F_ONES.to_dict(),
            "phi": "log2",
            "u_prefix": [0],
            "stages": [{"index": 1, "kind": KIND_BASE, "set": [-2, -1, 1, 2],
                        "added": [-2, -1, 1, 2], "x": 2}],
        }
        report = verify_trace(trace_from_dict(data))
        # k = 4 elements in [-2, 2], k(k+1)/2 = 10 > 1 * (4*2 + 1)
        assert [(c.stage, c.witness, c.passed) for c in report.upper_bounds] == [(1, 2, False)]
        assert ("upper_bound stage=1 witness=2: stages 1-1: k=4, k(k+1)/2=10, bound r(4x+1)=9; "
                "stages 1-1 fail") in report.failures()

    def test_base_stage_names_the_smallest_mismatch(self):
        trace = trace_from_dict(BASE_MISMATCH)
        for invariants in (verify_trace(trace).invariants, check_invariants(trace)):
            nesting = [c for c in invariants.failures() if c.condition == "nesting"]
            assert [(c.stage, c.witness) for c in nesting] == [(1, 1)]

    def test_no_finite_bound_no_upper_bound_checks(self):
        report = verify_trace(build(RepTarget.constant(INFINITY), LOG2, 1))
        assert report.passed
        assert report.upper_bounds == ()

    def test_each_record_runs_the_public_oracle(self, monkeypatch):
        # a clean trace is one nested run, so the record of each checkpoint
        # asks upper_bound_check once, of the run's last stage
        calls = []
        oracle = repbasis.verify.upper_bound_check

        def counted(A, x, r):
            calls.append((A, x, r))
            return oracle(A, x, r)

        monkeypatch.setattr(repbasis.verify, "upper_bound_check", counted)
        trace = build(F_ONES, LOG2, 2)
        assert verify_trace(trace).passed
        assert calls == [(trace.stages[-1].set, x, 1) for _, x, _ in trace.checkpoints()]


def _nested_runs(trace):
    """The stages of each maximal nested run, read from check_invariants'
    nesting records: stage 1 and every stage whose check fails open one."""
    nested = {c.stage: c.passed for c in check_invariants(trace).checks if c.condition == "nesting"}
    runs = []
    for s in trace.stages:
        if not runs or not nested[s.index]:
            runs.append([])
        runs[-1].append(s)
    return runs


def _bundle_from_oracles(trace) -> dict:
    """verify_trace's report, assembled from the public oracles one by one;
    each nested run's upper bound is decided at every stage of the run."""
    decompositions, upper_bounds = [], []
    prev = None
    for s in trace.stages:
        if s.kind != KIND_BASE and len(s.added) > 0:
            rep = check_decomposition(prev, s.added, s.kind)
            decompositions.append({"stage": s.index, **rep.to_dict()})
        prev = s.set
    for run in _nested_runs(trace):
        for _, x, _ in trace.checkpoints():
            r = trace.f.max_finite(2 * x)
            if r is None:
                continue
            failing = [s for s in run if not upper_bound_check(s.set, x, r)]
            s = failing[0] if failing else run[-1]
            k = counting(s.set, -x, x)
            detail = (f"stages {run[0].index}-{run[-1].index}: k={k}, k(k+1)/2={k * (k + 1) // 2}, "
                      f"bound r(4x+1)={r * (4 * x + 1)}")
            upper_bounds.append({
                "condition": "upper_bound",
                "stage": s.index,
                "passed": not failing,
                "witness": x if failing else None,
                "detail": detail + (f"; stages {s.index}-{run[-1].index} fail" if failing else ""),
            })
    invariants = check_invariants(trace).to_dict()
    equality = check_equality_coverage(trace).to_dict()
    passed = (invariants["passed"] and equality["passed"]
              and all(d["passed"] for d in decompositions + upper_bounds))
    return {"passed": passed, "invariants": invariants, "decompositions": decompositions,
            "equality": equality, "upper_bounds": upper_bounds}


def _split(counts):
    """A pair-sum Counter as the verifier tallies it: the set of its sums and
    the counts of those that repeat."""
    return set(counts), {n: r for n, r in counts.items() if r > 1}


def _reference_pair_bound(counts, f):
    """The per-sum scan: the smallest n whose count exceeds f(n), or None."""
    return min((n for n, r in counts.items() if r > f.value(n)), default=None)


def _reference_decomposition(A, added, kind, actual):
    """Witnesses (None for a pass) of the uniqueness and disjointness checks
    and the sorted piecewise walk, written out sum by sum over A plus
    `added`, and the piecewise walk's detail when it fails."""
    added = sorted(added)
    old = sum_counter(A)
    cross = Counter(a + t for a in A for t in added)
    self_part = Counter(s + t for s, t in combinations_with_replacement(added, 2))
    u = added[0] + added[1] if kind == KIND_EXTENSION else None
    witnesses = {}
    for name, part in (("cross_part_unique", cross), ("self_part_unique", self_part)):
        witnesses[name] = min((n for n, k in part.items() if k > 1), default=None)
    for name, left, right, exempt in (("old_cross_disjoint", old, cross, None),
                                      ("cross_self_disjoint", cross, self_part, None),
                                      ("old_self_disjoint", old, self_part, u)):
        overlap = set(left) & set(right)
        overlap.discard(exempt)
        witnesses[name] = min(overlap, default=None)
    witnesses["piecewise_formula"] = detail = None
    for n in sorted(set(old) | set(cross) | set(self_part)):
        if kind == KIND_EXTENSION and n == u:
            expected = old[n] + 1
        elif n in old:
            expected = old[n]
        else:
            expected = 1
        if actual[n] != expected:
            witnesses["piecewise_formula"] = n
            detail = f"rep count at n={n} is {actual[n]}, piecewise formula gives {expected}"
            break
    return witnesses, detail


def _drop_inherited(data):
    # stage 2 loses an element of stage 1, so stages 2 and 3 are not nested
    stage = data["stages"][1]
    stage["set"].remove(min(set(stage["set"]) - set(stage["added"])))


def _collide(data):
    # stage 3 adjoins e = b + c - a, so a + e = b + c is represented twice
    stage = data["stages"][2]
    els = stage["set"]
    e = next(b + c - a for a in els for b in els for c in els
             if a < b < c and b + c != a and b + c - a not in els)
    stage["set"] = sorted(els + [e])
    stage["added"] = sorted(stage["added"] + [e])


MUTATIONS = {
    "none": lambda data: None,
    "collide": _collide,
    "zero": lambda data: data["stages"][2].update(set=sorted(data["stages"][2]["set"] + [0])),
    "drop_inherited": _drop_inherited,
    "drop_added": lambda data: data["stages"][2]["added"].pop(),
    "inflate_x": lambda data: data["stages"][2].update(x=data["stages"][2]["x"] * 10),
    "shrink_x": lambda data: data["stages"][2].update(x=24),
    "u_prefix": lambda data: data["u_prefix"].__setitem__(-1, 2),
    "f_zero": lambda data: data["f"]["values"].update({"0": 0}),
}


# f and phi of the one-round builds that TestOnePass mutates; the smallest
# value f prescribes is 1, 0, 2 and 1, the default of the last is INFINITY
BUILT = [(F_ONES, LOG2), (F_ZEROS, POW14), (F_TWOS, LOG2), (F_INF_DEFAULT, LOG2)]


class TestOnePass:
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    @pytest.mark.parametrize("f, phi", BUILT)
    def test_bundle_matches_the_public_oracles(self, f, phi, mutation):
        data = trace_to_dict(build(f, phi, 1))
        MUTATIONS[mutation](data)
        trace = trace_from_dict(data)
        expected = _bundle_from_oracles(trace)
        report = verify_trace(trace)
        assert json.dumps(report.to_dict(), sort_keys=True) == json.dumps(expected, sort_keys=True)
        assert report.passed or mutation != "none"

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    @pytest.mark.parametrize("f, phi", BUILT)
    def test_checks_match_the_per_sum_references(self, f, phi, mutation):
        data = trace_to_dict(build(f, phi, 1))
        MUTATIONS[mutation](data)
        trace = trace_from_dict(data)
        report = verify_trace(trace)
        pair_bounds = [c for c in report.invariants.checks if c.condition == "condition_1_pair_bound"]
        expected = [_reference_pair_bound(sum_counter(s.set), trace.f) for s in trace.stages]
        assert [(c.passed, c.witness) for c in pair_bounds] == [(w is None, w) for w in expected]
        prev, decompositions = None, dict(report.decompositions)
        for s in trace.stages:
            if s.index in decompositions:
                checks = {c.condition: c for c in decompositions[s.index].checks}
                union = prev.union(s.added)
                actual = sum_counter(s.set if union == s.set else union)
                witnesses, detail = _reference_decomposition(prev, s.added, s.kind, actual)
                for name, witness in witnesses.items():
                    assert (checks[name].passed, checks[name].witness) == (witness is None, witness)
                if detail is not None:
                    assert checks["piecewise_formula"].detail == detail
            prev = s.set
        if mutation == "collide":
            # the whole-Counter comparisons fail here, so the scans name the witness
            assert not checks["piecewise_formula"].passed
            assert pair_bounds[2].passed == (f is F_TWOS)

    def test_a_nested_trace_is_counted_at_stage_1_only(self, ones_trace, monkeypatch):
        # every later stage takes the count its decomposition derives
        calls, recount = [], repbasis.verify._recount
        monkeypatch.setattr(repbasis.verify, "_recount", lambda A: calls.append(A) or recount(A))
        verify_trace(ones_trace)
        assert calls == [ones_trace.stages[0].set]
        # an extension that adds nothing reuses its predecessor's count
        data = trace_to_dict(ones_trace)
        first, second, third = data["stages"]
        second.update(set=first["set"], added=[])
        third["added"] = sorted(set(third["set"]) - set(first["set"]))
        calls.clear()
        report = verify_trace(trace_from_dict(data))
        assert calls == [ones_trace.stages[0].set]
        assert [idx for idx, _ in report.decompositions] == [3]

    def test_a_failed_decomposition_hands_the_union_tally_to_the_next_stage(self, monkeypatch):
        # stage 2 adjoins 5 and 40 to {1, 3, 7}: 1 + 5 = 3 + 3, 3 + 5 = 1 + 7 and
        # 5 + 5 = 3 + 7, so its decomposition fails; stage 3 adjoins 100, whose
        # sums are all new, so it passes on the tally that stage 2 left
        sets = [(1, 3, 7), (1, 3, 5, 7, 40), (1, 3, 5, 7, 40, 100)]
        stages = (StageRecord(1, FiniteBasis(sets[0]), FiniteBasis(sets[0]), 1),
                  StageRecord(2, FiniteBasis(sets[1]), FiniteBasis((5, 40))),
                  StageRecord(3, FiniteBasis(sets[2]), FiniteBasis((100,)), 2))
        seen, calls = [], []
        stage_invariants, recount = repbasis.verify._stage_invariants, repbasis.verify._recount

        def spy(trace, s, nesting, sums, repeats, zeros):
            seen.append((set(sums), dict(repeats)))
            return stage_invariants(trace, s, nesting, sums, repeats, zeros)

        monkeypatch.setattr(repbasis.verify, "_stage_invariants", spy)
        monkeypatch.setattr(repbasis.verify, "_recount", lambda A: calls.append(A) or recount(A))
        report = verify_trace(ConstructionTrace(F_ONES, LOG2, (0, 1), stages))
        assert calls == [stages[0].set]
        decompositions = dict(report.decompositions)
        assert (decompositions[2].passed, decompositions[3].passed) == (False, True)
        assert [(c.condition, c.witness) for c in decompositions[2].failures()] == [
            ("old_cross_disjoint", 6), ("old_self_disjoint", 10), ("piecewise_formula", 6)]
        assert seen[1][1] == seen[2][1] == {6: 2, 8: 2, 10: 2}
        counts = [sum_counter(s.set) for s in stages]
        assert seen == [_split(c) for c in counts]
        pair_bounds = [(c.passed, c.witness, c.detail) for c in report.invariants.checks
                       if c.condition == "condition_1_pair_bound"]
        assert [w for _, w, _ in pair_bounds] == [_reference_pair_bound(c, F_ONES) for c in counts]
        assert pair_bounds == [(True, None, "pair-sum counts within bounds")] + [
            (False, 6, "rep count 2 exceeds prescribed 1 at n=6")] * 2

    def test_only_stage_1_and_stages_that_are_not_nested_are_counted(self, monkeypatch):
        calls, recount = [], repbasis.verify._recount
        monkeypatch.setattr(repbasis.verify, "_recount", lambda A: calls.append(A) or recount(A))
        for (f, phi), mutation in product(BUILT, sorted(MUTATIONS)):
            data = trace_to_dict(build(f, phi, 1))
            MUTATIONS[mutation](data)
            trace = trace_from_dict(data)
            calls.clear()
            verify_trace(trace)
            stages = trace.stages
            expected = [stages[0].set] + [
                s.set for prev, s in zip(stages, stages[1:]) if prev.set.union(s.added) != s.set
            ]
            assert calls == expected, mutation
            if mutation == "drop_inherited":
                # stage 2 lost an inherited element, and stage 3 still holds it
                assert calls == [s.set for s in stages]
            elif mutation in ("none", "inflate_x", "f_zero"):
                assert calls == [stages[0].set]


def _triangle(k: int) -> int:
    return k * (k + 1) // 2


class TestPairLimit:
    """The verifier refuses to tally a stage past trace.PAIR_LIMIT, from its
    size alone; the limit is patched small, so nothing large is allocated."""

    def test_a_stage_one_pair_past_the_limit_is_refused_before_any_tally(self, ones_trace, monkeypatch):
        k = len(ones_trace.stages[-1].set)
        calls = []
        monkeypatch.setattr(repbasis.verify, "sum_counter", lambda A: calls.append(A))
        monkeypatch.setattr(repbasis.verify, "_recount", lambda A: calls.append(A))
        monkeypatch.setattr(repbasis.trace, "PAIR_LIMIT", _triangle(k) - 1)
        for oracle in (verify_trace, check_invariants):
            with pytest.raises(InputTooLargeError) as info:
                oracle(ones_trace)
            assert str(info.value) == (f"stage 3 tallies the pairs of k={k} elements: {_triangle(k)}, "
                                       f"past the verifier's limit of {_triangle(k) - 1}")
        assert calls == []

    def test_a_stage_at_the_limit_verifies(self, ones_trace, monkeypatch):
        report = verify_trace(ones_trace)
        monkeypatch.setattr(repbasis.trace, "PAIR_LIMIT", _triangle(len(ones_trace.stages[-1].set)))
        assert verify_trace(ones_trace) == report and report.passed

    def test_the_previous_set_plus_the_added_elements_count(self, monkeypatch):
        # stage 3 lists {1, 2} but adds 10 and 20 to the four elements of
        # stage 2: its decomposition tallies the pairs of six elements
        small, four = FiniteBasis((1, 2)), FiniteBasis((1, 2, 3, 4))
        trace = ConstructionTrace(F_ONES, LOG2, (0, 1), (
            StageRecord(1, small, small, 1), StageRecord(2, four, FiniteBasis((3, 4))),
            StageRecord(3, small, FiniteBasis((10, 20)), 2)))
        monkeypatch.setattr(repbasis.trace, "PAIR_LIMIT", _triangle(6) - 1)
        with pytest.raises(InputTooLargeError, match=r"^stage 3 tallies the pairs of k=6 elements: 21,"):
            verify_trace(trace)
        monkeypatch.setattr(repbasis.trace, "PAIR_LIMIT", _triangle(6))
        assert not verify_trace(trace).passed

    def test_check_decomposition_counts_A_and_the_added_elements(self, monkeypatch):
        A, added = FiniteBasis((1, 4, 9, 16)), (30, 60)
        report = check_decomposition(A, added, KIND_EXTENSION)
        monkeypatch.setattr(repbasis.trace, "PAIR_LIMIT", _triangle(6) - 1)
        with pytest.raises(InputTooLargeError, match=r"^decomposition tallies the pairs of k=6 elements: 21,"):
            check_decomposition(A, added, KIND_EXTENSION)
        monkeypatch.setattr(repbasis.trace, "PAIR_LIMIT", _triangle(6))
        assert check_decomposition(A, added, KIND_EXTENSION) == report

    def test_build_refuses_a_trace_past_the_limit(self, ones_trace, monkeypatch):
        k = len(ones_trace.stages[-1].set)
        monkeypatch.setattr(repbasis.trace, "PAIR_LIMIT", _triangle(k) - 1)
        with pytest.raises(InputTooLargeError, match=rf"^stage 3 tallies the pairs of k={k} elements"):
            build(F_ONES, LOG2, 1)
        monkeypatch.setattr(repbasis.trace, "PAIR_LIMIT", _triangle(k))
        assert build(F_ONES, LOG2, 1) == ones_trace

    def test_the_cli_refuses_with_one_typed_line_and_stats_still_runs(self, ones_trace, tmp_path, monkeypatch,
                                                                      capsys):
        path = tmp_path / "trace.json"
        path.write_text(trace_dumps(ones_trace))
        k = len(ones_trace.stages[-1].set)
        monkeypatch.setattr(repbasis.trace, "PAIR_LIMIT", _triangle(k) - 1)
        assert cli.main(["verify", "--trace", str(path), "--report", str(tmp_path / "report.json")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and not (tmp_path / "report.json").exists()
        assert err.startswith("INPUT_TOO_LARGE: stage 3 tallies the pairs") and err.count("\n") == 1
        assert cli.main(["stats", "--trace", str(path)]) == 0
        assert capsys.readouterr().out.count("\n") == 3


def test_a_failed_decomposition_counts_the_pairs_of_A_once():
    # the union's counts are derived from A's, so only A is counted
    calls, counter = [], repbasis.verify.sum_counter
    A = FiniteBasis((1, 3, 7))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repbasis.verify, "sum_counter", lambda B: calls.append(B) or counter(B))
        report = check_decomposition(A, (5, 40), KIND_EXTENSION)
    assert calls == [A] and not report.passed
