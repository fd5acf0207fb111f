"""Property tests: random field mutations of a built trace either fail to
load as a malformed trace or verify into a report whose every failure
names a witness, a checkpoint of about 10^700 is refused when negative and
fails the density bar when positive, the union's pair-sum counts that a
decomposition derives equal a recount, decompositions drawn wide match the
whole-report reference record for record, random walks of the Sidon ladder
agree with its per-candidate reference, is_sidon agrees with a count of
every pair sum, targets and traces survive their round trips, and the
command line ends with status 0, 1 or 2 on any argument list.  Examples
are derandomized, so every run tests the same inputs."""

import copy
import dataclasses
import io
import json
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations_with_replacement

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_sidon import ReferenceLadder, same_state  # noqa: E402
from test_verify import _reference_decomposition, _reference_pair_bound, _split  # noqa: E402
from test_whole_report import _decomposition as whole_report_decomposition  # noqa: E402

from repbasis import (  # noqa: E402
    INFINITY,
    ConstructionTrace,
    KIND_DENSIFICATION,
    KIND_EXTENSION,
    FiniteBasis,
    MalformedTraceError,
    PhiSpec,
    PhiTooSlowError,
    RepTarget,
    SidonLadder,
    StageRecord,
    build,
    check_decomposition,
    cli,
    is_sidon,
    sum_counter,
    trace_dumps,
    trace_from_dict,
    trace_loads,
    trace_to_dict,
    verify_trace,
)
from repbasis import verify  # noqa: E402
from repbasis.trace import expected_m_covered  # noqa: E402
from repbasis.verify import _decompose  # noqa: E402

BASE = trace_to_dict(build(RepTarget.constant(1), PhiSpec.parse("pow:1/4"), 1))

INTS = st.integers(-10**4, 10**4) | st.sampled_from(
    [0, 1, -1, 10**12, -(10**12), 10**700, -(10**700)]
)
ELEMENTS = st.lists(INTS, max_size=8, unique=True).map(sorted)
# values of the wrong type reach the parser's type checks
JUNK = st.sampled_from([None, True, 1.5, "7", [], {}])
STAGE_FIELDS = ("index", "kind", "set", "added", "x")


@st.composite
def mutation(draw):
    """A function that changes one field of a trace mapping in place."""
    where = draw(st.sampled_from(("stage", "stage", "stage", "u_prefix", "phi", "f")))
    if where == "stage":
        pos = draw(st.integers(0, len(BASE["stages"]) - 1))
        key = draw(st.sampled_from(STAGE_FIELDS))
        how = draw(st.sampled_from(("replace", "add", "remove", "delete")))
        value = draw(ELEMENTS if key in ("set", "added") else INTS | JUNK)
        extra = draw(INTS)

        def edit(data):
            stage = data["stages"][pos]
            if how == "delete":
                stage.pop(key, None)
            elif how == "replace" or not isinstance(stage.get(key), list):
                stage[key] = value
            elif how == "add":
                stage[key] = sorted(set(stage[key]) | {extra})
            elif stage[key]:
                stage[key].pop(extra % len(stage[key]))

        return edit
    if where == "u_prefix":
        pos, value = draw(st.integers(0, len(BASE["u_prefix"]) - 1)), draw(INTS | JUNK)
        return lambda data: data["u_prefix"].__setitem__(pos, value)
    if where == "phi":
        value = draw(st.sampled_from(["log2", "ln", "pow:9/20", "pow:1/100", "clog:2", "pow:1"]))
        return lambda data: data.__setitem__("phi", value)
    # f: the window stays put, so no mutation asks for a huge target table
    key = draw(st.sampled_from(("default", "value")))
    value = draw(st.sampled_from([0, 1, 2, 3, "inf"]) | JUNK)
    if key == "default":
        return lambda data: data["f"].__setitem__("default", value)
    return lambda data: data["f"]["values"].__setitem__("0", value)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(mutation(), min_size=1, max_size=2))
def test_mutation_is_malformed_or_witnessed(edits):
    data = copy.deepcopy(BASE)
    for edit in edits:
        edit(data)
    try:
        report = verify_trace(trace_from_dict(data))
    except MalformedTraceError:
        return
    failed = [c for c in report.invariants.checks if not c.passed]
    failed += [c for _, rep in report.decompositions for c in rep.failures()]
    failed += [c for c in report.upper_bounds if not c.passed]
    assert all(c.witness is not None for c in failed)
    assert report.passed == (not failed and not report.equality.failures())
    assert json.loads(json.dumps(report.to_dict())) == report.to_dict()


CHECKPOINTS = [pos for pos, stage in enumerate(BASE["stages"]) if "x" in stage]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.sampled_from(CHECKPOINTS), st.sampled_from([1, -1]), st.integers(-10**6, 10**6))
def test_huge_checkpoint_reaches_the_verifier(pos, sign, offset):
    x = sign * (10**700 + offset)
    data = copy.deepcopy(BASE)
    data["stages"][pos]["x"] = x
    trace = trace_from_dict(BASE)
    stages = list(trace.stages)
    stages[pos] = dataclasses.replace(stages[pos], x=x)
    # a trace object skips the loader's checks, but making it checks x
    if x < 0:
        with pytest.raises(MalformedTraceError) as refused:
            dataclasses.replace(trace, stages=tuple(stages))
        assert refused.value.code == "MALFORMED_TRACE"
        with pytest.raises(MalformedTraceError):
            trace_loads(json.dumps(data))
        return
    mutated = dataclasses.replace(trace, stages=tuple(stages))
    assert trace_loads(json.dumps(data)) == mutated
    report = verify_trace(mutated)
    failed = {(c.condition, c.stage, c.witness) for c in report.invariants.failures()}
    assert ("condition_3_density", pos + 1, x) in failed


@st.composite
def decompositions(draw):
    """A set A, 0 and negatives included, and an added list that may repeat
    elements and reach into A, with a kind that fits its length."""
    A = FiniteBasis.from_iterable(draw(st.lists(st.integers(-30, 30), max_size=12)))
    pool = st.integers(-40, 40) | st.sampled_from((0, *A.elements))
    kind = draw(st.sampled_from((KIND_EXTENSION, KIND_DENSIFICATION)))
    n = 2 if kind == KIND_EXTENSION else draw(st.integers(1, 6))
    return A, draw(st.lists(pool, min_size=n, max_size=n)), kind


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(decompositions())
def test_derived_union_counts_equal_a_recount(case):
    A, added, kind = case
    union = sum_counter(A.union(added))
    sums, repeats = _split(sum_counter(A))
    report = _decompose(A, sums, repeats, tuple(sorted(added)), kind)
    # the tally of A becomes the union's in place, on a passing stage and a failing one
    assert (sums, dict(repeats)) == _split(union)
    assert check_decomposition(A, added, kind) == report
    checks = {c.condition: c for c in report.checks}
    witnesses, detail = _reference_decomposition(A, added, kind, union)
    for name, witness in witnesses.items():
        assert (checks[name].passed, checks[name].witness) == (witness is None, witness)
    if detail is not None:
        assert checks["piecewise_formula"].detail == detail


# f = 1, 2 and INFINITY, and zeros prescribed on |n| <= 2 with the default 1
CHAIN_TARGETS = (RepTarget.constant(1), RepTarget.constant(2), RepTarget.constant(INFINITY),
                 RepTarget(2, {n: 0 for n in range(-2, 3)}, 1))


@st.composite
def nested_chains(draw):
    """A trace of 1-7 nested stages on [-12, 12], so that sums repeat in
    stage 1 and decompositions often fail, under one of CHAIN_TARGETS."""
    current = set(draw(st.lists(st.integers(-12, 12), max_size=7)))
    stages = [StageRecord(1, FiniteBasis(tuple(sorted(current))), FiniteBasis(tuple(sorted(current))), 1)]
    for index in range(2, draw(st.sampled_from((1, 3, 5, 7))) + 1):
        size = draw(st.sampled_from((0, 2)) if index % 2 == 0 else st.integers(1, 3))
        free = [n for n in range(-12, 13) if n not in current]
        added = draw(st.lists(st.sampled_from(free), min_size=size, max_size=size, unique=True))
        current |= set(added)
        stages.append(StageRecord(index, FiniteBasis(tuple(sorted(current))), FiniteBasis(tuple(sorted(added))),
                                  index if index % 2 else None))
    u_prefix = (0,) * expected_m_covered(len(stages))
    return ConstructionTrace(draw(st.sampled_from(CHAIN_TARGETS)), PhiSpec.parse("log2"), u_prefix, tuple(stages))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(nested_chains())
def test_the_walk_holds_each_stage_tally(trace):
    # after each stage, on a passing decomposition or a failing one, the set
    # and the repeats are a fresh count of the stage split in two, and the
    # pair bound is checked against every zero of f
    seen = []
    stage_invariants = verify._stage_invariants

    def spy(trace, s, nesting, sums, repeats, zeros):
        seen.append((set(sums), dict(repeats), list(zeros)))
        return stage_invariants(trace, s, nesting, sums, repeats, zeros)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_stage_invariants", spy)
        report = verify_trace(trace)
    counts = [sum_counter(s.set) for s in trace.stages]
    assert seen == [(*_split(c), trace.f.zero_points()) for c in counts]
    pair_bounds = [c for c in report.invariants.checks if c.condition == "condition_1_pair_bound"]
    assert [c.witness for c in pair_bounds] == [_reference_pair_bound(c, trace.f) for c in counts]


@st.composite
def wide_decompositions(draw):
    """A set A and an added list drawn from [-10**6, 10**6], so that most
    draws pass every check, with a kind that fits the list's length."""
    wide = st.integers(-(10**6), 10**6)
    A = FiniteBasis.from_iterable(draw(st.lists(wide, max_size=12)))
    kind = draw(st.sampled_from((KIND_EXTENSION, KIND_DENSIFICATION)))
    n = 2 if kind == KIND_EXTENSION else draw(st.integers(1, 6))
    return A, draw(st.lists(wide, min_size=n, max_size=n)), kind


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(wide_decompositions())
def test_wide_decompositions_match_the_whole_report_reference(case):
    A, added, kind = case
    expected = whole_report_decomposition(A.elements, sorted(added), kind)
    assert check_decomposition(A, added, kind).to_dict() == expected


def test_repeated_added_element_is_tallied_once():
    report = check_decomposition(FiniteBasis((1, 2, 3, 4)), (5, 5), KIND_DENSIFICATION)
    piecewise = report.checks[-1]
    assert (piecewise.condition, piecewise.witness) == ("piecewise_formula", 6)
    assert piecewise.detail == "rep count at n=6 is 3, piecewise formula gives 2"


def _reference_nesting(s: StageRecord, prev: FiniteBasis | None) -> verify.CheckResult:
    """The nesting check by set algebra on every stage, as it was first written."""
    index, current, added = s.index, set(s.set), set(s.added)
    if prev is None:
        if current != added:
            w = min(current ^ added)
            return verify._fail(verify.COND_NESTING, index, w, "base stage must list itself as added")
        return verify._ok(verify.COND_NESTING, index, "base stage added equals its set")
    before = set(prev)
    overlap = before & added
    if overlap:
        w = min(overlap)
        return verify._fail(verify.COND_NESTING, index, w, f"added element {w} already present before stage {index}")
    union = before | added
    if union != current:
        w = min(union ^ current)
        detail = f"stage {index} set is not the previous set plus its added elements (mismatch at {w})"
        return verify._fail(verify.COND_NESTING, index, w, detail)
    return verify._ok(verify.COND_NESTING, index, "stage extends the previous set by exactly its added elements")


@st.composite
def nesting_cases(draw):
    """A stage and its predecessor's set (None for the base stage), the
    stage's set being the exact union or one with elements toggled, and
    its added list empty or overlapping the predecessor's set."""
    pool = st.integers(-8, 8)
    prev = draw(st.none() | st.lists(pool, max_size=6).map(FiniteBasis.from_iterable))
    old = list(prev or ())
    added = set(draw(st.lists(pool | st.sampled_from(old) if old else pool, max_size=4)))
    current = set(old) | added
    for n in draw(st.lists(pool | st.sampled_from(sorted(current)) if current else pool, max_size=2)):
        current ^= {n}
    index = 1 if prev is None else draw(st.integers(2, 9))
    return StageRecord(index, FiniteBasis.from_iterable(current), FiniteBasis.from_iterable(added)), prev


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(nesting_cases())
def test_nesting_check_matches_the_set_reference(case):
    # the verdict, the witness and the detail, on passing and failing stages
    assert verify._nesting_check(*case) == _reference_nesting(*case)


def _outcome(call, *args):
    try:
        return call(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 2 * 10**4)), min_size=1, max_size=12))
def test_ladder_walk_matches_the_reference(walk):
    ladder, reference = SidonLadder(), ReferenceLadder()
    for grow, bound in walk:
        name = "advance_to_growth" if grow else "advance"
        got = _outcome(getattr(ladder, name), bound)
        assert got == _outcome(getattr(reference, name), bound), (name, bound)
        assert same_state(ladder, reference), (name, bound)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(st.integers(-30, 30) | INTS, max_size=10))
def test_is_sidon_matches_a_count_of_every_pair_sum(items):
    # duplicates, negatives and 0 included: the distinct values are a Sidon
    # set exactly when no sum a + b (a <= b) of them is met twice
    counts = Counter(a + b for a, b in combinations_with_replacement(set(items), 2))
    assert is_sidon(items) == all(c == 1 for c in counts.values())


@st.composite
def targets(draw):
    """A RepTarget with a window of radius <= 4, values 0-5 or INFINITY and
    a default of 1-3 or INFINITY."""
    w = draw(st.integers(0, 4))
    counts = st.integers(0, 5) | st.just(INFINITY)
    values = {n: draw(counts) for n in range(-w, w + 1)}
    return RepTarget(w, values, draw(st.integers(1, 3) | st.just(INFINITY)))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(targets())
def test_target_round_trip(f):
    assert RepTarget.from_dict(json.loads(json.dumps(f.to_dict()))) == f
    assert RepTarget.from_dict(f.to_dict()) == f


F_ZEROS = RepTarget(2, {n: 0 for n in range(-2, 3)}, 1)


@pytest.mark.parametrize("rounds", [1, 2])
@pytest.mark.parametrize("phi", ["pow:1/4", "log2"])
@pytest.mark.parametrize("f", [RepTarget.constant(1), F_ZEROS], ids=["ones", "zeros"])
def test_trace_round_trip(f, phi, rounds):
    try:
        trace = build(f, phi, rounds)
    except PhiTooSlowError:
        # zeros on |n| <= 2 cannot densify a second time: Lindström's bound
        # rules out every x up to the cap under both phis
        assert (f, rounds) == (F_ZEROS, 2)
        return
    assert trace_loads(trace_dumps(trace)) == trace


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Fixture files for the command line: a target, a trace, a garbled
    file and a path that does not exist."""
    root = tmp_path_factory.mktemp("cli")
    files = {
        "target": json.dumps(RepTarget.constant(1).to_dict()),
        "trace": trace_dumps(build(RepTarget.constant(1), "log2", 1)),
        "garbled": '{"f": [1, 2',
    }
    for name, text in files.items():
        (root / f"{name}.json").write_text(text)
    return {name: str(root / f"{name}.json") for name in (*files, "missing")}


def _argv(draw_path):
    """Argument lists over a bounded vocabulary; a path is drawn by name."""
    path = st.sampled_from(("target", "trace", "garbled", "missing")).map(draw_path)
    number = st.integers(-5, 5000).map(str) | st.sampled_from(("", "many", "1e3"))
    sidon = st.tuples(
        st.just("sidon"),
        st.sampled_from((("--method", "greedy"), ("--method", "erdos-turan"),
                         ("--method", "auto"), ("--method", "bogus"), ())),
        st.sampled_from((("--n",), ())),
        number.map(lambda n: (n,)),
    )
    build_ = st.tuples(
        st.just("build"),
        path.map(lambda p: ("--f", p)),
        st.sampled_from(("log2", "pow:1/4", "clog:1/100", "clog:1e-400", "bogus")).map(
            lambda phi: ("--phi", phi)),
        st.sampled_from((("--stages", "1"), ("--stages", "0"), ())),
        st.integers(-1, 10**5).map(lambda cap: ("--search-cap", str(cap))) | st.just(()),
    )
    read = st.tuples(
        st.sampled_from(("verify", "stats")),
        path.map(lambda p: ("--trace", p)) | st.just(()),
    )
    junk = st.tuples(st.sampled_from(("", "--help-me", "frobnicate", "--n")))
    return (sidon | build_ | read | junk).map(_flatten)


def _flatten(parts):
    return [a for part in parts for a in ((part,) if isinstance(part, str) else part)]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_cli_status_is_0_1_or_2(cli_files, data):
    argv = data.draw(_argv(cli_files.__getitem__))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            status = exc.code
    assert status in (0, 1, 2), (argv, err.getvalue())
    # an error is one typed line, never a traceback
    assert err.getvalue().count("\n") <= 1 or status == 2, (argv, err.getvalue())
