"""Property tests: random field mutations of a built trace either fail to
load as a malformed trace or verify into a report whose every failure
names a witness, and random walks of the Sidon ladder agree with its
per-candidate reference.  Examples are derandomized, so every run tests
the same inputs."""

import copy
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_sidon import ReferenceLadder, same_state  # noqa: E402

from repbasis import (  # noqa: E402
    MalformedTraceError,
    PhiSpec,
    RepTarget,
    SidonLadder,
    build,
    trace_from_dict,
    trace_to_dict,
    verify_trace,
)

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
