"""The one integer rule, `errors.require_int`, and the public entries that
take a number and refuse a float, a bool or a string instead of reading it
as one; and the one type rule, `errors.require_type`, on the public entries
that take an object."""

import dataclasses
import re

import pytest

from repbasis import (
    ConstructionTrace,
    FiniteBasis,
    MalformedTraceError,
    PhiSpec,
    PreconditionViolatedError,
    RepTarget,
    SidonLadder,
    SidonSet,
    StageRecord,
    TargetSequence,
    build,
    check_decomposition,
    check_equality_coverage,
    check_invariants,
    d0_of,
    density_demand,
    density_exceeds,
    rep_function,
    target_prefix,
    trace_loads,
    trace_to_dict,
    upper_bound_check,
    verify_trace,
)
from repbasis.errors import _int_text, echo, require_int
from repbasis.trace import canonical_json, trace_dumps

A = FiniteBasis((1, 2))
# f = 1 on the window |n| <= 2 but f(1) = 3, and 2 outside it
F = RepTarget(2, {-2: 1, -1: 1, 0: 1, 1: 3, 2: 1}, 2)

# entry -> (call with the refused value, error class, least in the message,
# or the class an object argument must be)
ENTRIES = {
    "upper_bound_check x": (lambda v: upper_bound_check(A, v, 1), PreconditionViolatedError, 0),
    "upper_bound_check r": (lambda v: upper_bound_check(A, 2, v), PreconditionViolatedError, 0),
    "rep_function n": (lambda v: rep_function(A, v), PreconditionViolatedError, None),
    "RepTarget.value n": (lambda v: F.value(v), PreconditionViolatedError, None),
    "density_demand x": (lambda v: density_demand(v, PhiSpec.parse("log2")), ValueError, 1),
    "density_exceeds count": (lambda v: density_exceeds(v, 10, PhiSpec.parse("log2")), ValueError, None),
    "density_exceeds x": (lambda v: density_exceeds(1, v, PhiSpec.parse("log2")), ValueError, 1),
    "SidonLadder.advance n": (lambda v: SidonLadder().advance(v), ValueError, None),
    "SidonLadder.advance_to_growth limit": (lambda v: SidonLadder().advance_to_growth(v), ValueError, None),
    "SidonSet ambient_n": (lambda v: SidonSet((), v), ValueError, None),
    # each once raised a bare AttributeError, TargetSequence only at its first prefix
    "density_demand phi": (lambda v: density_demand(16, v), TypeError, PhiSpec),
    "density_exceeds phi": (lambda v: density_exceeds(3, 16, v), TypeError, PhiSpec),
    "d0_of f": (lambda v: d0_of(v), TypeError, RepTarget),
    "TargetSequence f": (lambda v: TargetSequence(v), TypeError, RepTarget),
    "target_prefix f": (lambda v: target_prefix(v, 2), TypeError, RepTarget),
}


@pytest.mark.parametrize("value", [2.5, True, "2"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_a_numeric_argument_that_is_not_an_integer_is_refused(entry, value):
    call, error, want = ENTRIES[entry]
    if isinstance(want, type):  # an object argument gets the type rule's message
        message = f" must be a {want.__name__}, got {type(value).__name__}"
    else:
        message = f" must be an integer{'' if want is None else f' >= {want}'}, got {value!r}"
    with pytest.raises(error, match=re.escape(message) + "$"):
        call(value)


def test_the_calls_that_once_read_a_float_or_a_bool_as_a_number():
    with pytest.raises(PreconditionViolatedError, match=r"^x must be an integer >= 0, got 2\.5$"):
        upper_bound_check(FiniteBasis((1, 2)), 2.5, 1)
    with pytest.raises(PreconditionViolatedError, match="^r must be an integer >= 0, got True$"):
        upper_bound_check(FiniteBasis((1, 2)), 2, True)
    with pytest.raises(PreconditionViolatedError, match=r"^n must be an integer, got 3\.0$"):
        rep_function(FiniteBasis((1, 2)), 3.0)
    with pytest.raises(ValueError, match=r"^Sidon bound n must be an integer, got 10\.5$"):
        SidonLadder().advance(10.5)
    # a non-integer inside the window once raised a bare KeyError, one
    # outside it read the default, and True read f(1)
    for n in (0.5, 7.5, True):
        with pytest.raises(PreconditionViolatedError, match=f"^n must be an integer, got {n}$"):
            F.value(n)


def test_integer_arguments_still_answer():
    assert upper_bound_check(A, 0, 0) and upper_bound_check(A, 2, 1)
    with pytest.raises(PreconditionViolatedError, match="^x must be an integer >= 0, got -1$"):
        upper_bound_check(A, -1, 1)
    assert rep_function(A, 3) == 1 and rep_function(A, -3) == 0
    assert F.value(1) == 3 and F.value(-7) == 2  # inside and outside the window
    ladder = SidonLadder()
    with pytest.raises(ValueError):
        ladder.advance(10.5)
    ladder.advance(10)  # the refused call left the ladder where it was
    assert ladder.best_elements().ambient_n == 10
    assert ladder.advance_to_growth(12) is None  # the next greedy element is 13
    assert ladder.advance_to_growth(20) == 13


@pytest.mark.parametrize("field, value", [("index", True), ("x", 24.0)])
def test_an_in_memory_stage_index_or_checkpoint_that_is_not_an_integer_is_refused(field, value):
    trace = build(RepTarget.constant(1), "log2", 1)
    assert getattr(trace.stages[0], field) == value  # the value it would alias
    stage = dataclasses.replace(trace.stages[0], **{field: value})
    # refused when the trace is made, before any reader sees it
    with pytest.raises(MalformedTraceError, match=f"^stage 1 {field} must be an integer, got {value}$"):
        dataclasses.replace(trace, stages=(stage, *trace.stages[1:]))


def _swap_stage_1(trace, **fields):
    return dataclasses.replace(trace, stages=(dataclasses.replace(trace.stages[0], **fields), *trace.stages[1:]))


# field -> (the trace with an object of another type but the same content
# there, the message that names the field and that type); a field is refused
# with MalformedTraceError when the trace is made, and a reader refuses an
# argument that is no trace with the type rule's TypeError
WRONG_TYPES = {
    "trace": (trace_to_dict, "trace must be a ConstructionTrace, got dict"),
    "f": (lambda t: dataclasses.replace(t, f=t.f.to_dict()), "f must be a RepTarget, got dict"),
    "phi": (lambda t: dataclasses.replace(t, phi=str(t.phi)), "phi must be a PhiSpec, got str"),
    "u_prefix": (lambda t: dataclasses.replace(t, u_prefix=list(t.u_prefix)), "u_prefix must be a tuple, got list"),
    "u_prefix entry": (lambda t: dataclasses.replace(t, u_prefix=(*t.u_prefix[:-1], float(t.u_prefix[-1]))),
                       "u_prefix entry must be an integer, got 1.0"),
    "stages": (lambda t: dataclasses.replace(t, stages=list(t.stages)), "stages must be a tuple, got list"),
    "stage": (lambda t: dataclasses.replace(t, stages=(str(t.stages[0]), *t.stages[1:])),
              "stage 1 must be a StageRecord, got str"),
    "set": (lambda t: _swap_stage_1(t, set=list(t.stages[0].set)), "stage 1 set must be a FiniteBasis, got list"),
    "added": (lambda t: _swap_stage_1(t, added=tuple(t.stages[0].added)),
              "stage 1 added must be a FiniteBasis, got tuple"),
}


@pytest.mark.parametrize("reader", [verify_trace, check_invariants, check_equality_coverage],
                         ids=lambda reader: reader.__name__)
@pytest.mark.parametrize("field", sorted(WRONG_TYPES))
def test_an_in_memory_trace_field_of_another_type_is_refused(field, reader):
    # each once ended in a bare StopIteration, AttributeError or a witness
    # from deep in the verifier, or named a bound method as the stage index
    trace = build(RepTarget.constant(1), "log2", 1)
    swap, message = WRONG_TYPES[field]
    error = TypeError if field == "trace" else MalformedTraceError
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        reader(swap(trace))


# entry -> (call with the refused value, error class, message around it); each
# once raised the interpreter's ValueError on an integer too long to print
PAST_THE_DIGIT_LIMIT = {
    "upper_bound_check x": (lambda v: upper_bound_check(FiniteBasis(()), v, 1), PreconditionViolatedError,
                            "x must be an integer >= 0, got {}"),
    "build L": (lambda v: build(RepTarget.constant(1), "log2", v), ValueError,
                "stage count L must be an integer >= 1, got {}"),
    "TargetSequence.prefix m": (lambda v: TargetSequence(RepTarget.constant(1)).prefix(v), ValueError,
                                "prefix length must be an integer >= 0, got {}"),
    "RepTarget window": (lambda v: RepTarget(v, {}, 1), ValueError, "window must be an integer >= 0, got {}"),
    "density_demand x": (lambda v: density_demand(v, PhiSpec.parse("log2")), ValueError,
                         "the density bar is defined for x >= 1, got x={}"),
}


@pytest.mark.parametrize("entry", sorted(PAST_THE_DIGIT_LIMIT))
def test_an_integer_past_the_digit_limit_is_named_by_its_digit_count(digit_limit, entry):
    call, error, message = PAST_THE_DIGIT_LIMIT[entry]
    with pytest.raises(error) as refused:
        call(-10**5000)
    assert str(refused.value) == message.format("-<integer of up to 5001 digits>")


# entry -> (call with a container holding the refused integer, error class,
# message); each once raised the interpreter's ValueError from repr
HOLDING_AN_INTEGER_PAST_THE_DIGIT_LIMIT = {
    "upper_bound_check x": (lambda v: upper_bound_check(FiniteBasis(()), [v], 1), PreconditionViolatedError,
                            "x must be an integer >= 0, got <list holding an integer too long to print>"),
    "upper_bound_check r": (lambda v: upper_bound_check(FiniteBasis(()), 1, [v]), PreconditionViolatedError,
                            "r must be an integer >= 0, got <list holding an integer too long to print>"),
    "rep_function n": (lambda v: rep_function(FiniteBasis((1,)), (v,)), PreconditionViolatedError,
                       "n must be an integer, got <tuple holding an integer too long to print>"),
    "FiniteBasis element": (lambda v: FiniteBasis(([v],)), ValueError,
                            "element must be an integer, got <list holding an integer too long to print>"),
    "RepTarget value": (lambda v: RepTarget(0, {0: [v]}, 1), ValueError,
                        "value at n=0 must be an integer >= 0, got <list holding an integer too long to print>"),
    "PhiSpec parameter": (lambda v: PhiSpec("pow", [v]), ValueError,
                          "bad phi parameter <list holding an integer too long to print>"),
}


@pytest.mark.parametrize("entry", sorted(HOLDING_AN_INTEGER_PAST_THE_DIGIT_LIMIT))
def test_a_value_holding_an_integer_past_the_digit_limit_is_named_by_its_type(digit_limit, entry):
    call, error, message = HOLDING_AN_INTEGER_PAST_THE_DIGIT_LIMIT[entry]
    with pytest.raises(error) as refused:
        call(10**5000)
    assert type(refused.value) is error and str(refused.value) == message


class TestEcho:
    def test_an_integer_is_named_in_full_up_to_the_digit_limit(self, digit_limit):
        longest = 10**digit_limit - 1
        assert _int_text(longest) == str(longest)
        assert echo(longest) == "9" * 80 + "..."
        assert echo(-longest) == "-" + "9" * 79 + "..."
        assert (_int_text(longest + 1), _int_text(-longest - 1)) == (
            "<integer of up to 4301 digits>", "-<integer of up to 4301 digits>")
        assert echo(longest + 1) == "<integer of up to 4301 digits>"

    @pytest.mark.parametrize("value, name", [([10**5000], "list"), ({"k": (1, -10**5000)}, "dict")])
    def test_a_value_holding_an_integer_past_the_limit_is_named_by_its_type(self, digit_limit, value, name):
        assert echo(value) == f"<{name} holding an integer too long to print>"

    @pytest.mark.parametrize("value", [0, -3, 10**100, True, 0.5, -2.5e300, "7", [1, 2]])
    def test_a_value_within_the_limit_is_named_by_its_repr(self, digit_limit, value):
        text = repr(value)
        assert echo(value) == (text if len(text) <= 80 else text[:80] + "...")

    @pytest.mark.parametrize("x", [0, -3, 0.5, -2.5e300])
    def test_the_density_bar_names_x_as_it_did(self, x):
        with pytest.raises(ValueError, match=f"^the density bar is defined for x >= 1, got x={re.escape(str(x))}$"):
            density_demand(x, PhiSpec.parse("log2"))


def test_an_in_memory_checkpoint_past_the_digit_limit_is_refused(digit_limit):
    # verify_trace once raised the interpreter's ValueError while writing its
    # density detail
    trace = build(RepTarget.constant(1), "log2", 1)
    stage = dataclasses.replace(trace.stages[2], x=10**5000 + 1)
    message = "^stage 3 checkpoint x has up to 5001 digits, past the limit of 4300$"
    with pytest.raises(MalformedTraceError, match=message):
        dataclasses.replace(trace, stages=(*trace.stages[:2], stage))


def test_a_checkpoint_at_the_digit_limit_gets_a_verdict(digit_limit):
    # r(4x+1) has 4301 digits, past what the interpreter prints
    x = 10**digit_limit - 1
    trace = build(RepTarget.constant(1), "log2", 1)
    trace = dataclasses.replace(trace, stages=(*trace.stages[:2], dataclasses.replace(trace.stages[2], x=x)))
    report = verify_trace(trace)
    assert [(c.condition, c.stage, c.witness) for c in report.invariants.failures()] == [
        ("condition_3_density", 3, x)]
    assert report.upper_bounds[-1].detail == "stages 1-3: k=6, k(k+1)/2=21, bound r(4x+1)=<integer of up to 4301 digits>"
    assert canonical_json(report.to_dict())


def _one_stage_trace(elements: tuple[int, ...]) -> ConstructionTrace:
    """The trace of one base stage at x = 1 for f = 1, whose set and added
    elements are both `elements`."""
    stage = StageRecord(1, FiniteBasis(elements), FiniteBasis(elements), 1)
    return ConstructionTrace(RepTarget.constant(1), PhiSpec.parse("log2"), (0,), (stage,))


class TestPairSumPastTheDigitLimit:
    # (B+1) + (B+3) = (B+2) + (B+2) has 4301 digits, which verify once tried
    # to print as the pair-bound witness
    BIG = tuple(9 * 10**4299 + d for d in (1, 2, 3, 4))
    MESSAGE = "pair sum has up to 4301 digits, past the limit of 4300"

    def test_an_in_memory_trace_is_refused(self, digit_limit):
        with pytest.raises(MalformedTraceError, match=f"^stage 1 {self.MESSAGE}$"):
            _one_stage_trace(self.BIG)

    def test_a_loaded_trace_is_refused(self, digit_limit):
        # every element has 4300 digits, so the file itself parses
        stage = {"index": 1, "kind": "BASE", "set": list(self.BIG), "added": list(self.BIG), "x": 1}
        text = canonical_json({"f": RepTarget.constant(1).to_dict(), "phi": "log2", "u_prefix": [0],
                               "stages": [stage]})
        with pytest.raises(MalformedTraceError, match=f"^stage 1 {self.MESSAGE}$"):
            trace_loads(text)

    def test_a_negative_element_bounds_the_sums_as_well(self, digit_limit):
        with pytest.raises(MalformedTraceError, match=f"^stage 1 {self.MESSAGE}$"):
            _one_stage_trace((-self.BIG[0], 1))

    def test_a_pair_sum_at_the_limit_gets_a_verdict(self, digit_limit):
        # 2(B+4) has 4300 digits, so every sum and witness is printable
        big = tuple(4 * 10**4299 + d for d in (1, 2, 3, 4))
        trace = _one_stage_trace(big)
        assert trace_loads(trace_dumps(trace)) == trace
        report = verify_trace(trace)
        pair_bound = [c for c in report.invariants.failures() if c.condition == "condition_1_pair_bound"]
        assert [c.witness for c in pair_bound] == [big[0] + big[2]]
        assert canonical_json(report.to_dict())

    @pytest.mark.parametrize("old, added", [(BIG[:2], BIG[2:]), ((1, 2), BIG[2:]), (BIG[:2], [-BIG[3], 5])])
    def test_a_decomposition_is_refused(self, digit_limit, old, added):
        with pytest.raises(PreconditionViolatedError, match=f"^{self.MESSAGE}$"):
            check_decomposition(FiniteBasis(old), added, "TARGET_EXTENSION")

    def test_a_decomposition_checks_its_arguments_first(self, digit_limit):
        with pytest.raises(PreconditionViolatedError, match="^an extension adjoins exactly two elements, got 1$"):
            check_decomposition(FiniteBasis(self.BIG), [1], "TARGET_EXTENSION")


class TestRequireInt:
    def test_least_is_accepted_and_one_below_it_is_refused(self):
        assert require_int(3, "v", 3) == 3
        with pytest.raises(ValueError, match="^v must be an integer >= 3, got 2$"):
            require_int(2, "v", 3)

    def test_without_least_any_integer_passes(self):
        assert require_int(-10**30, "v") == -10**30

    @pytest.mark.parametrize("value", [True, False])
    def test_a_bool_is_refused(self, value):
        with pytest.raises(ValueError, match=f"^v must be an integer >= 0, got {value}$"):
            require_int(value, "v", 0)

    def test_the_error_class_is_the_callers(self):
        with pytest.raises(MalformedTraceError, match=r"^stage 1 x must be an integer, got 1\.5$"):
            require_int(1.5, "stage 1 x", error=MalformedTraceError)

    def test_a_long_value_is_named_by_80_characters_of_its_repr(self):
        value = list(range(100))
        assert len(repr(value)) > 80
        with pytest.raises(ValueError) as refused:
            require_int(value, "v")
        assert str(refused.value) == f"v must be an integer, got {repr(value)[:80]}..."
