"""The one integer rule, `errors.require_int`, and the public entries that
take a number and refuse a float, a bool or a string instead of reading it
as one."""

import dataclasses
import re

import pytest

from repbasis import (
    FiniteBasis,
    MalformedTraceError,
    PhiSpec,
    PreconditionViolatedError,
    RepTarget,
    SidonLadder,
    SidonSet,
    build,
    density_demand,
    rep_function,
    upper_bound_check,
    verify_trace,
)
from repbasis.errors import require_int

A = FiniteBasis((1, 2))
# f = 1 on the window |n| <= 2 but f(1) = 3, and 2 outside it
F = RepTarget(2, {-2: 1, -1: 1, 0: 1, 1: 3, 2: 1}, 2)

# entry -> (call with the refused value, error class, least in the message)
ENTRIES = {
    "upper_bound_check x": (lambda v: upper_bound_check(A, v, 1), PreconditionViolatedError, 0),
    "upper_bound_check r": (lambda v: upper_bound_check(A, 2, v), PreconditionViolatedError, 0),
    "rep_function n": (lambda v: rep_function(A, v), PreconditionViolatedError, None),
    "RepTarget.value n": (lambda v: F.value(v), PreconditionViolatedError, None),
    "density_demand x": (lambda v: density_demand(v, PhiSpec.parse("log2")), ValueError, 1),
    "SidonLadder.advance n": (lambda v: SidonLadder().advance(v), ValueError, None),
    "SidonLadder.advance_to_growth limit": (lambda v: SidonLadder().advance_to_growth(v), ValueError, None),
    "SidonSet ambient_n": (lambda v: SidonSet((), v), ValueError, None),
}


@pytest.mark.parametrize("value", [2.5, True, "2"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_a_numeric_argument_that_is_not_an_integer_is_refused(entry, value):
    call, error, least = ENTRIES[entry]
    bound = "" if least is None else f" >= {least}"
    with pytest.raises(error, match=re.escape(f" must be an integer{bound}, got {value!r}") + "$"):
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
    bad = dataclasses.replace(trace, stages=(stage, *trace.stages[1:]))
    with pytest.raises(MalformedTraceError, match=f"^stage 1 {field} must be an integer, got {value}$"):
        verify_trace(bad)


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
