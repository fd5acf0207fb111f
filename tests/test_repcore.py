"""Counting primitives, prescribed-count targets, and the density bar."""

import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from repbasis import (
    DEFAULT_SEARCH_CAP,
    INFINITY,
    EmptySetError,
    FiniteBasis,
    InputTooLargeError,
    PhiSpec,
    PreconditionViolatedError,
    RepTarget,
    TargetSequence,
    build,
    counting,
    d0_of,
    density_demand,
    density_exceeds,
    greedy_sidon,
    rep_function,
    rep_profile,
    sum_counter,
    target_prefix,
)
from repbasis import construct, repcore
from repbasis.repcore import real_sqrt


def basis(*els):
    return FiniteBasis.from_iterable(els)


class TestRepFunction:
    def test_two_representations(self):
        # 4 = 1+3 = 2+2
        assert rep_function(basis(1, 2, 3), 4) == 2

    @pytest.mark.parametrize(
        "n,expected",
        [(2, 1), (3, 1), (5, 1), (6, 1), (7, 0), (0, 0), (-1, 0)],
    )
    def test_small_set(self, n, expected):
        assert rep_function(basis(1, 2, 3), n) == expected

    def test_empty_set(self):
        assert rep_function(FiniteBasis(), 0) == 0

    def test_mixed_signs(self):
        assert rep_function(basis(-4, 4), 0) == 1
        assert rep_function(basis(-4, -3), -7) == 1
        assert rep_function(basis(-4, -3), -8) == 1

    def test_agrees_with_pair_enumeration(self):
        A = basis(-5, -2, 1, 3, 8)
        counts = sum_counter(A)
        for n in range(-20, 21):
            assert rep_function(A, n) == counts.get(n, 0)


class TestSumCounter:
    def test_explicit(self):
        assert dict(sum_counter(basis(1, 2))) == {2: 1, 3: 1, 4: 1}

    def test_total_is_pair_count(self):
        A = basis(-7, -1, 2, 5, 11, 12)
        k = len(A)
        assert sum(sum_counter(A).values()) == k * (k + 1) // 2

    @staticmethod
    def _double_loop(A):
        """The reference: one Counter update per pair a <= b."""
        counts = Counter()
        els = A.elements
        for i, a in enumerate(els):
            for b in els[i:]:
                counts[a + b] += 1
        return counts

    def test_matches_the_double_loop(self):
        rng = random.Random(5)
        sets = [FiniteBasis(), basis(-3), basis(7), basis(-10**30, 10**30)]
        for _ in range(60):
            reach = 10 ** rng.randrange(1, 20)
            sets.append(basis(*(rng.randrange(-reach, reach) for _ in range(rng.randrange(2, 60)))))
        for A in sets:
            expected = self._double_loop(A)
            got = sum_counter(A)
            assert type(got) is Counter
            assert got == expected
            # the same first-occurrence order, so iteration over the sums agrees too
            assert list(got.items()) == list(expected.items())


class TestRepProfile:
    def test_window_and_values(self):
        profile = rep_profile(basis(1, 2, 3))
        assert sorted(profile) == list(range(-6, 7))
        assert profile[4] == 2
        assert profile[2] == profile[3] == profile[5] == profile[6] == 1
        assert profile[0] == 0 and profile[-6] == 0

    def test_singleton(self):
        assert rep_profile(basis(1)) == {-2: 0, -1: 0, 0: 0, 1: 0, 2: 1}

    def test_empty_raises(self):
        with pytest.raises(EmptySetError):
            rep_profile(FiniteBasis())

    def test_too_large_window_raises_before_allocating(self):
        with pytest.raises(InputTooLargeError) as caught:
            rep_profile(FiniteBasis((1, 10**12)))
        assert caught.value.code == "INPUT_TOO_LARGE"

    def test_window_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(repcore, "PROFILE_WINDOW_LIMIT", 41)  # max|a| = 10
        assert len(rep_profile(basis(-10, 3))) == 41
        with pytest.raises(InputTooLargeError):
            rep_profile(basis(3, 11))


class TestCounting:
    @pytest.mark.parametrize(
        "y,x,expected",
        [(1, 8, 4), (3, 8, 2), (2, 2, 1), (9, 100, 0), (5, 3, 0)],
    )
    def test_closed_interval(self, y, x, expected):
        assert counting(basis(1, 2, 4, 8), y, x) == expected

    def test_empty(self):
        assert counting(FiniteBasis(), -5, 5) == 0

    def test_negative_elements(self):
        assert counting(basis(-3, 5), -3, 4) == 1

    def test_real_endpoints(self):
        assert counting(basis(1, 2, 4, 8), 0.5, 8.5) == 4
        assert counting(basis(1, 2, 4, 8), 1.5, 7.9) == 2


# each public set function, called on its set A
SET_FUNCTIONS = {
    "rep_function": lambda A: rep_function(A, 3),
    "sum_counter": sum_counter,
    "counting": lambda A: counting(A, 0, 5),
    "rep_profile": rep_profile,
}


@pytest.mark.parametrize("call", SET_FUNCTIONS.values(), ids=SET_FUNCTIONS)
@pytest.mark.parametrize("A", [(1, 2), [1, 2]])
def test_basis_must_be_a_finite_basis(A, call):
    with pytest.raises(PreconditionViolatedError) as refused:
        call(A)
    assert str(refused.value) == f"A must be a FiniteBasis, got {type(A).__name__}"
    call(greedy_sidon(5))  # a SidonSet is a FiniteBasis


class TestFiniteBasis:
    def test_from_iterable_sorts_and_dedupes(self):
        assert FiniteBasis.from_iterable([3, -1, 3, 2]).elements == (-1, 2, 3)

    def test_contains(self):
        A = basis(-9, 1, 2, 9)
        assert 2 in A and 9 in A
        assert 0 not in A and 5 not in A

    def test_max_abs(self):
        assert FiniteBasis().max_abs() == 0
        assert basis(-9, 1).max_abs() == 9
        assert basis(1, 9).max_abs() == 9

    def test_union(self):
        assert basis(1, 2).union((-9, 9)).elements == (-9, 1, 2, 9)

    def test_zero_is_representable(self):
        # corrupted stage sets must be expressible for verification
        assert 0 in FiniteBasis((0,))

    def test_rejects_disorder_and_duplicates(self):
        with pytest.raises(ValueError):
            FiniteBasis((2, 1))
        with pytest.raises(ValueError):
            FiniteBasis((1, 1))

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            FiniteBasis(("3",))
        with pytest.raises(ValueError):
            FiniteBasis((True,))
        # the first offending element is named
        with pytest.raises(ValueError, match="^element must be an integer, got True$"):
            FiniteBasis((1, True, 2.5))
        with pytest.raises(ValueError, match="^elements must be strictly increasing$"):
            FiniteBasis((1, 3, 3))

    def test_rejects_a_list(self):
        # a list once made an unhashable set, unequal to the same tuple's
        with pytest.raises(TypeError, match="^elements must be a tuple, got list$"):
            FiniteBasis([1, 2])


class TestRepTarget:
    def test_constant(self):
        f = RepTarget.constant(1)
        assert f.value(0) == 1 and f.value(10**9) == 1
        assert f.zero_points() == []

    def test_window_lookup(self):
        f = RepTarget(2, {-2: 0, -1: 0, 0: 0, 1: 0, 2: 0}, 1)
        assert f.value(2) == 0 and f.value(3) == 1 and f.value(-5) == 1
        assert f.zero_points() == [-2, -1, 0, 1, 2]

    def test_infinite_value(self):
        f = RepTarget(0, {0: INFINITY}, 1)
        assert f.value(0) == INFINITY and f.value(1) == 1

    def test_max_finite(self):
        f = RepTarget(1, {-1: 5, 0: INFINITY, 1: 2}, 3)
        assert f.max_finite(0) is None
        assert f.max_finite(1) == 5
        assert f.max_finite(2) == 5
        assert RepTarget.constant(INFINITY).max_finite(10) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            RepTarget(-1, {}, 1)
        with pytest.raises(ValueError):
            RepTarget(1, {0: 1}, 1)  # window not covered
        with pytest.raises(ValueError):
            RepTarget(0, {0: 1, 1: 1}, 1)  # stray key
        with pytest.raises(ValueError):
            RepTarget(0, {0: -1}, 1)
        with pytest.raises(ValueError):
            RepTarget(0, {0: 1}, 0)  # default 0 would zero out a tail
        with pytest.raises(ValueError):
            RepTarget(0, {0: True}, 1)
        with pytest.raises(ValueError):
            RepTarget(0, {0: 1}, True)
        with pytest.raises(ValueError):
            RepTarget(True, {-1: 1, 0: 1, 1: 1}, 1)
        # True hashes as 1 but is written as "True", which no trace reads back
        with pytest.raises(ValueError, match="values must cover exactly"):
            RepTarget(1, {-1: 1, 0: 1, True: 2}, 1)

    def test_window_checked_without_building_it(self):
        with pytest.raises(ValueError):
            RepTarget(10**12, {0: 1}, 1)
        with pytest.raises(ValueError):
            RepTarget(1, {-1: 1, 0: 1, 2: 1}, 1)  # right size, one key outside
        with pytest.raises(ValueError):
            RepTarget(1, {-1: 1, 0.0: 1, 1: 1}, 1)  # a key that is not an int

    def test_round_trip(self):
        f = RepTarget(1, {-1: 0, 0: INFINITY, 1: 3}, 2)
        data = f.to_dict()
        assert data == {
            "window": 1,
            "values": {"-1": 0, "0": "inf", "1": 3},
            "default": 2,
        }
        assert RepTarget.from_dict(data) == f

    def test_from_dict_errors(self):
        with pytest.raises(ValueError):
            RepTarget.from_dict([])
        with pytest.raises(ValueError):
            RepTarget.from_dict({"window": 0, "values": {"0": 1}})
        with pytest.raises(ValueError):
            RepTarget.from_dict({"window": 0, "values": {"zero": 1}, "default": 1})
        with pytest.raises(ValueError):
            RepTarget.from_dict({"window": 0, "values": {"0": 1.5}, "default": 1})
        with pytest.raises(ValueError):
            RepTarget.from_dict({"window": 0, "values": {"0": True}, "default": 1})
        with pytest.raises(ValueError):
            RepTarget.from_dict({"window": 0, "values": {"0": "infinite"}, "default": 1})
        with pytest.raises(ValueError, match=r"^target keys: unexpected \['defualt'\]$"):
            RepTarget.from_dict({"window": 0, "values": {"0": 1}, "default": 1, "defualt": 2})

    def test_a_long_key_list_is_named_in_brief(self):
        # the list of unexpected keys was once written in full, here a million characters
        data = {"window": 0, "values": {"0": 1}, "default": 1, "k" * 10**6: 1}
        with pytest.raises(ValueError) as refused:
            RepTarget.from_dict(data)
        assert str(refused.value) == "target keys: unexpected ['" + "k" * 78 + "..."
        del data["window"]
        with pytest.raises(ValueError) as refused:
            RepTarget.from_dict(data)
        assert str(refused.value) == "target keys: missing ['window']; unexpected ['" + "k" * 78 + "..."

    def test_from_dict_rejects_aliased_keys(self):
        # "0" and "00" both parse to n = 0; neither value may silently win
        with pytest.raises(ValueError, match="n=0"):
            RepTarget.from_dict({"window": 0, "values": {"0": 1, "00": 0}, "default": 1})

    @pytest.mark.parametrize("key, n", [("1_0", 10), ("\u0661", 1), ("+1", 1), (" 1", 1), ("01", 1), ("-0", 0)],
                             ids=["underscore", "arabic-indic", "plus", "space", "leading-zero", "minus-zero"])
    def test_from_dict_refuses_a_key_not_written_as_str_of_its_integer(self, key, n):
        # each spelling once loaded as n, and the file written back named n otherwise
        values = {str(m): 1 for m in range(-10, 11) if m != n}
        values[key] = 1
        message = f"target value key {key!r} names n={n} but is not written '{n}'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RepTarget.from_dict({"window": 10, "values": values, "default": 1})


class TestD0:
    def test_no_zeros(self):
        assert d0_of(RepTarget.constant(1)) == 1
        assert d0_of(RepTarget(1, {-1: 1, 0: 2, 1: 3}, 1)) == 1

    def test_zero_window(self):
        f = RepTarget(2, {-2: 0, -1: 0, 0: 0, 1: 0, 2: 0}, 1)
        assert d0_of(f) == 3
        assert d0_of(RepTarget(0, {0: 0}, 1)) == 1


class TestTargetSequence:
    def test_all_ones(self):
        f = RepTarget.constant(1)
        assert target_prefix(f, 5) == [0, 1, -1, 2, -2]
        assert target_prefix(f, 9) == [0, 1, -1, 2, -2, 3, -3, 4, -4]

    def test_all_twos(self):
        f = RepTarget.constant(2)
        assert target_prefix(f, 8) == [0, 1, -1, 0, 1, -1, 2, -2]

    def test_zero_window_skipped(self):
        f = RepTarget(2, {-2: 0, -1: 0, 0: 0, 1: 0, 2: 0}, 1)
        assert target_prefix(f, 4) == [3, -3, 4, -4]

    def test_infinite_origin(self):
        f = RepTarget(0, {0: INFINITY}, 1)
        assert target_prefix(f, 7) == [0, 1, -1, 0, 2, -2, 0]

    def test_prefix_stability(self):
        f = RepTarget(1, {-1: 3, 0: 0, 1: 2}, 1)
        long = target_prefix(f, 40)
        for m in (0, 1, 7, 23):
            assert target_prefix(f, m) == long[:m]

    def test_emission_counts_respect_f(self):
        from collections import Counter

        f = RepTarget(1, {-1: 3, 0: 0, 1: 2}, 2)
        counts = Counter(target_prefix(f, 60))
        for n, k in counts.items():
            assert k <= f.value(n)
        assert counts[0] == 0 and counts[1] == 2 and counts[-1] == 3

    @pytest.mark.parametrize("m", [1.5, True, -1])
    def test_prefix_length_must_be_a_non_negative_integer(self, m):
        with pytest.raises(ValueError, match=f"^prefix length must be an integer >= 0, got {m}$"):
            TargetSequence(RepTarget.constant(1)).prefix(m)

    def test_shared_sequence_caches(self):
        seq = TargetSequence(RepTarget.constant(1))
        assert seq.prefix(3) == [0, 1, -1]
        assert seq.prefix(1) == [0]
        assert seq.prefix(0) == []
        with pytest.raises(ValueError):
            seq.prefix(-1)


class ReferenceTargetSequence:
    """The enumeration as it was kept with a Counter: round t scans
    n = 0, 1, -1, ..., t, -t and emits n when min(f(n), t) still exceeds
    the number of earlier emissions of n."""

    def __init__(self, source):
        self.source = source
        self._emitted = []
        self._counts = Counter()
        self._round = 0

    def _advance_round(self):
        self._round += 1
        t = self._round
        for n in [0, *(k * sign for k in range(1, t + 1) for sign in (1, -1))]:
            if min(self.source.value(n), t) > self._counts[n]:
                self._emitted.append(n)
                self._counts[n] += 1

    def prefix(self, m):
        while len(self._emitted) < m:
            self._advance_round()
        return self._emitted[:m]


def _random_target(rng):
    w = rng.randint(0, 4)
    values = {n: rng.choice((0, 0, 1, 2, 3, 5, INFINITY)) for n in range(-w, w + 1)}
    return RepTarget(w, values, rng.choice((1, 2, 3, INFINITY)))


class TestClosedFormEnumeration:
    """TargetSequence emits n in round t exactly when t - max(|n|, 1) < f(n),
    keeping the last round's list; the Counter-based reference must give the
    same terms."""

    WIDE_ONES = RepTarget(10**4, {n: 1 for n in range(-(10**4), 10**4 + 1)}, 1)
    NAMED = (
        RepTarget.constant(1),
        RepTarget.constant(2),
        RepTarget.constant(INFINITY),
        RepTarget(2, {n: 0 for n in range(-2, 3)}, 1),
        RepTarget(0, {0: INFINITY}, 1),
    )

    @pytest.mark.parametrize("f", NAMED, ids=["ones", "twos", "inf", "zeros", "inf_origin"])
    def test_named_targets(self, f):
        assert TargetSequence(f).prefix(400) == ReferenceTargetSequence(f).prefix(400)

    def test_random_windows(self):
        rng = random.Random(20261018)
        for _ in range(200):
            f = _random_target(rng)
            m = rng.randint(0, 300)
            assert TargetSequence(f).prefix(m) == ReferenceTargetSequence(f).prefix(m), f

    def test_long_prefixes(self):
        rng = random.Random(50)
        window = RepTarget(50, {n: rng.choice((0, 1, 2, 3, 5, INFINITY)) for n in range(-50, 51)}, 2)
        for f in (RepTarget.constant(1), RepTarget.constant(3), window):
            assert TargetSequence(f).prefix(4000) == ReferenceTargetSequence(f).prefix(4000), f

    def test_wide_window(self):
        f = self.WIDE_ONES
        assert TargetSequence(f).prefix(1000) == ReferenceTargetSequence(f).prefix(1000)

    @pytest.mark.parametrize("f", [RepTarget.constant(1), WIDE_ONES], ids=["ones", "wide_window"])
    def test_lookups_per_term(self, f, monkeypatch):
        # a round looks up what the last round emitted and the two newly
        # covered n, never the spent n inside the window
        looked_up = 0
        original = RepTarget.value

        def spy(self, n):
            nonlocal looked_up
            looked_up += 1
            return original(self, n)

        monkeypatch.setattr(RepTarget, "value", spy)
        assert len(TargetSequence(f).prefix(4000)) == 4000
        assert looked_up <= 8000

    def test_prefixes_grown_on_one_sequence(self):
        rng = random.Random(8)
        for f in (*self.NAMED, *(_random_target(rng) for _ in range(40))):
            seq, ref = TargetSequence(f), ReferenceTargetSequence(f)
            for m in (1, 0, 3, 3, 17, 5, 60, 61, 200, 120, 300):
                assert seq.prefix(m) == ref.prefix(m), (f, m)


class TestPhiSpec:
    def test_parse_and_canonical_str(self):
        assert str(PhiSpec.parse("log2")) == "log2"
        assert str(PhiSpec.parse("ln")) == "ln"
        assert str(PhiSpec.parse("pow:0.25")) == "pow:1/4"
        assert str(PhiSpec.parse("clog:2.5")) == "clog:5/2"
        assert PhiSpec.parse("pow:0.25") == PhiSpec.parse("pow:1/4")

    def test_evaluate(self):
        assert PhiSpec.parse("log2").evaluate(0) == 1.0
        assert PhiSpec.parse("log2").evaluate(2) == 2.0
        assert PhiSpec.parse("ln").evaluate(0) == pytest.approx(math.log(2))
        assert PhiSpec.parse("pow:1/4").evaluate(16) == pytest.approx(2.0)
        assert PhiSpec.parse("pow:1/4").evaluate(0) == 0.0
        assert PhiSpec.parse("clog:3").evaluate(0) == pytest.approx(3 * math.log(2))
        with pytest.raises(ValueError):
            PhiSpec.parse("log2").evaluate(-1)

    def test_evaluate_huge_argument(self):
        x = 10**400
        assert PhiSpec.parse("log2").evaluate(x) == pytest.approx(400 * math.log2(10))
        assert PhiSpec.parse("pow:1/4").evaluate(x) == pytest.approx(1e100, rel=1e-9)
        # phi(x) itself past the float range
        assert PhiSpec.parse("pow:49/100").evaluate(10**4000) == math.inf

    @pytest.mark.parametrize(
        "text",
        ["pow:0", "pow:1/2", "pow:0.6", "pow:-1/4", "clog:0", "clog:-1",
         "cube", "pow:abc", "pow:", "log2:3", "pow:1/0"],
    )
    def test_rejects_bad_specs(self, text):
        with pytest.raises(ValueError):
            PhiSpec.parse(text)

    @pytest.mark.parametrize("text", ["clog:1e-400", "pow:1e-400", "clog:1e400"])
    def test_rejects_parameters_outside_the_float_range(self, text):
        # phi is evaluated in floats: 1e-400 would read as 0.0, 1e400 overflow
        with pytest.raises(ValueError, match="phi parameter .* outside the float range"):
            PhiSpec.parse(text)

    @pytest.mark.parametrize("text, named", [
        ("clog:1e-4000", "phi parameter of clog is about 10^-4000"),
        ("clog:1e-5000", "phi parameter of clog is about 10^-5000"),
        ("pow:1e-5000", "phi parameter of pow is about 10^-5000"),
        ("clog:1e400", "phi parameter of clog is about 10^400"),
    ])
    def test_a_parameter_far_outside_the_float_range_is_named_by_its_size(self, text, named):
        # printing 1e-5000 in full passes the interpreter's 4300-digit limit
        with pytest.raises(ValueError) as refused:
            PhiSpec.parse(text)
        assert str(refused.value) == f"{named}, outside the float range"

    def test_accepts_subnormal_parameters(self):
        assert PhiSpec.parse("clog:1e-320").evaluate(0) > 0

    def test_parameters_are_exact_rationals(self):
        # an infinite float would otherwise reach the range check, which
        # names a parameter by its numerator and denominator
        with pytest.raises(ValueError, match="bad phi parameter inf"):
            PhiSpec("clog", math.inf)
        with pytest.raises(ValueError, match="bad phi parameter 0.25"):
            PhiSpec("pow", 0.25)

    def test_a_parameter_too_long_to_print_is_refused(self, digit_limit):
        # 1 + 10**-5000 is inside the float range, but str() would write its
        # 5001-digit numerator and denominator in full
        with pytest.raises(ValueError) as refused:
            PhiSpec("clog", Fraction(10**5000 + 1, 10**5000))
        assert str(refused.value) == "phi parameter of clog has up to 5001 digits, past the limit of 4300"
        near = PhiSpec("clog", Fraction(10**4299 + 1, 10**4299))
        assert str(near).startswith("clog:1" + "0" * 4298 + "1/1")

    def test_build_refuses_a_parameter_too_long_to_print_before_any_scan(self, digit_limit, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("build must not scan")

        monkeypatch.setattr(construct, "_density_search", refuse)
        # about 0.111, written as a ratio of two 8001-digit integers
        text = "clog:" + "1" * 4000 + "." + "1" * 4000 + "e-4000"
        with pytest.raises(ValueError, match="^phi parameter of clog has up to 8001 digits, past the limit of 4300$"):
            build(RepTarget.constant(1), text, 1)

    @pytest.mark.parametrize("kind, parameter", [("pow", "0.3"), ("clog", "2")])
    def test_a_string_parameter_is_refused_before_its_range(self, kind, parameter):
        with pytest.raises(ValueError) as refused:
            PhiSpec(kind, parameter)
        assert str(refused.value) == f"bad phi parameter {parameter!r}"

    def test_direct_constructor_validation(self):
        with pytest.raises(ValueError):
            PhiSpec("pow")
        with pytest.raises(ValueError):
            PhiSpec("ln", Fraction(1))
        # True passes the clog range check but is written as "clog:True"
        with pytest.raises(ValueError, match="bad phi parameter True"):
            PhiSpec("clog", True)


class TestDensityBar:
    def test_demand_value(self):
        assert density_demand(16, PhiSpec.parse("pow:1/4")) == pytest.approx(2.0)
        assert density_demand(24, PhiSpec.parse("log2")) == pytest.approx(
            math.sqrt(24) / math.log2(26)
        )

    def test_strictness_at_the_bar(self):
        phi = PhiSpec.parse("pow:1/4")
        # at x = 16 the bar is exactly 2; a count of 2 is a tie, not a win
        assert not density_exceeds(2, 16, phi)
        assert density_exceeds(3, 16, phi)

    def test_huge_checkpoint(self):
        x = 10**400
        assert real_sqrt(x) == pytest.approx(1e200, rel=1e-9)
        assert density_exceeds(10**199, x, PhiSpec.parse("log2")) is True
        assert density_exceeds(10, x, PhiSpec.parse("log2")) is False
        with pytest.raises(ValueError):
            real_sqrt(-1)

    def test_demand_past_the_float_range(self):
        # sqrt(x) passes the float range near x = 10**617; the bar does later
        log2, pow49 = PhiSpec.parse("log2"), PhiSpec.parse("pow:49/100")
        assert real_sqrt(10**620) == INFINITY
        assert density_demand(10**620, log2) == pytest.approx(
            math.exp(310 * math.log(10) - math.log(620 * math.log2(10))), rel=1e-9
        )
        assert density_demand(10**4000, pow49) == pytest.approx(1e40, rel=1e-9)
        assert density_demand(10**4000, log2) == INFINITY
        assert not density_exceeds(10**400, 10**4000, log2)
        assert density_exceeds(10**41, 10**4000, pow49)
        assert not density_exceeds(10**39, 10**4000, pow49)

    @pytest.mark.parametrize("x", [0, -4, 0.5])
    @pytest.mark.parametrize("spec", ["pow:1/4", "log2", "ln", "clog:1/100"])
    def test_bar_needs_x_at_least_one(self, x, spec):
        phi = PhiSpec.parse(spec)
        with pytest.raises(ValueError, match=f"x={x}"):
            density_demand(x, phi)
        with pytest.raises(ValueError, match=f"x={x}"):
            density_exceeds(1, x, phi)

    def test_default_cap_constant(self):
        assert DEFAULT_SEARCH_CAP == 10**9
