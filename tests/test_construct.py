"""Stage operations, the full build loop, and trace (de)serialization."""

import dataclasses
import decimal
import functools
import itertools
import json
import math
import random
import re

import pytest

from repbasis import (
    DEFAULT_SEARCH_CAP,
    INFINITY,
    KIND_BASE,
    KIND_DENSIFICATION,
    KIND_EXTENSION,
    FiniteBasis,
    MalformedTraceError,
    PhiSpec,
    PhiTooSlowError,
    PreconditionViolatedError,
    RepTarget,
    StageRecord,
    TargetSequence,
    base_case,
    build,
    densify,
    extend_target,
    trace_dumps,
    trace_from_dict,
    trace_loads,
    trace_to_dict,
)
from repbasis import construct
from repbasis.construct import _density_search, _lindstrom_last, _reject_bad_pair_counts
from repbasis.repcore import density_demand, density_exceeds, sum_counter
from repbasis.sidon import SidonLadder
from repbasis.trace import expected_kind, expected_m_covered

F_ONES = RepTarget.constant(1)
F_TWOS = RepTarget.constant(2)
F_ZEROS = RepTarget(2, {n: 0 for n in range(-2, 3)}, 1)
F_INF0 = RepTarget(0, {0: INFINITY}, 1)
LOG2 = PhiSpec.parse("log2")
POW14 = PhiSpec.parse("pow:1/4")


class TestSearchCap:
    """The cap rule: None means DEFAULT_SEARCH_CAP, else an integer >= 1."""

    @staticmethod
    def _abort_cap(**kwargs) -> int:
        # the Lindström certificate rules out every x up to the cap, so the
        # build aborts before any scan
        with pytest.raises(PhiTooSlowError) as err:
            build(F_ONES, "clog:1/100", 1, **kwargs)
        return err.value.cap

    def test_default(self):
        assert DEFAULT_SEARCH_CAP == 10**9
        assert self._abort_cap() == DEFAULT_SEARCH_CAP

    def test_the_environment_sets_no_cap(self, monkeypatch):
        monkeypatch.setenv("REPBASIS_SEARCH_CAP", "10")
        assert self._abort_cap() == 10**9
        assert self._abort_cap(search_cap=100) == 100

    @pytest.mark.parametrize("raw", ["abc", "0", "-3", "2.5"])
    def test_bad_env_value(self, monkeypatch, raw):
        """Nor is a value there that is no integer >= 1 refused."""
        monkeypatch.setenv("REPBASIS_SEARCH_CAP", raw)
        assert self._abort_cap() == DEFAULT_SEARCH_CAP

    @pytest.mark.parametrize("cap", [0, -5, True, 2.5])
    def test_bad_explicit_value(self, cap, monkeypatch):
        def refuse(*args):
            raise AssertionError("a bad cap must be refused before any walk")

        monkeypatch.setattr(construct, "_lindstrom_last", refuse)
        message = f"^search cap must be an integer >= 1, got {re.escape(repr(cap))}$"
        for call in (lambda: build(F_ONES, LOG2, 1, search_cap=cap),
                     lambda: base_case(F_ONES, LOG2, search_cap=cap),
                     lambda: densify(FiniteBasis((1, 2)), F_ONES, LOG2, 1, search_cap=cap)):
            with pytest.raises(ValueError, match=message):
                call()
        # the scan reads the cap, so densify refuses a bad set first
        with pytest.raises(PreconditionViolatedError, match="^densification: 0 must not be an element$"):
            densify(FiniteBasis((0, 1)), F_ONES, LOG2, 1, search_cap=cap)


class TestBaseCase:
    def test_all_ones(self):
        stage = base_case(F_ONES, LOG2)
        assert stage.index == 1 and stage.kind == KIND_BASE
        assert stage.set.elements == (-4, 4, 24)
        assert stage.added == stage.set
        assert stage.m_covered == 1
        assert stage.x == 24

    def test_zero_window(self):
        assert base_case(F_ZEROS, LOG2).set.elements == (-12, 15, 90)
        stage = base_case(F_ZEROS, POW14)
        assert stage.set.elements == (-12, 15, 90, 180)
        assert stage.x == 180

    def test_zero_at_origin_only(self):
        # first target is 1, so the tag pair sits at -4 and 5
        stage = base_case(RepTarget(0, {0: 0}, 1), LOG2)
        assert stage.set.elements == (-4, 5, 30)
        assert stage.x == 30

    def test_negative_first_target(self):
        f = RepTarget(2, {-2: 1, -1: 1, 0: 0, 1: 0, 2: 0}, 1)
        stage = base_case(f, LOG2)
        assert -13 in stage.set and 12 in stage.set
        assert stage.x == 78

    def test_cap_exhausted(self):
        with pytest.raises(PhiTooSlowError) as err:
            base_case(F_ONES, LOG2, search_cap=10)
        assert err.value.cap == 10


class TestExtendTarget:
    def test_first_target(self):
        u = TargetSequence(F_ONES)
        B = extend_target(FiniteBasis((1, 2)), F_ONES, u, 0)
        assert B.elements == (-9, 1, 2, 9)

    def test_second_target(self):
        u = TargetSequence(F_ONES)
        B = extend_target(FiniteBasis((-9, 1, 2, 9)), F_ONES, u, 1)
        assert B.elements == (-37, -9, 1, 2, 9, 38)

    def test_noop_when_covered(self):
        A = FiniteBasis((-4, 4, 24))
        u = TargetSequence(F_ONES)
        assert extend_target(A, F_ONES, u, 0) is A

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            extend_target(FiniteBasis((1, 2)), F_ONES, TargetSequence(F_ONES), -1)

    def test_zero_member_rejected(self):
        with pytest.raises(PreconditionViolatedError) as err:
            extend_target(FiniteBasis((-4, 0, 4)), F_ONES, TargetSequence(F_ONES), 0)
        assert err.value.witness == 0

    def test_pair_bound_precondition(self):
        # 4 = 1+3 = 2+2 already violates an all-ones prescription
        with pytest.raises(PreconditionViolatedError) as err:
            extend_target(FiniteBasis((1, 2, 3)), F_ONES, TargetSequence(F_ONES), 0)
        assert err.value.witness == 4

    def test_coverage_precondition(self):
        # {1, 2} has no representation of the first target 0
        with pytest.raises(PreconditionViolatedError) as err:
            extend_target(FiniteBasis((1, 2)), F_ONES, TargetSequence(F_ONES), 1)
        assert err.value.witness == 0


class TestDensify:
    def test_first_checkpoint(self):
        B, x = densify(FiniteBasis((1, 2)), F_ONES, LOG2, 1)
        assert B.elements == (1, 2, 10)
        assert x == 10

    def test_checkpoint_must_pass_m(self):
        B, x = densify(FiniteBasis((1, 2)), F_ONES, LOG2, 25)
        assert B.elements == (1, 2, 10, 20)
        assert x == 30

    def test_m_below_one_rejected(self):
        with pytest.raises(PreconditionViolatedError):
            densify(FiniteBasis((1, 2)), F_ONES, LOG2, 0)

    def test_zero_member_rejected(self):
        with pytest.raises(PreconditionViolatedError) as err:
            densify(FiniteBasis((0, 1)), F_ONES, LOG2, 1)
        assert err.value.witness == 0

    def test_pair_bound_precondition(self):
        with pytest.raises(PreconditionViolatedError) as err:
            densify(FiniteBasis((1, 2, 3)), F_ONES, LOG2, 1)
        assert err.value.witness == 4

    def test_cap_exhausted(self):
        with pytest.raises(PhiTooSlowError) as err:
            densify(FiniteBasis((1, 2)), F_ONES, LOG2, 1, search_cap=5)
        assert err.value.cap == 5


class TestArgumentTypes:
    """A public move refuses an argument of the wrong type with the error its
    range check raises, or a TypeError naming the type, and never takes a
    bool or float as an integer."""

    @pytest.mark.parametrize("M", [1.5, True])
    def test_densify_checkpoint_bound_must_be_an_integer(self, M):
        with pytest.raises(PreconditionViolatedError, match=f"M must be an integer >= 1, got {M}"):
            densify(FiniteBasis((-4, 5)), F_ONES, "pow:2/5", M)

    @pytest.mark.parametrize("m", [True, 1.5])
    def test_extend_target_count_must_be_an_integer(self, m):
        with pytest.raises(ValueError, match=f"m must be an integer >= 0, got {m}"):
            extend_target(FiniteBasis((1, 2)), F_ONES, TargetSequence(F_ONES), m=m)

    @pytest.mark.parametrize("call", [
        lambda f: build(f, LOG2, 1),
        lambda f: base_case(f, LOG2),
        lambda f: extend_target(FiniteBasis((1, 2)), f, TargetSequence(F_ONES), 0),
        lambda f: densify(FiniteBasis((1, 2)), f, LOG2, 1),
    ], ids=["build", "base_case", "extend_target", "densify"])
    def test_target_function_must_be_a_rep_target(self, call):
        with pytest.raises(TypeError, match="^f must be a RepTarget, got dict$"):
            call({"window": 0, "values": {"0": 1}, "default": 1})

    def test_extend_target_sequence_must_be_a_target_sequence(self):
        with pytest.raises(TypeError, match="^u must be a TargetSequence, got list$"):
            extend_target(FiniteBasis((1, 2)), F_ONES, [0, 1, -1], 0)


class TestBuild:
    def test_all_ones_log2_full_trace(self):
        trace = build(F_ONES, LOG2, 1)
        assert trace.u_prefix == (0, 1)
        s1, s2, s3 = trace.stages
        assert (s1.index, s1.kind, s1.x) == (1, KIND_BASE, 24)
        assert s1.set.elements == (-4, 4, 24)
        assert (s2.index, s2.kind, s2.x) == (2, KIND_EXTENSION, None)
        assert s2.set.elements == (-97, -4, 4, 24, 98)
        assert s2.added.elements == (-97, 98)
        assert s2.m_covered == 2
        assert (s3.index, s3.kind, s3.x) == (3, KIND_DENSIFICATION, 490)
        assert s3.set.elements == (-97, -4, 4, 24, 98, 490)
        assert s3.added.elements == (490,)
        assert trace.stages[-1].set is s3.set
        assert trace.checkpoints() == [(1, 24, s1.set), (3, 490, s3.set)]

    def test_final_checkpoints_per_function(self):
        assert build(F_TWOS, LOG2, 1).stages[-1].x == 490
        assert build(F_INF0, LOG2, 1).stages[-1].x == 490
        assert build(F_ZEROS, LOG2, 1).stages[-1].x == 1820

    def test_zero_window_quarter_power(self):
        trace = build(F_ZEROS, POW14, 1)
        assert trace.stages[-1].x == 38581960
        assert trace.stages[1].added.elements == (-724, 721)

    def test_deterministic(self):
        a = build(F_ONES, LOG2, 1)
        b = build(F_ONES, LOG2, 1)
        assert a == b
        assert trace_dumps(a) == trace_dumps(b)

    def test_multi_round_growth_outpaces_phi(self):
        # each round multiplies the demanded density far past what the
        # added Sidon elements supply, so deep builds exhaust the cap
        with pytest.raises(PhiTooSlowError) as err:
            build(F_ONES, LOG2, 3)
        assert err.value.cap == DEFAULT_SEARCH_CAP

    def test_targets_are_drawn_round_by_round(self, monkeypatch):
        # rounds 1 and 2 pass and round 3's densification aborts, so a million
        # rounds draw no more than the four targets of the first three
        asked = []
        prefix = TargetSequence.prefix

        def spy(self, m):
            asked.append(m)
            return prefix(self, m)

        monkeypatch.setattr(TargetSequence, "prefix", spy)
        with pytest.raises(PhiTooSlowError):
            build(F_ONES, LOG2, 10**6)
        assert max(asked) == 4

    @pytest.mark.parametrize("L", [0, -1, True, 1.5])
    def test_bad_round_count(self, L):
        with pytest.raises(ValueError):
            build(F_ONES, LOG2, L)

    @pytest.mark.parametrize("f", [F_ONES, F_TWOS, F_ZEROS, RepTarget.constant(INFINITY)],
                             ids=["ones", "twos", "zeros", "inf"])
    def test_rounds_match_the_public_moves(self, f):
        # build runs the moves without their input checks; the checked
        # public functions must give the same stages
        phi = PhiSpec.parse("pow:2/5")
        stages = build(f, phi, 4).stages
        for l in range(1, 5):
            before, extension, dense = stages[2 * l - 2], stages[2 * l - 1], stages[2 * l]
            assert extension.set == extend_target(before.set, f, TargetSequence(f), l)
            assert (dense.set, dense.x) == densify(extension.set, f, phi, before.x)

    def test_rounds_count_no_pair_sums(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("build must not count pair sums")

        for name in ("sum_counter", "_reject_bad_pair_counts", "_reject_zero_member"):
            monkeypatch.setattr(construct, name, refuse)
        assert build(F_ZEROS, "pow:2/5", 4).stages[-1].x == 14570530

    def test_phi_accepts_spec_string(self):
        assert build(F_ONES, "log2", 1) == build(F_ONES, LOG2, 1)

    @pytest.mark.parametrize("phi", [1.5, None, ["log2"]])
    def test_phi_wrong_type(self, phi):
        with pytest.raises(TypeError, match="PhiSpec or a spec string"):
            build(F_ONES, phi, 1)

    def test_phi_bad_string(self):
        with pytest.raises(ValueError):
            build(F_ONES, "pow:0.9", 1)


class TestStagePositions:
    def test_m_covered_by_index(self):
        assert [expected_m_covered(i) for i in (1, 2, 3, 4, 5, 12, 13)] == [
            1, 2, 2, 3, 3, 7, 7,
        ]

    def test_kind_by_index(self):
        assert expected_kind(1) == KIND_BASE
        assert expected_kind(2) == expected_kind(8) == KIND_EXTENSION
        assert expected_kind(3) == expected_kind(9) == KIND_DENSIFICATION

    def test_m_covered_is_derived_from_the_index(self):
        # a stage cannot carry a count of covered targets, or a kind, that its
        # index contradicts: neither is stored
        assert [f.name for f in dataclasses.fields(StageRecord)] == ["index", "set", "added", "x"]
        trace = build(F_ONES, LOG2, 1)
        with pytest.raises(TypeError):
            dataclasses.replace(trace.stages[2], m_covered=9)
        with pytest.raises(TypeError):
            dataclasses.replace(trace.stages[2], kind=KIND_EXTENSION)
        loaded = trace_loads(trace_dumps(build(F_ZEROS, "pow:2/5", 2)))
        assert [s.m_covered for s in loaded.stages] == [
            expected_m_covered(s.index) for s in loaded.stages
        ] == [1, 2, 2, 3, 3]
        assert [s.kind for s in loaded.stages] == [
            expected_kind(s.index) for s in loaded.stages
        ] == [KIND_BASE, KIND_EXTENSION, KIND_DENSIFICATION, KIND_EXTENSION, KIND_DENSIFICATION]


@pytest.fixture()
def trace_dict():
    return trace_to_dict(build(F_ONES, LOG2, 1))


class TestTraceSerialization:
    def test_dict_shape(self, trace_dict):
        assert set(trace_dict) == {"f", "phi", "u_prefix", "stages"}
        assert trace_dict["phi"] == "log2"
        assert trace_dict["u_prefix"] == [0, 1]
        even = trace_dict["stages"][1]
        assert set(even) == {"index", "kind", "set", "added"}
        odd = trace_dict["stages"][2]
        assert set(odd) == {"index", "kind", "set", "added", "x"}

    def test_dumps_round_trip(self):
        trace = build(F_ZEROS, POW14, 1)
        text = trace_dumps(trace)
        assert text.endswith("\n")
        assert trace_loads(text) == trace
        assert trace_dumps(trace_loads(text)) == text

    def test_dict_round_trip(self, trace_dict):
        trace = trace_from_dict(trace_dict)
        assert trace_to_dict(trace) == trace_dict

    def test_canonical_text_is_sorted(self, trace_dict):
        text = trace_dumps(trace_from_dict(trace_dict))
        parsed = json.loads(text)
        assert list(parsed) == sorted(parsed)

    def test_loads_rejects_bad_json(self):
        with pytest.raises(MalformedTraceError):
            trace_loads("not json at all")
        with pytest.raises(MalformedTraceError):
            trace_loads('"a bare string"')
        # nesting too deep for the parser is refused, not a RecursionError
        with pytest.raises(MalformedTraceError, match="^trace is not valid JSON: "):
            trace_loads("[" * 10**5 + "]" * 10**5)


def _expect_malformed(data) -> str:
    with pytest.raises(MalformedTraceError) as refused:
        trace_from_dict(data)
    return str(refused.value)


class TestTraceParsingRejections:
    def test_top_level_keys(self, trace_dict):
        missing = dict(trace_dict)
        del missing["phi"]
        assert _expect_malformed(missing) == "trace keys: missing ['phi']"
        extra = dict(trace_dict)
        extra["note"] = "hi"
        assert _expect_malformed(extra) == "trace keys: unexpected ['note']"

    def test_bad_target(self, trace_dict):
        trace_dict["f"] = "ones"
        _expect_malformed(trace_dict)
        # a misspelled key is refused, not dropped
        trace_dict["f"] = {"window": 0, "values": {"0": 1}, "default": 1, "defualt": 2}
        assert (_expect_malformed(trace_dict)
                == "bad target function: target keys: unexpected ['defualt']")

    def test_bad_phi(self, trace_dict):
        for bad in (7, "cube", "pow:0.9"):
            data = dict(trace_dict)
            data["phi"] = bad
            _expect_malformed(data)

    def test_bad_u_prefix(self, trace_dict):
        trace_dict["u_prefix"] = [0, True]
        _expect_malformed(trace_dict)

    def test_u_prefix_length_mismatch(self, trace_dict):
        trace_dict["u_prefix"] = [0, 1, -1]
        _expect_malformed(trace_dict)

    def test_stage_list_shape(self, trace_dict):
        for bad in ([], "stages", [trace_dict["stages"][0], "x", trace_dict["stages"][2]]):
            data = dict(trace_dict)
            data["stages"] = bad
            _expect_malformed(data)

    def test_even_stage_count(self, trace_dict):
        trace_dict["stages"] = trace_dict["stages"][:2]
        _expect_malformed(trace_dict)

    def test_stage_keys(self, trace_dict):
        trace_dict["stages"][1]["m_covered"] = 2  # derived, never serialized
        assert _expect_malformed(trace_dict) == "stage 2 keys: unexpected ['m_covered']"

    def test_a_long_unexpected_key_is_named_in_brief(self, trace_dict):
        trace_dict["k" * 10**6] = 1
        assert _expect_malformed(trace_dict) == "trace keys: unexpected ['" + "k" * 78 + "..."

    def test_stage_missing_key(self, trace_dict):
        del trace_dict["stages"][1]["added"]
        assert _expect_malformed(trace_dict) == "stage 2 keys: missing ['added']"

    def test_index_gap(self, trace_dict):
        trace_dict["stages"][1]["index"] = 3
        _expect_malformed(trace_dict)

    def test_wrong_kind_for_position(self, trace_dict):
        trace_dict["stages"][1]["kind"] = "DENSIFICATION"
        _expect_malformed(trace_dict)
        trace_dict["stages"][1]["kind"] = "WIBBLE"
        _expect_malformed(trace_dict)

    def test_checkpoint_parity(self, trace_dict):
        with_x = dict(trace_dict)
        with_x["stages"] = [dict(s) for s in trace_dict["stages"]]
        with_x["stages"][1]["x"] = 100
        _expect_malformed(with_x)
        without_x = dict(trace_dict)
        without_x["stages"] = [dict(s) for s in trace_dict["stages"]]
        del without_x["stages"][2]["x"]
        _expect_malformed(without_x)

    def test_non_positive_checkpoint(self, trace_dict):
        trace_dict["stages"][2]["x"] = 0
        _expect_malformed(trace_dict)

    def test_set_must_be_strictly_increasing(self, trace_dict):
        trace_dict["stages"][0]["set"] = [4, -4, 24]
        _expect_malformed(trace_dict)

    def test_order_is_refused_with_a_typed_error(self, trace_dict):
        # the loader leaves the order scan to FiniteBasis and retypes its error
        for key, bad in (("set", [4, -4, 24]), ("added", [-4, -4, 4, 24])):
            data = json.loads(json.dumps(trace_dict))
            data["stages"][0][key] = bad
            with pytest.raises(MalformedTraceError) as refused:
                trace_from_dict(data)
            assert str(refused.value) == f"stage 1 {key} must be strictly increasing"

    def test_set_entries_must_be_integers(self, trace_dict):
        # the first offender is named, whatever follows it
        for bad, named in (([1, "2"], "'2'"), ([1, True], "True"), ([1, 2.5], "2.5"),
                           ([1, True, 2.5, "2"], "True"), ([2.5, 1, "2"], "2.5"),
                           # a long value is named by the first 80 characters of its repr
                           ([1, list(range(100))], repr(list(range(100)))[:80] + "...")):
            for key, what in (("set", "stage 1 set"), ("added", "stage 1 added"),
                              ("u_prefix", "u_prefix")):
                data = json.loads(json.dumps(trace_dict))
                (data if key == "u_prefix" else data["stages"][0])[key] = bad
                with pytest.raises(MalformedTraceError) as refused:
                    trace_from_dict(data)
                assert str(refused.value) == f"{what} entry must be an integer, got {named}"


def _per_n_search(phi, scale, extra_count, min_x, cap, context):
    """The scan as a plain loop: advance the ladder and test both rules at
    every n until one passes or x passes the cap."""
    ladder = SidonLadder()
    n = min_x // scale + 1
    while True:
        x = scale * n
        if x > cap:
            raise PhiTooSlowError(
                f"{context}: no x <= {cap} (step {scale}) reaches "
                f"count > sqrt(x)/phi(x) with phi={phi}",
                cap=cap,
            )
        ladder.advance(n)
        size = ladder.best_size()
        if 4 * size * size > n and density_exceeds(extra_count + size, x, phi):
            return n, x, ladder.best_elements()
        n += 1


def _outcome(search, *args):
    try:
        n, x, D = search(*args)
    except PhiTooSlowError as exc:
        return ("abort", str(exc), exc.cap)
    return (n, x, D.elements, D.ambient_n)


class TestDensitySearch:
    PHIS = ("log2", "ln", "pow:1/4", "pow:9/20", "pow:1/50", "clog:1/100", "clog:3",
            "clog:1/1000000000000000000000000000000")

    def test_matches_per_n_scan(self):
        # the Lindström certificate rules out every n for the last phi, so its
        # scans abort at once; caps over 20000 steps keep the per-n loop fast
        grid = itertools.product(
            self.PHIS, (1, 7, 24, 90, 500), (0, 2, 9), (0, 4321), (1, 500, 20000, 300000)
        )
        aborts = successes = 0
        for phi, scale, extra, min_x, cap in grid:
            if cap // scale > 20000:
                continue
            args = (PhiSpec.parse(phi), scale, extra, min_x, cap, "scan")
            want = _outcome(_per_n_search, *args)
            assert _outcome(_density_search, *args) == want, args
            aborts += want[0] == "abort"
            successes += want[0] != "abort"
        assert aborts > 100 and successes > 100

    def test_hopeless_phi_aborts_without_scanning(self, monkeypatch):
        advanced = []
        original = SidonLadder.advance

        def spy(self, n):
            advanced.append(n)
            return original(self, n)

        monkeypatch.setattr(SidonLadder, "advance", spy)
        for phi in ("clog:1/100", "clog:1/1000000000000000000000000000000"):
            with pytest.raises(PhiTooSlowError) as err:
                _density_search(PhiSpec.parse(phi), 24, 2, 0, 10**9, "scan")
            assert err.value.cap == 10**9
            assert str(err.value) == (f"scan: no x <= 1000000000 (step 24) reaches "
                                      f"count > sqrt(x)/phi(x) with phi={phi}")
            assert advanced == []

    def test_lindstrom_last(self):
        # clog:1/100 asks for about 100*sqrt(x)/ln(x), far past any Sidon set
        assert _lindstrom_last(PhiSpec.parse("clog:1/100"), 24, 2, 10**9 // 24) == 0
        assert _lindstrom_last(LOG2, 24, 2, 0) == 0
        # a bar past any float the old rule trusted still rules counts out,
        # and a limit past the float range leaves its top block open
        tiny = PhiSpec.parse("clog:1/1000000000000000000000000000000")
        assert _lindstrom_last(tiny, 24, 2, 10**6) == 0
        # past x = 2**1024 y*y overflows to inf, but y stays far below isqrt(x)
        assert _lindstrom_last(tiny, 24, 2, 10**400 // 24) == 0
        assert _lindstrom_last(PhiSpec.parse("pow:49/100"), 1, 0, 10**700) == 10**700


def _reference_lindstrom_last(phi, scale, extra_count, limit):
    """_lindstrom_last as it was written with the float-trust rule: the
    demand is trusted below 2**40 and below x = 2**2048, and a block is
    ruled out when the Lindström count plus one does not beat the demand."""
    hi = limit
    while hi >= 1:
        lo = 1 << (hi.bit_length() - 1)
        x = scale * hi
        trusted = x < 2**2048 and density_demand(x, phi) < 2**40
        s = math.isqrt(hi - 1) + 1
        t = math.isqrt(s - 1) + 1
        if not trusted or density_exceeds(extra_count + s + t + 1, scale * lo, phi):
            return hi
        hi = lo - 1
    return 0


LINDSTROM_PHIS = tuple(
    PhiSpec.parse(text)
    for text in ("log2", "ln", "pow:1/4", "pow:1/50", "pow:49/100", "clog:1/100", "clog:3",
                 "clog:1/1000000000000000000000000000000")
)

BAR_DIGITS = decimal.Context(prec=80)


@functools.cache
def _decimal_phi(phi, x):
    """phi(x) to 80 digits."""
    ln = BAR_DIGITS.ln(BAR_DIGITS.add(x, 2))
    if phi.kind == "log2":
        return BAR_DIGITS.divide(ln, BAR_DIGITS.ln(2))
    if phi.kind == "ln":
        return ln
    eps = BAR_DIGITS.divide(phi.parameter.numerator, phi.parameter.denominator)
    if phi.kind == "clog":
        return BAR_DIGITS.multiply(eps, ln)
    return BAR_DIGITS.exp(BAR_DIGITS.multiply(eps, BAR_DIGITS.ln(x)))


def _within_bar(count, x, phi):
    """count <= sqrt(x)/phi(x), decided to 80 digits."""
    return BAR_DIGITS.multiply(count, _decimal_phi(phi, x)) <= BAR_DIGITS.sqrt(x)


def _ruled_out_blocks(scale, extra_count, limit, last):
    """(count, x) of each block above last: the Lindström count of the block
    and the x at its low end, which _lindstrom_last compares."""
    hi = limit
    while hi > last:
        lo = 1 << (hi.bit_length() - 1)
        s = math.isqrt(hi - 1) + 1
        yield extra_count + s + math.isqrt(s - 1) + 1, scale * lo
        hi = lo - 1


def _demand_edge(phi, scale):
    """A limit L whose demand at x = scale*L is below 2**40 and whose
    demand at scale*(L + 1) is not, found by bisection."""
    below, above = 1, 2
    while density_demand(scale * above, phi) < 2**40:
        below, above = above, 2 * above
    assert density_demand(scale * below, phi) < 2**40
    while above - below > 1:
        mid = (below + above) // 2
        if density_demand(scale * mid, phi) < 2**40:
            below = mid
        else:
            above = mid
    return below


class TestLindstromLast:
    """_lindstrom_last is never weaker than the old float-trust rule, and
    every block it rules out has count <= sqrt(x)/phi(x) in 80-digit
    decimal arithmetic."""

    @staticmethod
    def _check(phi, scale, extra, limit):
        """The number of blocks _lindstrom_last rules out, each checked."""
        last = _lindstrom_last(phi, scale, extra, limit)
        assert last <= _reference_lindstrom_last(phi, scale, extra, limit), (phi, scale, extra, limit)
        ruled_out = 0
        for count, x in _ruled_out_blocks(scale, extra, limit, last):
            assert _within_bar(count, x, phi), (phi, scale, extra, limit, x)
            ruled_out += 1
        return ruled_out

    @pytest.mark.parametrize("phi", LINDSTROM_PHIS, ids=str)
    def test_matches_the_reference(self, phi):
        # limits reach 10**700, where the count and phi(x) leave the float range
        for scale, extra, limit in itertools.product(
            (1, 24, 90), (0, 2, 9), (0, 1, 10**3, 10**6, 10**9, 10**700)
        ):
            self._check(phi, scale, extra, limit)

    def test_demand_on_both_sides_of_the_trust_edge(self):
        ruled_out = 0
        for text in ("log2", "pow:1/4", "clog:1/100", "clog:3"):
            phi = PhiSpec.parse(text)
            for scale, extra in itertools.product((1, 24, 90), (0, 2, 9)):
                edge = _demand_edge(phi, scale)
                for limit in (edge - 1, edge, edge + 1, edge + 2):
                    ruled_out += self._check(phi, scale, extra, limit)
        assert ruled_out > 1000

    def test_x_on_both_sides_of_the_float_edge(self):
        for phi, scale, extra in itertools.product(LINDSTROM_PHIS, (1, 24, 90), (0, 2, 9)):
            for top in (2**1024 // scale, 2**2047 // scale, 2**2048 // scale):
                for limit in (top - 1, top, top + 1, top + 2):
                    self._check(phi, scale, extra, limit)

    def test_a_count_just_past_the_bar_is_never_ruled_out(self):
        # with limit 1 the one block has count extra + 2 at x = scale, so the
        # certificate decides a count of one's choosing against the bar at x
        rng = random.Random(24)
        xs = [rng.randrange(2**(b - 1), 2**b) for b in range(2, 2048, 2)]
        # the float predicate's false pass and false fail at log2
        xs += [18446747527977575625, 2623532672738946]
        tight = 0
        for phi in LINDSTROM_PHIS:
            for x in xs:
                bar = BAR_DIGITS.divide(BAR_DIGITS.sqrt(x), _decimal_phi(phi, x))
                floor = int(bar)
                if not 2 <= floor < 2**1000:
                    continue
                assert _lindstrom_last(phi, x, floor + 1 - 2, 1) == 1, (phi, x)
                # the 2**-40 slack leaves open only a count within about
                # 2e-12 of the bar, while y*y stays below the float range
                if x < 2**1020 and bar - floor > bar * BAR_DIGITS.create_decimal("1e-11"):
                    assert _lindstrom_last(phi, x, floor - 2, 1) == 0, (phi, x)
                    tight += 1
        assert tight > 500

    def test_strictly_stronger_than_the_trust_rule(self):
        # the old rule trusted no demand past 2**40, which tiny clog passes at
        # once, and at step 24 it left n <= 3 open for pow:1/50
        for text, old in (("clog:1/1000000000000000000000000000000", 41666666), ("pow:1/50", 3)):
            phi = PhiSpec.parse(text)
            assert _reference_lindstrom_last(phi, 24, 2, 10**9 // 24) == old
            assert _lindstrom_last(phi, 24, 2, 10**9 // 24) == 0


def _per_sum_reject(A, f, context):
    """The precondition as a plain loop: look up f at every pair sum, in
    increasing order, and raise at the first count above it."""
    counts = sum_counter(A)
    for n in sorted(counts):
        fv = f.value(n)
        if counts[n] > fv:
            raise PreconditionViolatedError(
                f"{context}: pair-sum count {counts[n]} exceeds prescribed {fv} at n={n}",
                witness=n,
            )
    return counts


def _reject_outcome(check, A, f):
    try:
        counts = check(A, f, "extension")
    except PreconditionViolatedError as exc:
        return ("raise", str(exc), exc.witness)
    return ("ok", list(counts.items()))


class TestPairCountPrecondition:
    FS = {
        "ones": F_ONES,
        "twos": F_TWOS,
        "zeros": F_ZEROS,
        "inf_origin": F_INF0,
        "inf_default": RepTarget(1, {-1: 1, 0: 1, 1: 1}, INFINITY),
        "origin_above_default": RepTarget(0, {0: 3}, 1),
        # a window much larger than the sets below
        "wide": RepTarget(400, {n: 1 + n % 3 for n in range(-400, 401)}, 1),
    }

    @staticmethod
    def _corpus(f, rng):
        """Valid sets grown at random, then each with 1 to 3 random elements
        added, and at times a mirror image, which often breaks the bound
        inside or outside the window."""
        reach = 40 + f.window_radius
        sets = []
        for _ in range(40):
            els = set()
            for _ in range(rng.randint(0, 14)):
                c = rng.randint(-reach, reach)
                grown = FiniteBasis.from_iterable(els | {c})
                if _reject_outcome(_per_sum_reject, grown, f)[0] == "ok":
                    els.add(c)
            sets.append(FiniteBasis.from_iterable(els))
            extra = {rng.randint(-reach, reach) for _ in range(rng.randint(1, 3))}
            if rng.random() < 0.5:  # mirrored pairs add to the count at 0
                extra |= {-e for e in rng.sample(sorted(els | extra), 1)}
            sets.append(FiniteBasis.from_iterable(els | extra))
        return sets

    @pytest.mark.parametrize("name", sorted(FS))
    def test_matches_the_per_sum_reference(self, name):
        f = self.FS[name]
        rng = random.Random(name)
        fixed = [
            FiniteBasis(()),
            FiniteBasis((1,)),
            FiniteBasis((-3, -2, -1, 1, 2, 3)),  # counts 2 at -1 and 1, 3 at 0
            FiniteBasis((-31, -17, -5, 5, 17, 31)),  # count 3 at 0 only
            FiniteBasis((-44, -31, -17, -5, 5, 17, 31, 44)),  # count 4 at 0 only
            FiniteBasis(tuple(range(-6, 7))),
            FiniteBasis((1, 2, 3, 4, 5, 6, 7)),
        ]
        kinds = {"ok": 0, "inside": 0, "outside": 0, "several": 0}
        for A in fixed + self._corpus(f, rng):
            want = _reject_outcome(_per_sum_reject, A, f)
            assert _reject_outcome(_reject_bad_pair_counts, A, f) == want, A
            if want[0] == "ok":
                kinds["ok"] += 1
                continue
            kinds["inside" if abs(want[2]) <= f.window_radius else "outside"] += 1
            counts = sum_counter(A)
            kinds["several"] += sum(c > f.value(n) for n, c in counts.items()) > 1
        # every f above gets valid sets and sets with several violations;
        # the violations lie inside the window for all but the infinite
        # origin, and outside it for all but the infinite default
        assert kinds["ok"] > 20 and kinds["several"] > 0, kinds
        assert kinds["inside"] > 0 or name == "inf_origin", kinds
        assert kinds["outside"] > 0 or name == "inf_default", kinds

    def test_names_the_smallest_violation(self):
        with pytest.raises(PreconditionViolatedError) as err:
            _reject_bad_pair_counts(FiniteBasis((1, 2, 3)), F_ONES, "densification")
        assert err.value.witness == 4
        assert str(err.value) == "densification: pair-sum count 2 exceeds prescribed 1 at n=4"
