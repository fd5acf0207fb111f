"""canonical_json against its reference, json.dumps(obj, sort_keys=True,
indent=2) plus one newline: on generated documents with string keys, and
on the traces and verification reports of the whole-report corpus.  Both
of its paths are tested on every Python version: the json.dumps call and
the per-level writer that hands each container of scalars to the C
encoder.  Examples are derandomized, so every run tests the same inputs."""

import copy
import json
import math
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_whole_report import CORPUS, EDITS  # noqa: E402

from repbasis import MalformedTraceError, trace_dumps, trace_from_dict, trace_to_dict, verify_trace  # noqa: E402
from repbasis import trace as trace_module  # noqa: E402
from repbasis.trace import canonical_json  # noqa: E402

# the per-level writer needs CPython's C encoder
PATHS = [True] + ([False] if trace_module.c_make_encoder is not None else [])


class Int(int):
    pass


class Str(str):
    pass


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def both_paths(obj) -> list[str]:
    """canonical_json(obj) through each path this interpreter can run."""
    texts = []
    for in_c in PATHS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trace_module, "_INDENT_IN_C", in_c)
            texts.append(canonical_json(obj))
    return texts


# ints of one to about 4000 digits, below the default limit of int-to-str conversion
HUGE_INTS = st.builds(lambda digits, sign: sign * (10**digits - 7),
                      st.integers(1, 4000), st.sampled_from((1, -1)))
ODD_STRINGS = st.sampled_from(("", "\x00", "\n", "\t\r\x1f\x7f", "é", "日本", " ", "😀", '"\\/'))
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers().map(Int),
    HUGE_INTS,
    st.floats(),
    st.sampled_from((math.inf, -math.inf, math.nan, -0.0)),
    st.text(max_size=8),
    ODD_STRINGS,
    st.text(max_size=4).map(Str),
)
KEYS = st.one_of(st.text(max_size=6), ODD_STRINGS, st.text(max_size=3).map(Str))
DOCUMENTS = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(KEYS, children, max_size=5),
    ),
    max_leaves=40,
)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(DOCUMENTS)
@example({})
@example([])
@example({"a": {}, "b": [], "c": [[], {}], "d": [{}]})
@example([1, True, False, 2, None])
@example({"set": [1, True, 0, False], "n": Int(7), "big": [10**3000, -(10**4000)]})
@example([math.inf, -math.inf, math.nan, -0.0, 0.0, 1e300, 5e-324])
@example({"é\x00": "\n\t\x1f日本😀", " ": ["\x7f", '"', "\\"]})
@example({"stages": [{"index": 1, "set": [-4, 8], "x": 3}, {"index": 2, "set": []}]})
def test_equals_the_reference(doc):
    assert both_paths(doc) == [reference(doc)] * len(PATHS)


# strings that hold a record separator's characters, or its whole text at
# the depth of a report's check records
SEPARATOR_STRINGS = st.sampled_from(("}", ",", "{", "},", '"\x00', "},\n      {", '},\n      {"', "\n    },\n    {"))
# the scalars whose exact types the writer hands to the encoder as they are
PLAIN_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), HUGE_INTS, st.floats(),
                          st.text(max_size=8), ODD_STRINGS, SEPARATOR_STRINGS)
FLAT_RECORDS = st.dictionaries(KEYS | SEPARATOR_STRINGS, PLAIN_SCALARS, min_size=1, max_size=5)


@st.composite
def record_lists(draw):
    """A list of flat records, and in some of them one odd item that the
    writer must not take for a flat record: an empty dict, or a record
    holding an Int or Str value."""
    records = draw(st.lists(FLAT_RECORDS, min_size=1, max_size=6))
    odd = draw(st.none() | st.sampled_from(({}, {"n": Int(1)}, {"s": Str("},")})))
    if odd is not None:
        records.insert(draw(st.integers(0, len(records))), odd)
    return records


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(record_lists(), st.integers(0, 2), st.booleans())
@example([{"a": 1}], 0, False)
@example([{"a": 1}, {}, {"b": 2}], 1, True)
@example([{"},\n      {": "},\n      {", "k": Int(3)}, {Str("s"): Str("}"), "z": None}], 2, False)
def test_lists_of_flat_records_equal_the_reference(records, depth, as_tuple):
    # a list of non-empty records of scalars is one encoder call; a list
    # holding any other item takes the per-record path
    doc = tuple(records) if as_tuple else records
    for _ in range(depth):
        doc = {"checks": doc, "passed": True}
    assert both_paths(doc) == [reference(doc)] * len(PATHS)


@pytest.mark.skipif(False not in PATHS, reason="the per-level writer needs the C encoder")
def test_a_list_of_flat_records_is_one_encoder_call(monkeypatch):
    calls, encoder = [], trace_module._flat_encoder

    def counted(newline_indent):
        calls.append(newline_indent)
        return encoder(newline_indent)

    monkeypatch.setattr(trace_module, "_INDENT_IN_C", False)
    monkeypatch.setattr(trace_module, "_flat_encoder", counted)
    doc = {"checks": [{"condition": "nesting", "passed": True, "stage": n} for n in range(5)]}
    assert canonical_json(doc) == reference(doc)
    assert calls == ["\n      "]


def test_booleans_print_as_json_literals():
    text = canonical_json([1, True, 0, False])
    assert text == "[\n  1,\n  true,\n  0,\n  false\n]\n"


def test_corpus_traces_and_reports():
    # each trace of the corpus and each edit of it that still loads
    traces = []
    for data in CORPUS:
        traces.append(trace_from_dict(data))
        for edit in sorted(EDITS):
            edited = copy.deepcopy(data)
            EDITS[edit](edited, random.Random(1))
            try:
                traces.append(trace_from_dict(edited))
            except MalformedTraceError:
                pass
    assert any(not verify_trace(trace).passed for trace in traces)
    for trace in traces:
        report = verify_trace(trace).to_dict()
        assert both_paths(report) == [reference(report)] * len(PATHS)
        assert trace_dumps(trace) == reference(trace_to_dict(trace))
