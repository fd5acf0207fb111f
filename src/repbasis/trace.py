"""The construction trace format: its types, its shape rules and its
canonical text.

A trace is a prescribed function f, a growth spec phi, the target prefix
u and the stages: stage 1 is the base, then extension (even index) and
densification (odd index) stages alternate, exactly the odd-indexed
stages carry a checkpoint x, and an extension adds one pair or nothing.
A stage's kind and how many targets it certifies follow from its index
and are not stored; the loader checks the kind the file writes.  This
module is the one place that knows that format and states its shape
rules; a trace object is checked against them when it is made, so every
reader of a trace refuses the same shapes.  The builder
writes traces with it and the verifier reads them with it; it imports
only `errors` and `repcore`, so the verifier runs none of the builder's
code.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass
from json.encoder import c_make_encoder, encode_basestring_ascii

from .errors import InputTooLargeError, MalformedTraceError, _refuse_past_limit, echo, require_int, require_type
from .repcore import FiniteBasis, PhiSpec, RepTarget, _check_keys, _json_loads, _require_ints

KIND_BASE = "BASE"
KIND_EXTENSION = "TARGET_EXTENSION"
KIND_DENSIFICATION = "DENSIFICATION"

# the most pairs a + b (a <= b) the verifier tallies for one stage; at about
# 65 bytes per distinct sum that is some 2 GB
PAIR_LIMIT = 2**25


def _refuse_past_pair_limit(k: int, what: str) -> None:
    """Refuse to tally the k(k+1)/2 pair sums of k elements past PAIR_LIMIT,
    deciding from k alone, before any sum is formed."""
    if (pairs := k * (k + 1) // 2) > PAIR_LIMIT:
        raise InputTooLargeError(
            f"{what} tallies the pairs of k={k} elements: {pairs}, past the verifier's limit of {PAIR_LIMIT}"
        )


def expected_m_covered(index: int) -> int:
    # base covers u_1; stages 2l and 2l+1 both certify the first l+1 targets
    return (index + 2) // 2


def expected_kind(index: int) -> str:
    if index == 1:
        return KIND_BASE
    return KIND_EXTENSION if index % 2 == 0 else KIND_DENSIFICATION


@dataclass(frozen=True, eq=True)
class StageRecord:
    """One stage of a construction: the set after the move, what was added,
    and the density checkpoint when the stage certifies one."""

    index: int
    set: FiniteBasis
    added: FiniteBasis
    x: int | None = None

    @property
    def kind(self) -> str:
        """The stage's move, fixed by its index."""
        return expected_kind(self.index)

    @property
    def m_covered(self) -> int:
        """How many leading targets the stage certifies, fixed by its index."""
        return expected_m_covered(self.index)


@dataclass(frozen=True, eq=True)
class ConstructionTrace:
    f: RepTarget
    phi: PhiSpec
    u_prefix: tuple[int, ...]
    stages: tuple[StageRecord, ...]

    def __post_init__(self):
        """The shape rules every trace object satisfies before semantic checks.

        Raises MalformedTraceError; semantic violations (densities, coverage,
        nesting) are the verify module's job and come back as report entries.
        A trace made in memory may hold any object in any field, so the type
        of each is checked first.
        """
        require_type(self.f, RepTarget, "f", MalformedTraceError)
        require_type(self.phi, PhiSpec, "phi", MalformedTraceError)
        _int_list(self.u_prefix, "u_prefix", tuple)
        stages = require_type(self.stages, tuple, "stages", MalformedTraceError)
        if not stages:
            raise MalformedTraceError("trace has no stages")
        if len(stages) % 2 == 0:
            raise MalformedTraceError("trace must end on a checkpoint stage (odd stage count)")
        for pos, s in enumerate(stages, start=1):
            require_type(s, StageRecord, f"stage {pos}", MalformedTraceError)
            require_type(s.set, FiniteBasis, f"stage {pos} set", MalformedTraceError)
            require_type(s.added, FiniteBasis, f"stage {pos} added", MalformedTraceError)
            if require_int(s.index, f"stage {pos} index", error=MalformedTraceError) != pos:
                raise MalformedTraceError(f"stage at position {pos} carries index {echo(s.index)}")
            if pos % 2 == 0 and len(s.added) not in (0, 2):
                # an extension adjoins one pair, or nothing when its target was covered
                raise MalformedTraceError(f"extension stage {pos} must add 0 or 2 elements, got {len(s.added)}")
            if (s.x is not None) != (pos % 2 == 1):
                raise MalformedTraceError(f"stage {pos} must carry x exactly when its index is odd")
            if s.x is not None and require_int(s.x, f"stage {pos} x", error=MalformedTraceError) < 1:
                raise MalformedTraceError(f"stage {pos} checkpoint x must be positive, got {echo(s.x)}")
            # a report writes x and a pair sum in full, so both must be
            # printable; the loader cannot read, nor trace_dumps write, a
            # longer x.  a + a with |a| largest is the stage's largest pair
            # sum, and a sum across two stages is bounded by the larger one's
            if s.x is not None:
                _refuse_past_limit(s.x, f"stage {pos} checkpoint x", MalformedTraceError)
            _refuse_past_limit(2 * max(s.set.max_abs(), s.added.max_abs()), f"stage {pos} pair sum", MalformedTraceError)
        want_targets = expected_m_covered(len(stages))
        if len(self.u_prefix) != want_targets:
            raise MalformedTraceError(
                f"u_prefix length {len(self.u_prefix)} does not match stage count "
                f"(want {want_targets})"
            )

    def checkpoints(self) -> list[tuple[int, int, FiniteBasis]]:
        """(stage index, x, stage set) for every stage that records an x."""
        return [(s.index, s.x, s.set) for s in self.stages if s.x is not None]


def trace_to_dict(trace: ConstructionTrace) -> dict:
    stages = []
    for s in trace.stages:
        entry: dict = {
            "index": s.index,
            "kind": s.kind,
            "set": list(s.set),
            "added": list(s.added),
        }
        if s.x is not None:
            entry["x"] = s.x
        stages.append(entry)
    return {
        "f": trace.f.to_dict(),
        "phi": str(trace.phi),
        "u_prefix": list(trace.u_prefix),
        "stages": stages,
    }


# Before Python 3.13, json.dumps with an indent runs the pure-Python encoder,
# so there canonical_json hands each container of scalars to the C encoder
# itself; an interpreter without the C encoder has only json.dumps.
_INDENT_IN_C = sys.version_info >= (3, 13) or c_make_encoder is None
_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _flat_encoder(newline_indent: str):
    """The C encoder with sorted keys, writing each item of one container
    on its own line after newline_indent."""
    return c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii,
                          None, ": ", "," + newline_indent, True, False, True)


def _canonical_parts(obj, newline_indent: str, parts: list) -> None:
    """Append obj's canonical text to parts; newline_indent starts the line
    of obj's closing bracket."""
    is_dict = isinstance(obj, dict)
    if not obj or not (is_dict or isinstance(obj, (list, tuple))):
        parts += _flat_encoder(newline_indent)(obj, 0)  # a scalar or an empty container
        return
    inner = newline_indent + "  "
    if _SCALAR_TYPES.issuperset(map(type, obj.values() if is_dict else obj)):
        text = "".join(_flat_encoder(inner)(obj, 0))
        parts += (text[0], inner, text[1:-1], newline_indent, text[-1])
        return
    if not is_dict and all(type(item) is dict and item and _SCALAR_TYPES.issuperset(map(type, item.values()))
                           for item in obj):
        # a list of flat records in one call: within a record a separator is
        # followed by a key's quote, and a raw newline never occurs inside an
        # encoded string, so this text occurs only between two records
        key_indent = inner + "  "
        text = "".join(_flat_encoder(key_indent)(obj, 0))[2:-2]
        between = text.replace("}," + key_indent + "{", inner + "}," + inner + "{" + key_indent)
        parts += ("[", inner, "{", key_indent, between, inner, "}", newline_indent, "]")
        return
    parts.append("{" if is_dict else "[")
    for i, item in enumerate(sorted(obj.items()) if is_dict else obj):
        parts.append("," + inner if i else inner)
        if is_dict:
            parts += (encode_basestring_ascii(item[0]), ": ")
            item = item[1]
        _canonical_parts(item, inner, parts)
    parts += (newline_indent, "}" if is_dict else "]")


def canonical_json(obj) -> str:
    """The canonical text of a JSON document whose keys are all strings:
    byte for byte json.dumps(obj, sort_keys=True, indent=2) plus one newline.
    A raw newline never occurs inside an encoded string, so writing each
    container of scalars with the C encoder changes no byte."""
    if _INDENT_IN_C:
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    parts: list[str] = []
    _canonical_parts(obj, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def trace_dumps(trace: ConstructionTrace) -> str:
    """Canonical text form: sorted keys, two-space indent, one trailing
    newline.  Identical traces serialize to identical bytes."""
    return canonical_json(trace_to_dict(trace))


def _int_list(raw, what: str, container: type = list):
    require_type(raw, container, what, MalformedTraceError)
    _require_ints(raw, f"{what} entry", MalformedTraceError)
    return raw


def _strict_basis(raw, what: str) -> FiniteBasis:
    if isinstance(raw, list):
        try:  # FiniteBasis makes the one type pass and the order pass
            return FiniteBasis(tuple(raw))
        except ValueError:
            pass
    _int_list(raw, what)  # names a non-list or the first non-integer entry
    raise MalformedTraceError(f"{what} must be strictly increasing")


def trace_from_dict(data) -> ConstructionTrace:
    """Parse and structurally validate the canonical trace mapping."""
    _check_keys(data, {"f", "phi", "u_prefix", "stages"}, what="trace", error=MalformedTraceError)
    try:
        f = RepTarget.from_dict(data["f"])
    except ValueError as exc:
        raise MalformedTraceError(f"bad target function: {exc}") from None
    try:
        phi = PhiSpec.parse(data["phi"])
    except ValueError as exc:
        raise MalformedTraceError(f"bad phi: {exc}") from None
    # one spelling per spec, so the loaded trace writes back the same text
    if (spec := str(phi)) != data["phi"]:
        spec = spec if len(spec) <= 80 else spec[:80] + "..."  # cut as echo cuts a value
        raise MalformedTraceError(f"bad phi: {echo(data['phi'])} names {spec} but is not written '{spec}'")
    u_prefix = tuple(_int_list(data["u_prefix"], "u_prefix"))
    stages = []
    for pos, raw in enumerate(require_type(data["stages"], list, "stages", MalformedTraceError), start=1):
        _check_keys(raw, {"index", "kind", "set", "added"}, ("x",), what=f"stage {pos}",
                    error=MalformedTraceError)
        if raw["kind"] != expected_kind(pos):
            raise MalformedTraceError(
                f"stage {pos} kind {echo(raw['kind'])} does not match position (want {expected_kind(pos)!r})"
            )
        stages.append(
            StageRecord(
                index=require_int(raw["index"], f"stage {pos} index", error=MalformedTraceError),
                set=_strict_basis(raw["set"], f"stage {pos} set"),
                added=_strict_basis(raw["added"], f"stage {pos} added"),
                x=require_int(raw["x"], f"stage {pos} x", error=MalformedTraceError) if "x" in raw else None,
            )
        )
    return ConstructionTrace(f=f, phi=phi, u_prefix=u_prefix, stages=tuple(stages))


def trace_loads(text: str) -> ConstructionTrace:
    try:  # bad syntax, a duplicate key, an over-long integer or too deep nesting
        data = _json_loads(text)
    except ValueError as exc:
        raise MalformedTraceError(f"trace is not valid JSON: {exc}") from None
    return trace_from_dict(data)
