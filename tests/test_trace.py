"""The trace module as the verifier's boundary.

The verifier imports only `errors`, `repcore` and `trace`, so a PASS runs
none of the builder's code; the imports are read with `ast`, since
`repbasis/__init__` loads every module and `sys.modules` cannot tell.
The benchmark tracer looks its wrapped functions up by module attribute,
so each of them must resolve on a fresh import.  A derandomized set of
one- and two-value edits of a generated trace runs through
`repbasis verify`: each edit ends in a verdict or in one short typed
error line.  Every reader of a trace refuses the same shapes, as the shape
rules live in `trace` alone and run once, when a trace object is made."""

import ast
import copy
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repbasis import (
    ConstructionTrace,
    FiniteBasis,
    MalformedTraceError,
    PhiSpec,
    RepTarget,
    StageRecord,
    build,
    check_equality_coverage,
    check_invariants,
    cli,
    construct,
    errors,
    trace,
    trace_loads,
    trace_to_dict,
    verify_trace,
)

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repbasis"

# the benchmark's generator of deep valid traces (f = 1, phi = pow:9/20)
sys.path.insert(0, str(ROOT / "bench"))
import gen  # noqa: E402


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def _package_imports(module: str) -> set[str]:
    """The package modules `module` imports anywhere in its file."""
    found = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else (a.name for a in node.names))
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("repbasis."))
    return found


def _defined(module: str) -> set[str]:
    """The names bound at the top level of `module` by def, class or assignment."""
    names = set()
    for node in _tree(module).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _imported(module: str) -> set[str]:
    """The names `module` binds by a from-import."""
    return {a.asname or a.name for node in ast.walk(_tree(module))
            if isinstance(node, ast.ImportFrom) for a in node.names}


class TestImportBoundary:
    def test_verify_imports_only_errors_repcore_and_trace(self):
        assert _package_imports("verify") <= {"errors", "repcore", "trace"}

    def test_verify_imports_no_decision_procedure_of_the_builder_from_repcore(self):
        # value types, counting primitives and the density bar; the target
        # spiral is derived in verify from its definition
        imported = {a.name for node in ast.walk(_tree("verify"))
                    if isinstance(node, ast.ImportFrom) and node.module == "repcore" for a in node.names}
        assert imported == {"INFINITY", "FiniteBasis", "RepTarget", "_require_basis", "counting",
                            "density_demand", "density_exceeds", "rep_function", "sum_counter"}
        assert not imported & {"TargetSequence", "target_prefix", "d0_of"}

    def test_trace_imports_only_errors_and_repcore(self):
        assert _package_imports("trace") <= {"errors", "repcore"}

    def test_construct_defines_no_trace_format_name(self):
        assert _defined("construct") & _defined("trace") == set()

    def test_construct_re_exports_only_the_two_traced_names(self):
        tree = _tree("construct")
        imported = {a.asname or a.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "trace"
                    for a in node.names}
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        assert imported - used == {"trace_dumps", "trace_loads"}
        assert construct.trace_dumps is trace.trace_dumps
        assert construct.trace_loads is trace.trace_loads


class TestExtensionArity:
    """An extension stage adds one pair, or nothing when its target was
    already covered; the loader, `stats`, `verify` and the making of a trace
    object refuse any other count with the same message."""

    @pytest.mark.parametrize("added", [[98], [-97, 98, 200]])
    def test_every_reader_gives_the_same_message(self, tmp_path, capsys, added):
        # the f = 1 build adds the pair {-97, 98} at stage 2; replace it
        data = trace_to_dict(build(RepTarget.constant(1), "log2", 1))
        for stage in data["stages"][1:]:
            stage["set"] = sorted(set(stage["set"]) - {-97, 98} | set(added))
        data["stages"][1]["added"] = added
        want = f"extension stage 2 must add 0 or 2 elements, got {len(added)}"
        with pytest.raises(MalformedTraceError) as refused:
            trace_loads(json.dumps(data))
        assert str(refused.value) == want
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(data))
        for command in ("stats", "verify"):
            assert cli.main([command, "--trace", str(path)]) == 1
            assert capsys.readouterr() == ("", f"MALFORMED_TRACE: {want}\n")
        # a trace object skips the loader, but is refused when it is made
        stages = tuple(StageRecord(s["index"], FiniteBasis(tuple(s["set"])), FiniteBasis(tuple(s["added"])),
                                   s.get("x")) for s in data["stages"])
        with pytest.raises(MalformedTraceError) as refused:
            ConstructionTrace(RepTarget.constant(1), PhiSpec.parse("log2"), tuple(data["u_prefix"]), stages)
        assert str(refused.value) == want

    def test_neither_verify_nor_construct_names_a_shape_rule(self):
        assert "MalformedTraceError" not in _imported("verify")
        assert not {n for n in _defined("construct") | _imported("construct") if n.startswith("KIND_")}


def test_the_shape_rules_run_once_when_a_trace_is_made(monkeypatch, tmp_path, capsys):
    # once per build and per loaded file; an oracle handed an existing trace
    # runs them not at all
    runs = []
    rules = ConstructionTrace.__post_init__

    def counted(obj):
        runs.append(obj)
        rules(obj)

    monkeypatch.setattr(ConstructionTrace, "__post_init__", counted)
    built = build(RepTarget.constant(1), "log2", 1)
    assert len(runs) == 1
    path = tmp_path / "trace.json"
    path.write_text(trace.trace_dumps(built))
    for command in ("verify", "stats"):
        runs.clear()
        assert cli.main([command, "--trace", str(path)]) == 0
        assert len(runs) == 1, command
    capsys.readouterr()
    for oracle in (verify_trace, check_invariants, check_equality_coverage):
        runs.clear()
        assert oracle(built).passed
        assert runs == [], oracle.__name__


@pytest.mark.parametrize("pos", [2, 3])
def test_the_loader_refuses_a_null_checkpoint(pos):
    # without its own x check the loader would read null as "no x", which an
    # extension stage may carry
    data = trace_to_dict(build(RepTarget.constant(1), "log2", 1))
    data["stages"][pos - 1]["x"] = None
    with pytest.raises(MalformedTraceError, match=f"^stage {pos} x must be an integer, got None$"):
        trace_loads(json.dumps(data))


@pytest.mark.parametrize("spelling", ["pow:0.25", "pow: 1/4", "pow:2/8", "pow:+1/4", "pow:1_0/40", "pow:1/4 ",
                                      "clog:0.01", pytest.param("clog:0." + "1" * 100, id="clog:0.1^100")])
def test_the_loader_refuses_a_phi_not_written_as_its_spec_prints(tmp_path, capsys, spelling):
    # each once loaded as its spec, and the trace then wrote another text
    data = trace_to_dict(build(RepTarget.constant(1), "log2", 1))
    data["phi"] = spelling
    try:
        spec = str(PhiSpec.parse(spelling))
    except ValueError as exc:  # Fraction reads "1_0" from Python 3.11 on
        want = f"bad phi: {exc}"
    else:
        spec = spec if len(spec) <= 80 else spec[:80] + "..."  # a long spec is cut like a refused value
        want = f"bad phi: {errors.echo(spelling)} names {spec} but is not written '{spec}'"
    with pytest.raises(MalformedTraceError) as refused:
        trace_loads(json.dumps(data))
    assert str(refused.value) == want
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(data))
    assert cli.main(["verify", "--trace", str(path)]) == 1
    assert capsys.readouterr() == ("", f"MALFORMED_TRACE: {want}\n")


def test_every_traced_function_resolves_on_a_fresh_import():
    """Each (module, attribute) of bench/tracing.WRAPPED names a callable
    once `repbasis` and `repbasis.cli` are imported, as bench/run.py does."""
    script = (
        "import functools, repbasis, repbasis.cli, tracing\n"
        "for home, attr, _ in tracing.WRAPPED:\n"
        "    target = functools.reduce(getattr, attr.split('.'), getattr(repbasis, home))\n"
        "    assert callable(target), (home, attr)\n"
        "print(len(tracing.WRAPPED))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            cwd=ROOT / "bench", timeout=120,
                            env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) > 0


def _paths(node, at=()):
    """The position of every value inside a JSON document."""
    if at:
        yield at
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _paths(value, at + (key,))


# values of every JSON type, some near the ones a trace holds and some large
SUBSTITUTES = (0, 1, -1, True, False, None, 1.5, float("nan"), 1e308, 10**300, -10**300,
               "", "BASE", "DENSIFICATION", "inf", "log2", "a" * 500, [], [3, 2], [5] * 3000,
               {}, {"a": 1})
# the package's typed error codes; "ERROR" also heads a bare ValueError's line
CODES = {cls.code for cls in vars(errors).values()
         if isinstance(cls, type) and issubclass(cls, errors.RepbasisError)} - {"ERROR"}


def _edits(clean: dict, count: int):
    """`count` copies of `clean`, alternately with one and two values replaced;
    the same copies on every run."""
    rng = random.Random(19)
    positions = list(_paths(clean))
    for i in range(count):
        doc = copy.deepcopy(clean)
        for at in rng.sample(positions, 1 + i % 2):
            owner = doc
            try:
                for key in at[:-1]:
                    owner = owner[key]
                old = owner[at[-1]]
            except (KeyError, IndexError, TypeError):  # the first edit replaced an ancestor
                continue
            pool = SUBSTITUTES
            if isinstance(old, int) and not isinstance(old, bool):
                pool += (old + 1, old - 1, -old, 2 * old)
            owner[at[-1]] = rng.choice(pool)
        yield doc


def test_value_substitutions_end_in_a_verdict_or_one_typed_line(tmp_path, capsys):
    clean = gen.make_trace(7, 6, 4)
    path = tmp_path / "trace.json"
    outcomes = set()
    for doc in _edits(clean, 1500):
        path.write_text(json.dumps(doc))
        status = cli.main(["verify", "--trace", str(path)])
        out, err = capsys.readouterr()
        if err:
            line = err.rstrip("\n")
            assert (status, out) == (1, "") and "\n" not in line and len(line) <= 200, err[:300]
            code = line.split(":", 1)[0]
            assert code in CODES, line
            outcomes.add(code)
        else:
            verdict = out.splitlines()[-1]
            assert (status, verdict) in ((0, "PASS"), (1, "FAIL")), out[-300:]
            outcomes.add(verdict)
    # the edits reach the loader's refusals and the verifier's verdicts alike
    assert {"MALFORMED_TRACE", "FAIL"} <= outcomes, outcomes

