"""The four workloads: their inputs, operations and output checks.

Each setup function makes the workload's inputs from the seed and returns
a Plan: a fixed list of operations, run in that order in every pass, and
an optional check of the generated inputs.  An operation's `run` is the
timed call into repbasis; its `check` runs afterwards, untimed, and
returns the problem it found or None.  Operations look functions up on the
package at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gen
from checks import (
    INF,
    Target,
    base_scale,
    certify_abort,
    check_trace,
    count_in,
    erdos_turan,
    is_sidon,
    mian_chowla,
    targets,
)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    # a known fault of the program: the operation fails until it is mended
    fault: str | None = None


@dataclass
class Plan:
    ops: list[Op]
    check_inputs: Callable[[], str | None] = field(default=lambda: None)


def cli(pkg, *argv) -> tuple[int, str, str]:
    """repbasis.cli.main in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = pkg.cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


TYPED = re.compile(r"^[A-Z][A-Z_]*: ")


def typed_error(result, code: str | None = None) -> str | None:
    """Exit 1, nothing on stdout, one stderr line `CODE: message`."""
    status, out, err = result
    lines = err.strip().splitlines()
    if status != 1 or out or len(lines) != 1 or not TYPED.match(lines[0]):
        return f"want a typed error, got exit {status}, stderr {err.strip()[:160]!r}"
    if code is not None and not lines[0].startswith(code + ": "):
        return f"want {code}, got {lines[0][:160]!r}"
    return None


def _write_json(path: Path, data) -> Path:
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


# ---------------------------------------------------------------- matrix

ZERO_WINDOW = Target(2, {n: 0 for n in range(-2, 3)}, 1)
MATRIX_F = (
    ("all_ones", Target.constant(1)),
    ("all_twos", Target.constant(2)),
    ("zero_window", ZERO_WINDOW),
    ("infinite_origin", Target(0, {0: INF}, 1)),
)
MATRIX_PHI = ("log2", "pow:1/4")
MATRIX_DEPTHS = (1, 3, 6)
MATRIX_CAP = 10**9
# the grid of acceptance criterion 5
SIDON_GRID = sorted(set(range(8, 5001, 97)) | {16, 4999, 5000})


def _check_cell(f: Target, phi: str, depth: int, trace_path: Path, report_path: Path):
    def check(result) -> str | None:
        built, verified, stats = result
        status, _, err = built
        if status != 0:
            if status == 1 and err.startswith("PHI_TOO_SLOW: ") and str(MATRIX_CAP) in err:
                return None
            return f"build: exit {status}, stderr {err.strip()[:160]!r}"
        # outputs are removed once read, so the next pass must write them anew
        data = json.loads(trace_path.read_text(encoding="utf-8"))
        trace_path.unlink()
        if len(data["stages"]) != 2 * depth + 1:
            return f"{len(data['stages'])} stages for depth {depth}"
        problem = check_trace(data, f, phi)
        if problem:
            return f"trace: {problem}"
        status, out, _ = verified
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report_path.unlink()
        if status != 0 or out.splitlines()[-1:] != ["PASS"] or report["passed"] is not True:
            return f"verify did not pass a valid trace (exit {status})"
        status, out, _ = stats
        rows = out.strip().splitlines()
        checkpoints = [s for s in data["stages"] if "x" in s]
        if status != 0 or rows[0] != "x,count,demand,ratio,ceiling" or len(rows) != len(checkpoints) + 1:
            return f"stats: exit {status}, {len(rows)} lines"
        for row, stage in zip(rows[1:], checkpoints):
            x, count = (int(v) for v in row.split(",")[:2])
            if x != stage["x"] or count != count_in(stage["set"], x):
                return f"stats row {row!r}: want x={stage['x']}, count={count_in(stage['set'], stage['x'])}"
        return None

    return check


def _check_sidon(n: int, greedy_ref: list[int]):
    def check(results) -> str | None:
        et_size = len(erdos_turan(n))
        for method, (status, out, err) in zip(("greedy", "erdos-turan", "auto"), results):
            if status != 0:
                return f"sidon {method} n={n}: exit {status} {err.strip()[:120]!r}"
            payload = json.loads(out)
            els = payload["elements"]
            if payload["size"] != len(els) or els != sorted(set(els)) or not (1 <= els[0] and els[-1] <= n):
                return f"sidon {method} n={n}: elements do not form a set in [1, n]"
            if not is_sidon(els):
                return f"sidon {method} n={n}: not a Sidon set"
            if payload["density_ok"] != (4 * len(els) ** 2 > n):
                return f"sidon {method} n={n}: density_ok is {payload['density_ok']}"
            want = {"greedy": len(greedy_ref), "erdos-turan": et_size,
                    "auto": max(len(greedy_ref), et_size)}[method]
            if len(els) != want:
                return f"sidon {method} n={n}: size {len(els)}, want {want}"
            if method == "greedy" and els != greedy_ref:
                return f"sidon greedy n={n}: differs from Mian-Chowla"
            if method == "auto" and not 4 * len(els) ** 2 > n:
                return f"sidon auto n={n}: 4|D|^2 <= n"
        return None

    return check


def _malformed(pkg, work: Path, rng: random.Random) -> list[Op]:
    """Bad inputs that must come back as typed errors, plus the two known
    faults, whose inputs do not depend on the seed."""
    ones = _write_json(work / "ok_f.json", Target.constant(1).to_json())
    small = gen.make_trace(rng.randrange(2**32), 2, 3)

    def corrupt(name: str, edit) -> Path:
        data = json.loads(json.dumps(small))
        edit(data)
        return _write_json(work / f"{name}.json", data)

    stage = rng.randrange(1, 6)
    junk = "".join(rng.choice("{[,:]}\"x0 ") for _ in range(40))
    cases = [
        ("f file is not JSON", ("build", "--f", None, "--phi", "log2", "--stages", 1), "{" + junk, None),
        ("f file lacks default", ("build", "--f", None, "--phi", "log2", "--stages", 1),
         {"window": 0, "values": {"0": 1}}, None),
        ("phi out of range", ("build", "--f", ones, "--phi", "pow:0.9", "--stages", 1), None, None),
        ("trace is not JSON", ("verify", "--trace", None), "[" + junk, "MALFORMED_TRACE"),
        ("trace stage kind", ("verify", "--trace", corrupt(
            "bad_kind", lambda d: d["stages"][stage - 1].update(kind="BOGUS"))), None, "MALFORMED_TRACE"),
        ("trace bool element", ("verify", "--trace", corrupt(
            "bool_element", lambda d: d["stages"][stage - 1]["set"].insert(0, True))), None, "MALFORMED_TRACE"),
        ("trace extra key", ("verify", "--trace", corrupt(
            "extra_key", lambda d: d.update(extra=rng.randrange(100)))), None, "MALFORMED_TRACE"),
        ("sidon n too small", ("sidon", "--method", "erdos-turan", "--n", rng.randrange(1, 8)), None,
         "INPUT_TOO_SMALL"),
    ]
    ops = []
    for i, (name, argv, payload, code) in enumerate(cases):
        if payload is not None:
            path = work / f"malformed_{i}.json"
            path.write_text(payload if isinstance(payload, str) else json.dumps(payload), encoding="utf-8")
            argv = tuple(path if a is None else a for a in argv)
        ops.append(Op(f"malformed: {name}", lambda argv=argv: cli(pkg, *argv),
                      lambda r, code=code: typed_error(r, code)))

    fixed = gen.make_trace(0, 1, 3)
    # json cannot write an integer of more than 4300 digits, so splice it in
    fixed["stages"][-1]["set"].append(987654321987654321)
    huge = work / "fault_a.json"
    huge.write_text(json.dumps(fixed).replace("987654321987654321", "1" + "0" * 4999), encoding="utf-8")
    ops.append(Op("malformed: 5000-digit integer in a trace",
                  lambda: cli(pkg, "verify", "--trace", huge),
                  lambda r: typed_error(r, "MALFORMED_TRACE"),
                  fault="A: trace_loads raises a bare ValueError on a 5000-digit integer"))
    alias = work / "fault_b.json"
    alias.write_text('{"window": 0, "values": {"0": 1, "00": 0}, "default": 1}', encoding="utf-8")
    ops.append(Op("malformed: f keys \"0\" and \"00\"",
                  lambda: cli(pkg, "build", "--f", alias, "--phi", "log2", "--stages", 1,
                              "--out", work / "fault_b_trace.json"),
                  typed_error,
                  fault="B: RepTarget.from_dict keeps the last of the keys \"0\" and \"00\""))
    return ops


def setup_matrix(pkg, work: Path, rng: random.Random, smoke: bool) -> Plan:
    depths = (1, 3) if smoke else MATRIX_DEPTHS
    grid = [8, 16, 105, 202] if smoke else SIDON_GRID
    ops = []
    for fname, f in MATRIX_F:
        fpath = _write_json(work / f"f_{fname}.json", f.to_json())
        for phi in MATRIX_PHI:
            for depth in depths:
                stem = f"{fname}_{phi.replace(':', '_').replace('/', '_')}_{depth}"
                tpath, rpath = work / f"{stem}.trace.json", work / f"{stem}.report.json"

                def run(fpath=fpath, phi=phi, depth=depth, tpath=tpath, rpath=rpath):
                    built = cli(pkg, "build", "--f", fpath, "--phi", phi, "--stages", depth,
                                "--out", tpath, "--search-cap", MATRIX_CAP)
                    if built[0] != 0:
                        return built, None, None
                    return (built, cli(pkg, "verify", "--trace", tpath, "--report", rpath),
                            cli(pkg, "stats", "--trace", tpath))

                ops.append(Op(f"cell {fname} {phi} depth {depth}", run,
                              _check_cell(f, phi, depth, tpath, rpath)))
    reference = mian_chowla(max(grid))
    for n in grid:
        ops.append(Op(f"sidon n={n}",
                      lambda n=n: [cli(pkg, "sidon", "--method", m, "--n", n)
                                   for m in ("greedy", "erdos-turan", "auto")],
                      _check_sidon(n, [a for a in reference if a <= n])))
    ops += _malformed(pkg, work, rng)
    rng.shuffle(ops)
    return Plan(ops)


# ------------------------------------------------------------- abort_scan

# f variants with the same first target and d0, hence the same scan step
STEP_24 = (Target.constant(1), Target.constant(2), Target.constant(INF))
STEP_90 = tuple(Target(2, {n: 0 for n in range(-2, 3)}, d) for d in (1, 2, INF))
# (phi, variants, search cap): each build scans for 0.3 to 0.5 s here
ABORTS = (
    ("clog:1/100", STEP_24, 25 * 10**5),
    ("clog:1/100", STEP_90, 10**7),
    ("pow:1/50", STEP_24, 5 * 10**6),
    ("pow:1/50", STEP_90, 2 * 10**7),
)


def setup_abort_scan(pkg, work: Path, rng: random.Random, smoke: bool) -> Plan:
    ops, cases = [], []
    certificates: dict = {}
    for phi, variants, cap in ABORTS:
        f = rng.choice(variants)
        scale = base_scale(f)
        if smoke:
            cap = 4000 * scale
        f_obj = pkg.RepTarget.from_dict(f.to_json())
        cases.append((phi, scale, cap))

        def check(result, cap=cap, key=(phi, scale, cap)):
            if not isinstance(result, pkg.PhiTooSlowError):
                return f"want PhiTooSlowError, got {result!r:.160}"
            if result.cap != cap:
                return f"abort names cap {result.cap}, asked for {cap}"
            return certificates[key]

        ops.append(Op(f"abort {phi} step {scale} cap {cap}",
                      lambda f_obj=f_obj, phi=phi, cap=cap: pkg.build(f_obj, phi, 1, search_cap=cap),
                      check))
    rng.shuffle(ops)

    def check_inputs() -> str | None:
        # extra = 2: the base stage's tag pair {-c, c + u_1} lies in [-x, x]
        for phi, scale, cap in cases:
            certificates[(phi, scale, cap)] = certify_abort(phi, scale, 2, cap)
        return None

    return Plan(ops, check_inputs)


# -------------------------------------------------------------- long_scan

# f variants with u_1 = 0 and d0 = 1: identical scans, step 24
STEP_24_FINITE_ORIGIN = (Target.constant(1), Target.constant(2), Target(0, {0: INF}, 1))
LONG_PHIS = ("pow:2/15", "pow:5/38", "pow:9/70", "pow:1/8")
LONG_CAP = 10**9


def setup_long_scan(pkg, work: Path, rng: random.Random, smoke: bool) -> Plan:
    ops = []
    for phi in ("pow:2/15", "clog:9/20") if smoke else LONG_PHIS:
        f = rng.choice(STEP_24_FINITE_ORIGIN)
        f_obj = pkg.RepTarget.from_dict(f.to_json())

        def run(f_obj=f_obj, phi=phi):
            stage = pkg.base_case(f_obj, phi, search_cap=LONG_CAP)
            trace = pkg.ConstructionTrace(f_obj, pkg.PhiSpec.parse(phi),
                                          tuple(pkg.target_prefix(f_obj, 1)), (stage,))
            return stage, pkg.verify_trace(trace)

        def check(result, f=f, phi=phi):
            if isinstance(result, Exception):
                return f"base_case or verify raised {result!r:.160}"
            stage, report = result
            data = {"f": f.to_json(), "phi": phi, "u_prefix": targets(f, 1), "stages": [
                {"index": stage.index, "kind": stage.kind, "set": list(stage.set),
                 "added": list(stage.added), "x": stage.x}]}
            if stage.x % base_scale(f):
                return f"checkpoint {stage.x} is not a multiple of the scan step"
            problem = check_trace(data, f, phi)
            if problem:
                return f"base stage: {problem}"
            if not report.passed:
                return "verify_trace failed a valid base stage"
            return None

        ops.append(Op(f"base_case {phi}", run, check))
    rng.shuffle(ops)
    return Plan(ops)


# ----------------------------------------------------------- verify_large

# (rounds, elements per densification); the first trace is the largest
VERIFY_CLEAN = ((16, 12), (12, 8))
# mutations of a 25-stage trace at fixed stages, so sizes do not vary
VERIFY_MUTATED = (("zero", 5), ("drop", 12), ("collide", 19), ("prefix", None))
VERIFY_MUTATED_SIZE = (12, 8)


def setup_verify_large(pkg, work: Path, rng: random.Random, smoke: bool) -> Plan:
    clean_sizes = ((4, 3), (3, 3)) if smoke else VERIFY_CLEAN
    rounds, per = (4, 3) if smoke else VERIFY_MUTATED_SIZE
    traces = []
    for r, k in clean_sizes:
        traces.append((f"clean {2 * r + 1} stages", gen.make_trace(rng.randrange(2**32), r, k), None))
    for kind, stage in VERIFY_MUTATED:
        base = gen.make_trace(rng.randrange(2**32), rounds, per)
        stage = min(stage, 2 * rounds + 1) if stage else None
        data, expected = gen.mutate(base, kind, stage, rng)
        traces.append((f"mutated {kind}", data, expected))
    ops = []
    for i, (name, data, expected) in enumerate(traces):
        tpath = _write_json(work / f"large_{i}.trace.json", data)
        rpath = work / f"large_{i}.report.json"

        def check(result, expected=expected, rpath=rpath):
            status, out, err = result
            report = json.loads(rpath.read_text(encoding="utf-8"))
            rpath.unlink()
            verdict = out.splitlines()[-1:]
            if expected is None:
                if status != 0 or verdict != ["PASS"] or report["passed"] is not True:
                    return f"verify: exit {status} on a valid trace, {err.strip()[:120]!r}"
                return None
            if status != 1 or verdict != ["FAIL"] or report["passed"] is not False:
                return f"verify: exit {status} on a mutated trace"
            named = {(c["condition"], c["stage"], c["witness"])
                     for c in report["invariants"]["checks"] if not c["passed"]}
            if expected not in named:
                return f"verify did not name {expected}; named {sorted(named, key=str)[:4]}"
            return None

        ops.append(Op(f"verify {name}",
                      lambda tpath=tpath, rpath=rpath: cli(pkg, "verify", "--trace", tpath,
                                                           "--report", rpath),
                      check))
    rng.shuffle(ops)

    def check_inputs() -> str | None:
        for name, data, expected in traces:
            if expected is None:
                problem = check_trace(data, gen.F, gen.PHI)
                if problem:
                    return f"generated {name}: {problem}"
        return None

    return Plan(ops, check_inputs)


WORKLOADS = {
    "matrix": setup_matrix,
    "abort_scan": setup_abort_scan,
    "long_scan": setup_long_scan,
    "verify_large": setup_verify_large,
}
