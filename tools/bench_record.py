"""Record the benchmark for two git revisions in one committed JSON file.

    python3 tools/bench_record.py --parent REV --change REV --out BENCH_7.json \
        --workload matrix=10 --workload abort_scan=3 --first-seed 11
    python3 tools/bench_record.py --compare BENCH_11.json BENCH_12.json

Each revision is exported with `git archive` into a fresh directory, and
its own unmodified bench/run.py is run there, one process at a time.  A
pair is one --trace 0 run of each side on the same seed; the side that
runs first alternates from pair to pair, and pair i uses seed
first_seed + i.  One --trace 1 run per side and workload (seed 1) gives
the exact per-layer counts and the per-layer times.  Every run keeps
bench/run.py's own default run length, read from each checkout and
recorded with the two commands.  The file holds, per
workload and side, the median and quartiles of every end-to-end metric
with the runs themselves, how many pairs the change won, the traced
counts and times, and for each revision two line counts of src/, with the
Python version.  src_lines counts every line; src_code_lines counts only the
lines that hold a token other than a comment or a docstring, read with
tokenize.  A change that deletes comments or docstrings shortens the first
count without making the code simpler, and only the second shows that.
verifier_code_lines counts code lines the same way over verify.py and the
package modules it imports, directly or not: the code a verdict runs.
--compare reads two such records and prints, for every workload both hold
and every end-to-end metric, the two `change` medians and their ratio
(second over first), then each record's `change` revision and line counts,
`n/a` where a record predates a field.  It runs no benchmark and no git.
Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("wall_s", "slowest_op_s", "setup_s", "peak_rss_mb")
WORKLOADS = ("matrix", "abort_scan", "long_scan", "verify_large")


def export(rev: str, into: Path) -> tuple[str, Path]:
    """The full hash of rev and a directory holding its committed files."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", rev], check=True,
                         capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", sha],
                             check=True, capture_output=True).stdout
    target = into / sha[:12]
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target)
    return sha, target


def src_lines(checkout: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (checkout / "src").rglob("*.py"))


# tokens that hold no code; NEWLINE, which ends a statement, is kept to find docstrings
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The lines of one file that hold code: blank lines, comments and
    docstrings (a statement that is one string) do not count."""
    with path.open("rb") as handle:
        tokens = [t for t in tokenize.tokenize(handle.readline) if t.type not in _LAYOUT]
    lines = set()
    for i, tok in enumerate(tokens):
        docstring = (tok.type == tokenize.STRING and tokens[i + 1].type == tokenize.NEWLINE
                     and (i == 0 or tokens[i - 1].type == tokenize.NEWLINE))
        if tok.type != tokenize.NEWLINE and not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def src_code_lines(checkout: Path) -> int:
    return sum(code_lines(path) for path in (checkout / "src").rglob("*.py"))


def verifier_code_lines(checkout: Path) -> int:
    """The code lines of verify.py and of every package module it imports,
    directly or through another, read with ast; the package's __init__,
    which loads every module, is not followed."""
    package = checkout / "src" / "repbasis"
    closure, todo = set(), ["verify"]
    while todo:
        name = todo.pop()
        if name in closure:
            continue
        closure.add(name)
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                todo += [node.module] if node.module else [a.name for a in node.names]
    return sum(code_lines(package / f"{name}.py") for name in closure)


def run_seconds(checkout: Path) -> float:
    """The default of bench/run.py's --seconds in this checkout."""
    text = (checkout / "bench" / "run.py").read_text()
    return float(re.search(r'"--seconds", type=float, default=([0-9.]+)', text).group(1))


def run_bench(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One bench/run.py run: its closing JSON line, plus every metric of the
    table it prints before that line, as name -> [value, unit]."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        cwd=checkout, check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    result = json.loads(out[-1])
    table = {}
    for line in out[:-1]:
        parts = line.split()
        if line.startswith("  ") and len(parts) == 3:
            table[parts[0]] = [float(parts[1]), parts[2]]
    result["table"] = table
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def record_workload(sides: dict[str, Path], workload: str, pairs: int, first_seed: int) -> dict:
    runs = {side: [] for side in sides}
    seeds, first = [], []
    for i in range(pairs):
        seed = first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_bench(sides[side], workload, seed, 0))
            print(f"{workload} seed {seed} {side}: "
                  f"{runs[side][-1]['metrics']['wall_s']['value']:.6g} s", file=sys.stderr)
        seeds.append(seed)
        first.append(order[0])
    entry = {"seeds": seeds, "first": first}
    for side, side_runs in runs.items():
        entry[side] = {name: summary([r["metrics"][name]["value"] for r in side_runs])
                       for name in END_TO_END}
        entry[side]["attempted"] = sum(r["attempted"] for r in side_runs)
        entry[side]["failed"] = sum(r["failed"] for r in side_runs)
        entry[side]["correct"] = all(r["correct"] for r in side_runs)
    entry["change_wins"] = {
        name: sum(c["metrics"][name]["value"] < p["metrics"][name]["value"]
                  for p, c in zip(runs["parent"], runs["change"]))
        for name in END_TO_END
    }
    entry["traced"] = {}
    for side, checkout in sides.items():
        traced = run_bench(checkout, workload, 1, 1)
        entry["traced"][side] = {
            "counts": {k: int(v) for k, (v, unit) in traced["table"].items() if unit == "count"},
            "times_s": {k: v for k, (v, unit) in traced["table"].items()
                        if unit == "s" and k not in END_TO_END},
            "failed": traced["failed"],
        }
    return entry


def compare(paths: list[str]) -> str:
    """The text --compare prints for the two records at `paths`."""
    records = [json.loads(Path(p).read_text()) for p in paths]
    a, b = (r["workloads"] for r in records)
    lines = ["workload metric first second ratio"]
    for w in (w for w in a if w in b):
        for name in END_TO_END:
            first, second = a[w]["change"][name]["median"], b[w]["change"][name]["median"]
            lines.append(f"{w} {name} {first:.6g} {second:.6g} {second / first:.4f}")
    for path, record in zip(paths, records):
        fields = [record.get(k, {}).get("change", "n/a")
                  for k in ("revisions", "src_lines", "src_code_lines", "verifier_code_lines")]
        lines.append(f"{path}: change {fields[0]} src_lines {fields[1]} src_code_lines {fields[2]}"
                     f" verifier_code_lines {fields[3]}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, metavar="RECORD",
                        help="print two committed records side by side and exit")
    parser.add_argument("--parent", metavar="REV")
    parser.add_argument("--change", metavar="REV")
    parser.add_argument("--out", metavar="PATH")
    parser.add_argument("--workload", action="append", metavar="NAME=PAIRS",
                        help="workload and number of pairs (default: all four, 3 pairs)")
    parser.add_argument("--first-seed", type=int, default=11)
    args = parser.parse_args(argv)
    if args.compare:
        sys.stdout.write(compare(args.compare))
        return 0
    if not (args.parent and args.change and args.out):
        parser.error("--parent, --change and --out are required without --compare")
    plan = dict(item.split("=") for item in args.workload or [f"{w}=3" for w in WORKLOADS])

    with tempfile.TemporaryDirectory() as tmp:
        revisions, sides, lines, src_code, verifier_code, seconds = {}, {}, {}, {}, {}, {}
        for side in ("parent", "change"):
            revisions[side], sides[side] = export(getattr(args, side), Path(tmp))
            lines[side] = src_lines(sides[side])
            src_code[side] = src_code_lines(sides[side])
            verifier_code[side] = verifier_code_lines(sides[side])
            seconds[side] = run_seconds(sides[side])
        record = {
            "python": platform.python_version(),
            "revisions": revisions,
            "src_lines": lines,
            "src_code_lines": src_code,
            "verifier_code_lines": verifier_code,
            "run_seconds": seconds,
            "command": "python3 bench/run.py --workload W --seed S --trace 0",
            "traced_command": "python3 bench/run.py --workload W --seed 1 --trace 1",
            "quartiles": "statistics.quantiles(n=4, method='inclusive')",
            "workloads": {
                w: record_workload(sides, w, int(pairs), args.first_seed)
                for w, pairs in plan.items()
            },
        }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
