"""Benchmark of repbasis: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload matrix --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                  # every workload in turn
    python3 bench/run.py --smoke          # every workload and check, tiny sizes
    python3 bench/run.py --micro          # reference medians of single layers

One run sets a workload up, then repeats passes over its fixed list of
operations, one at a time in one thread, until --seconds have passed, and
checks every output.  It sets up once more after every pass.  Every
duration is scaled to a reference speed by a fixed loop run next to it,
and each metric is a median (README.md says why).  With --trace 1 each untraced pass is followed
by a traced one.  With --workload all, peak_rss_mb is the peak of the
process so far.  The last line
of standard output is one JSON object: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1).  The
program is imported from src/ next to this directory; without it the run
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

from checks import mian_chowla, pair_counts  # noqa: E402
from tracing import COUNTS, TIMES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# What reference() takes at full speed on the 2-vCPU machine the bounds
# were set on; every timing is scaled to that speed (README.md says why).
REF_SECONDS = 0.004
_REF_ELEMENTS = tuple(range(1, 10**9, 10**9 // 60))


def reference() -> float:
    """Seconds taken by a fixed piece of pure-Python work that shares no
    code with repbasis: a first-fit Sidon scan, a pair-sum count and
    scattered writes to a 256 KiB buffer."""
    start = time.perf_counter()
    mian_chowla(300)
    pair_counts(_REF_ELEMENTS)
    buffer = bytearray(1 << 18)
    j = 0
    for _ in range(20000):
        j = (j * 1103515245 + 12345) & 262143
        buffer[j] ^= 1
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """A duration scaled to the reference speed, by the reference runs
    just before and just after it."""
    return seconds * REF_SECONDS / ((before + after) / 2)


def import_fresh():
    """Import repbasis from src/ anew, as a user's process would."""
    for name in [n for n in sys.modules if n == "repbasis" or n.startswith("repbasis.")]:
        del sys.modules[name]
    pkg = importlib.import_module("repbasis")
    importlib.import_module("repbasis.cli")
    return pkg


def run_pass(ops, tracer: Tracer | None = None) -> tuple[list[float], float, list]:
    """One pass over the operations: ([scaled time of each op], median
    reference time, [(op, problem)])."""
    times = []
    problems = []
    refs = [reference()]
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # an operation's error is its output; check() judges it
            out = exc
        elapsed = time.perf_counter() - start
        refs.append(reference())
        times.append(scaled(elapsed, refs[-2], refs[-1]))
        try:
            problem = op.check(out)
        except Exception as exc:  # a malformed output breaks the check
            problem = f"check raised {exc!r} on output {out!r:.160}"
        if problem:
            problems.append((op, problem))
    return times, statistics.median(refs), problems


def _self_times(spans: list) -> dict[str, float]:
    """Per span name: duration minus the time covered by its child spans."""
    own = [end - start for _, _, start, end, _ in spans]
    for _, _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    out: Counter = Counter()
    for (name, *_), t in zip(spans, own):
        out[name] += t
    return dict(out)


def timed_setup(name: str, work: Path, seed: int, smoke: bool):
    """Import the package and make the workload's inputs in `work`:
    (seconds taken, package, plan)."""
    shutil.rmtree(work, ignore_errors=True)
    before = reference()
    start = time.perf_counter()
    pkg = import_fresh()
    work.mkdir(parents=True)
    plan = WORKLOADS[name](pkg, work, random.Random(seed), smoke)
    elapsed = time.perf_counter() - start
    return scaled(elapsed, before, reference()), pkg, plan


def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    work = WORK / f"{name}-{os.getpid()}"
    spare = WORK / f"{name}-{os.getpid()}-setup"
    try:
        elapsed, pkg, plan = timed_setup(name, work, seed, smoke)
        setup_times = [elapsed]
        if not Path(pkg.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"repbasis was imported from {pkg.__file__}, not from {SRC}")

        wrong = Counter()
        faults = Counter()
        problem = plan.check_inputs()
        if problem:
            wrong[f"inputs: {problem}"] += 1
        samples = [[] for _ in plan.ops]
        traced_samples = [[] for _ in plan.ops]
        layers = []
        tracer = Tracer(pkg) if traced else None
        attempted = failed = passes = 0
        start = time.perf_counter()
        while True:
            rounds = [None] + ([tracer] if tracer else [])
            for t in rounds:
                if t is not None:
                    t.reset()
                    t.record_spans = not layers
                    t.install()
                try:
                    times, ref, problems = run_pass(plan.ops, t)
                finally:
                    if t is not None:
                        t.remove()
                attempted += len(plan.ops)
                failed += len(problems)
                for op, problem in problems:
                    if op.fault:
                        faults[op.fault] += 1
                    else:
                        wrong[f"{op.name}: {problem}"] += 1
                for kept, x in zip(samples if t is None else traced_samples, times):
                    kept.append(x)
                if t is None:
                    passes += 1
                else:
                    layers.append(t.snapshot(REF_SECONDS / ref))
                # start every pass from the same heap, outside the timed calls
                gc.collect()
            if smoke or time.perf_counter() - start >= seconds:
                break
            # one more set-up per pass, so set-up is sampled across the run
            setup_times.append(timed_setup(name, spare, seed, smoke)[0])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(spare, ignore_errors=True)

    for problem, times in sorted(wrong.items()):
        print(f"WRONG ({times}x) {problem}", file=sys.stderr)
    for fault, times in sorted(faults.items()):
        print(f"known fault {fault}: failed {times} of {attempted // len(plan.ops)} attempts")
    print(f"{name}: {passes} passes of {len(plan.ops)} operations, seed {seed}")

    op_times = [statistics.median(x) for x in samples]
    metrics = {
        "wall_s": {"value": sum(op_times), "unit": "s"},
        "slowest_op_s": {"value": max(op_times), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    shown = metrics
    if traced:
        values = {f"{layer}_s": statistics.median(p[f"{layer}_s"] for p in layers) for layer in TIMES}
        values.update({c: layers[0][c] for c in COUNTS})
        if any(p[c] != layers[0][c] for p in layers for c in COUNTS):
            print("WARNING: a layer count differed between traced passes", file=sys.stderr)
        values["trace_overhead_s"] = sum(statistics.median(x) for x in traced_samples) - sum(op_times)
        WORK.mkdir(exist_ok=True)
        spans_path = WORK / f"spans-{name}-seed{seed}.json"
        spans_path.write_text(json.dumps({
            "workload": name, "seed": seed, "layers": values,
            "self_s": _self_times(tracer.spans),
            "spans": [dict(zip(("name", "op", "start", "end", "parent"), s)) for s in tracer.spans],
        }), encoding="utf-8")
        print(f"spans of the first traced pass: {spans_path.relative_to(ROOT)}")
        layer_metrics = {k: {"value": v, "unit": "count" if k in COUNTS else "s"}
                         for k, v in values.items()}
        metrics = {**metrics, **layer_metrics}
        # the JSON line carries the per-layer metrics BENCHMARK.json names;
        # the lines before it print them all
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        shown = {m["name"]: layer_metrics[m["name"]] for m in spec["per_layer"]}
    for key, m in metrics.items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"  {key:40s} {value} {m['unit']}")
    return {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": shown}


def micro() -> None:
    """Medians of five runs of the single-layer figures no workload makes
    dominant."""
    import repbasis as rb

    elements = tuple(sorted(random.Random(0).sample(range(1, 10**6), 2000)))
    cases = {
        "TargetSequence.prefix(4000), f = 1": lambda: rb.TargetSequence(rb.RepTarget.constant(1)).prefix(4000),
        "TargetSequence.prefix(4000), f = inf": lambda: rb.TargetSequence(rb.RepTarget.constant(rb.INFINITY)).prefix(4000),
        "SidonLadder().advance(10**6)": lambda: rb.SidonLadder().advance(10**6),
        "sum_counter, 2000 elements": lambda: rb.sum_counter(rb.FiniteBasis(elements)),
    }
    for label, fn in cases.items():
        times = []
        for _ in range(5):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        print(f"{label:40s} median {statistics.median(times):.4f} s  "
              f"(min {min(times):.4f}, max {max(times):.4f}, 5 runs)")
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))
    print(f"src/ line count: {lines}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1, help="generator seed of the inputs")
    parser.add_argument("--seconds", type=float, default=30.0, help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass per workload at tiny sizes")
    parser.add_argument("--micro", action="store_true", help="reference medians of single layers")
    args = parser.parse_args(argv)

    if not (SRC / "repbasis" / "__init__.py").is_file():
        print(f"no repbasis sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.micro:
        micro()
        return 0

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traced = args.trace == 1 or args.smoke
    results = {n: run_workload(n, args.seed, args.seconds, traced, args.smoke) for n in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] or not args.smoke else 1


if __name__ == "__main__":
    raise SystemExit(main())
