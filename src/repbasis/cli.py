"""Command-line front end: build traces, verify them, inspect Sidon sets,
and tabulate checkpoint densities as CSV."""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from .construct import build
from .errors import RepbasisError
from .repcore import PhiSpec, RepTarget, _json_loads, counting, density_demand, real_sqrt
from .sidon import erdos_turan_sidon, greedy_sidon, sidon_for_density
from .trace import canonical_json, trace_dumps, trace_loads
from .verify import verify_trace

STATS_HEADER = "x,count,demand,ratio,ceiling"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by every later main()
    call in the process (not at import, which would slow every start-up)."""
    parser = argparse.ArgumentParser(
        prog="repbasis",
        description="Staged additive-basis construction with verified density checkpoints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct a trace for a prescribed function")
    p_build.set_defaults(run=_cmd_build)
    p_build.add_argument("--f", required=True, metavar="PATH", help="JSON file with the prescribed function")
    p_build.add_argument("--phi", required=True, help='growth spec: "log2", "ln", "pow:<eps>", "clog:<c>"')
    p_build.add_argument("--stages", required=True, type=int, metavar="L", help="number of extension/densification rounds")
    p_build.add_argument("--out", metavar="PATH", help="write the trace here (default: stdout)")
    p_build.add_argument("--search-cap", type=int, metavar="N", help="abort scans whose x would exceed N")

    p_verify = sub.add_parser("verify", help="run every oracle against a trace file")
    p_verify.set_defaults(run=_cmd_verify)
    p_verify.add_argument("--trace", required=True, metavar="PATH")
    p_verify.add_argument("--report", metavar="PATH", help="write the full JSON report here")

    p_sidon = sub.add_parser("sidon", help="construct a Sidon set in [1, n]")
    p_sidon.set_defaults(run=_cmd_sidon)
    p_sidon.add_argument("--method", choices=("greedy", "erdos-turan", "auto"), default="auto")
    p_sidon.add_argument("--n", required=True, type=int)

    p_stats = sub.add_parser("stats", help="tabulate checkpoint densities as CSV")
    p_stats.set_defaults(run=_cmd_stats)
    p_stats.add_argument("--trace", required=True, metavar="PATH")
    p_stats.add_argument("--out", metavar="PATH", help="write the CSV here (default: stdout)")

    return parser


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader of stdout is gone: end quietly with the command's own
            # status; with fd 1 on devnull the flush at exit cannot raise
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_build(args) -> int:
    with open(args.f, encoding="utf-8") as handle:
        f = RepTarget.from_dict(_json_loads(handle.read()))
    phi = PhiSpec.parse(args.phi)
    trace = build(f, phi, args.stages, search_cap=args.search_cap)
    _write_text(args.out, trace_dumps(trace))
    return 0


def _cmd_verify(args) -> int:
    with open(args.trace, encoding="utf-8") as handle:
        trace = trace_loads(handle.read())
    report = verify_trace(trace)
    if args.report:
        _write_text(args.report, canonical_json(report.to_dict()))
    lines = [f"FAIL {line}" for line in report.failures()]
    lines.append("PASS" if report.passed else "FAIL")
    _write_text(None, "\n".join(lines) + "\n")
    return 0 if report.passed else 1


def _cmd_sidon(args) -> int:
    # built per call, so a wrapper set on one of these module names is the one called
    methods = {"greedy": greedy_sidon, "erdos-turan": erdos_turan_sidon, "auto": sidon_for_density}
    result = methods[args.method](args.n)
    payload = {
        "method": args.method,
        "n": args.n,
        "elements": list(result.elements),
        "size": len(result),
        "threshold": round(math.sqrt(args.n) / 2, 6),
        "density_ok": result.density_ok(),
    }
    _write_text(None, canonical_json(payload))
    return 0


def _cmd_stats(args) -> int:
    with open(args.trace, encoding="utf-8") as handle:
        trace = trace_loads(handle.read())
    lines = [STATS_HEADER]
    for _, x, stage_set in trace.checkpoints():
        count = counting(stage_set, -x, x)
        demand = density_demand(x, trace.phi)
        r = trace.f.max_finite(2 * x)
        ceiling = math.inf if r is None else real_sqrt(2 * r * (4 * x + 1))
        # phi(x) past the float range leaves a bar of 0.0, which any count clears
        lines.append(f"{x},{count},{demand:.6f},{count / demand if demand else math.inf:.6f},{ceiling:.6f}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except RepbasisError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
