"""Per-layer tracing from outside the package.

Each public function is wrapped under every module name that holds it, so
calls between repbasis modules (cli -> construct -> repcore, verify ->
repcore, ...) pass through the wrappers without any change under src/.
A layer's time counts only its outermost call, so a function that calls
another of the same layer (sidon_for_density -> greedy_sidon) is not
counted twice.  Spans are kept in memory and written out by the caller.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

# (module, attribute, layer); attributes with a dot are methods of a class
WRAPPED = (
    ("sidon", "SidonLadder.advance", "sidon.ladder_advance"),
    ("sidon", "greedy_sidon", "sidon.query"),
    ("sidon", "erdos_turan_sidon", "sidon.query"),
    ("sidon", "sidon_for_density", "sidon.query"),
    ("repcore", "density_exceeds", "repcore.density_exceeds"),
    ("repcore", "sum_counter", "repcore.sum_counter"),
    ("repcore", "TargetSequence.prefix", "repcore.target_prefix"),
    ("repcore", "target_prefix", "repcore.target_prefix"),
    ("construct", "base_case", "construct.base_case"),
    ("construct", "extend_target", "construct.extend_target"),
    ("construct", "densify", "construct.densify"),
    ("construct", "trace_dumps", "construct.trace_dumps"),
    ("construct", "trace_loads", "construct.trace_loads"),
    ("verify", "verify_trace", "verify.verify_trace"),
    ("verify", "check_invariants", "verify.check_invariants"),
    ("verify", "check_decomposition", "verify.check_decomposition"),
    ("verify", "check_equality_coverage", "verify.check_equality_coverage"),
    ("verify", "upper_bound_check", "verify.upper_bound_check"),
    ("cli", "main", "cli"),
)

# called once per scan step; aggregated, never recorded as single spans
HOT = {"sidon.ladder_advance", "repcore.density_exceeds"}

# cli.main is timed per subcommand
TIMES = tuple(dict.fromkeys(layer for _, _, layer in WRAPPED if layer != "cli")) + (
    "cli.build", "cli.verify", "cli.stats", "cli.sidon")
COUNTS = (
    "sidon.ladder_advance_calls", "sidon.ladder_candidates",
    "sidon.ladder_shared_candidates", "repcore.density_exceeds_calls",
    "repcore.sum_counter_calls", "repcore.sum_counter_pairs", "construct.scan_steps",
    "verify.upper_bound_check_calls",
)


class Tracer:
    """Wraps the package's public functions while installed and sums time
    and counts per layer; reset() starts a new pass."""

    def __init__(self, pkg):
        self.modules = [pkg] + [getattr(pkg, m) for m in ("cli", "construct", "verify", "repcore", "sidon")]
        self.homes = {m.__name__.rsplit(".", 1)[-1]: m for m in self.modules[1:]}
        self._saved: list[tuple[object, str, object]] = []
        self.record_spans = False
        self.spans: list[list] = []
        self.op = ""
        self.time: dict[str, float] = defaultdict(float)
        self.count: Counter = Counter()
        self.depth: Counter = Counter()
        # id(ladder) -> (ladder, bound reached); holding the ladder keeps its id unique
        self._reach: dict[int, tuple[object, int]] = {}
        self._max_reach = 0
        self._stack: list[int] = []

    def reset(self) -> None:
        self.time.clear()
        self.count.clear()
        self._reach.clear()
        self._max_reach = 0

    # ---- installation -------------------------------------------------
    def install(self) -> None:
        for home, attr, layer in WRAPPED:
            module = self.homes[home]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._replace(cls, meth, self._wrap(getattr(cls, meth), layer, attr))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, layer, attr)
            for m in self.modules:
                if getattr(m, attr, None) is original:
                    self._replace(m, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # ---- wrappers -----------------------------------------------------
    def _wrap(self, fn, layer: str, name: str):
        before = {
            "sidon.ladder_advance": self._on_advance,
            "repcore.sum_counter": self._on_sum_counter,
        }.get(layer)
        count_calls = layer in ("sidon.ladder_advance", "repcore.density_exceeds",
                                "repcore.sum_counter", "verify.upper_bound_check")
        hot = layer in HOT
        depth, clock, times, counts = self.depth, time.perf_counter, self.time, self.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = layer
            if layer == "cli":
                argv = args[0] if args else kwargs.get("argv")
                key = f"cli.{argv[0]}" if argv else "cli.unknown"
            if count_calls:
                counts[layer + "_calls"] += 1
            if before is not None:
                before(args)
            if depth[key]:
                return fn(*args, **kwargs)
            depth[key] += 1
            span = None
            if self.record_spans and not hot:
                span = len(self.spans)
                parent = self._stack[-1] if self._stack else None
                self.spans.append([name, self.op, 0.0, 0.0, parent])
                self._stack.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                times[key] += end - start
                depth[key] -= 1
                if span is not None:
                    self.spans[span][2:4] = [start, end]
                    self._stack.pop()

        return wrapper

    def _on_advance(self, args) -> None:
        ladder, n = args[0], args[1]
        old = self._reach.get(id(ladder), (None, 0))[1]
        if n > old:
            self.count["sidon.ladder_candidates"] += n - old
            # the part of this step some earlier ladder of the pass already
            # scanned: what a prefix cache shared across scans would serve
            if old < self._max_reach:
                self.count["sidon.ladder_shared_candidates"] += min(n, self._max_reach) - old
            self._reach[id(ladder)] = (ladder, n)
            self._max_reach = max(self._max_reach, n)
        depth = self.depth
        if depth["construct.base_case"] or depth["construct.densify"]:
            self.count["construct.scan_steps"] += 1

    def _on_sum_counter(self, args) -> None:
        k = len(args[0])
        self.count["repcore.sum_counter_pairs"] += k * (k + 1) // 2

    # ---- results --------------------------------------------------------
    def snapshot(self, scale: float = 1.0) -> dict[str, float]:
        """The pass's metrics, with times multiplied by `scale`."""
        out = {f"{layer}_s": scale * self.time.get(layer, 0.0) for layer in TIMES}
        out.update({name: self.count.get(name, 0) for name in COUNTS})
        return out
