"""Seeded generator of large valid traces and of mutated copies.

The construction in repbasis cannot make deep traces today (every build
past one round stops with PHI_TOO_SLOW), so the verifier workload draws
its traces from here.  f is identically 1 and phi is the generous
pow:9/20, whose bar x**(1/20) is cleared by any set of a few elements.
The generator keeps its own set of pair sums, so every stage it emits has
all pair sums distinct (r_A <= 1 = f) by construction.
"""

from __future__ import annotations

import random

from checks import Target, first_excess, targets

PHI = "pow:9/20"
F = Target.constant(1)


class _Builder:
    def __init__(self, rng: random.Random, reserved: set[int]):
        self.rng = rng
        self.elements: list[int] = []
        self.sums: set[int] = set()
        # targets still to come must stay unrepresented until their round
        self.reserved = reserved

    def fits(self, new: list[int], allow: int | None = None) -> bool:
        """True when adding `new` keeps every pair sum distinct and off the
        reserved targets (except `allow`, the target being covered)."""
        taken = set(self.elements)
        if any(c == 0 or c in taken for c in new) or len(set(new)) != len(new):
            return False
        fresh = [c + a for c in new for a in self.elements]
        fresh += [c + d for i, c in enumerate(new) for d in new[i:]]
        if len(set(fresh)) != len(fresh) or self.sums.intersection(fresh):
            return False
        return not any(s in self.reserved and s != allow for s in fresh)

    def add(self, new: list[int]) -> None:
        self.sums.update(c + a for c in new for a in self.elements)
        self.sums.update(c + d for i, c in enumerate(new) for d in new[i:])
        self.elements = sorted(self.elements + new)

    def reach(self) -> int:
        return max(abs(self.elements[0]), abs(self.elements[-1])) if self.elements else 1

    def cover(self, u: int) -> list[int]:
        """Adjoin a pair {-c, c + u}, c far above every element."""
        low = 3 * self.reach() + abs(u) + 1
        while True:
            c = low + self.rng.randrange(low)
            pair = sorted({-c, c + u})
            if self.fits(pair, allow=u):
                self.reserved.discard(u)
                self.add(pair)
                return pair

    def densify(self, k: int) -> list[int]:
        """k elements, each the first candidate upward from a random start
        beyond the set that leaves every pair sum distinct."""
        reach = self.reach()
        new: list[int] = []
        while len(new) < k:
            c = reach + 1 + self.rng.randrange(reach)
            while not self.fits([c]):
                c += 1
            self.add([c])
            new.append(c)
        return new


def make_trace(seed: int, rounds: int, per_densify: int) -> dict:
    """A valid trace of 2*rounds + 1 stages in the canonical JSON shape."""
    rng = random.Random(seed)
    u = targets(F, rounds + 1)
    b = _Builder(rng, set(u[1:]))
    added = b.cover(u[0]) + b.densify(per_densify)
    stages = [{"index": 1, "kind": "BASE", "added": sorted(added), "x": b.reach()}]
    stages[0]["set"] = list(b.elements)
    for r in range(1, rounds + 1):
        pair = b.cover(u[r])
        stages.append({"index": 2 * r, "kind": "TARGET_EXTENSION",
                       "set": list(b.elements), "added": pair})
        new = b.densify(per_densify)
        stages.append({"index": 2 * r + 1, "kind": "DENSIFICATION",
                       "set": list(b.elements), "added": sorted(new), "x": b.reach()})
    return {"f": F.to_json(), "phi": PHI, "u_prefix": u, "stages": stages}


def _with_element(elements: list[int], e: int) -> list[int]:
    return sorted(elements + [e])


def mutate(trace: dict, kind: str, stage: int, rng: random.Random) -> tuple[dict, tuple]:
    """A copy of `trace` with one injected defect at `stage`.

    Returns the copy and the (condition, stage, witness) that the verifier
    must name.  Kinds: "zero" puts 0 in the stage set; "drop" removes an
    element the stage inherited; "collide" adds e = b + c - a, so that
    a + e = b + c is represented twice; "prefix" changes the last target.
    """
    data = {**trace, "stages": [dict(s) for s in trace["stages"]],
            "u_prefix": list(trace["u_prefix"])}
    target = data["stages"][stage - 1] if stage else None
    if kind == "zero":
        target["set"] = _with_element(target["set"], 0)
        return data, ("condition_4_zero_free", stage, 0)
    if kind == "drop":
        inherited = sorted(set(target["set"]) - set(target["added"]))
        e = rng.choice(inherited)
        target["set"] = [a for a in target["set"] if a != e]
        return data, ("nesting", stage, e)
    if kind == "collide":
        elements = target["set"]
        while True:
            a, b, c = rng.sample(elements, 3)
            e = b + c - a
            if e == 0 or e in elements:
                continue
            mutated = _with_element(elements, e)
            # the verifier names the smallest excess; keep triples where it
            # is the injected sum b + c
            if first_excess(mutated, F) == b + c:
                target["set"] = mutated
                target["added"] = _with_element(target["added"], e)
                return data, ("condition_1_pair_bound", stage, b + c)
    if kind == "prefix":
        old = data["u_prefix"][-1]
        new = old + rng.choice((-1, 1)) * rng.randrange(1, 10**6)
        data["u_prefix"][-1] = new
        return data, ("u_prefix_consistency", None, new)
    raise ValueError(f"unknown mutation {kind!r}")
