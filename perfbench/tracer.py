"""Run-time spans around the public functions of plmonoid.

The tracer replaces each target function with a wrapper, both in its
home module and in every plmonoid module that imported it by name, so
that a call from one layer into another is recorded as a child of the
caller's span.  Spans are kept in memory and reduced at the end: a
function's self time is its span time minus the time of its child
spans.  The two hottest leaves (``PLMono.__call__`` and
``PLMono.__post_init__``) are aggregated per (parent, function) rather
than stored one span per call.

Counts are taken from the arguments and return values of the wrapped
calls, outside the measured interval:

* ``quotdist.quot_dist.decisions``: sum of ``QuotInterval.decisions``;
* ``quotdist.quot_dist.cells``: sum of P*Q over the two merged
  breakpoint grids of each call;
* ``plcore.bps_out``: breakpoints returned by compose, compose_lc and
  combine;
* ``plcore.max_den_bits``: largest denominator bit length in any map
  returned by compose, compose_lc or combine.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns

# Metric names are "<layer>.<function>"; a dotted function names a method.
TARGETS = {
    "plcore": (
        "compose", "compose_lc", "combine", "sup_dist", "order_excess",
        "pseudo_inverse", "inverse", "uniform_witness", "PLMono.init", "PLMono.call",
    ),
    "typespace": (
        "canonicalize", "mean", "CanonicalTuple.init", "embed_homeo",
        "roelcke_coord", "coord_to_pair",
    ),
    "quotdist": ("quot_dist", "quot_decision", "brute_oracle", "orbit_identity_bound"),
    "gaps": ("merge_gaps", "equiv_test", "collapse_map", "collapsed_dist", "extreme_pair_all"),
    "serialize": ("loads", "dumps", "tuple_from_obj", "canonical_to_obj", "mono_to_obj"),
    "explorer": ("random_point", "nearest_net_point", "net_size", "main"),
}
FUNCTIONS = tuple(f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns)
COUNTS = (
    "quotdist.quot_dist.decisions",
    "quotdist.quot_dist.cells",
    "plcore.bps_out",
    "plcore.max_den_bits",
)
CLI_COMMANDS = ("canon", "dist", "epsnet", "sample", "plot", "witness", "gaps")
# Per-layer metrics that only the cli workload measures; the in-process
# workloads report them as 0.
CLI_METRICS = {
    "explorer.cli.import_ms": "ms",
    "explorer.cli.malformed_exit_violations": "count",
    **{f"explorer.cli.{cmd}.wall_ms": "ms" for cmd in CLI_COMMANDS},
}
_LEAVES = {"plcore.PLMono.call", "plcore.PLMono.init"}
_METHODS = {"init": "__post_init__", "call": "__call__"}
_MAP_MAKERS = {"plcore.compose", "plcore.compose_lc", "plcore.combine"}


def _grid_cells(a, b) -> int:
    p = len({x for f in a for x, _ in f.breakpoints}) - 1
    q = len({x for f in b for x, _ in f.breakpoints}) - 1
    return p * q


class Tracer:
    """Spans and counts for one traced pass; install, run, uninstall."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self.leaves: dict[tuple[str, str], list[int]] = {}
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _count(self, name, args, result) -> None:
        counts = self.counts
        if name == "quotdist.quot_dist":
            counts["quotdist.quot_dist.decisions"] += result.decisions
            counts["quotdist.quot_dist.cells"] += _grid_cells(args[0], args[1])
        elif name in _MAP_MAKERS:
            bps = result.breakpoints
            counts["plcore.bps_out"] += len(bps)
            bits = max(max(x.denominator.bit_length(), y.denominator.bit_length()) for x, y in bps)
            if bits > counts["plcore.max_den_bits"]:
                counts["plcore.max_den_bits"] = bits

    def _span_wrapper(self, name, fn):
        counted = name == "quotdist.quot_dist" or name in _MAP_MAKERS

        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1][0] if stack else -1
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, name, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                self.spans.append((sid, parent, name, t0, t1, frame[2]))
            if counted:
                self._count(name, args, result)
                if stack:
                    stack[-1][2] += perf_counter_ns() - t1
            return result

        return wrapper

    def _leaf_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack = self._stack
                if stack:
                    frame = stack[-1]
                    frame[2] += dt
                    key = (frame[1], name)
                else:
                    key = ("", name)
                agg = self.leaves.get(key)
                if agg is None:
                    self.leaves[key] = [1, dt]
                else:
                    agg[0] += 1
                    agg[1] += dt

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every loaded plmonoid module; layers that
        are not imported are skipped."""
        modules = [m for n, m in sys.modules.items() if n == "plmonoid" or n.startswith("plmonoid.")]
        for layer, fns in TARGETS.items():
            home = sys.modules.get(f"plmonoid.{layer}")
            if home is None:
                continue
            for fn in fns:
                name = f"{layer}.{fn}"
                make = self._leaf_wrapper if name in _LEAVES else self._span_wrapper
                if "." in fn:
                    cls_name, method = fn.split(".")
                    owner = getattr(home, cls_name)
                    attr = _METHODS[method]
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, original, make(name, original))
                    continue
                original = getattr(home, fn)
                wrapper = make(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict:
        """Calls and self time per function, counts, and the leaf table."""
        child_ns: dict[int, int] = {}
        for sid, parent, name, t0, t1, _ in self.spans:
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
        calls = dict.fromkeys(FUNCTIONS, 0)
        self_ns = dict.fromkeys(FUNCTIONS, 0)
        for sid, parent, name, t0, t1, excluded in self.spans:
            calls[name] += 1
            self_ns[name] += (t1 - t0) - child_ns.get(sid, 0) - excluded
        for (_, name), (n, ns) in self.leaves.items():
            calls[name] += n
            self_ns[name] += ns
        return {
            "calls": calls,
            "self_ns": self_ns,
            "counts": dict(self.counts),
            "leaves": {f"{parent}>{name}": agg for (parent, name), agg in sorted(self.leaves.items())},
        }


def merge(total: dict | None, part: dict) -> dict:
    """Sum two summaries; max_den_bits takes the maximum."""
    if total is None:
        out = {k: dict(v) for k, v in part.items()}
        out["leaves"] = {k: list(v) for k, v in part["leaves"].items()}
        return out
    for section in ("calls", "self_ns"):
        for k, v in part[section].items():
            total[section][k] += v
    for k, v in part["counts"].items():
        total["counts"][k] = max(total["counts"][k], v) if k == "plcore.max_den_bits" else total["counts"][k] + v
    for k, (n, ns) in part["leaves"].items():
        agg = total["leaves"].setdefault(k, [0, 0])
        agg[0] += n
        agg[1] += ns
    return total
