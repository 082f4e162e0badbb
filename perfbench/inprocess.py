"""Shared machinery of the in-process workloads (algebra, distance).

A workload draws its corpus with the library's seeded samplers, writes
it as JSON, and at set-up imports plmonoid afresh and loads the corpus
back through ``plmonoid.serialize``.  Ops look library functions up on
the package at call time, so the tracer's wrappers take effect without
the workload knowing about them.
"""

from __future__ import annotations

import importlib
import math
import random
import resource
import sys
from pathlib import Path
from time import perf_counter_ns

from tracer import Tracer


def fresh_import():
    """Drop every loaded plmonoid module and import the package again."""
    for name in [n for n in sys.modules if n == "plmonoid" or n.startswith("plmonoid.")]:
        del sys.modules[name]
    pm = importlib.import_module("plmonoid")
    ser = importlib.import_module("plmonoid.serialize")
    return pm, ser


def blocks(rng: random.Random, block: tuple[str, ...], count: int) -> list[tuple[str, int]]:
    """Schedule of ``count`` shuffled blocks; each op is (kind, index),
    the index counting earlier ops of the same kind."""
    seen: dict[str, int] = {}
    out = []
    for _ in range(count):
        kinds = list(block)
        rng.shuffle(kinds)
        for kind in kinds:
            out.append((kind, seen.get(kind, 0)))
            seen[kind] = seen.get(kind, 0) + 1
    return out


def stratified(draw, count: int, size=None, oversample: int = 3) -> list:
    """``count`` draws whose prefixes spread over input sizes alike for
    every seed.

    Takes oversample * count draws, orders them by ``size`` (a cost
    proxy; by default the total breakpoint count) and keeps every
    ``oversample``-th, so the kept items follow the sampler's size
    distribution.  They are then visited with a golden-ratio stride, so
    that every prefix a run reaches holds small and large items in the
    same proportions.  A run's total cost then varies much less from
    seed to seed than with a plain draw."""
    drawn = sorted((draw() for _ in range(oversample * count)), key=size or _size)
    kept = drawn[oversample // 2 :: oversample]
    step = max(1, round(count * 0.6180339887))
    while math.gcd(step, count) != 1:
        step += 1
    return [kept[j * step % count] for j in range(count)]


def interleave(*pools) -> list:
    """Round-robin merge, so every prefix holds each pool in equal share."""
    return [item for group in zip(*pools) for item in group]


def _size(item) -> int:
    """Total breakpoints of the maps in a draw (a map, or nested
    sequences holding maps and numbers)."""
    if hasattr(item, "breakpoints"):
        return len(item.breakpoints)
    try:
        return sum(_size(x) for x in item)
    except TypeError:  # a number
        return 0


class InProcessWorkload:
    """Subclasses set name, block, blocks_per_run and trace_ops and
    define generate(), parse() and an op_<kind>/check_<kind> pair per kind."""

    name = ""
    block: tuple[str, ...] = ()
    blocks_per_run = 0
    trace_ops = 0

    def __init__(self, work: Path, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        pm, ser = fresh_import()
        explorer = importlib.import_module("plmonoid.explorer")
        self.corpus_path = work / f"{self.name}-{seed}.json"
        self.corpus_path.write_text(ser.dumps(self.generate(pm, ser, explorer, rng)))
        self.schedule = blocks(rng, self.block, self.blocks_per_run)

    def setup(self) -> None:
        self.pm, self.ser = fresh_import()
        self.load()

    def load(self) -> None:
        self.items = self.parse(self.ser.loads(self.corpus_path.read_text()))

    def item(self, kind: str, index: int):
        pool = self.items[kind]
        return pool[index % len(pool)]

    def run(self, key):
        kind, index = key
        return getattr(self, f"op_{kind}")(self.item(kind, index))

    def check(self, key, out) -> str | None:
        kind, index = key
        return getattr(self, f"check_{kind}")(self.item(kind, index), out)

    def traced_pass(self, keys):
        """Load the corpus and run ``keys`` under a fresh tracer.
        Returns (summary, outputs, ns spent in the ops)."""
        tracer = Tracer()
        tracer.install()
        try:
            self.load()
            outs = []
            t0 = perf_counter_ns()
            for key in keys:
                try:
                    outs.append(self.run(key))
                except Exception as exc:  # compared with the untraced pass
                    outs.append(exc)
            busy = perf_counter_ns() - t0
        finally:
            tracer.uninstall()
        return tracer.summary(), outs, busy

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def extra_layer_metrics(self, keys, lat) -> dict:
        return {}

    def notes(self) -> list[str]:
        return []
