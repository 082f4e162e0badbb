"""Benchmark of plmonoid: three closed-loop workloads and a traced run.

    python3 perfbench/run.py --workload {algebra,distance,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from
``src/``.  Each workload is a closed loop: one process, one client,
one op at a time.  Inputs come from the library's seeded samplers and
are built before timing.  Ops run in chunks; after each chunk the
clock stops and every output of the chunk is checked, so checking
never counts as op time and at most one chunk of outputs is held.

``--trace 0`` reports the end-to-end metrics: ops_per_s, op_p50_ms,
op_p90_ms, setup_s and peak_rss_mb, with times at the reference speed
of ``speedref``.  ``--trace 1`` runs a fixed prefix of the schedule
untraced, traced, untraced and traced, and reports calls and self time
per library function, work counts and the tracing overhead; calls and
counts must repeat exactly between the two traced passes.

A human-readable table (every metric with its unit and sample count,
plus failed_frac) goes to stderr; the last line of stdout is the JSON
result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 1
SETUP_REPS = 5
# Ops run in chunks of about CHUNK_NS; then the clock stops, the chunk's
# outputs are checked and the reference kernel runs for REF_SHARE of it.
CHUNK_NS = 500_000_000
REF_SHARE = 0.04
MAX_REPORTED_FAILURES = 5


def _workload(name: str, seed: int):
    if name == "algebra":
        from algebra import Algebra

        return Algebra(WORK, seed)
    if name == "distance":
        from distance import Distance

        return Distance(WORK, seed)
    from cliwork import Cli

    return Cli(ROOT, WORK, seed, golden=seed == DEFAULT_SEED)


def _attempt(bench, key):
    try:
        return bench.run(key)
    except Exception as exc:  # an op that raises is a failed op
        return exc


def _gate(bench, key, out) -> str | None:
    """None when the output passes the workload's check, else why not."""
    if isinstance(out, Exception):
        return f"raised {type(out).__name__}: {out}"
    try:
        return bench.check(key, out)
    except Exception as exc:  # a check that raises fails the op
        return f"check raised {type(exc).__name__}: {exc}"


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, key, err) -> None:
        self.attempted += 1
        if err is not None:
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                print(f"FAILED op {key}: {err}", file=sys.stderr)


def timed_run(bench, seconds: float):
    """End-to-end metrics at the reference speed (see speedref).  Each
    setup and each chunk of ops is scaled by kernel timings taken right
    after it, so drift of the host within a run is followed too."""
    from speedref import scale_after

    setup, setup_raw = [], []
    for _ in range(SETUP_REPS):
        t0 = perf_counter_ns()
        bench.setup()
        dt = perf_counter_ns() - t0
        setup_raw.append(dt)
        setup.append(dt * scale_after(dt, REF_SHARE))
    keys = bench.schedule
    busy = busy_raw = 0
    lat: list[float] = []
    tally = Tally()
    i = 0
    while busy_raw < seconds * 1e9:
        outs, chunk_lat = [], []
        c0 = perf_counter_ns()
        while perf_counter_ns() - c0 < CHUNK_NS:
            key = keys[i % len(keys)]
            i += 1
            t0 = perf_counter_ns()
            out = _attempt(bench, key)
            chunk_lat.append(perf_counter_ns() - t0)
            outs.append((key, out))
        chunk_ns = perf_counter_ns() - c0
        for key, out in outs:
            tally.add(key, _gate(bench, key, out))
        scale = scale_after(chunk_ns, REF_SHARE)
        busy_raw += chunk_ns
        busy += chunk_ns * scale
        lat += [ns * scale for ns in chunk_lat]
    n = len(lat)
    if n < 100:
        print(f"warning: {n} ops; op_p90_ms has fewer than 10 samples beyond it", file=sys.stderr)
    metrics = {
        "ops_per_s": (n / (busy / 1e9), "1/s", n),
        "op_p50_ms": (statistics.median(lat) / 1e6, "ms", n),
        "op_p90_ms": (statistics.quantiles(lat, n=10)[-1] / 1e6, "ms", n),
        "setup_s": (statistics.median(setup) / 1e9, "s", len(setup)),
        "peak_rss_mb": (bench.peak_rss_mb(), "MB", 1),
    }
    notes = [
        f"raw ops_per_s {n / (busy_raw / 1e9):.4f}, raw setup_s {statistics.median(setup_raw) / 1e9:.4f}, "
        f"reference-speed scale {busy / busy_raw:.4f}"
    ]
    return metrics, tally, notes


def _same(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def _plain_pass(bench, keys):
    """Untraced outputs and per-op latencies (ns) of ``keys``."""
    outs, lat = [], []
    for key in keys:
        t0 = perf_counter_ns()
        outs.append(_attempt(bench, key))
        lat.append(perf_counter_ns() - t0)
    return outs, lat


def traced_run(bench):
    """Untraced and traced passes alternate (plain, traced, plain,
    traced) so that drift on the machine affects both sides alike."""
    from tracer import CLI_METRICS, COUNTS, FUNCTIONS

    bench.setup()
    keys = bench.schedule[: bench.trace_ops]
    tally = Tally()
    plain, lat = _plain_pass(bench, keys)
    for key, out in zip(keys, plain):
        tally.add(key, _gate(bench, key, out))
    passes = []
    for rep in range(2):
        if rep:
            outs, more = _plain_pass(bench, keys)
            lat += more
            for key, out, ref in zip(keys, outs, plain):
                tally.add(key, None if _same(out, ref) else "untraced output differs between passes")
        passes.append(bench.traced_pass(keys))
        for key, out, ref in zip(keys, passes[-1][1], plain):
            tally.add(key, None if _same(out, ref) else "traced output differs from untraced output")
    (s1, _, ns1), (s2, _, ns2) = passes
    unstable = [k for k in FUNCTIONS if s1["calls"][k] != s2["calls"][k]]
    unstable += [k for k in COUNTS if s1["counts"][k] != s2["counts"][k]]
    if unstable:
        raise SystemExit(f"error: counts differ between two traced passes: {', '.join(unstable)}")
    n = len(keys)
    metrics = {}
    for k in FUNCTIONS:
        metrics[f"{k}.calls"] = (s1["calls"][k], "count", n)
        metrics[f"{k}.self_ms"] = ((s1["self_ns"][k] + s2["self_ns"][k]) / 2e6, "ms", n)
    for k in COUNTS:
        metrics[k] = (s1["counts"][k], "bits" if k.endswith("bits") else "count", n)
    metrics.update(bench.extra_layer_metrics(keys * 2, lat))
    for name, unit in CLI_METRICS.items():
        metrics.setdefault(name, (0, unit, 0))
    metrics["trace.overhead_pct"] = (((ns1 + ns2) / sum(lat) - 1) * 100, "%", 2 * n)
    WORK.joinpath(f"trace-{bench.name}.json").write_text(
        json.dumps({"keys": [str(k) for k in keys], "passes": [s1, s2]}, sort_keys=True)
    )
    return metrics, tally, []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("algebra", "distance", "cli"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "plmonoid" / "__init__.py").is_file():
        print(f"error: no plmonoid package under {src}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    WORK.mkdir(exist_ok=True)

    bench = _workload(args.workload, args.seed)
    metrics, tally, notes = traced_run(bench) if args.trace else timed_run(bench, args.seconds)

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: closed loop, 1 client", file=sys.stderr)
    for name, (value, unit, samples) in metrics.items():
        if not args.trace or value:
            print(f"#   {name:44s} {value:14.4f} {unit:6s} n={samples}", file=sys.stderr)
    print(f"#   {'failed_frac':44s} {tally.failed / tally.attempted:14.4f} {'':6s} "
          f"n={tally.attempted}", file=sys.stderr)
    for line in notes + bench.notes():
        print(f"#   {line}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
