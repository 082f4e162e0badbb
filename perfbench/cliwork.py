"""The ``cli`` workload: ``python -m plmonoid`` as a fresh subprocess
per op, one at a time.

This is the only workload that parses and writes JSON through the real
entry point, so interpreter start-up, imports and argparse show here
and nowhere else.  Each block of 30 ops holds 6 ``dist`` (2 with
``--grid 32``), 4 ``canon``, 3 ``sample --count 20``, 4 ``epsnet --net 8
--check 20``, 3 ``witness``, 2 ``gaps``, 5 ``plot`` (3 svg, 2 csv) and
3 malformed inputs whose contract is exit 2 with one ``error:`` line.
``epsnet``, the slowest command, is 4 of 30 ops, so that ``op_p90_ms``
falls inside its times rather than on the edge between two commands.

Outputs are checked against invariants computed in-process for every
seed and, for the default seed, against stdout digests recorded in
``golden/``.  ``dist`` is checked by its bracket contract only, since
its values are expected to change.

Four further malformed inputs are known to exit 1 with a traceback
today.  They are run once per run, outside the timed window, and
reported as ``explorer.cli.malformed_exit_violations``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns

import plmonoid as pm
from plmonoid import explorer, serialize as ser

from tracer import CLI_COMMANDS, merge

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "cli-seed1.json"
BLOCKS_PER_RUN = 8
CHILD_TIMEOUT_S = 60
IMPORT_REPS = 5
DIST_TOL = Fraction(1, 64)
EPSNET_NET = 8
# (file name, bytes or None for a directory, argv): inputs whose contract
# is exit 2.  The first three already meet it; the last four exit 1 with
# a traceback at the commit that defined this benchmark.
MALFORMED = (
    ("empty-components.json", b'{"components": []}\n', ["canon", "empty-components.json"]),
    (None, None, ["canon", "missing.json"]),
    ("bad-pair.json", b'{"breakpoints": [["0", "0"], ["1"]]}\n', ["witness", "bad-pair.json"]),
)
KNOWN_CRASHES = (
    ("gaps-arity.json", b'{"gaps": [["1/4"]]}\n', ["gaps", "gaps-arity.json"]),
    ("gaps-type.json", b'{"gaps": 5}\n', ["gaps", "gaps-type.json"]),
    ("a-directory", None, ["canon", "a-directory"]),
    ("non-utf8.json", b'\xff\xfe{"components": []}\n', ["canon", "non-utf8.json"]),
)
# Same for every seed, so that set-up time does not depend on the seed.
WARM_UP = ["sample", "--count", "1", "--seed", "0"]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _raw_gaps(rng: random.Random) -> list[tuple[Fraction, Fraction]]:
    out = []
    for _ in range(rng.randrange(1, 6)):
        a = rng.randrange(0, 63)
        out.append((Fraction(a, 64), Fraction(rng.randrange(a + 1, 65), 64)))
    return out


class Cli:
    name = "cli"
    trace_ops = 30

    def __init__(self, root: Path, work: Path, seed: int, golden: bool):
        self.dir = work / f"cli-{seed}"
        self.launcher = HERE / "launcher.py"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.files: dict[str, bytes | None] = {}
        self.ops: list[dict] = []
        rng = random.Random(f"cli:{seed}")
        for b in range(BLOCKS_PER_RUN):
            block = self._block(rng, b)
            rng.shuffle(block)
            self.ops += block
        for name, data, _ in MALFORMED + KNOWN_CRASHES:
            if name is not None:
                self.files[name] = data
        self.schedule = list(range(len(self.ops)))
        self.golden = None
        if golden:
            recorded = json.loads(GOLDEN.read_text())
            if [r["argv"] for r in recorded] != [op["argv"] for op in self.ops]:
                raise SystemExit(f"error: {GOLDEN} was recorded for another schedule")
            self.golden = [r["stdout_sha256"] for r in recorded]
        self.violations = None

    # -- inputs ------------------------------------------------------------

    def _file(self, name: str, obj) -> str:
        self.files[name] = ser.dumps(obj).encode()
        return name

    def _block(self, rng: random.Random, b: int) -> list[dict]:
        ops = []

        def add(cmd, argv, ref=None):
            ops.append({"cmd": cmd, "argv": [cmd, *argv], "ref": ref})

        for i in range(6):
            a, c = (explorer.random_tuple(rng, 2 + i % 2) for _ in range(2))
            fa = self._file(f"b{b}-dist{i}-a.json", ser.tuple_to_obj(a))
            fc = self._file(f"b{b}-dist{i}-b.json", ser.tuple_to_obj(c))
            add("dist", [fa, fc, *(["--grid", "32"] if i % 3 == 0 else [])], (a, c))
        for i, n in enumerate((1, 2, 3, 5)):
            t = explorer.random_tuple(rng, n)
            add("canon", [self._file(f"b{b}-canon{i}.json", ser.tuple_to_obj(t))], t)
        for n in (2, 3, 2):
            seed = rng.randrange(10**6)
            add("sample", ["--n", str(n), "--count", "20", "--seed", str(seed)], (n, seed))
        for _ in range(4):
            add("epsnet", ["--n", "2", "--net", str(EPSNET_NET), "--check", "20",
                           "--seed", str(rng.randrange(10**6))])
        for i in range(3):
            g = explorer.random_homeo(rng)
            add("witness", [self._file(f"b{b}-witness{i}.json", ser.mono_to_obj(g))], g)
        for i in range(2):
            raw = _raw_gaps(rng)
            obj = {"gaps": [[ser.frac_str(x) for x in iv] for iv in raw]}
            add("gaps", [self._file(f"b{b}-gaps{i}.json", obj)], raw)
        plots = (
            ("svg", explorer.random_tuple(rng, 3), ser.tuple_to_obj),
            ("svg", explorer.random_mono(rng), ser.mono_to_obj),
            ("svg", pm.merge_gaps(_raw_gaps(rng)), ser.gapset_to_obj),
            ("csv", pm.roelcke_coord(explorer.random_point(rng, 2)), ser.coord_to_obj),
            ("csv", explorer.random_mono(rng), ser.mono_to_obj),
        )
        for i, (fmt, obj, to_obj) in enumerate(plots):
            add("plot", [self._file(f"b{b}-plot{i}.json", to_obj(obj)), "--format", fmt], obj)
        for _, _, argv in MALFORMED:
            ops.append({"cmd": "malformed", "argv": argv, "ref": None})
        return ops

    def _write_inputs(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        for name, data in self.files.items():
            if data is None:
                (self.dir / name).mkdir()
            else:
                (self.dir / name).write_bytes(data)

    def _child(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            argv, cwd=self.dir, env=self.env, capture_output=True, timeout=CHILD_TIMEOUT_S
        )

    # -- workload interface ------------------------------------------------

    def setup(self) -> None:
        self._write_inputs()
        self._child([sys.executable, "-m", "plmonoid", *WARM_UP])

    def run(self, key):
        return self.run_argv(self.ops[key]["argv"])

    def traced_pass(self, keys):
        summary = None
        outs = []
        spans = self.dir.parent / "cli-spans.json"
        t0 = perf_counter_ns()
        for key in keys:
            spans.unlink(missing_ok=True)
            p = self._child([sys.executable, str(self.launcher), str(spans), *self.ops[key]["argv"]])
            outs.append((p.returncode, p.stdout, p.stderr))
            summary = merge(summary, json.loads(spans.read_text()))
        busy = perf_counter_ns() - t0
        return summary, outs, busy

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def probe(self) -> list[str]:
        """Names of the malformed inputs that break the exit-2 contract;
        run once, outside the timed window."""
        if self.violations is None:
            self.violations = [
                name or argv[-1]
                for name, _, argv in MALFORMED + KNOWN_CRASHES
                if self._malformed_error(self.run_argv(argv))
            ]
        return self.violations

    def run_argv(self, argv):
        p = self._child([sys.executable, "-m", "plmonoid", *argv])
        return p.returncode, p.stdout, p.stderr

    def notes(self) -> list[str]:
        bad = self.probe()
        return [
            f"malformed-input probe: {len(bad)} of {len(MALFORMED) + len(KNOWN_CRASHES)} inputs "
            f"break the exit-2 contract: {', '.join(bad) or 'none'}"
        ]

    def extra_layer_metrics(self, keys, lat) -> dict:
        """Import cost, the malformed-input probe and the median wall
        time per command, from the untraced passes' latencies."""
        walls: dict[str, list[int]] = {}
        for key, ns in zip(keys, lat):
            cmd = self.ops[key]["cmd"]
            if cmd != "malformed":
                walls.setdefault(cmd, []).append(ns)

        def median_ms(code: str) -> float:
            runs = []
            for _ in range(IMPORT_REPS):
                t0 = perf_counter_ns()
                self._child([sys.executable, "-c", code])
                runs.append(perf_counter_ns() - t0)
            return statistics.median(runs) / 1e6

        out = {
            "explorer.cli.import_ms": (median_ms("import plmonoid.explorer") - median_ms("pass"), "ms", IMPORT_REPS),
            "explorer.cli.malformed_exit_violations": (len(self.probe()), "count", len(MALFORMED) + len(KNOWN_CRASHES)),
        }
        for cmd in CLI_COMMANDS:
            out[f"explorer.cli.{cmd}.wall_ms"] = (statistics.median(walls[cmd]) / 1e6, "ms", len(walls[cmd]))
        return out

    # -- output gate -------------------------------------------------------

    def check(self, key, out) -> str | None:
        code, stdout, stderr = out
        op = self.ops[key]
        if op["cmd"] == "malformed":
            return self._malformed_error(out)
        if code != 0 or stderr:
            return f"exit {code}: {stderr.decode(errors='replace').strip()[-200:]}"
        if self.golden is not None and op["cmd"] != "dist" and digest(stdout) != self.golden[key]:
            return "stdout differs from the golden corpus"
        return getattr(self, f"check_{op['cmd']}")(op, stdout)

    @staticmethod
    def _malformed_error(out) -> str | None:
        code, stdout, stderr = out
        lines = stderr.decode(errors="replace").splitlines()
        if code != 2 or stdout or len(lines) != 1 or not lines[0].startswith("error: "):
            return f"exit {code} with {len(lines)} stderr lines, expected exit 2 and one 'error:' line"
        return None

    def check_dist(self, op, stdout):
        a, b = op["ref"]
        obj = json.loads(stdout)
        lo, hi = ser.parse_frac(obj["lo"]), ser.parse_frac(obj["hi"])
        if hi - lo > DIST_TOL:
            return "bracket wider than tol"
        if not pm.quot_decision(a, b, hi):
            return "decision False at hi"
        if lo != 0 and pm.quot_decision(a, b, lo):
            return "decision True at a nonzero lo"
        if hi > ser.parse_frac(obj["canonical_bound"]):
            return "hi above the canonical bound"
        if ("oracle_upper" in obj) != ("--grid" in op["argv"]):
            return "oracle_upper present without --grid or missing with it"
        if "oracle_upper" in obj and lo > ser.parse_frac(obj["oracle_upper"]):
            return "lo above the oracle"
        return None

    def check_canon(self, op, stdout):
        obj = json.loads(stdout)
        ct = ser.canonical_from_obj(obj["canonical"])
        m = ser.mono_from_obj(obj["mean"])
        if any(pm.compose(c, m) != f for c, f in zip(ct, op["ref"])) or len(ct) != len(op["ref"]):
            return "compose(ct[i], mean) != t[i]"
        return None

    def check_sample(self, op, stdout):
        n, seed = op["ref"]
        rng = random.Random(seed)
        expected = [ser.canonical_to_obj(explorer.random_point(rng, n)) for _ in range(20)]
        return None if stdout.decode() == ser.dumps(expected) else "samples differ from the seeded sampler"

    def check_epsnet(self, op, stdout):
        obj = json.loads(stdout)
        expected = {
            "n": 2, "net": EPSNET_NET, "size": explorer.net_size(2, EPSNET_NET),
            "covering_checked": 20, "covering_radius": ser.frac_str(Fraction(2, EPSNET_NET)),
        }
        return None if obj == expected else f"unexpected epsnet report {obj}"

    def check_witness(self, op, stdout):
        g = op["ref"]
        obj = json.loads(stdout)
        w = ser.mono_from_obj(obj["witness"])
        lifted = g if any(y > x for x, y in g.breakpoints) else pm.inverse(g)
        if obj["distance"] != "1" or pm.sup_dist(pm.compose(w, pm.inverse(lifted)), w) != 1:
            return "witness does not realize distance 1"
        return None

    def check_gaps(self, op, stdout):
        obj = json.loads(stdout)
        merged = pm.merge_gaps(op["ref"])
        if ser.gapset_from_obj(obj) != merged:
            return "merged gap set differs"
        bad = pm.isolated_points(merged)
        if obj["isolated_points"] != [ser.frac_str(x) for x in bad]:
            return "isolated points differ"
        if bad:
            return None if obj["witnesses"] is None and obj["collapse"] is None else "witnesses despite isolated points"
        if obj["witnesses"] != [ser.mono_to_obj(f) for f in pm.extreme_pair_all(merged)]:
            return "extreme pair differs"
        if obj["collapse"] is not None:
            chi = ser.mono_from_obj(obj["collapse"])
            if any(chi(a) != chi(b) for a, b in merged.gaps):
                return "collapse map not constant on a gap"
        return None

    def check_plot(self, op, stdout):
        obj = op["ref"]
        text = stdout.decode()
        if "svg" in op["argv"]:
            ok = text.startswith("<svg ") and text.endswith("</svg>\n")
            return None if ok else "not an svg document"
        rows = [line.split(",") for line in text.splitlines()[1:]]
        got = [(Fraction(r[-2]), Fraction(r[-1])) for r in rows]
        return None if got == list(obj.breakpoints) else "csv rows differ from the breakpoints"
