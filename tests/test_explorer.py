"""Samplers, epsilon nets, rendering and the command-line interface."""

import errno
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction as F
from itertools import product
from math import comb
from pathlib import Path

import pytest

from plmonoid import (
    CanonicalTuple,
    MonoTuple,
    PLHomeo,
    PLMono,
    compose,
    identity,
    mean,
    sup_dist,
)
from plmonoid import explorer
from plmonoid import serialize as ser
from plmonoid.explorer import (
    _net_moves,
    _net_steps,
    main,
    nearest_net_point,
    net_points,
    net_size,
    random_homeo,
    random_mono,
    random_point,
    random_tuple,
    render_csv,
    render_svg,
)
from plmonoid.gaps import extreme_pair


def run_cli(argv, stdin=None):
    buf = io.StringIO()
    old_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(buf):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, buf.getvalue()


# --- samplers


def test_sampler_determinism():
    a = [random_mono(random.Random(99)) for _ in range(5)]
    b = [random_mono(random.Random(99)) for _ in range(5)]
    assert a == b


def test_random_point_is_canonical():
    rng = random.Random(7)
    for n in (1, 2, 3, 5):
        p = random_point(rng, n)
        assert isinstance(p, CanonicalTuple)
        assert mean(p.as_tuple()) == identity()


def test_random_point_single_is_identity():
    assert random_point(random.Random(0), 1).components == (identity(),)


def test_random_homeo_strict():
    rng = random.Random(8)
    for _ in range(10):
        g = random_homeo(rng)
        assert isinstance(g, PLHomeo)
        assert g != identity()


def test_random_tuple_plateau_mix():
    rng = random.Random(12)
    flat = 0
    for _ in range(40):
        f = random_mono(rng)
        ys = [y for _, y in f.breakpoints]
        if any(y0 == y1 for y0, y1 in zip(ys, ys[1:])):
            flat += 1
    assert flat > 5  # plateaus do occur


# --- epsilon nets


def test_net_sizes_small():
    assert net_size(2, 1) == 1
    assert net_size(2, 2) == 3
    assert net_size(2, 4) == 19
    assert net_size(1, 10) == 1


def test_net_size_counts_contingency_tables():
    # net points are the m x n nonnegative int tables with every row
    # summing to n (the increments of one step) and every column to m
    # (each component ends at 1); transposing one gives net_size(m, n)
    def compositions(total, parts):
        return [c for c in product(range(total + 1), repeat=parts) if sum(c) == total]

    for n, m in product(range(1, 5), repeat=2):
        assert net_size(n, m) == net_size(m, n)
        if n <= 3 and m <= 3:
            tables = product(compositions(n, n), repeat=m)
            assert net_size(n, m) == sum(all(sum(col) == m for col in zip(*rows)) for rows in tables)
    assert net_size(3, 4) == net_size(4, 3) == 415


def test_net_steps_are_lexicographic_and_counted():
    # every increment choice of the first n-1 components with sum at most
    # n, ascending; comb(2n-1, n-1) is the moves-per-state factor of the
    # epsnet work limit
    for n in range(2, 7):
        steps = _net_steps(n)
        assert list(steps) == [s for s in product(range(n + 1), repeat=n - 1) if sum(s) <= n]
        assert len(steps) == comb(2 * n - 1, n - 1)


def test_net_sizes_strictly_increase():
    sizes = [net_size(2, m) for m in (2, 4, 8, 16)]
    assert sizes == sorted(sizes) and len(set(sizes)) == 4


def test_net_points_match_size():
    for n, m in ((2, 2), (2, 4), (3, 2)):
        pts = list(net_points(n, m))
        assert len(pts) == net_size(n, m)
        assert len(set(pts)) == len(pts)
        for p in pts:
            assert mean(p.as_tuple()) == identity()


def test_net_points_single_component():
    assert [p.components for p in net_points(1, 5)] == [(identity(),)]


def test_nearest_net_point_covering_smoke():
    rng = random.Random(3)
    for m in (2, 4, 8):
        for _ in range(10):
            p = random_point(rng, 2)
            q = nearest_net_point(p, m)
            d = max(sup_dist(a, b) for a, b in zip(p.components, q.components))
            assert d <= F(2, m)


def test_nearest_net_point_three_components():
    rng = random.Random(4)
    p = random_point(rng, 3)
    q = nearest_net_point(p, 4)
    assert mean(q.as_tuple()) == identity()
    d = max(sup_dist(a, b) for a, b in zip(p.components, q.components))
    assert d <= F(2, 4)


def fraction_net_states(point, m):
    """Reference net DP with Fraction deviations: the net path's states."""
    n = len(point)
    node_vals = [[f(F(j, m)) for j in range(m + 1)] for f in point.components]

    def dev(j, state):
        vals = [*state, n * j - sum(state)]
        return max(abs(F(v, m) - node_vals[i][j]) for i, v in enumerate(vals))

    layers = [{(0,) * (n - 1): (dev(0, (0,) * (n - 1)), None)}]
    for j in range(1, m + 1):
        new = {}
        for state, (cost, _) in layers[-1].items():
            for nxt, _ in _net_moves(n, m, j, state):
                c = max(cost, dev(j, nxt))
                if nxt not in new or c < new[nxt][0]:
                    new[nxt] = (c, state)
        layers.append(new)
    states = [(m,) * (n - 1)]
    for j in range(m, 0, -1):
        states.append(layers[j][states[-1]][1])
    return states[::-1]


def test_nearest_net_point_matches_fraction_reference():
    # Int deviations over one positive scale keep the argmin and its ties.
    rng = random.Random(9)
    for n in (2, 3, 4):
        for m in range(1, 9 if n < 4 else 5):
            for _ in range(3):
                p = random_point(rng, n)
                states = fraction_net_states(p, m)
                rows = [[*s, n * j - sum(s)] for j, s in enumerate(states)]
                expected = tuple(PLMono(tuple((F(j, m), F(row[i], m)) for j, row in enumerate(rows))) for i in range(n))
                assert nearest_net_point(p, m).components == expected


# --- rendering


def test_svg_contains_extreme_pair_vertices():
    lo, _ = extreme_pair((F(1, 4), F(3, 4)))
    svg = render_svg(lo)
    # pixel coordinates of (1/4,1/4), (1/2,1/4), (3/4,3/4) on a 512 canvas
    assert "152,408" in svg and "280,408" in svg and "408,152" in svg
    assert svg == render_svg(lo)


def test_svg_kinds():
    rng = random.Random(5)
    t = random_tuple(rng, 2)
    assert "<svg" in render_svg(t)
    from plmonoid import canonicalize, merge_gaps, roelcke_coord

    ct, _ = canonicalize(t)
    assert "<svg" in render_svg(roelcke_coord(ct))
    assert "<rect" in render_svg(merge_gaps([(F(1, 4), F(1, 2))]))


def test_csv_exact_strings():
    lo, _ = extreme_pair((F(1, 4), F(3, 4)))
    out = render_csv(lo)
    assert out.splitlines()[0] == "component,x,y"
    assert "0,1/2,1/4" in out.splitlines()


# --- CLI


def test_cli_sample_deterministic_bytes():
    args = ["sample", "--n", "3", "--count", "4", "--seed", "123"]
    c1, out1 = run_cli(args)
    c2, out2 = run_cli(args)
    assert c1 == c2 == 0 and out1 == out2
    for obj in ser.loads(out1):
        ct = ser.canonical_from_obj(obj)
        assert mean(ct.as_tuple()) == identity()


def test_cli_canon_reparameterization_same_bytes():
    rng = random.Random(14)
    t = random_tuple(rng, 2)
    g = random_homeo(rng)
    moved = MonoTuple(tuple(compose(f, g) for f in t))
    _, out1 = run_cli(["canon", "-"], stdin=ser.dumps(ser.tuple_to_obj(t)))
    _, out2 = run_cli(["canon", "-"], stdin=ser.dumps(ser.tuple_to_obj(moved)))
    canon1 = ser.loads(out1)["canonical"]
    canon2 = ser.loads(out2)["canonical"]
    assert ser.dumps(canon1) == ser.dumps(canon2)


def test_cli_canon_echoes_canonical_input():
    lo, hi = extreme_pair((F(1, 4), F(3, 4)))
    code, out = run_cli(["canon", "-"], stdin=ser.dumps(ser.tuple_to_obj(MonoTuple((lo, hi)))))
    assert code == 0
    obj = ser.loads(out)
    assert obj["mean"] == ser.mono_to_obj(identity())
    got = ser.canonical_from_obj(obj["canonical"])
    assert got.components == (lo, hi)


def test_cli_dist_worked(tmp_path):
    lo, hi = extreme_pair((F(1, 4), F(3, 4)))
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(ser.dumps(ser.tuple_to_obj(MonoTuple((lo, hi)))))
    b.write_text(ser.dumps(ser.tuple_to_obj(MonoTuple((identity(), identity())))))
    code, out = run_cli(["dist", str(a), str(b), "--tol", "1/64"])
    assert code == 0
    obj = ser.loads(out)
    assert ser.parse_frac(obj["lo"]) <= F(1, 4) <= ser.parse_frac(obj["hi"])
    assert obj["canonical_bound"] == "1/4"
    assert obj["decisions"] > 0



def test_cli_dist_canonicalizes_each_input_once(tmp_path, monkeypatch):
    from plmonoid import explorer, quotdist, typespace

    rng = random.Random(7_2024)
    for _ in range(60):
        n = rng.choice((1, 2, 3))
        ta, tb = random_tuple(rng, n), random_tuple(rng, n)
        ca, cb = typespace.canonicalize(ta)[0], typespace.canonicalize(tb)[0]
        assert quotdist.quot_dist(ca, cb, F(1, 64)) == quotdist.quot_dist(ta, tb, F(1, 64))
    calls = []
    real = typespace.canonicalize

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (explorer, quotdist, typespace):
        monkeypatch.setattr(module, "canonicalize", counting)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(ser.dumps(ser.tuple_to_obj(ta)))
    b.write_text(ser.dumps(ser.tuple_to_obj(tb)))
    code, out = run_cli(["dist", str(a), str(b), "--grid", "8"])
    assert code == 0 and len(calls) == 2
    assert ser.parse_frac(ser.loads(out)["hi"]) == quotdist.quot_dist(ta, tb, F(1, 64)).hi

def test_cli_dist_length_mismatch(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(ser.dumps(ser.tuple_to_obj(MonoTuple((identity(),)))))
    b.write_text(ser.dumps(ser.tuple_to_obj(MonoTuple((identity(), identity())))))
    code, _ = run_cli(["dist", str(a), str(b)])
    assert code == 2


def test_cli_epsnet():
    code, out = run_cli(["epsnet", "--n", "2", "--net", "2", "--points"])
    assert code == 0
    obj = ser.loads(out)
    assert obj["size"] == 3 and len(obj["points"]) == 3
    code, out = run_cli(["epsnet", "--n", "2", "--net", "16"])
    assert ser.loads(out)["size"] == net_size(2, 16)


def test_cli_epsnet_covering_check():
    code, out = run_cli(
        ["epsnet", "--n", "2", "--net", "4", "--check", "10", "--seed", "7"]
    )
    assert code == 0
    obj = ser.loads(out)
    assert obj["covering_checked"] == 10
    assert obj["covering_radius"] == "1/2"


def test_build_net_container():
    from plmonoid.explorer import build_net

    net = build_net(2, 2)
    assert net.n == 2 and net.resolution == 2
    assert len(net.points) == 3


def test_cli_witness_and_identity_error():
    g = PLHomeo(((0, 0), (F(1, 2), F(3, 4)), (1, 1)))
    code, out = run_cli(["witness", "-"], stdin=ser.dumps(ser.mono_to_obj(g)))
    assert code == 0
    obj = ser.loads(out)
    assert obj["distance"] == "1"
    assert ser.mono_from_obj(obj["witness"]) == PLMono(
        ((0, 0), (F(1, 2), 0), (F(3, 4), 1), (1, 1))
    )
    code, _ = run_cli(["witness", "-"], stdin=ser.dumps(ser.mono_to_obj(identity())))
    assert code == 2


def test_cli_plot_outputs(tmp_path):
    lo, _ = extreme_pair((F(1, 4), F(3, 4)))
    code, svg = run_cli(["plot", "-", "--format", "svg"], stdin=ser.dumps(ser.mono_to_obj(lo)))
    assert code == 0 and svg.startswith("<svg")
    code, csv = run_cli(["plot", "-", "--format", "csv"], stdin=ser.dumps(ser.mono_to_obj(lo)))
    assert code == 0 and csv.startswith("component,x,y")
    out = tmp_path / "plot.svg"
    code, _ = run_cli(["plot", "-", "--out", str(out)], stdin=ser.dumps(ser.mono_to_obj(lo)))
    assert code == 0 and out.read_text() == svg


def test_cli_plot_unknown_kind():
    code, _ = run_cli(["plot", "-"], stdin='{"mystery":1}')
    assert code == 2


def test_cli_malformed_json():
    code, _ = run_cli(["canon", "-"], stdin="{oops")
    assert code == 2


def test_cli_missing_file():
    code, _ = run_cli(["canon", "/nonexistent/path.json"])
    assert code == 2


DEEP_JSON = b"[" * 200_000 + b"]" * 200_000


@pytest.mark.parametrize(
    "command, data",
    [
        ("gaps", b'{"gaps": [["1/4"]]}\n'),
        ("gaps", b'{"gaps": 5}\n'),
        ("canon", None),
        ("canon", b'\xff\xfe{"components": []}\n'),
        ("canon", DEEP_JSON),
        ("gaps", DEEP_JSON),
        ("plot", DEEP_JSON),
        ("witness", DEEP_JSON),
        # json.loads raises a plain ValueError, not a JSONDecodeError, on an
        # int literal beyond sys.get_int_max_str_digits() (4300 by default)
        ("canon", b'{"components": ' + b"7" * 5000 + b"}"),
    ],
    ids=["gap-arity", "gaps-not-a-list", "directory", "non-utf8",
         "deep-canon", "deep-gaps", "deep-plot", "deep-witness", "int-beyond-digit-limit"],
)
def test_cli_bad_input_exits_2_with_one_error_line(tmp_path, capsys, command, data):
    path = tmp_path / "input"
    if data is None:
        path.mkdir()
    else:
        path.write_bytes(data)
    code = main([command, str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("target", ["directory", "missing-file"])
def test_cli_long_input_path_error_is_one_short_line(tmp_path, capsys, target):
    long_dir = tmp_path / ("d" * 200)
    long_dir.mkdir()
    path = long_dir if target == "directory" else long_dir / "missing.json"
    code = main(["canon", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) <= 200


@pytest.mark.parametrize(
    "command, text, prefix",
    [
        ("canon", '{"components": [{"breakpoints": [["0", "0"], ["1/' + "9" * 5000 + '", "1"], ["1", "1"]]}]}',
         "error: bad rational"),
        ("canon", '{"components": [{"breakpoints": [["0", "0"], ["1/2", "1/2"], ["1/2", "1/' + "7" * 4000
         + '"], ["1", "1"]]}]}', "error: conflicting values 1/777"),
        ("gaps", '{"gaps": [["1/2", "1/' + "3" * 4000 + '"]]}',
         "error: not a nonempty open subinterval of [0, 1]: (1/2, 1/333"),
    ],
    ids=["bad-rational", "conflicting-values", "gaps-interval"],
)
def test_cli_long_rational_error_is_one_short_line(tmp_path, capsys, command, text, prefix):
    path = tmp_path / "long.json"
    path.write_text(text)
    code = main([command, str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith(prefix) and err.count("\n") == 1
    assert len(err.encode()) < 200

@pytest.mark.parametrize("deep_first", [True, False], ids=["deep-a", "deep-b"])
def test_cli_dist_deep_json_exits_2_with_one_error_line(tmp_path, capsys, deep_first):
    deep, pair = tmp_path / "deep.json", tmp_path / "pair.json"
    deep.write_bytes(DEEP_JSON)
    pair.write_text(ser.dumps(ser.tuple_to_obj(MonoTuple((identity(), identity())))))
    code = main(["dist", *map(str, (deep, pair) if deep_first else (pair, deep))])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--count", "-3"],
        ["dist", "{pair}", "{pair}", "--grid", "4097"],
        ["sample", "--count", "1001"],
        ["sample", "--n", "17"],
        ["epsnet", "--n", "7", "--net", "1"],
        ["epsnet", "--n", "1000000000"],
        ["epsnet", "--n", "3", "--net", "64"],
        ["epsnet", "--n", "2", "--net", "8", "--check", "1000"],
        ["epsnet", "--check", "-1"],
    ],
    ids=[
        "negative-count", "grid-above-4096", "count-above-1000", "sample-n-above-16",
        "epsnet-n-above-6", "epsnet-huge-n", "epsnet-net-over-work-limit",
        "epsnet-checks-over-work-limit", "epsnet-negative-check",
    ],
)
def test_cli_work_limits_exit_2_with_one_error_line(tmp_path, capsys, argv):
    pair = tmp_path / "pair.json"
    pair.write_text(ser.dumps(ser.tuple_to_obj(MonoTuple((identity(), identity())))))
    code = main([arg.format(pair=pair) for arg in argv])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_gaps_command():
    code, out = run_cli(
        ["gaps", "-"], stdin='{"gaps":[["1/10","3/10"],["2/10","5/10"]]}'
    )
    assert code == 0
    obj = ser.loads(out)
    assert obj["gaps"] == [["1/10", "1/2"]]
    assert obj["isolated_points"] == []
    assert obj["collapse"]["breakpoints"][0] == ["0", "0"]
    lo = ser.mono_from_obj(obj["witnesses"][0])
    hi = ser.mono_from_obj(obj["witnesses"][1])
    assert lo(F(3, 10)) == F(1, 10) and hi(F(3, 10)) == F(1, 2)


def test_cli_gaps_flags_isolated_points():
    code, out = run_cli(
        ["gaps", "-"], stdin='{"gaps":[["1/4","1/2"],["1/2","3/4"]]}'
    )
    assert code == 0
    obj = ser.loads(out)
    assert obj["isolated_points"] == ["1/2"]
    assert obj["collapse"] is None and obj["witnesses"] is None


def test_cli_dist_grid_oracle(tmp_path):
    lo, hi = extreme_pair((F(1, 4), F(3, 4)))
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(ser.dumps(ser.tuple_to_obj(MonoTuple((lo, hi)))))
    b.write_text(ser.dumps(ser.tuple_to_obj(MonoTuple((identity(), identity())))))
    code, out = run_cli(["dist", str(a), str(b), "--tol", "1/64", "--grid", "64"])
    assert code == 0
    obj = ser.loads(out)
    upper = ser.parse_frac(obj["oracle_upper"])
    assert ser.parse_frac(obj["lo"]) <= upper <= ser.parse_frac(obj["hi"]) + F(4, 64)


def test_cli_invariant_violation_exit_code(monkeypatch):
    from plmonoid import InvariantViolation
    from plmonoid import explorer

    def boom(args):
        raise InvariantViolation("synthetic failure")

    monkeypatch.setitem(explorer._build_parser.__globals__, "_cmd_epsnet", boom)
    code, _ = run_cli(["epsnet", "--n", "2", "--net", "2"])
    assert code == 3


def test_nearest_net_point_single_component_is_identity():
    # n = 1 runs the general net DP: its one state is the empty tuple
    point = random_point(random.Random(0), 1)
    for m in (1, 2, 5):
        assert nearest_net_point(point, m).components == (identity(),)


def test_single_component_net_runs_one_layer(monkeypatch):
    # at n = 1 the net is the identity alone at every m; a DP over m layers
    # would cost O(m) here and nest m generators in net_points
    calls = []
    monkeypatch.setattr(explorer, "_net_moves", lambda *a: calls.append(a) or _net_moves(*a))
    point = random_point(random.Random(0), 1)
    assert net_size(1, 10**6) == 1
    assert [p.components for p in net_points(1, 10**6)] == [(identity(),)]
    assert nearest_net_point(point, 10**6).components == (identity(),)
    assert len(calls) <= 3


def test_cli_single_component_epsnet_points():
    code, out = run_cli(["epsnet", "--n", "1", "--net", "2000", "--points"])
    assert code == 0
    assert json.loads(out)["points"] == [ser.canonical_to_obj(CanonicalTuple((identity(),), (F(1),)))]


def test_cli_plot_decodes_canonical_objects_as_canon_does(tmp_path, capsys):
    path = tmp_path / "empty-weights.json"
    path.write_text(ser.dumps({"components": [ser.mono_to_obj(identity())], "weights": [], "canonical": True}))
    errors = []
    for command in ("canon", "plot"):
        code = main([command, str(path)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        errors.append(err)
    assert errors[0] == errors[1] == "error: weight/length mismatch: 0 weights for 1 components\n"


OUT_ARGV = {
    "canon": ["canon", "{pair}"],
    "dist": ["dist", "{pair}", "{pair}"],
    "epsnet": ["epsnet", "--n", "2", "--net", "2"],
    "sample": ["sample"],
    "plot": ["plot", "{pair}"],
    "witness": ["witness", "{homeo}"],
    "gaps": ["gaps", "{gaps}"],
}


@pytest.mark.parametrize("target", ["directory", "missing-directory"])
@pytest.mark.parametrize("command", sorted(OUT_ARGV))
def test_cli_unwritable_out_exits_2_with_one_error_line(tmp_path, capsys, command, target):
    files = {
        "pair": ser.tuple_to_obj(MonoTuple((identity(), identity()))),
        "homeo": ser.mono_to_obj(PLHomeo(((0, 0), (F(1, 2), F(3, 4)), (1, 1)))),
        "gaps": {"gaps": [["1/4", "1/2"]]},
    }
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(ser.dumps(obj))
    argv = [arg.format(**{name: tmp_path / f"{name}.json" for name in files}) for arg in OUT_ARGV[command]]
    out_path = tmp_path if target == "directory" else tmp_path / "missing" / "out.txt"
    code = main([*argv, "--out", str(out_path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write ") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_cli_unwritable_stdout_exits_2_with_one_error_line(monkeypatch, capsys):
    class FullStdout(io.StringIO):
        def flush(self):
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(sys, "stdout", FullStdout())
    code = main(["sample"])
    _, err = capsys.readouterr()
    assert code == 2 and err == "error: cannot write -: No space left on device\n"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("count", ["1", "1000"])
def test_cli_full_stdout_in_a_process_exits_2_with_one_error_line(count):
    # block-buffered stdout: the interpreter flushes it again at exit, which
    # must not fail a second time; 1000 samples overflow the buffer in write()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(explorer.__file__).parents[1])
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "plmonoid", "sample", "--count", count],
                              stdout=full, stderr=subprocess.PIPE, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == b"error: cannot write -: No space left on device\n"
