"""Samplers, epsilon nets, rendering and the command-line interface."""

import errno
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction as F
from functools import cache
from itertools import product
from math import comb
from operator import add
from pathlib import Path

import pytest

from plmonoid import (
    CanonicalTuple,
    InputError,
    MonoTuple,
    PLHomeo,
    PLMono,
    RoelckeCoord,
    compose,
    identity,
    mean,
    merge_gaps,
    sup_dist,
)
from plmonoid import explorer, quotdist
from plmonoid import serialize as ser
from plmonoid.explorer import (
    _net_moves,
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


@cache
def net_rises(n):
    """Every rise of the first n-1 values with sum at most n, ascending."""
    return [rise for rise in product(range(n + 1), repeat=n - 1) if sum(rise) <= n]


def defined_net_moves(n, m, j, state):
    """The net moves by their definition: the rises in ascending
    lexicographic order, kept when the first n-1 values and the last one,
    n*j less their sum, stay within m."""
    nexts = (tuple(map(add, state, rise)) for rise in net_rises(n))
    return [nxt for nxt in nexts if max(nxt, default=0) <= m and n * j - sum(nxt) <= m]


def test_net_moves_match_their_definition():
    # _net_moves reads each value off an index range; it yields exactly the
    # kept rises, in order, from every state in the box at every node.
    # comb(2n-1, n-1) rises have sum at most n: that bounds the moves per
    # state, the factor of the epsnet work limit, and the origin meets it
    for n in range(1, 6):
        for m in range(1, 7):
            most = 0
            for state in product(range(m + 1), repeat=n - 1):
                # at node 0 the last value's bound never binds, so node j
                # keeps those moves whose sum is at least n*j - m
                within = [(nxt, sum(nxt)) for nxt in defined_net_moves(n, m, 0, state)]
                for j in range(1, m + 1):
                    moves = list(_net_moves(n, m, j, state))
                    assert moves == [nxt for nxt, total in within if total >= n * j - m], (n, m, j, state)
                    most = max(most, len(moves))
            assert most <= comb(2 * n - 1, n - 1)
        assert most == comb(2 * n - 1, n - 1)
    origin = list(_net_moves(6, 6, 1, (0,) * 5))
    assert origin == defined_net_moves(6, 6, 1, (0,) * 5)
    assert len(origin) == comb(11, 5)


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


def test_first_net_point_at_a_deep_resolution():
    # net_points walks its layers on an explicit stack, not one nested
    # generator per layer, so m far beyond the recursion limit works; the
    # lexicographically first path keeps the first component at 0 as long
    # as the last one can still end at 1
    first = next(net_points(2, 1200))
    assert first.components == (
        PLMono(((F(0), F(0)), (F(1, 2), F(0)), (F(1), F(1)))),
        PLMono(((F(0), F(0)), (F(1, 2), F(1)), (F(1), F(1)))),
    )


def test_net_arguments_must_be_ints_of_at_least_1():
    # one check for the three net functions, before any work: a bool, a
    # float, a string, a Fraction or None is not a resolution
    p = random_point(random.Random(0), 2)
    calls = {
        "net_size": lambda n, m: net_size(n, m),
        "net_points": lambda n, m: next(net_points(n, m)),
        "nearest_net_point": lambda n, m: nearest_net_point(p, m),
    }
    for name, call in calls.items():
        for bad in (2.5, "3", True, F(4), None, 0, -1):
            with pytest.raises(InputError, match="m must be an int of at least 1"):
                call(2, bad)
            if name != "nearest_net_point":  # its n is the point's length
                with pytest.raises(InputError, match="n must be an int of at least 1"):
                    call(bad, 2)


def test_sampler_counts_must_be_ints_of_at_least_1():
    # as for the net functions: a bool, a float, a string, a Fraction or
    # None is not a component count
    rng = random.Random(0)
    for bad in (2.5, "3", True, F(4), None, 0, -1):
        with pytest.raises(InputError, match="n must be an int of at least 1"):
            random_tuple(rng, bad)
        with pytest.raises(InputError, match="need at least one component: n must be an int"):
            random_point(rng, bad)


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


def test_nearest_net_point_takes_a_sequence_of_maps():
    # a plain list of maps is taken as a tuple, as quot_dist takes it;
    # anything in it that is not a map is an input error
    p = random_point(random.Random(4), 2)
    assert nearest_net_point(list(p.components), 4) == nearest_net_point(p, 4)
    with pytest.raises(InputError, match="not a monotone map"):
        nearest_net_point([p.components[0], "1/2"], 4)


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
            for nxt in defined_net_moves(n, m, j, state):
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


PLOT_OBJECTS = {
    "map": PLMono(((F(0), F(0)), (F(1, 3), F(1, 4)), (F(2, 3), F(2, 3)), (F(1), F(1)))),
    "tuple": MonoTuple((
        PLMono(((F(0), F(0)), (F(1, 5), F(3, 5)), (F(1), F(1)))),
        PLMono(((F(0), F(0)), (F(1, 2), F(0)), (F(3, 4), F(7, 8)), (F(1), F(1)))),
        identity(),
    )),
    "coord": RoelckeCoord(((F(0), F(0)), (F(1, 4), F(1, 4)), (F(5, 8), F(-1, 8)), (F(1), F(0)))),
    # two gaps sharing the endpoint 1/4
    "gapset": merge_gaps([(F(1, 8), F(1, 4)), (F(1, 4), F(3, 7)), (F(2, 3), F(5, 6))]),
}


@pytest.mark.parametrize(
    "kind, svg_sha256, csv",
    [
        (
            "map",
            "c2396c75f1edb878bbfeb7f08a6f9ac1a82c022d440a614bd3b11b25764c90c9",
            "component,x,y\n0,0,0\n0,1/3,1/4\n0,2/3,2/3\n0,1,1\n",
        ),
        (
            "tuple",
            "71e93324819d8f4068878af8713bf6d9fcac3fb9e60eb83febcb541683fa7c1c",
            "component,x,y\n0,0,0\n0,1/5,3/5\n0,1,1\n1,0,0\n1,1/2,0\n1,3/4,7/8\n1,1,1\n2,0,0\n2,1,1\n",
        ),
        (
            "coord",
            "374650b55c550cf406e5758e76c7dbc15da6b72184934ceb422e3331383116cf",
            "x,y\n0,0\n1/4,1/4\n5/8,-1/8\n1,0\n",
        ),
        (
            "gapset",
            "e65d20d396bc91a7a6e53dcd59e907dbc8eaaa4f9ba4243d96389eff2df6e79a",
            "gap,lo,hi\n0,1/8,1/4\n1,1/4,3/7\n2,2/3,5/6\n",
        ),
    ],
)
def test_plot_bytes_are_pinned(kind, svg_sha256, csv):
    # The golden schedule covers only some kinds per format; this pins all
    # eight renderings, the SVG by digest and the CSV as text.
    obj = PLOT_OBJECTS[kind]
    assert hashlib.sha256(render_svg(obj).encode()).hexdigest() == svg_sha256
    assert render_csv(obj) == csv


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


def test_cli_plot_takes_gaps_in_any_order():
    outs = [run_cli(["plot", "-", "--format", fmt], stdin=text)
            for fmt in ("svg", "csv")
            for text in ('{"gaps": [["1/2","3/4"],["1/4","1/3"]]}', '{"gaps": [["1/4","1/3"],["1/2","3/4"]]}')]
    assert [code for code, _ in outs] == [0] * 4
    assert outs[0] == outs[1] and outs[2] == outs[3]


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


_BIG_1, _BIG_3 = 10**2200 + 1, 10**2200 + 3
_STR_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _kink_map(d: int) -> dict:
    return {"breakpoints": [["0", "0"], [f"1/{d}", "1/2"], ["1", "1"]]}


# Each input int has 2,201 digits, under the 4,300-digit limit on
# int-to-str conversion; the results need about twice as many.  Pythons
# without the limit (before 3.11 and 3.10.7) print them.
@pytest.mark.skipif(not 0 < _STR_DIGIT_LIMIT <= 4300, reason="needs the default int-to-str digit limit")
@pytest.mark.parametrize(
    "command, obj",
    [
        ("canon", {"components": [_kink_map(_BIG_1), _kink_map(_BIG_3)]}),
        ("gaps", {"gaps": [[f"1/{_BIG_3}", f"1/{_BIG_1}"]]}),
    ],
    ids=["canon", "gaps"],
)
def test_cli_result_beyond_the_digit_limit_exits_2(tmp_path, capsys, command, obj):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    assert len(path.read_bytes()) < 5000
    code = main([command, str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{_STR_DIGIT_LIMIT} digits" in err


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
        ["sample", "--n", "0", "--count", "0"],
        ["epsnet", "--n", "7", "--net", "1"],
        ["epsnet", "--n", "1000000000"],
        ["epsnet", "--n", "3", "--net", "64"],
        ["epsnet", "--n", "2", "--net", "8", "--check", "1000"],
        ["epsnet", "--check", "-1"],
    ],
    ids=[
        "negative-count", "grid-above-4096", "count-above-1000", "sample-n-above-16", "sample-n-zero",
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


def test_cli_negative_grid_exits_2_before_any_work(tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("work started on a negative --grid")

    pair = tmp_path / "pair.json"
    pair.write_text(ser.dumps(ser.tuple_to_obj(MonoTuple((identity(), identity())))))
    monkeypatch.setattr(quotdist, "_bracket", fail)
    monkeypatch.setattr(explorer, "_read_text", fail)
    code = main(["dist", str(pair), str(pair), "--grid", "-1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: --grid -1") and err.count("\n") == 1


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


def _tuple_json(*components):
    return json.dumps({"components": [{"breakpoints": [list(p) for p in c]} for c in components]},
                      separators=(",", ":"))


# Seeded draws: an n = 2 random_point pair (seed 3), an n = 3 random_tuple
# pair (seed 5) and an n = 5 random_point pair (seed 8).
DIST_PIN_PAIRS = {
    "n2": (
        _tuple_json([("0", "0"), ("1/4", "9/20"), ("1/2", "4/5"), ("3/4", "4/5"), ("1", "1")],
                    [("0", "0"), ("1/4", "1/20"), ("1/2", "1/5"), ("3/4", "7/10"), ("1", "1")]),
        _tuple_json([("0", "0"), ("1/5", "6/25"), ("2/5", "14/25"), ("3/5", "14/25"), ("4/5", "21/25"), ("1", "1")],
                    [("0", "0"), ("1/5", "4/25"), ("2/5", "6/25"), ("3/5", "16/25"), ("4/5", "19/25"), ("1", "1")]),
    ),
    "n3": (
        _tuple_json([("0", "0"), ("1/7", "1/28"), ("2/7", "5/14"), ("3/7", "13/28"), ("4/7", "5/7"), ("5/7", "3/4"),
                     ("6/7", "6/7"), ("1", "1")],
                    [("0", "0"), ("1/4", "3/8"), ("1/2", "5/8"), ("3/4", "5/8"), ("1", "1")],
                    [("0", "0"), ("1/5", "1/5"), ("2/5", "1"), ("1", "1")]),
        _tuple_json([("0", "0"), ("1/5", "3/10"), ("2/5", "4/5"), ("3/5", "9/10"), ("4/5", "9/10"), ("1", "1")],
                    [("0", "0"), ("1/4", "0"), ("1/2", "1/3"), ("3/4", "1/3"), ("1", "1")],
                    [("0", "0"), ("1/3", "1/3"), ("2/3", "1"), ("1", "1")]),
    ),
    "n5": (
        _tuple_json([("0", "0"), ("1/4", "49/88"), ("1/2", "57/88"), ("3/4", "61/88"), ("1", "1")],
                    [("0", "0"), ("1/4", "1/8"), ("1/2", "25/44"), ("3/4", "15/22"), ("1", "1")],
                    [("0", "0"), ("1/4", "1/44"), ("1/2", "3/8"), ("3/4", "1"), ("1", "1")],
                    [("0", "0"), ("1/4", "1/2"), ("1/2", "47/88"), ("3/4", "47/88"), ("1", "1")],
                    [("0", "0"), ("1/4", "1/22"), ("1/2", "3/8"), ("3/4", "37/44"), ("1", "1")]),
        _tuple_json([("0", "0"), ("1/4", "37/72"), ("3/4", "43/72"), ("1", "1")],
                    [("0", "0"), ("1/4", "0"), ("1/2", "43/72"), ("3/4", "8/9"), ("1", "1")],
                    [("0", "0"), ("1/4", "1/9"), ("1/2", "11/72"), ("3/4", "11/12"), ("1", "1")],
                    [("0", "0"), ("1/4", "35/72"), ("3/4", "35/72"), ("1", "1")],
                    [("0", "0"), ("1/4", "5/36"), ("1/2", "17/24"), ("3/4", "31/36"), ("1", "1")]),
    ),
}

# Recorded before the bisection skipped any free-space run.
DIST_PINS = {
    "n2-tol256": ("n2", ["--tol", "1/256"],
                  '{"canonical_bound":"6/25","decisions":8,"hi":"6/25","lo":"189/800"}\n'),
    "n2-grid16": ("n2", ["--grid", "16"],
                  '{"canonical_bound":"6/25","decisions":6,"hi":"6/25","lo":"9/40","oracle_upper":"6/25"}\n'),
    "n3-tol256": ("n3", ["--tol", "1/256"],
                  '{"canonical_bound":"603/1400","decisions":9,"hi":"70551/179200","lo":"17487/44800"}\n'),
    "n3-grid16": ("n3", ["--grid", "16"],
                  '{"canonical_bound":"603/1400","decisions":7,"hi":"1809/4480","lo":"17487/44800",'
                  '"oracle_upper":"49/120"}\n'),
    "n5-tol256": ("n5", ["--tol", "1/256"],
                  '{"canonical_bound":"1/3","decisions":9,"hi":"55/192","lo":"109/384"}\n'),
    "n5-grid16": ("n5", ["--grid", "16"],
                  '{"canonical_bound":"1/3","decisions":7,"hi":"7/24","lo":"9/32","oracle_upper":"1/3"}\n'),
}


@pytest.mark.parametrize("pair, flags, expected", DIST_PINS.values(), ids=DIST_PINS.keys())
def test_cli_dist_stdout_bytes_are_pinned(tmp_path, pair, flags, expected):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path, text in zip((a, b), DIST_PIN_PAIRS[pair]):
        path.write_text(text)
    assert run_cli(["dist", str(a), str(b), *flags]) == (0, expected)


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
    # would cost O(m) here, and net_points would walk m layers of moves
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
