"""Fuzzing the command line at its boundary: random JSON trees, wire
objects (some with 100- or 2,200-digit coprime denominators) and byte
blobs go through main() to every subcommand that reads a file.

Whatever the input, a run exits 0 (with no stderr) or 2 (with empty
stdout and one short "error:" line); nothing raises out of main() and
no input is an invariant violation.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, example, given, settings, strategies as st

from plmonoid import serialize as ser
from plmonoid.explorer import main

from conftest import COPRIME_DENS, coprime_dens, coprime_map

UNIT = st.fractions(min_value=0, max_value=1, max_denominator=8)
INTERIOR = UNIT.filter(lambda x: 0 < x < 1)
RATIONAL = st.one_of(
    UNIT.map(str),
    st.integers(-2, 3).map(str),
    st.text(max_size=6),
    st.integers(),
    st.floats(allow_nan=False),
    st.none(),
)
# point lists that get past the wire format: monotone ones from (0, 0)
# to (1, 1), and [lo, hi] pairs with lo <= hi
MONOTONE = st.builds(
    lambda xs, ys: [["0", "0"], *([str(x), str(y)] for x, y in zip(sorted(xs), sorted(ys))), ["1", "1"]],
    st.lists(INTERIOR, max_size=4, unique=True),
    st.lists(UNIT, max_size=4),
)
PAIRS = st.lists(st.tuples(UNIT, UNIT).map(lambda p: [str(min(p)), str(max(p))]), max_size=4)
POINTS = st.one_of(st.lists(st.lists(RATIONAL, max_size=3), max_size=5), MONOTONE, PAIRS)
MAP = st.one_of(
    st.fixed_dictionaries({"breakpoints": st.one_of(MONOTONE, POINTS)}),
    # 100-digit pairwise coprime denominators, with few enough points that
    # dist stays fast
    st.builds(
        lambda seed, d: ser.mono_to_obj(coprime_map(random.Random(seed), d, 3)),
        st.integers(0, 2**16),
        st.sampled_from(COPRIME_DENS),
    ),
    # 2,200-digit ones, whose results can pass the int-to-str digit limit
    # (4,300), with at most two interior points
    st.builds(
        lambda seed, d: ser.mono_to_obj(coprime_map(random.Random(seed), d, 2)),
        st.integers(0, 2**16),
        st.sampled_from(coprime_dens(2200)),
    ),
)
TUPLE = st.fixed_dictionaries(
    {"components": st.lists(MAP, min_size=1, max_size=3)},
    optional={"weights": st.lists(RATIONAL, max_size=3), "canonical": st.booleans()},
)
OBJECT = st.one_of(
    MAP,
    TUPLE,
    st.fixed_dictionaries({"coord": POINTS}),
    st.fixed_dictionaries({"gaps": POINTS}),
)
KEYS = st.one_of(st.sampled_from(["breakpoints", "components", "weights", "canonical", "coord", "gaps"]), st.text(max_size=4))
TREE = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=8), POINTS),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(KEYS, inner, max_size=4)),
    max_leaves=12,
)
BLOB = st.one_of(
    st.binary(max_size=64),
    TREE.map(lambda obj: json.dumps(obj).encode()),
    OBJECT.map(lambda obj: json.dumps(obj).encode()),
    TUPLE.map(lambda obj: json.dumps(obj).encode()),
)
COMMANDS = [["canon"], ["plot"], ["plot", "--format", "csv"], ["witness"], ["gaps"], ["dist"]]
# past the parser's recursion limit, and past the int digit limit (4300)
DEEP = b"[" * 100_000 + b"]" * 100_000
LONG_INT = b'{"components": ' + b"7" * 5000 + b"}"


@example(command=["canon"], first=DEEP, second=b"")
@example(command=["canon"], first=LONG_INT, second=b"")
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(COMMANDS), first=BLOB, second=BLOB)
def test_cli_exits_0_or_2_on_any_input(tmp_path, monkeypatch, command, first, second):
    # relative names keep every echoed path short
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.json").write_bytes(first)
    (tmp_path / "b.json").write_bytes(second)
    files = ["a.json", "b.json"] if command == ["dist"] else ["a.json"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command[0], *files, *command[1:]])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2), err
    if code == 0:
        assert out and err == ""
    else:
        assert out == ""
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
        assert len(err.encode()) <= 200, err
