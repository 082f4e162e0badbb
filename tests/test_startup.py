"""What a CLI process loads: quotdist and gaps only for the subcommands
that use them, and dataclasses never."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import plmonoid

SRC = str(Path(plmonoid.__file__).parents[1])
WATCHED = ("plmonoid.quotdist", "plmonoid.gaps", "dataclasses")
# ``python -m plmonoid ARG...`` that prints sys.modules to stderr on exit
CLI = (
    "import runpy, sys\n"
    "sys.argv[0] = 'plmonoid'\n"
    "try:\n"
    "    runpy.run_module('plmonoid', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    print(*sys.modules, file=sys.stderr)\n"
)
PAIR = '{"components": [{"breakpoints": [["0", "0"], ["1/2", "1/4"], ["1", "1"]]}]}'
MAP = '{"breakpoints": [["0", "0"], ["1", "1"]]}'
GAPS = '{"gaps": [["1/4", "1/2"]]}'


def _loaded(args, cwd) -> set[str]:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split()) & set(WATCHED)


@pytest.mark.parametrize("argv, loaded", [
    (["sample", "--count", "1"], set()),
    (["canon", "pair.json"], set()),
    (["plot", "map.json"], set()),
    (["dist", "pair.json", "pair.json"], {"plmonoid.quotdist"}),
    (["gaps", "gaps.json"], {"plmonoid.gaps"}),
    (["plot", "gaps.json", "--format", "csv"], {"plmonoid.gaps"}),
], ids=["sample", "canon", "plot-map", "dist", "gaps", "plot-gaps"])
def test_cli_loads_only_what_the_subcommand_uses(tmp_path, argv, loaded):
    for name, text in (("pair.json", PAIR), ("map.json", MAP), ("gaps.json", GAPS)):
        (tmp_path / name).write_text(text)
    assert _loaded(["-c", CLI, *argv], tmp_path) == loaded


def test_importing_serialize_or_explorer_loads_neither_layer(tmp_path):
    code = "import sys, plmonoid.serialize\nfrom plmonoid import explorer\nprint(*sys.modules, file=sys.stderr)\n"
    assert _loaded(["-c", code], tmp_path) == set()
