"""Record the stdout digests of the ``cli`` workload for the default seed.

    python3 perfbench/record_golden.py

Runs every op of the default-seed schedule once against ``src/``,
checks it with the workload's invariant gate, and writes
``perfbench/golden/cli-seed1.json``.  The digests are a record of the
commit they were taken at: re-record only when a change to the CLI's
output bytes is intended.
"""

import json
import sys

from run import DEFAULT_SEED, ROOT, WORK


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(exist_ok=True)
    from cliwork import GOLDEN, Cli, digest

    bench = Cli(ROOT, WORK, DEFAULT_SEED, golden=False)
    bench.setup()
    digests = []
    for key in bench.schedule:
        out = bench.run(key)
        err = bench.check(key, out)
        if err is not None:
            print(f"error: op {bench.ops[key]['argv']}: {err}", file=sys.stderr)
            return 1
        digests.append(digest(out[1]))
    lines = ",\n".join(json.dumps({"argv": op["argv"], "stdout_sha256": d}) for op, d in zip(bench.ops, digests))
    GOLDEN.write_text(f"[\n{lines}\n]\n")
    print(f"recorded {len(digests)} digests in {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
