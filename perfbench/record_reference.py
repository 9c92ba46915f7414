"""Rewrite ``reference.json``: the sha256 of the canonical ``--json`` stdout of
every operation on a built-in input, which is the same for every seed.

    python3 perfbench/record_reference.py

Each output must pass its oracle before it is recorded.  Outputs are meant to
stay byte-identical across refactors, so rewrite this file only when a change
of output is intended.
"""

from __future__ import annotations

import json
import shutil
import sys

import oracle
import run
import workloads


def main() -> int:
    work = run.OUT_DIR / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = run.Runner(work)
    digests = {}
    bad = 0
    for make in workloads.WORKLOADS.values():
        for op in make(0):
            if op.seeded:
                continue
            res = runner.run(op.argv, "plain", run.OP_TIMEOUT)
            err = f"exit {res['exit']}" if res["exit"] != 0 else oracle.check(op, res["stdout"])
            if err:
                print(f"{op.name}: {err}", file=sys.stderr)
                bad += 1
                continue
            digests[op.name] = run.digest(res["stdout"])
            print(f"{op.name}: {res['seconds']:.3f} s")
    if bad:
        return 1
    (run.HERE / "reference.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
