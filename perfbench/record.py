"""Record the reference outputs that every later run is checked against.

    python3 perfbench/record.py

Writes ``perfbench/reference/``: the exact bytes of ``imw suite --json`` and
of both ``imw enumerate --json`` commands, and the SHA-256 digest and length
of every ``check-large`` report for the default seed, with the summary of
each report that relabelling cannot change. Run it only when the
expected output of imw changes on purpose.
"""

from __future__ import annotations

import hashlib
import json
import sys

import workloads
from run import run_op


def main() -> int:
    cli = workloads.import_cli()
    workloads.REFERENCE.mkdir(parents=True, exist_ok=True)
    commands = [("suite.json", workloads.SUITE_ARGV)]
    commands += [(f"enumerate-{kind}.json", argv)
                 for kind, (argv, _) in workloads.ENUMERATE_ARGVS.items()]
    for name, argv in commands:
        _, rc, out, err, crash = run_op(cli, workloads.Op(name, argv, None))
        if rc != 0:
            print(f"{name}: exit {rc}\n{err}{crash or ''}", file=sys.stderr)
            return 1
        (workloads.REFERENCE / name).write_text(out, encoding="utf-8")
        print(f"{name}: {len(out)} bytes")
    digests = {}
    for op in workloads.check_large_ops(workloads.DEFAULT_SEED, verify_reference=False):
        _, rc, out, err, crash = run_op(cli, op)
        problem = crash or op.check(rc, out, err)
        if problem is not None:
            print(f"{op.name}: {problem}", file=sys.stderr)
            return 1
        digests[op.name] = {"sha256": hashlib.sha256(out.encode()).hexdigest(),
                            "bytes": len(out), "summary": workloads.report_summary(out)}
        print(f"check-large {op.name}: {len(out)} bytes")
    (workloads.REFERENCE / "check-large.json").write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
