"""Self-test of the check-large inputs.

    python3 perfbench/selftest.py

For the default seed and one other seed, every generated table must give
exactly the verdicts it has by construction and the matching exit code, and
its |E| and sigma-class count must equal those of the same table before
relabelling. For the default seed the report bytes must also match the
recorded digests. Exits 1 on the first seed with a mismatch.
"""

from __future__ import annotations

import json
import sys

import workloads
from run import run_op

OTHER_SEED = 12345


def main() -> int:
    cli = workloads.import_cli()
    from imw.report import analyze
    import inputs

    plain = {}
    for spec in inputs.build_tables():
        report = analyze(spec.monoid, spec.name)
        plain[spec.name] = (None if report.idempotents is None else len(report.idempotents),
                            None if report.sigma_classes is None else len(report.sigma_classes))
    failures = 0
    for seed in (workloads.DEFAULT_SEED, OTHER_SEED):
        for op in workloads.check_large_ops(seed):
            _, rc, out, err, crash = run_op(cli, op)
            problem = crash or op.check(rc, out, err)
            if problem is None:
                doc = json.loads(out)
                relabelled = (None if doc["idempotents"] is None else len(doc["idempotents"]),
                              None if doc["sigma_classes"] is None else len(doc["sigma_classes"]))
                if relabelled != plain[op.name]:
                    problem = f"|E|, sigma classes {relabelled} before relabelling {plain[op.name]}"
            failures += problem is not None
            print(f"seed {seed:<6} {op.name:<12} exit {rc}  {problem or 'ok'}")
    print("selftest:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
