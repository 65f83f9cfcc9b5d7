"""Write bench/reference.json: the default seed's outputs at this commit.

    python3 bench/make_reference.py

Run it only on the commit whose outputs are the reference (the commit the
benchmark was defined on).  For each workload it runs as many ops as one
run of BENCHMARK.json's ``run_seconds`` does, and keeps, per op:

- verify: exit code, hashes of the verdict vector (name, applicable, holds)
  and of the exact curvature table, the weighted curvature table itself,
  and the three spectra;
- selftest: whether each of the eleven criteria passed.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import checks
import run
from workloads import WORKLOADS, op_count


def main() -> int:
    settings = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pkg = run.import_package()
    reference = {}
    for workload in WORKLOADS.values():
        count = op_count(workload, settings["run_seconds"])
        entries = []
        with tempfile.TemporaryDirectory(prefix=".bench-", dir=run.ROOT) as tmp:
            for op in run.build_ops(workload, checks.DEFAULT_SEED, count, Path(tmp), []):
                result = run.call(op, pkg, "plain")
                problems = run.outcome(op, result, "plain")
                if problems:
                    print(f"error: {workload.name}: {problems[0]}", file=sys.stderr)
                    return 1
                if isinstance(op, run.VerifyOp):
                    text = op.output("plain").read_text(encoding="utf-8")
                    entries.append(checks.reference_entry(op.graph, result, text))
                else:
                    entries.append([r.passed for r in result])
        reference[workload.name] = entries
        print(f"{workload.name}: {len(entries)} ops", file=sys.stderr)
    run.REFERENCE.write_text(json.dumps(reference, separators=(",", ":")) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
