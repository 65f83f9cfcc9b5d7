"""Benchmark for edge-ricci: one workload, one seed, one run.

    python3 bench/run.py --workload dense-exact --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The load is a closed loop with one caller: ops run back to back
in this process, which starts cold like a CLI user's.  A verify op is one
``edge_ricci.cli.run(["verify", ...])`` call on a generated file; a selftest
op is one pass of ``acceptance.criterion_N(seed)`` for N = 1..11, the loop
``acceptance.run_all`` makes.  (A single criterion is not the op: the eleven
differ in cost by two orders of magnitude, so a median over them follows
whichever cheap criterion the seed makes middling.)  Inputs come from the seed
alone (see ``workloads.py``), and every op's output is checked (see
``checks.py``).

``--trace 0`` prints the end-to-end metrics, with tracing off.  ``--trace 1``
runs half as many ops, each once plain and once traced (alternating
which goes first), and prints the per-layer metrics of the traced ops plus
``trace.overhead_frac``, the traced time over the plain time minus one.

The end-to-end times are reference seconds: wall time scaled to a fixed
machine speed that a probe loop samples throughout the timed phase (see
``pace.py``), because the shared host's own speed drifts by more than the
benchmark's bounds.  ``wall_s`` is the sum of the ops' reference times and
``op_p50_s`` their median; the printed notes also give the measured seconds.
The per-layer times of ``--trace 1`` are measured seconds.

Every metric is printed by name with its unit; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 1 when an op failed, 2 when the checkout cannot be used.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import pace
import tracer as tracing
from workloads import WORKLOADS, graphs, op_count, selftest_seeds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

SETUP_REPEATS = 9
# Stop starting ops after this long, so a run ends within three minutes even
# on a much slower program; the unfinished part of wall_s is then projected.
PHASE_CAP_S = 120.0
IMPORT = "import edge_ricci, edge_ricci.cli, sys; sys.stdout.write(edge_ricci.__file__)"


class CheckoutError(Exception):
    """The checkout has no usable package source."""


def _from_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def measure_setup(repeats: int = SETUP_REPEATS) -> float:
    """Median reference seconds from a fresh interpreter to a ready package +
    CLI import (see ``pace.scaled_runs``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def start():
        proc = subprocess.run([sys.executable, "-c", IMPORT], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0 or not _from_src(proc.stdout):
            raise CheckoutError(f"cannot import edge_ricci from {SRC}: "
                                f"{(proc.stderr.strip().splitlines() or [proc.stdout])[-1]}")

    return statistics.median(pace.scaled_runs(start, repeats))


def import_package():
    """Import edge_ricci from the checkout's src/, never from elsewhere."""
    if not (SRC / "edge_ricci" / "__init__.py").is_file():
        raise CheckoutError(f"no package source at {SRC / 'edge_ricci'}")
    sys.path.insert(0, str(SRC))
    import edge_ricci
    import edge_ricci.acceptance
    import edge_ricci.cli
    if not _from_src(edge_ricci.__file__):
        raise CheckoutError(f"edge_ricci was imported from {edge_ricci.__file__}")
    return edge_ricci


class VerifyOp:
    """One ``edge-ricci verify --format json`` call on a generated file."""

    def __init__(self, index: int, graph, workdir: Path, ref: dict | None):
        self.index, self.graph, self.ref = index, graph, ref
        self.path = workdir / f"in{index}.{'json' if graph.edge_weights else 'txt'}"
        self.path.write_text(graph.text(), encoding="utf-8")
        self.workdir = workdir

    def output(self, tag: str) -> Path:
        return self.workdir / f"out{self.index}.{tag}.json"

    def __call__(self, pkg, tag: str):
        argv = ["verify", "--input", str(self.path)]
        if self.graph.edge_weights is not None:
            argv.append("--weighted")
        argv += ["--format", "json", "--output", str(self.output(tag))]
        return pkg.cli.run(argv)

    def check(self, result, tag: str) -> list[str]:
        out = self.output(tag)
        text = out.read_text(encoding="utf-8") if out.exists() else None
        return checks.check_verify(self.graph, result, text, self.ref)

    def same(self, a, b) -> bool:
        return a == b and self.output("plain").read_bytes() == self.output("traced").read_bytes()


class SelftestPass:
    """``acceptance.criterion_N(seed)`` for N = 1..11, in order."""

    def __init__(self, seed: int, ref: list[bool] | None):
        self.seed, self.ref = seed, ref

    def __call__(self, pkg, tag: str):
        return [getattr(pkg.acceptance, f"criterion_{n}")(self.seed)
                for n in tracing.CRITERIA]

    def check(self, results, tag: str) -> list[str]:
        return checks.check_selftest(results, self.ref)

    def same(self, a, b) -> bool:
        return a == b


def load_reference(workload: str, seed: int) -> list:
    if seed != checks.DEFAULT_SEED or not REFERENCE.exists():
        return []
    return json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload, [])


def build_ops(workload, seed: int, count: int, workdir: Path, reference: list) -> list:
    def ref(i):
        return reference[i] if i < len(reference) else None

    if workload.kind == "verify":
        return [VerifyOp(i, g, workdir, ref(i))
                for i, g in enumerate(graphs(workload, seed, count))]
    return [SelftestPass(s, ref(i)) for i, s in enumerate(selftest_seeds(seed, count))]


def call(op, pkg, tag: str):
    """Run one op; returns its result or the exception it raised."""
    try:
        return op(pkg, tag)
    except (Exception, SystemExit) as exc:  # noqa: BLE001 - a crash is a failed op
        return exc


def timed_call(op, pkg, tag: str):
    """Run one op; returns (seconds, result or the exception it raised)."""
    start = time.perf_counter()
    result = call(op, pkg, tag)
    return time.perf_counter() - start, result


def outcome(op, result, tag: str) -> list[str]:
    if isinstance(result, BaseException):
        return [f"raised {type(result).__name__}: {result}"]
    return op.check(result, tag)


def run_plain(pkg, ops):
    """Time the ops back to back under the pacer; returns (reference seconds of
    the phase, reference seconds per op, raw seconds per op, problems)."""
    ref_times, raw_times, results = [], [], []
    start = time.perf_counter()
    with pace.Pacer().running() as pacer:
        for op in ops:
            if time.perf_counter() - start > PHASE_CAP_S:
                break
            ref_s, raw_s, result = pacer.timed(lambda: call(op, pkg, "plain"))
            ref_times.append(ref_s)
            raw_times.append(raw_s)
            results.append(result)
    wall = sum(ref_times)
    if len(results) < len(ops):
        print(f"note: phase cap reached after {len(results)}/{len(ops)} ops; "
              "wall_s is projected", file=sys.stderr)
        wall *= len(ops) / len(results)
    problems = [outcome(op, r, "plain") for op, r in zip(ops, results)]
    return wall, ref_times, raw_times, problems


def run_traced(pkg, ops):
    """Each op plain and traced, alternating order; returns (tracer, plain s,
    traced s, problems)."""
    tracer = tracing.Tracer()
    plain_s = traced_s = 0.0
    problems = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if time.perf_counter() - start > PHASE_CAP_S:
            break
        results = {}
        for tag in (("plain", "traced") if i % 2 == 0 else ("traced", "plain")):
            if tag == "plain":
                seconds, results[tag] = timed_call(op, pkg, tag)
                plain_s += seconds
            else:
                tracer.begin_op(i)
                with tracer.installed():
                    seconds, results[tag] = timed_call(op, pkg, tag)
                traced_s += seconds
        found = outcome(op, results["plain"], "plain") + outcome(op, results["traced"], "traced")
        if not found and not op.same(results["plain"], results["traced"]):
            found.append("traced output differs from plain output")
        problems.append(found)
    return tracer, plain_s, traced_s, problems


def metric_line(name: str, value, unit: str, note: str = "") -> str:
    return f"{name:<44} {value:>16.6g} {unit:<6} {note}".rstrip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True,
                        help="run length the work per run is sized to")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    count = op_count(workload, args.seconds)
    if args.trace:
        count = math.ceil(count / 2)

    try:
        setup_s = None if args.trace else measure_setup()
        pkg = import_package()
    except (CheckoutError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    reference = load_reference(workload.name, args.seed)
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        ops = build_ops(workload, args.seed, count, Path(tmp), reference)
        if args.trace:
            tracer, plain_s, traced_s, problems = run_traced(pkg, ops)
        else:
            wall_s, times, raw_times, problems = run_plain(pkg, ops)

    attempted = len(problems)
    failed = sum(1 for p in problems if p)
    for i, found in enumerate(problems):
        for problem in found:
            print(f"op {i}: {problem}", file=sys.stderr)
    checked = "reference" if reference else "invariants"
    print(f"workload {workload.name}  seed {args.seed}  ops {len(ops)}  "
          f"trace {args.trace}  checked against {checked}")

    metrics = {}
    if args.trace:
        values = tracing.layer_metrics(tracer.spans, traced_s / plain_s - 1.0)
        for name, unit, _ in tracing.PER_LAYER:
            metrics[name] = {"value": values[name], "unit": unit}
            print(metric_line(name, values[name], unit))
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rows = (
            ("wall_s", wall_s, "s",
             f"{len(times)} ops back to back; {sum(raw_times):.6g} s measured"),
            ("op_p50_s", statistics.median(times), "s",
             f"median of {len(times)} ops; {statistics.median(raw_times):.6g} s measured"),
            ("setup_s", setup_s, "s", f"median of {SETUP_REPEATS} interpreter starts"),
            ("peak_rss_mb", rss_mb, "MiB", ""),
        )
        for name, value, unit, note in rows:
            metrics[name] = {"value": value, "unit": unit}
            print(metric_line(name, value, unit, note))
    print(metric_line("failed_frac", failed / max(attempted, 1), "ratio",
                      f"{failed} of {attempted} ops failed"))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
