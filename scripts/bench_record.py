#!/usr/bin/env python3
"""Record one checkout's benchmark numbers in BENCH_<n>.json.

For each workload of BENCHMARK.json, run ``bench/run.py`` once per seed with
tracing off, then once more at seed 0 with ``--trace 1``, one run at a time
in this checkout, each after the package's ``__pycache__`` is removed, so
that every run compiles the package as the first did.  The record has
bench/baseline.json's shape: per workload, each end-to-end metric's median
and quartiles over the plain runs, and the traced run's per-layer metrics;
plus the commit, the sha256 of the source it measured, the Python version,
the CPU count, the run length and the seeds; and, under "source", the line
count and the AST node count (docstrings left out, so comments, blank lines
and reformatting do not move it) of each file in src/, and the stdlib
compile() time of each module that ``import edge_ricci.cli`` loads, best of
COMPILE_REPEATS.  Every interpreter
start compiles those modules when no bytecode cache is written, so a change
that deletes code can cite the compile time it saves.  A record made before
its commit exists names the parent, marked -dirty; the source hash still
matches the commit that carries it.

    python3 scripts/bench_record.py 28                    # writes BENCH_28.json
    python3 scripts/bench_record.py 28 --seeds 0 --seconds 5

A run that exits nonzero, ends its output in no JSON result line, or reports
``"correct": false`` stops the record with an ``error:`` line and exit code
1, and no file is written.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACE_SEED = 0
COMPILE_REPEATS = 7


def result_line(stdout: str) -> dict | None:
    """The JSON object that ends a bench/run.py run's output, or None when
    the output is empty or its last line is no JSON object."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def summarize(plain: list[dict], traced: dict) -> dict:
    """One workload's record from its plain runs' result lines and its
    traced run's: median and quartiles (statistics.quantiles, n=4) of each
    plain metric, and the traced metrics as they are."""
    summary = {}
    for name, first in plain[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in plain]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                         "unit": first["unit"]}
    summary["ops_per_run"] = plain[0]["attempted"]
    return {"plain": summary,
            "traced": {"ops": traced["attempted"],
                       "metrics": {name: metric["value"]
                                   for name, metric in traced["metrics"].items()}}}


def run_bench(workload: str, seed: int, seconds: float, trace: int,
              root: Path = ROOT) -> dict:
    """One bench/run.py run's result line, in the checkout at root, after
    its package's __pycache__ is removed; RuntimeError when it failed."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    shutil.rmtree(root / "src" / "edge_ricci" / "__pycache__", ignore_errors=True)
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    result = result_line(proc.stdout)
    if proc.returncode != 0 or result is None or result.get("correct") is not True:
        sys.stderr.write(proc.stderr)
        missing = "" if result is not None else ", no result line"
        raise RuntimeError(f"{' '.join(argv[1:])}: exit {proc.returncode}{missing}")
    return result


def commit() -> str:
    """The checkout's short commit, marked -dirty when the tree has edits."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def source_sha256() -> str:
    """sha256 over src/'s Python files, each path then its bytes, in path order."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cli_modules() -> dict[str, Path]:
    """Module name -> source file of every edge_ricci module that a fresh
    interpreter loads for ``import edge_ricci.cli``."""
    probe = ("import sys, edge_ricci.cli\n"
             "for name, module in sorted(sys.modules.items()):\n"
             "    if name.partition('.')[0] == 'edge_ricci':\n"
             "        print(name, module.__file__)")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True)
    return {name: Path(path) for name, path in map(str.split, proc.stdout.splitlines())}


def ast_nodes(source: str) -> int:
    """The number of nodes in source's AST, less each docstring's statement
    and constant (a module's, class's or function's first statement when it
    is a string)."""
    tree = ast.parse(source)
    nodes = sum(1 for _ in ast.walk(tree))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                nodes -= 2
    return nodes


def source_cost(repeats: int = COMPILE_REPEATS) -> dict:
    """Line and AST node counts (ast_nodes) of src/'s Python files, and the
    best of `repeats` compile() times, in seconds, of each module that
    ``import edge_ricci.cli`` loads."""
    sources = {path.relative_to(ROOT / "src").as_posix(): path.read_text()
               for path in sorted((ROOT / "src").rglob("*.py"))}
    lines = {name: len(source.splitlines()) for name, source in sources.items()}
    nodes = {name: ast_nodes(source) for name, source in sources.items()}
    compile_s = {}
    for name, path in cli_modules().items():
        source = path.read_text()
        best = math.inf
        for _ in range(repeats):
            start = time.perf_counter()
            compile(source, str(path), "exec")
            best = min(best, time.perf_counter() - start)
        compile_s[name] = best
    return {"lines": lines, "lines_total": sum(lines.values()),
            "ast_nodes": nodes, "ast_nodes_total": sum(nodes.values()),
            "compile_s": compile_s, "compile_s_total": sum(compile_s.values()),
            "compile_repeats": repeats}


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("number", type=int, help="n of the BENCH_<n>.json to write")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    args = parser.parse_args(argv)
    workloads = {}
    try:
        for name in names:
            plain = [run_bench(name, seed, args.seconds, 0) for seed in args.seeds]
            workloads[name] = summarize(plain, run_bench(name, TRACE_SEED, args.seconds, 1))
            print(f"{name}: done", file=sys.stderr)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = {
        "commit": commit(),
        "src_sha256": source_sha256(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu_count": os.cpu_count(),
        "run_seconds": args.seconds,
        "seeds": args.seeds,
        "source": source_cost(),
        "note": "plain: per end-to-end metric, median and quartiles (statistics.quantiles "
                "n=4) over one run per seed, times in reference seconds (bench/pace.py); "
                f"traced: one --trace 1 run at seed {TRACE_SEED}, times in measured seconds",
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
