"""Command-line surface.

Five subcommands: ``generate`` (family -> edge list), ``curvature`` (pair
table), ``spectrum`` (eigenvalues, or with ``--format matrix`` the
assembled operator), ``verify`` (full check report) and ``selftest`` (the
eleven-criterion acceptance gate).

Exit codes: 0 success, 1 at least one asserted check or criterion failed,
2 usage or input errors, including an input too large for memory.  Output
is byte-deterministic for a fixed argv and input: no timestamps, no
environment lookups, floats printed with 17 significant digits in machine
formats and 6 in text tables.
"""

from __future__ import annotations

import argparse
import math
import sys

from .curvature import ricci_all_adjacent, ricci_all_pairs
from .errors import EdgeRicciError, FormatError, InvalidParameterError
from .graph_core import generate, parse_edgelist, parse_weighted, serialize_edgelist
from .laplacian import OPERATORS, WEIGHTINGS, assemble, dump_matrix
from .spectra import spectrum_of
from .verify import (
    _json_value,
    curvature_to_csv,
    report_to_json,
    report_to_text,
    verification_report,
)

_FORMATS = ("json", "csv", "text")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="edge-ricci",
        description="Edge curvature, combinatorial Laplacians, and spectral "
                    "bound verification for finite graphs.")
    sub = top.add_subparsers(dest="command", required=True)

    def add_input(p):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--input", metavar="FILE",
                         help="read the graph from FILE (edge list, or the "
                              "weighted JSON document with --weighted)")
        src.add_argument("--family", metavar="SPEC",
                         help="build a named family, e.g. complete:5, "
                              "bipartite:2:3, circulant:9:1,2, petersen")
        p.add_argument("--weighted", action="store_true",
                       help="treat --input as the weighted JSON document")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized families (default 0)")

    def add_output(p):
        p.add_argument("--output", metavar="FILE",
                       help="write to FILE instead of stdout")

    p = sub.add_parser("generate", help="emit a family graph as an edge list")
    p.add_argument("--family", metavar="SPEC", required=True)
    p.add_argument("--seed", type=int, default=0)
    add_output(p)

    p = sub.add_parser("curvature", help="curvature of edge pairs")
    add_input(p)
    p.add_argument("--all-pairs", action="store_true",
                   help="every distinct pair, not only adjacent ones")
    p.add_argument("--format", choices=_FORMATS, default="text")
    add_output(p)

    p = sub.add_parser("spectrum", help="eigenvalues of a graph operator")
    add_input(p)
    p.add_argument("--operator", choices=OPERATORS, default="edge")
    p.add_argument("--weighting", choices=WEIGHTINGS, default="degree")
    p.add_argument("--zero-tol", type=float, default=None,
                   help="absolute zero threshold (default: 1e-8 * max(1, largest eigenvalue))")
    p.add_argument("--format", choices=_FORMATS + ("matrix",), default="text",
                   help="matrix prints the assembled operator instead of eigenvalues")
    add_output(p)

    p = sub.add_parser("verify", help="run every check and print a report")
    add_input(p)
    p.add_argument("--format", choices=_FORMATS, default="text",
                   help="csv emits the curvature table only")
    add_output(p)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the randomized corpora (default 0)")
    add_output(p)

    return top


def _load_graph(args):
    """Input source -> Graph or WeightedGraph per the flags."""
    if args.input is not None:
        try:
            # a leading byte order mark is no label text; error offsets still count it
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read().removeprefix("\ufeff")
        except OSError as exc:
            raise InvalidParameterError(f"cannot read {args.input}: {exc.strerror}")
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"cannot read {args.input}: not UTF-8 text "
                f"(byte {exc.start}: {exc.reason})") from None
        return parse_weighted(text) if args.weighted else parse_edgelist(text)
    if args.weighted:
        raise InvalidParameterError(
            "--weighted needs --input with the weighted JSON document; "
            "families are unweighted")
    return generate(args.family, seed=args.seed)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidParameterError(f"cannot write {output}: {exc.strerror}") from None


def _cmd_generate(args) -> int:
    _emit(serialize_edgelist(generate(args.family, seed=args.seed)), args.output)
    return 0


def _curvature_rows(g, all_pairs: bool):
    pairs = ricci_all_pairs(g) if all_pairs else ricci_all_adjacent(g).items()
    return [(g.edge_name(e), g.edge_name(f), float(kappa)) for (e, f), kappa in pairs]


def _cmd_curvature(args) -> int:
    rows = _curvature_rows(_load_graph(args), args.all_pairs)
    if args.format == "json":
        body = ",\n    ".join(_json_value(list(r)) for r in rows)
        text = '{\n  "curvature": [\n    ' + body + "\n  ]\n}\n" if rows \
            else '{\n  "curvature": []\n}\n'
    elif args.format == "csv":
        text = curvature_to_csv(rows)
    else:
        width = max([len(e) for e, _, _ in rows] + [len(f) for _, f, _ in rows] + [4])
        lines = [f"{'e':<{width}}  {'e2':<{width}}  kappa"]
        lines += [f"{e:<{width}}  {f:<{width}}  {k:.6g}" for e, f, k in rows]
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return 0


def _cmd_spectrum(args) -> int:
    if args.zero_tol is not None and not (math.isfinite(args.zero_tol) and args.zero_tol >= 0):
        raise InvalidParameterError(
            f"--zero-tol must be a finite number >= 0, got {args.zero_tol}")
    g = _load_graph(args)
    if args.format == "matrix":
        matrix = assemble(g, args.operator, args.weighting)
        _emit(dump_matrix(matrix, args.operator), args.output)
        return 0
    spec = spectrum_of(g, args.operator, args.weighting, zero_tol=args.zero_tol)
    values = spec.values
    if args.format == "json":
        payload = {
            "operator": args.operator,
            "weighting": args.weighting,
            "zero_tol": spec.zero_tol,
            "values": list(values),
            "zero_multiplicity": spec.zero_multiplicity,
            "lambda1": spec.lambda1 if spec.zero_multiplicity < len(values) else None,
        }
        text = _json_value(payload) + "\n"
    elif args.format == "csv":
        text = "\n".join(["index,value"] + [f"{i},{v:.17g}" for i, v in enumerate(values)]) + "\n"
    else:
        lines = [f"{args.operator} operator, {args.weighting} weighting: "
                 f"{len(values)} eigenvalues, {spec.zero_multiplicity} zero "
                 f"(tol {spec.zero_tol:.6g})"]
        lines += [f"  {i:3d}  {v:.6g}" for i, v in enumerate(values)]
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return 0


def _cmd_verify(args) -> int:
    report = verification_report(_load_graph(args))
    if args.format == "json":
        text = report_to_json(report)
    elif args.format == "csv":
        text = curvature_to_csv(report.curvature)
    else:
        text = report_to_text(report)
    _emit(text, args.output)
    return 1 if report.failed() else 0


def _cmd_selftest(args) -> int:
    from .acceptance import run_all  # only selftest needs the criteria

    results = run_all(seed=args.seed)
    lines = [r.line() for r in results]
    bad = [r for r in results if not r.passed]
    lines.append(f"{len(results) - len(bad)}/{len(results)} criteria passed")
    _emit("\n".join(lines) + "\n", args.output)
    return 1 if bad else 0


_DISPATCH = {
    "generate": _cmd_generate,
    "curvature": _cmd_curvature,
    "spectrum": _cmd_spectrum,
    "verify": _cmd_verify,
    "selftest": _cmd_selftest,
}


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except EdgeRicciError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # an input too large to hold: one error line, not a traceback
        print(f"error: {args.command}: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(run())
