"""Command-line interface: dimension tables, orbit reports, span searches,
verification suites, and catalog evaluation.

Exit codes are a stable contract: 0 success, 1 a mathematical check failed,
2 usage or schema error, 3 I/O or input-file consistency error.  Commands
return 0 or 1 and raise on bad input; ``main`` alone turns an exception into
an exit code and one stderr line (argparse exits 2 on bad usage).  Reports
embed a manifest (tool version and full configuration) so published tables
can be re-derived; reruns with equal parameters are byte-identical once the
run-metadata fields ("timestamp", "elapsed") are dropped.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from . import __version__
from .bcjmap import (
    SeparatingTwist,
    basis_independence_failures,
    catalog_from_json,
    equivariance_failures,
    random_sp_matrices,
    sigma,
)
from .boolring import poly_to_json
from .cassonmorita import (
    LinkingMatrix,
    check_record,
    cmpoly_to_json,
    epsilon,
    mu,
    mu_quadratic_exhaustive,
    right_square_failures,
    rho_separating,
    verify_diagrams,
)
from .errors import CatalogError, ConsistencyError, read_json
from .wedgespan import ROMAN, dims, image_rank_report, orbit_classes

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


# Largest genus any command accepts; a larger one is a usage error (exit 2)
# before any work starts.  `dims` builds a table for every genus of its range
# by a pair scan that grows as g^4, so an unbounded range never finishes.
MAX_GENUS = 32


def _genus_range(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad genus range {text!r}") from exc
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad genus range {text!r}")
    if hi > MAX_GENUS:
        raise argparse.ArgumentTypeError(
            f"genus {hi} is above the maximum {MAX_GENUS} in {text!r}"
        )
    return list(range(lo, hi + 1))


def _single_genus(text: str) -> list[int]:
    genera = _genus_range(text)
    if len(genera) != 1:
        raise argparse.ArgumentTypeError(f"takes a single genus, got {text!r}")
    return genera


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from exc
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _manifest(config: dict) -> dict:
    return {"tool": "bcjcalc", "version": __version__, "config": config}


def _timestamp() -> str:
    """The current UTC time as `datetime.isoformat` writes it (microseconds
    left out when 0), built with `time`: importing `datetime` would cost
    every command's start-up."""
    seconds, micros = divmod(time.time_ns() // 1000, 1_000_000)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))
    return f"{stamp}.{micros:06d}+00:00" if micros else f"{stamp}+00:00"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _emit_json(data: dict, out_path: str | None) -> None:
    _emit(json.dumps(data, indent=2, sort_keys=True), out_path)


def _md_table(columns, rows) -> list[str]:
    lines = ["| " + " | ".join(map(str, row)) + " |" for row in (columns, *rows)]
    lines.insert(1, "|" + "---|" * len(columns))
    return lines


def _emit_format(args, payload: dict, columns, rows, md_lines: list[str]) -> None:
    """Write a table command's output in `args.format`: the JSON payload,
    the CSV of `columns` and `rows`, or the markdown lines."""
    if args.format == "json":
        _emit_json(payload, args.out)
    elif args.format == "csv":
        import csv  # only --format csv writes CSV; a cold import costs every command
        import io

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(columns)
        writer.writerows(rows)
        _emit(buf.getvalue(), args.out)
    else:
        _emit("\n".join(md_lines), args.out)


# -- dims ---------------------------------------------------------------------

DIMS_COLUMNS = ("g", "d", "dim_wedge", "dim_w", "dim_im", "cubic_residual")


def cmd_dims(args) -> int:
    table = [dims(g) for g in args.g]
    rows = [[r[c] for c in DIMS_COLUMNS] for r in table]
    payload = {"manifest": _manifest({"g": args.g}), "rows": table}
    _emit_format(args, payload, DIMS_COLUMNS, rows, _md_table(DIMS_COLUMNS, rows))
    return EXIT_OK


# -- orbits -------------------------------------------------------------------


ORBIT_COLUMNS = ("class", "size", "representative")


def cmd_orbits(args) -> int:
    report = orbit_classes(args.g[0])
    rows = [
        (lab, report.classes[lab], report.representatives[lab])
        for lab in ROMAN
        if lab in report.classes
    ]
    payload = {
        "manifest": _manifest({"g": report.genus}),
        "genus": report.genus,
        "n_classes": report.n_classes,
        "classes": {lab: {"size": n, "representative": rep} for lab, n, rep in rows},
        "errors": report.errors,
    }
    md = [f"# Orbit classes at genus {report.genus}", ""] + _md_table(ORBIT_COLUMNS, rows)
    md += [f"classification error: {err}" for err in report.errors]
    _emit_format(args, payload, ORBIT_COLUMNS, rows, md)
    return EXIT_CHECK_FAILED if report.errors else EXIT_OK


# -- search -------------------------------------------------------------------


def cmd_search(args) -> int:
    report = image_rank_report(args.g[0], args.max_support, sp_closure=args.sp_closure)
    report["manifest"] = _manifest({"g": report["genus"], **report["parameters"]})
    report["timestamp"] = _timestamp()
    _emit_json(report, args.out)
    n_missing = len(report["missing"])
    summary = (
        f"genus {report['genus']}: rank {report['rank']} of {report['dims']['dim_wedge']}"
        f" (dim W = {report['dims']['dim_w']}), missing {n_missing}"
    )
    print(summary, file=sys.stderr)
    return EXIT_OK if report["coverage_complete"] else EXIT_CHECK_FAILED


# -- verify -------------------------------------------------------------------


def cmd_verify(args) -> int:
    g = args.g[0]
    config = {
        "g": g,
        "trials": args.trials,
        "seed": args.seed,
        "exhaustive_mu": args.exhaustive_mu,
        "linking_matrix": args.linking_matrix,
    }
    L = None
    if args.linking_matrix:
        L = LinkingMatrix.from_json(read_json(args.linking_matrix, ConsistencyError)[1])
        if L.genus != g:
            raise ConsistencyError(f"genus {L.genus} does not match --g {g}")

    checks = verify_diagrams(g, args.trials, args.seed)["checks"]
    if L is not None:
        n = max(1, args.trials // 5)
        failures = right_square_failures(g, n, random.Random(args.seed ^ 0x11), L)
        checks["right_square_with_matrix"] = check_record(failures, n)

    n = max(10, args.trials // 5)
    bi = basis_independence_failures(g, n, args.seed)
    checks["sigma_basis_independence"] = check_record(bi, n)

    mats = random_sp_matrices(g, max(10, args.trials // 10), args.seed ^ 0x22)
    eq = equivariance_failures(g, mats, seed=args.seed ^ 0x33)
    checks["sigma_equivariance"] = check_record(eq, len(mats))

    if args.exhaustive_mu:
        failures = mu_quadratic_exhaustive(g)
        checks["mu_quadratic_exhaustive"] = check_record(failures, 1 << (2 * g))

    all_passed = all(c["passed"] for c in checks.values())
    report = {
        "manifest": _manifest(config),
        "genus": g,
        "checks": checks,
        "all_passed": all_passed,
        "timestamp": _timestamp(),
    }
    _emit_json(report, args.out)
    for name, c in sorted(checks.items()):
        status = "pass" if c["passed"] else "FAIL"
        print(f"{status}  {name} ({c['trials']} trials)", file=sys.stderr)
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


# -- eval ---------------------------------------------------------------------

EVAL_CSV_COLUMNS = ("label", "sigma", "rho", "mu_rho")


def cmd_eval(args) -> int:
    import hashlib  # only eval digests its input; a cold import costs every command

    raw, data = read_json(args.catalog, CatalogError)
    g, entries = catalog_from_json(data, MAX_GENUS)
    results = []
    for k, (descriptor, zbasis) in enumerate(entries):
        sig = sigma(descriptor)
        result = {
            "label": descriptor.label or f"entry-{k}",
            "type": "separating" if isinstance(descriptor, SeparatingTwist) else "bp",
            "sigma": str(sig),
            "sigma_json": poly_to_json(sig),
        }
        if zbasis is not None:
            rho = rho_separating(zbasis)
            result["rho"] = str(rho)
            result["rho_json"] = cmpoly_to_json(rho)
            result["mu_rho"] = str(mu(rho))
            result["epsilon_standard"] = epsilon(LinkingMatrix.standard_model(g), rho)
        results.append(result)

    payload = {
        "manifest": _manifest(
            {"catalog": args.catalog, "sha256": hashlib.sha256(raw).hexdigest()}
        ),
        "genus": g,
        "results": results,
    }
    rows = [[r.get(c, "") for c in EVAL_CSV_COLUMNS] for r in results]
    md = []
    for r in results:
        label = " ".join(r["label"].splitlines())  # one line per record, as in _fail
        md.append(f"{label}: sigma = {r['sigma']}")
        if "rho" in r:
            md += [f"{label}: rho = {r['rho']}", f"{label}: mu(rho) = {r['mu_rho']}"]
    _emit_format(args, payload, EVAL_CSV_COLUMNS, rows, md)
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcjcalc",
        description="Desk-scale calculators for Torelli-group homomorphisms",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, single_genus=False):
        p.add_argument(
            "--g",
            type=_single_genus if single_genus else _genus_range,
            required=True,
            help=f"genus or range, e.g. 3 or 1..6, at most {MAX_GENUS}"
            + (" (single)" if single_genus else ""),
        )
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("dims", help="dimension table per genus")
    add_common(p)
    p.add_argument("--format", choices=("json", "csv", "md"), default="md")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("orbits", help="orbit classes of the non-matched wedge basis")
    add_common(p, single_genus=True)
    p.add_argument("--format", choices=("json", "csv", "md"), default="md")
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("search", help="abelian-cycle image span search (JSON)")
    add_common(p, single_genus=True)
    p.add_argument("--max-support", type=_positive_int, default=3, dest="max_support")
    p.add_argument(
        "--no-sp-closure",
        action="store_false",
        dest="sp_closure",
        help="skip the equivariance saturation of the span",
    )
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="diagram and property verification suites (JSON)")
    add_common(p, single_genus=True)
    p.add_argument("--trials", type=_positive_int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exhaustive-mu", action="store_true", dest="exhaustive_mu")
    p.add_argument("--linking-matrix", default=None, dest="linking_matrix")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("eval", help="evaluate sigma (and rho) on a curve catalog")
    p.add_argument("catalog", help="catalog JSON file")
    p.add_argument("--format", choices=("json", "csv", "md"), default="md")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    return parser


def _fail(what: str, exc: Exception, code: int) -> int:
    # one stderr line, even when the message quotes a catalog label
    print(f"{what}: " + " ".join(str(exc).splitlines()), file=sys.stderr)
    return code


def main(argv=None) -> int:
    """The error boundary: CatalogError exits 2, ConsistencyError and OSError
    exit 3.  Any other exception is a bug and keeps its traceback."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CatalogError as exc:
        return _fail("catalog error", exc, EXIT_USAGE)
    except ConsistencyError as exc:
        return _fail("invalid linking matrix", exc, EXIT_IO)
    except OSError as exc:
        return _fail("i/o error", exc, EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
