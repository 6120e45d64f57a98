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
import atexit
import contextlib
import gc
import json
import random
import sys
import time

from . import __version__
from .bcjmap import (
    SeparatingTwist,
    basis_independence_failures,
    equivariance_failures,
    sigma,
)
from .cassonmorita import (
    LinkingMatrix,
    check_record,
    epsilon,
    mu,
    mu_quadratic_exhaustive,
    rho_separating,
    rho_trial_failures,
    verify_diagrams,
)
from .errors import CatalogError, ConsistencyError
from .surface import random_sp_word
from .wedgespan import ROMAN, dims, image_rank_report, orbit_classes

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


# Largest genus any command accepts; a larger one is a usage error (exit 2)
# before any work starts.  `dims` and `orbits` are closed-form from the genus-4
# census at any genus; `search` is what the genus limits: its peak RSS is near
# 1 GB at genus 20 and roughly doubles every two genera.
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


def _max_support(text: str) -> int:
    # the saturated span is the same at every --max-support; a 6-handle template needs gigabytes
    if (n := _positive_int(text)) > 5:
        raise argparse.ArgumentTypeError(f"must be at most 5, got {n}")
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


@contextlib.contextmanager
def _exact_int_text():
    """Lift CPython's cap on int-to-str digits (4,300 by default) inside the
    block, where eval renders exact rho values.  The catalog is parsed outside
    it, so json.loads caps its integers at 4,300 digits and rho, of degree 4 in
    them, stays below about 17,500, which renders in milliseconds.  Interpreters
    without the cap lack `sys.get_int_max_str_digits`."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is None:
        yield
        return
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


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
    classes = report["classes"]
    rows = [
        (lab, classes[lab]["size"], classes[lab]["representative"])
        for lab in ROMAN
        if lab in classes
    ]
    report["manifest"] = _manifest({"g": report["genus"]})
    md = [f"# Orbit classes at genus {report['genus']}", ""] + _md_table(ORBIT_COLUMNS, rows)
    md += [f"classification error: {err}" for err in report["errors"]]
    _emit_format(args, report, ORBIT_COLUMNS, rows, md)
    return EXIT_CHECK_FAILED if report["errors"] else EXIT_OK


# -- search -------------------------------------------------------------------


def cmd_search(args) -> int:
    parameters = {"max_support": args.max_support, "sp_closure": args.sp_closure}
    t0 = time.perf_counter()
    report = image_rank_report(args.g[0], **parameters)
    report["elapsed"] = time.perf_counter() - t0
    # The span holds only machine-verified cycle images and their translates,
    # so these fields of the removed family catalog are constants, kept for
    # report compatibility.
    report["parameters"] = {**parameters, "include_families": False}
    report["counts"].update(family_elements=0, family_added_rank=0)
    report["family_warnings"] = []
    report["machine_verified_only"] = True
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
    if args.linking_matrix:
        from .jsonio import read_linking_matrix  # only this option reads a document

        L = read_linking_matrix(args.linking_matrix, g)

    checks = verify_diagrams(g, args.trials, args.seed)
    if args.linking_matrix:
        n = max(1, args.trials // 5)
        _, square = rho_trial_failures(g, n, random.Random(args.seed ^ 0x11), L)
        checks["right_square_with_matrix"] = check_record(square, n)

    n = max(10, args.trials // 5)
    bi = basis_independence_failures(g, n, args.seed)
    checks["sigma_basis_independence"] = check_record(bi, n)

    rng = random.Random(args.seed ^ 0x22)
    mats = [random_sp_word(g, rng) for _ in range(max(10, args.trials // 10))]
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
    from . import jsonio  # eval and verify --linking-matrix alone read or write documents

    sha256, g, entries = jsonio.read_catalog(args.catalog, MAX_GENUS)
    standard = LinkingMatrix.standard_model(g)
    with _exact_int_text():
        results = []
        for k, (descriptor, zbasis) in enumerate(entries):
            sig = sigma(descriptor)
            result = {
                "label": descriptor.label or f"entry-{k}",
                "type": "separating" if isinstance(descriptor, SeparatingTwist) else "bp",
                "sigma": str(sig),
                "sigma_json": jsonio.poly_to_json(sig),
            }
            if zbasis is not None:
                rho = rho_separating(zbasis, validated=True)  # by the catalog reader
                result["rho"] = str(rho)
                result["rho_json"] = jsonio.cmpoly_to_json(rho)
                result["mu_rho"] = str(mu(rho))
                result["epsilon_standard"] = epsilon(standard, rho)
            results.append(result)

        payload = {
            "manifest": _manifest({"catalog": args.catalog, "sha256": sha256}),
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
    p.add_argument("--max-support", type=_max_support, default=3, dest="max_support")
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
    # The cyclic garbage collector is off while a command runs and frozen out
    # at exit.  It is disabled from parsing (argparse raises SystemExit on
    # usage errors, --help and --version) through the error mapping, and the
    # caller's state is restored in `finally`, so an in-process caller keeps
    # its collector everywhere outside main.  A command makes no reference
    # cycle, so the passes it would trigger (5 in `search --g 4`, about 210 in
    # `--g 16`) only walked the heap.  At interpreter exit, gc.freeze moves
    # every live object to the permanent generation, so the collections of
    # interpreter shutdown skip the module graph, the largest part of a short
    # command's exit, and leave its memory to the OS; stdio flushes, other
    # exit handlers and module teardown still run.  It runs only at exit, so
    # an in-process caller's heap is never frozen, and is unregistered first
    # so that repeated calls register it once.  Both are safe because bcjcalc
    # defines no __del__, opens files only inside `with`, and leaves no cyclic
    # garbage but its argparse parser (283 objects whatever the command does).
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        try:
            return args.func(args)
        except CatalogError as exc:
            return _fail("catalog error", exc, EXIT_USAGE)
        except ConsistencyError as exc:
            return _fail("invalid linking matrix", exc, EXIT_IO)
        except OSError as exc:
            return _fail("i/o error", exc, EXIT_IO)
    finally:
        if collecting:
            gc.enable()


def script() -> int:
    """The entry point of the `bcjcalc` script and ``python -m bcjcalc.cli``:
    `main` with the collector left off until the process exits.  Re-enabled
    with the young-generation count of the whole command pending, it would
    make one pass over every object the command left alive at the first
    allocation on the way to exit, and free only the parser."""
    gc.disable()
    return main()


if __name__ == "__main__":
    sys.exit(script())
