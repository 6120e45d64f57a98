"""Command-line interface: dimension tables, orbit reports, span searches,
verification suites, and catalog evaluation.

Exit codes are a stable contract: 0 success, 1 a mathematical check failed,
2 usage or schema error, 3 I/O or input-file consistency error.  Reports
embed a manifest (tool version and full configuration) so published tables
can be re-derived; reruns with equal parameters are byte-identical once the
run-metadata fields ("timestamp", "elapsed") are dropped.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
from datetime import datetime, timezone

from . import __version__
from .bcjmap import (
    BPMap,
    SeparatingTwist,
    basis_independence_failures,
    descriptor_from_json,
    equivariance_failures,
    random_sp_matrices,
    sigma,
)
from .boolring import poly_to_json
from .cassonmorita import (
    LinkingMatrix,
    cmpoly_to_json,
    epsilon,
    mu,
    mu_quadratic_exhaustive,
    rho_separating,
    verify_diagrams,
)
from .errors import CatalogError
from .surface import zbasis_from_json
from .wedgespan import dims, image_rank_report, orbit_classes

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
    return datetime.now(timezone.utc).isoformat()


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


# -- dims ---------------------------------------------------------------------

DIMS_COLUMNS = ("g", "d", "dim_wedge", "dim_w", "dim_im", "cubic_residual")


def cmd_dims(args) -> int:
    rows = [dims(g) for g in args.g]
    if args.format == "json":
        _emit_json({"manifest": _manifest({"g": args.g}), "rows": rows}, args.out)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(DIMS_COLUMNS)
        for r in rows:
            writer.writerow([r[c] for c in DIMS_COLUMNS])
        _emit(buf.getvalue(), args.out)
    else:
        lines = ["| " + " | ".join(DIMS_COLUMNS) + " |"]
        lines.append("|" + "---|" * len(DIMS_COLUMNS))
        for r in rows:
            lines.append("| " + " | ".join(str(r[c]) for c in DIMS_COLUMNS) + " |")
        _emit("\n".join(lines), args.out)
    return EXIT_OK


# -- orbits -------------------------------------------------------------------


def cmd_orbits(args) -> int:
    from .wedgespan import ROMAN

    report = orbit_classes(args.g[0])
    order = [lab for lab in ROMAN if lab in report.classes]
    payload = {
        "manifest": _manifest({"g": report.genus}),
        "genus": report.genus,
        "n_classes": report.n_classes,
        "classes": {
            lab: {
                "size": len(report.classes[lab]),
                "representative": report.representatives[lab],
            }
            for lab in order
        },
        "errors": report.errors,
    }
    if args.format == "json":
        _emit_json(payload, args.out)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(("class", "size", "representative"))
        for lab in order:
            writer.writerow(
                (lab, len(report.classes[lab]), report.representatives[lab])
            )
        _emit(buf.getvalue(), args.out)
    else:
        lines = [f"# Orbit classes at genus {report.genus}", ""]
        lines.append("| class | size | representative |")
        lines.append("|---|---|---|")
        for lab in order:
            lines.append(
                f"| {lab} | {len(report.classes[lab])} | {report.representatives[lab]} |"
            )
        for err in report.errors:
            lines.append(f"classification error: {err}")
        _emit("\n".join(lines), args.out)
    return EXIT_CHECK_FAILED if report.errors else EXIT_OK


# -- search -------------------------------------------------------------------


def cmd_search(args) -> int:
    config = {
        "g": args.g[0],
        "max_support": args.max_support,
        "include_families": args.include_families,
        "sp_closure": args.sp_closure,
    }
    report = image_rank_report(
        args.g[0],
        args.max_support,
        include_families=args.include_families,
        sp_closure=args.sp_closure,
    )
    report["manifest"] = _manifest(config)
    report["timestamp"] = _timestamp()
    try:
        _emit_json(report, args.out)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
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
    checks: dict = {}

    L = None
    if args.linking_matrix:
        try:
            with open(args.linking_matrix) as fh:
                data = json.load(fh)
            L = LinkingMatrix.from_json(data)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read linking matrix: {exc}", file=sys.stderr)
            return EXIT_IO
        except KeyError as exc:
            print(f"invalid linking matrix: missing field {exc}", file=sys.stderr)
            return EXIT_IO
        except (TypeError, ValueError) as exc:
            print(f"invalid linking matrix: {exc}", file=sys.stderr)
            return EXIT_IO
        if L.genus != g:
            print(
                f"invalid linking matrix: genus {L.genus} does not match --g {g}",
                file=sys.stderr,
            )
            return EXIT_IO

    diag = verify_diagrams(g, args.trials, args.seed)
    checks.update(diag["checks"])

    if L is not None:
        import random as _random

        from .cassonmorita import selflink_eval
        from .surface import random_z_symplectic_basis
        from .bcjmap import sigma_separating

        rng = _random.Random(args.seed ^ 0x11)
        failures = []
        n = max(1, args.trials // 5)
        for t in range(n):
            h = rng.randint(1, min(g, 3))
            handles = sorted(rng.sample(range(1, g + 1), h))
            zb = random_z_symplectic_basis(g, h, rng, handles)
            lhs = epsilon(L, rho_separating(zb)) & 1
            rhs = selflink_eval(L, sigma_separating(zb.mod2()))
            if lhs != rhs:
                failures.append(f"trial {t}")
        checks["right_square_with_matrix"] = {
            "trials": n,
            "failures": len(failures),
            "witnesses": failures[:5],
            "passed": not failures,
        }

    bi = basis_independence_failures(g, max(10, args.trials // 5), args.seed)
    checks["sigma_basis_independence"] = {
        "trials": max(10, args.trials // 5),
        "failures": len(bi),
        "witnesses": bi[:5],
        "passed": not bi,
    }

    mats = random_sp_matrices(g, max(10, args.trials // 10), args.seed ^ 0x22)
    eq = equivariance_failures(g, mats, seed=args.seed ^ 0x33)
    checks["sigma_equivariance"] = {
        "trials": len(mats),
        "failures": len(eq),
        "witnesses": eq[:5],
        "passed": not eq,
    }

    if args.exhaustive_mu:
        failures = mu_quadratic_exhaustive(g)
        checks["mu_quadratic_exhaustive"] = {
            "trials": 1 << (2 * g),
            "failures": len(failures),
            "witnesses": failures[:5],
            "passed": not failures,
        }

    all_passed = all(c["passed"] for c in checks.values())
    report = {
        "manifest": _manifest(config),
        "genus": g,
        "checks": checks,
        "all_passed": all_passed,
        "timestamp": _timestamp(),
    }
    try:
        _emit_json(report, args.out)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    for name, c in sorted(checks.items()):
        status = "pass" if c["passed"] else "FAIL"
        print(f"{status}  {name} ({c['trials']} trials)", file=sys.stderr)
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


# -- eval ---------------------------------------------------------------------

EVAL_CSV_COLUMNS = ("label", "sigma", "rho", "mu_rho")


def cmd_eval(args) -> int:
    try:
        with open(args.catalog, "rb") as fh:
            raw = fh.read()
        data = json.loads(raw)
    except OSError as exc:
        print(f"cannot read catalog: {exc}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as exc:
        print(f"catalog is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if not isinstance(data, dict) or "genus" not in data:
            raise CatalogError("catalog must be an object with a genus field")
        g = data["genus"]
        if not isinstance(g, int) or g < 1:
            raise CatalogError(f"bad genus {g!r}")
        if "entries" not in data:
            raise CatalogError("catalog must have an entries list")
        entries = data["entries"]
        if not isinstance(entries, list):
            raise CatalogError(f"entries must be a list, not {type(entries).__name__}")
        results = []
        for k, entry in enumerate(entries):
            where = f"entry {k}" + (
                f" ({entry.get('label')})" if isinstance(entry, dict) and entry.get("label") else ""
            )
            descriptor = descriptor_from_json(g, entry, where)
            sig = sigma(descriptor)
            result = {
                "label": descriptor.label or f"entry-{k}",
                "type": "separating" if isinstance(descriptor, SeparatingTwist) else "bp",
                "sigma": str(sig),
                "sigma_json": poly_to_json(sig),
            }
            if entry.get("integral"):
                if isinstance(descriptor, BPMap):
                    raise CatalogError(f"{where}: integral evaluation needs a separating entry")
                try:
                    zbasis = zbasis_from_json({"genus": g, "pairs": entry["basis"]})
                    zbasis.validate()
                except Exception as exc:
                    raise CatalogError(f"{where}: {exc}") from exc
                rho = rho_separating(zbasis)
                result["rho"] = str(rho)
                result["rho_json"] = cmpoly_to_json(rho)
                result["mu_rho"] = str(mu(rho))
                result["epsilon_standard"] = epsilon(LinkingMatrix.standard_model(g), rho)
            results.append(result)
    except CatalogError as exc:
        print(f"catalog error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.format == "json":
        payload = {
            "manifest": _manifest(
                {"catalog": args.catalog, "sha256": hashlib.sha256(raw).hexdigest()}
            ),
            "genus": g,
            "results": results,
        }
        _emit_json(payload, args.out)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(EVAL_CSV_COLUMNS)
        for r in results:
            writer.writerow([r.get(c, "") for c in EVAL_CSV_COLUMNS])
        _emit(buf.getvalue(), args.out)
    else:
        lines = []
        for r in results:
            lines.append(f"{r['label']}: sigma = {r['sigma']}")
            if "rho" in r:
                lines.append(f"{r['label']}: rho = {r['rho']}")
                lines.append(f"{r['label']}: mu(rho) = {r['mu_rho']}")
        _emit("\n".join(lines) if lines else "", args.out)
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
            type=_genus_range,
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
    p.add_argument("--include-families", action="store_true", dest="include_families")
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "g", None) is not None and args.func in (
        cmd_orbits,
        cmd_search,
        cmd_verify,
    ):
        if len(args.g) != 1:
            parser.error(f"{args.command} takes a single genus")
    try:
        return args.func(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
