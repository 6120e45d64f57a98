"""Correctness checks on one bcjcalc run's exit code and report.

Each check returns a list of problems; an empty list means the run is
correct.  The search check compares mathematical fields only, so run
metadata, the manifest and the ``parameters`` block may change without
failing it.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Fields of a search report that must equal the golden made at the commit
# that introduced the benchmark.
GOLDEN_FIELDS = ("dims", "class_coverage", "orbit_hits")
GOLDEN_COUNTS = ("cycles", "distinct_images", "cycle_rank")

VERIFY_CHECKS = frozenset({
    "triangle",
    "mu_quadratic",
    "right_square",
    "wedge_lift",
    "sigma_basis_independence",
    "sigma_equivariance",
})


def golden_of(report: dict) -> dict:
    """The part of a search report a golden pins."""
    out = {key: report[key] for key in GOLDEN_FIELDS}
    out["counts"] = {key: report["counts"][key] for key in GOLDEN_COUNTS}
    return out


def load_golden(name: str) -> dict:
    with open(GOLDEN_DIR / f"{name}.json") as fh:
        return json.load(fh)


def check_search(code: int, report: dict, genus: int, golden: dict) -> list[str]:
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    try:
        if report["missing"] != []:
            problems.append(f"{len(report['missing'])} slots missing")
        if report["coverage_complete"] is not True:
            problems.append("coverage not complete")
        if report["codim"] != 2 * genus * genus + genus:
            problems.append(f"codim {report['codim']} != 2g^2+g")
        if report["rank"] + report["codim"] != report["dims"]["dim_wedge"]:
            problems.append(f"rank {report['rank']} + codim != dim_wedge")
        got = golden_of(report)
    except (KeyError, TypeError) as exc:
        return problems + [f"malformed report: {exc!r}"]
    for key, want in golden.items():
        if got[key] != want:
            problems.append(f"{key} differs from the golden")
    return problems


def check_verify(code: int, report: dict) -> list[str]:
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    try:
        if report["all_passed"] is not True:
            problems.append("all_passed is not true")
        checks = report["checks"]
        if set(checks) != VERIFY_CHECKS:
            problems.append(f"checks {sorted(checks)} are not the expected six")
        for name, c in sorted(checks.items()):
            if not c["trials"] >= 1:
                problems.append(f"{name} ran {c['trials']} trials")
            if c["failures"] != 0 or c["passed"] is not True:
                problems.append(f"{name} failed {c['failures']} trials")
    except (KeyError, TypeError, AttributeError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems
