"""Run every pinned bcjcalc command: ``python .github/pins.py`` (no options).

Each case runs ``python -m bcjcalc.cli ARGV`` on this checkout's src in a fresh
temporary directory holding the INPUTS files ARGV names, by relative path.  It must
exit as expected with no "Traceback" on stderr, and match any sha256 of the output
(``bytes``: the file; ``report``: the JSON less "timestamp" and "elapsed"), facts
(dotted paths into the report) and peak-RSS bound in MB (``os.wait4``) it is given;
every verify check must pass and run a trial.  One line per case, with its wall time
and peak RSS; exit 1 on a failure.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from functools import reduce
from pathlib import Path

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
Case = namedtuple("Case", "argv exit hash sha256 facts rss_mb", defaults=(0, None, None, {}, None))


def _separating(label, *basis):
    return {"type": "separating", "label": label, "integral": True, "basis": list(basis)}


INPUTS = {
    "nested.json": "[" * 100000 + "]" * 100000,
    "genus-true.json": '{"genus": true, "entries": []}',
    "genus-33.json": '{"genus": 33, "entries": []}',
    # malformed fields, each named in the error
    "c-int.json": '{"genus": 2, "entries": [{"type": "bp", '
                  '"basis": [[[1, 0, 0, 0], [0, 0, 1, 0]]], "C": 5}]}',
    "basis-ints.json": '{"genus": 2, "entries": [{"type": "separating", "basis": [[5, 6]]}]}',
    "basis-triple.json": '{"genus": 2, "entries": [{"type": "separating", '
                         '"basis": [[[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0]]]}]}',
    "matrix-int.json": '{"genus": 1, "matrix": 5}',
    "row-int.json": '{"genus": 1, "matrix": [5, [1, 0]]}',
    # integers of 5,001 digits, past CPython's 4,300-digit cap on str-to-int
    "long-coordinate.json": '{"genus": 1, "entries": [{"type": "separating", '
                            '"basis": [[[1, 0], [1' + "0" * 5000 + ', 1]]]}]}',
    "long-linking-number.json": '{"genus": 1, "matrix": [[1' + "0" * 5000 + ', 0], [1, 0]]}',
    # the standard model at genus 4: zero diagonal, L[b_i][a_i] = 1
    "linking-g4.json": json.dumps({"genus": 4, "matrix": [[int(q == p - 4) for q in range(8)]
                                                          for p in range(8)]}),
    "catalog.json": json.dumps({"genus": 3, "entries": [
        # coordinate subspaces: one handle, and two handles in a moved basis
        _separating("std-1", [[1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0]]),
        _separating("coord-12", [[1, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0]],
                    [[0, 1, 0, 0, 0, 0], [0, 0, 0, -1, 1, 0]]),
        # non-coordinate subspaces, where N has nonzeros off the handle pairs
        _separating("dense-1a", [[1, 0, 0, 0, 0, 0], [-1, -1, 1, 1, 1, 1]]),
        _separating("dense-1b", [[-1, 3, -1, 3, 3, 1], [-1, 1, -1, 2, 1, 1]]),
        _separating("dense-2", [[2, 1, -1, 1, 0, 0], [-1, 0, 0, 1, -1, 1]],
                    [[0, 0, 1, -1, 1, -1], [-1, -1, 1, -1, 1, 0]]),
    ]}),
    # B = b1 + 10^2200 a2: rho has the coefficient 10^4400, past str()'s 4,300-digit cap
    "big-rho.json": json.dumps({"genus": 2, "entries": [
        _separating("big", [[1, 0, 0, 0], [0, 10**2200, 1, 0]])]}),
}

CASES = [
    # the exit-code contract on malformed input files; no output is pinned
    *(Case(["eval", name], 2) for name in ("nested.json", "genus-true.json", "genus-33.json",
                                           "c-int.json", "basis-ints.json", "basis-triple.json")),
    *(Case(["verify", "--g", "1", "--linking-matrix", name], 3)
      for name in ("nested.json", "matrix-int.json", "row-int.json")),
    # their message names the cap and the digit count (it used to advise an API call)
    Case(["eval", "long-coordinate.json"], 2),
    Case(["verify", "--g", "1", "--linking-matrix", "long-linking-number.json"], 3),
    # a removed flag is a usage error
    Case(["search", "--g", "3", "--include-families"], 2),
    # a --max-support above 5 is a usage error before any work (6 used to end in a
    # MemoryError traceback after its 6-handle template outgrew gigabytes)
    Case(["search", "--g", "8", "--max-support", "6"], 2),
    # closed-form rho at genus 6, pinned with the packed rho kernel it replaced
    Case(["verify", "--g", "6", "--trials", "300", "--seed", "17"], 0, "report",
         "14e9f02e67b5366bc5bcc9ad927411f5731b5422685b5fc4d2b7894ef87c2e9f"),
    # the benchmark's command, and a given linking matrix; pinned before verify
    # stopped validating each integral basis twice (it draws the same bases)
    Case(["verify", "--g", "4", "--trials", "500", "--seed", "5151"], 0, "report",
         "d8984bb9a7dcf8ee1b5ae5d2dd5d58fcdecb78da191f8fb48dc322641f8512ec"),
    Case(["verify", "--g", "4", "--trials", "200", "--seed", "7", "--linking-matrix",
          "linking-g4.json"], 0, "report",
         "50d0e879c19f36595d08aaa7bfd47d50c667e42721cf62a369102c3b35e2dad0"),
    # at genus 32 the drawn bases touch at most 3 of 32 handles, so rho's validation and
    # N stay on those handles' positions; pinned before verify drew rows, not objects
    Case(["verify", "--g", "32", "--trials", "500", "--seed", "3"], 0, "report",
         "d5ab75a5072064227272031381184aac4406dc52ec5d5a30299e7d7b690a5ddc"),
    # the right square draws 500 linking matrices of 32 x 32 built valid, with no
    # pairwise re-check, and handles by sample_draws; pinned while both were checked
    # and drawn by rng.sample
    Case(["verify", "--g", "16", "--trials", "500", "--seed", "3"], 0, "report",
         "59b9ac9954dbc55d4097e8fe24f73edfc5ea38bedfb50888fe97e27a048f7947"),
    # the triangle and right square share each trial's basis on 1 to 3 handles; pinned
    # while the triangle drew h from 0, so a half, a third and a quarter of its trials
    # at genus 1, 2 and 3 drew the empty basis
    *(Case(["verify", "--g", str(g), "--trials", "500", "--seed", "3"], 0, "report", digest)
      for g, digest in ((1, "d37ad998b4b25ebf4b0720740c088158e599d449caea3cea6b61ca62d3a24826"),
                        (2, "bf5be6034ac1cbe2cf42ca92fc6e2a670a70e439bb20e2267eb123b2ef5840d2"),
                        (3, "2ead9e1dfbb3eb0e38677d08003e973c0fda5b3e8f3bb6d440c8b938a4572be6"))),
    # rho on coordinate and non-coordinate subspaces; pinned with the packed rho kernel
    Case(["eval", "catalog.json", "--format", "json"], 0, "bytes",
         "7a42ff3427dfe441a2682f944c0a1aed985b3816029d9b21d344aee208786168"),
    # exact rho past the int-to-str cap (its rendering used to end in a traceback)
    Case(["eval", "big-rho.json", "--format", "json"], 0, "bytes",
         "b38489dc570c4c558b6852ca51bcb336eb2f0546794fbcb685866bac70d777b1"),
    # dims and orbits scale the genus-4 label census by binomials, so no run builds
    # a slot table above genus 4; orbits at genus 32 used to join 2.16M slots, 280 MB
    Case(["dims", "--g", "1..32", "--format", "json"], 0, "bytes",
         "c48f17670ce05b4cadf3d86ab7936d49d13e6b6ec7e84c94cc1c5e059372ea40", rss_mb=100),
    Case(["orbits", "--g", "8", "--format", "json"], 0, "bytes",
         "435f05063a18afd7ac58f5848490a02bff55d6a6b4e05613aae2eb2d13f4a804"),
    Case(["orbits", "--g", "16", "--format", "json"], 0, "bytes",
         "6e94ff10ec27ae2903b1c42895399e9a48120d591352850081ff395b77e5ec30"),
    Case(["orbits", "--g", "32", "--format", "json"], 0, "bytes",
         "22e08dabe55ade75af3e2854f90c418338487ba79db986b96cf5ba8c08d02c82", rss_mb=40),
    # the benchmark's two searches, whole reports: bench/golden keeps only the math
    # fields, not the orbit_hits cycle labels rendered from the packed spines
    Case(["search", "--g", "4", "--max-support", "3"], 0, "report",
         "10891988b9f4eee09a0abd9a57704e1e3e304f415fe8f01331a763451e5c1524",
         {"rank": 630, "codim": 36}),
    Case(["search", "--g", "5", "--max-support", "3"], 0, "report",
         "396041419de02a52bb1c83a06d3cc20af514595063f8c2b5d5e8033b90f85b2a",
         {"rank": 1485, "codim": 55}),
    # search: saturation stores no slot-delta tables (with them g = 10 peaked at 308 MB)
    Case(["search", "--g", "5", "--max-support", "2"], 0, "report",
         "2d8abbbe200552fd993b6671402949ae72cf72f0e81716a617c8a9ad83b567f3"),
    # --no-sp-closure leaves W short of the span, so the run exits 1
    Case(["search", "--g", "5", "--max-support", "3", "--no-sp-closure"], 1, "report",
         "adc39ebe2179486c05efa555076b0fe0f80c038928af892d6d6039bcca9adeef"),
    # no block uses a 5-handle set at g = 5, so its template (173 MB) is not built
    Case(["search", "--g", "5", "--max-support", "5"], 0, "report",
         "c70a06f107af2db8bea8ce2cb0d8423d0121f6a9a72dda9bd22b769105639592", rss_mb=40),
    # the smallest stream: saturation adds nearly all pivots to its 15 rows
    Case(["search", "--g", "6", "--max-support", "1"], 0, "report",
         "5e5a50b1cc563c10e029fa5a0ec697770f6a36b6316b8e9bfb53a825b051443a",
         {"rank": 3003, "codim": 78, "counts.cycle_rank": 15}),
    # the closed-form distinct-image count
    Case(["search", "--g", "6", "--max-support", "3"], 0, "report",
         "aabe242964fd35dd8f68f461da52128c384899625b444824c03dac553be1a66c",
         {"rank": 3003, "codim": 78, "counts.cycle_rank": 1653,
          "counts.cycles": 40037220, "counts.distinct_images": 1112145}),
    Case(["search", "--g", "7", "--max-support", "3"], 0, "report",
         "994217ddd2906b25bc12c7c2dc9109f093af99fed380c069f6060991d3651e74",
         {"rank": 5460, "codim": 105, "missing": []}),
    # --max-support 2 carries the genus-4 span with no D_4 check, and 4 adds the
    # 4-handle block shapes to the counts and the hit scan
    Case(["search", "--g", "7", "--max-support", "2"], 0, "report",
         "b011cc215f5e48db5201cbeb4635f4f03fd143eabce6cf3220dd469105465a19"),
    # only each shape's first block relabels its sigma groups (every set: 68 MB)
    Case(["search", "--g", "7", "--max-support", "4"], 0, "report",
         "94c41479d9b15d6fef8dc84d4dd49a0180b998a7332f55f36caa8ebf9447d81c", rss_mb=40),
    Case(["search", "--g", "8", "--max-support", "3"], 0, "report",
         "88e1826db92209819047e0eb6abf7c44ae779ed2a143eb82c15e334d786dfb11",
         {"rank": 9180, "codim": 136, "missing": []}),
    Case(["search", "--g", "10", "--max-support", "3"], 0, "report",
         "b0486e9726fb358a6974a34c8f7a74bf70049cb9e4472e41bee059885e7c6dd9",
         {"rank": 21945, "codim": 210, "missing": []}, 120),
    # the (2, 2) first hits follow the (1, 4) blocks, past the test oracles; about 30 MB
    Case(["search", "--g", "10", "--max-support", "4"], 0, "report",
         "8206158b8bf7aa4d810fe57c17e831fa68a236a6e3f2568c6c50af4ccb1bfea5",
         {"rank": 21945, "codim": 210, "orbit_hits.III.index": 199728180}, 40),
    # the stream span is D_4 carried to genus 12, 32,574 unit rows; about 50 MB
    Case(["search", "--g", "12", "--max-support", "3"], 0, "report",
         "f04ed1a8586c48e8910f77fee9cd793536233391bc803320af0497f1a374602d",
         {"rank": 44850, "codim": 300, "counts.cycle_rank": 32574, "missing": []}, 60),
    # saturation under four generators adds 19,838 to 62,377 stream rows; about 108 MB
    Case(["search", "--g", "14", "--max-support", "3"], 0, "report",
         "4161ae3cb2b47ff7c5d4966d41fa851393a371e136a3ede8768ef4f5d0a4e779",
         {"rank": 82215, "codim": 406, "counts.cycle_rank": 62377, "missing": []}, 130),
    # the largest pinned saturation: one loop over 139,128 pivots, 84,095 of the
    # 109,128 starting rows fixed under the starting mask; about 238 MB
    Case(["search", "--g", "16", "--max-support", "3"], 0, "report",
         "29977cfed762e0086f9344afa0e70970a898952bdb489dff6c3fdd677ea3de72",
         {"rank": 139128, "codim": 528, "counts.cycle_rank": 109128}, 260),
    # the frontier: 178,299 stream rows and 43,146 added by saturation; about 509 MB
    Case(["search", "--g", "18", "--max-support", "3"], 0, "report",
         "976503162682166f175acc0b1c8024ae956a108889d3861d21980def8759a80c",
         {"rank": 221445, "codim": 666, "counts.cycle_rank": 178299}, 560),
]


def check_output(case: Case, data: bytes) -> list[str]:
    failed = []
    if case.hash == "report":
        report = json.loads(data)
        got = {path: reduce(lambda v, key: v[key], path.split("."), report) for path in case.facts}
        if got != case.facts:
            failed.append(f"facts {got}")
        if case.argv[0] == "verify":
            trials = [c["trials"] for c in report["checks"].values()]
            if report["all_passed"] is not True or min(trials, default=0) < 1:
                failed.append(f"all_passed {report['all_passed']}, trials {trials}")
        report = {k: v for k, v in report.items() if k not in ("timestamp", "elapsed")}
        data = json.dumps(report, sort_keys=True, separators=(",", ":")).encode()
    if (digest := hashlib.sha256(data).hexdigest()) != case.sha256:
        failed.append(f"sha256 {digest}, pinned {case.sha256}")
    return failed


def run(case: Case) -> tuple[int, float, float, list[str]]:
    with tempfile.TemporaryDirectory() as d:
        for name in set(case.argv) & INPUTS.keys():
            Path(d, name).write_text(INPUTS[name])
        out = ["--out", "out"] if case.hash else []
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-m", "bcjcalc.cli", *case.argv, *out], cwd=d,
                              env=dict(os.environ, PYTHONPATH=SRC), stderr=subprocess.PIPE) as p:
            failed = ["Traceback on stderr"] if b"Traceback" in p.stderr.read() else []
            _, status, usage = os.wait4(p.pid, 0)  # after stderr's EOF, so no pipe stalls
            p.returncode = code = os.waitstatus_to_exitcode(status)
        wall_s = time.perf_counter() - t0
        peak_mb = usage.ru_maxrss / 1024  # KB on Linux
        if code != case.exit:
            failed.append(f"want exit {case.exit}")
        if case.rss_mb is not None and peak_mb >= case.rss_mb:
            failed.append(f"peak RSS bound {case.rss_mb} MB")
        if case.hash:
            try:
                failed += check_output(case, Path(d, "out").read_bytes())
            except (OSError, ValueError, LookupError, TypeError) as exc:
                failed.append(f"output unreadable: {exc!r}")
    return code, wall_s, peak_mb, failed


if __name__ == "__main__":
    n_failed = 0
    for case in CASES:
        code, wall_s, peak_mb, failed = run(case)
        n_failed += bool(failed)
        print("FAIL" if failed else "ok  ", " ".join(case.argv), "| exit", code,
              f"| wall {wall_s:.2f} s | peak RSS {peak_mb:.1f} MB", *(f"| {f}" for f in failed), flush=True)
    sys.exit(1 if n_failed else 0)
