"""The bcjcalc desk benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; bcjcalc is imported from its
``src`` directory.  The load is a closed loop with one client: one bcjcalc
command at a time, each in a fresh interpreter, so the descriptor and
action-table caches start cold as they do on every CLI call.  Each command
is one process with no extra threads, and ``--workers`` keeps its default
of 1.  Every command's exit code and report are checked (checks.py).

Workloads (the search has no random input, so the seed reaches only
``verify --seed``):

  search-g4  search --g 4 --max-support 3: saturation is about 2/3 of the
             run and the pair stream is small, so generator or reduction
             changes show here and stream-only changes do not.
  search-g5  search --g 5 --max-support 3: the flagship computation; both
             the 2.2 M-pair stream and the rank-1485 saturation matter.
  verify-g4  verify --g 4 --trials 500 --seed N: rho and CMPoly arithmetic,
             no SpanBasis at all, so gf2core and wedgespan changes must show
             no change here.

With ``--trace 0`` the run starts commands until the next one is not
expected to end within ``--seconds`` (at least one), and reports medians
over them of:
  wall_s       from the call into bcjcalc's main until the process exited;
  cpu_s        user plus system CPU of the process and its children;
  peak_rss_mb  peak resident memory of the process;
  setup_s      from spawning the interpreter until bcjcalc is imported and
               argv is parsed, over the commands and SETUP_PROBES extra
               interpreters that only set up.

Timings are scaled to a nominal host speed (speed.py), because the shared
host this was written on slows its vCPUs by up to 1.8x for seconds at a
time.  wall_s and cpu_s are scaled by the chunk times sampled inside the
command, and setup_s by a bare interpreter start timed right before.  The
benchmark pins itself, and so its commands, to one vCPU, since the host
slows each vCPU on its own.  Raw seconds and each interpreter's scales are
kept in the record.

With ``--trace 1`` it alternates untraced and traced commands (at least one
and two) and reports the per-layer numbers of spans.py as medians over the
traced commands, plus trace.overhead, the median traced wall_s over the
median untraced wall_s, minus 1.  The exact counts (spans.EXACT_COUNTS)
must repeat between traced commands; a traced command whose counts differ
from the first one counts as failed.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it name every metric with its
unit, the fail rate and the environment.  Per-run records (environment,
every command's numbers, the metrics), the last report and the spans of the
last traced command go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_search, check_verify, load_golden  # noqa: E402
from spans import EXACT_COUNTS, layer_metrics  # noqa: E402
from speed import REF_START_S, bare_start_s, scale  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 5
# A run must end within 180 s; no command is started that could not end
# before this many seconds from the run's start.
RUN_DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    argv: Callable[[int], list[str]]
    check: Callable[[int, dict], list[str]]


def _search(genus: int) -> Workload:
    def check(code: int, report: dict) -> list[str]:
        return check_search(code, report, genus, load_golden(f"search-g{genus}"))

    return Workload(
        lambda seed: ["search", "--g", str(genus), "--max-support", "3"], check
    )


WORKLOADS = {
    "search-g4": _search(4),
    "search-g5": _search(5),
    "verify-g4": Workload(
        lambda seed: ["verify", "--g", "4", "--trials", "500", "--seed", str(seed)],
        check_verify,
    ),
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".overhead")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Command:
    """One bcjcalc command in its own interpreter, with what it cost."""

    code: int
    setup_s: float
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    span_s: float = 0.0
    report: Optional[dict] = None
    report_bytes: int = 0
    traced: bool = False
    trace: Optional[dict] = None
    last_s: float = 0.0
    scale: float = 1.0
    setup_scale: float = 1.0
    problems: list[str] = field(default_factory=list)


def _wait(pid: int, timeout: float):
    """os.wait4 that kills the child once `timeout` seconds have passed."""

    def on_alarm(signum, frame):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return status, usage, _now()


def child_env() -> dict[str, str]:
    return {k: v for k, v in os.environ.items() if k not in ("BCJCALC_WORKERS", "PYTHONPATH")}


def run_command(argv: list[str], timeout: float, tag: str, traced: bool = False,
                setup_only: bool = False) -> Command:
    """Spawn the child interpreter for one command and collect its numbers."""
    OUT.mkdir(exist_ok=True)
    times_path = OUT / f"times-{tag}.json"
    spans_path = OUT / f"spans-{tag}.json"
    report_path = OUT / f"report-{tag}.json"
    for p in (times_path, spans_path):
        p.unlink(missing_ok=True)
    child = [
        sys.executable, str(HERE / "child.py"), str(SRC), str(times_path),
        str(spans_path) if traced else "-",
        *(["--setup-only"] if setup_only else []), "--", *argv,
    ]
    with open(report_path, "wb") as out, open(OUT / f"stderr-{tag}.txt", "wb") as err:
        spawned = _now()
        proc = subprocess.Popen(child, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            status, usage, exited = _wait(proc.pid, timeout)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        with open(times_path) as fh:
            times = json.load(fh)
    except (OSError, ValueError):
        return Command(code=proc.returncode, setup_s=0.0,
                       problems=[f"child ended with {proc.returncode} before reporting"])
    cmd = Command(code=proc.returncode, setup_s=times["setup_done"] - spawned, traced=traced)
    if setup_only:
        return cmd
    cmd.scale = scale(times["chunks"])
    cmd.span_s = times["written"] - times["return"]
    cmd.wall_s = exited - times["call"] - cmd.span_s
    cmd.cpu_s = usage.ru_utime + usage.ru_stime
    cmd.peak_rss_mb = usage.ru_maxrss / 1024.0
    raw = report_path.read_bytes()
    cmd.report_bytes = len(raw)
    try:
        cmd.report = json.loads(raw)
    except ValueError:
        cmd.problems.append("report is not JSON")
    if traced and spans_path.exists():
        with open(spans_path) as fh:
            cmd.trace = json.load(fh)
    return cmd


def environment(workload: str, argv: list[str], seed: int, trace: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "bcjcalc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "workload": workload,
        "argv": ["bcjcalc", *argv],
        "seed": seed,
        "trace": trace,
    }


class Loop:
    """Closed loop: start the next command only after the last one ended,
    while it is expected to end within the measuring budget."""

    def __init__(self, workload: Workload, argv: list[str], seconds: float):
        self.workload = workload
        self.argv = argv
        self.start = _now()
        self.budget_end = self.start + seconds
        self.deadline = self.start + RUN_DEADLINE_S
        self.commands: list[Command] = []

    def spawn(self, tag: str, traced: bool = False, setup_only: bool = False) -> Command:
        """One interpreter, after the bare start that scales its set-up."""
        began = _now()
        bare_s = bare_start_s(child_env())
        cmd = run_command(self.argv, self.deadline - _now(), tag,
                          traced=traced, setup_only=setup_only)
        cmd.setup_scale = REF_START_S / bare_s
        cmd.last_s = _now() - began
        return cmd

    def run(self, traced: bool) -> Command:
        cmd = self.spawn("traced" if traced else "plain", traced=traced)
        if not cmd.problems:
            cmd.problems = self.workload.check(cmd.code, cmd.report)
        self.commands.append(cmd)
        return cmd

    def fits(self, expected_s: float) -> bool:
        now = _now()
        return now + expected_s <= self.budget_end and now + expected_s * 1.5 < self.deadline


def measure(loop: Loop) -> tuple[dict[str, float], dict[str, str]]:
    """Untraced commands: the end-to-end metrics and how each was formed."""
    probes = [loop.spawn("setup", setup_only=True) for _ in range(SETUP_PROBES)]
    while True:
        cmd = loop.run(traced=False)
        if cmd.code < 0 or not loop.fits(cmd.last_s):
            break
    ok = [c for c in loop.commands if not c.problems]
    setups = [c.setup_s * c.setup_scale for c in probes + loop.commands if c.setup_s > 0]
    if not ok or not setups:
        return {}, {}
    metrics = {
        "wall_s": statistics.median(c.wall_s * c.scale for c in ok),
        "cpu_s": statistics.median(c.cpu_s * c.scale for c in ok),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in ok),
        "setup_s": statistics.median(setups),
    }
    notes = {name: f"median of {len(ok)} commands, scaled" for name in metrics}
    notes["peak_rss_mb"] = f"median of {len(ok)} commands"
    notes["setup_s"] = f"median of {len(setups)} interpreters, scaled"
    return metrics, notes


def measure_traced(loop: Loop) -> dict[str, float]:
    """Alternating untraced and traced commands: the per-layer metrics."""
    plain = [loop.run(traced=False)]
    traced = [loop.run(traced=True), loop.run(traced=True)]
    while loop.fits(plain[-1].last_s + traced[-1].last_s):
        plain.append(loop.run(traced=False))
        traced.append(loop.run(traced=True))
    layers = []
    for cmd in traced:
        if cmd.problems or cmd.trace is None:
            continue
        facts = dict(cmd.trace["facts"], report=cmd.report, report_bytes=cmd.report_bytes)
        layer = {key: value * cmd.scale if key.endswith("_s") else value
                 for key, value in layer_metrics(cmd.trace["spans"], facts).items()}
        for key in EXACT_COUNTS:
            if layers and layer[key] != layers[0][key]:
                cmd.problems.append(f"{key} = {layer[key]}, first traced run had {layers[0][key]}")
        layers.append(layer)
    plain_walls = [c.wall_s * c.scale for c in plain if not c.problems]
    traced_walls = [c.wall_s * c.scale for c in traced if not c.problems]
    if not layers or not plain_walls or not traced_walls:
        return {}
    metrics = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
    metrics["trace.overhead"] = statistics.median(traced_walls) / statistics.median(plain_walls) - 1
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bcjcalc" / "__init__.py").is_file():
        print(f"no bcjcalc sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # Turn a termination request into SystemExit, so a running child is
    # killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    workload = WORKLOADS[args.workload]
    cmd_argv = workload.argv(args.seed)
    env = environment(args.workload, cmd_argv, args.seed, args.trace)
    env["cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["cpu"]})
    loop = Loop(workload, cmd_argv, args.seconds)
    if args.trace:
        metrics = measure_traced(loop)
        units = {name: layer_unit(name) for name in metrics}
        n_traced = sum(1 for c in loop.commands if c.traced)
        notes = {name: f"median of {n_traced} traced commands" for name in metrics}
    else:
        metrics, notes = measure(loop)
        units = END_TO_END_UNITS

    attempted = len(loop.commands)
    failed = sum(1 for c in loop.commands if c.problems)
    correct = failed == 0 and bool(metrics)
    for k, c in enumerate(loop.commands):
        for problem in c.problems:
            print(f"{args.workload} command {k}: {problem}", file=sys.stderr)

    record = {
        "env": env,
        "commands": [
            {key: getattr(c, key) for key in
             ("code", "traced", "setup_s", "wall_s", "cpu_s", "peak_rss_mb", "span_s",
              "scale", "setup_scale", "problems")}
            for c in loop.commands
        ],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print("env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]} ({notes[name]})")
    print(f"{args.workload} fail_rate {failed / attempted:.6g} ratio ({failed} of {attempted} commands)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
