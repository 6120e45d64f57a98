"""Run one bcjcalc command in this fresh interpreter, as a desk user would,
and record when set-up ended and when the command was called and returned.

Usage:
    python3 child.py SRC TIMES_OUT SPANS_OUT [--setup-only] -- ARGV...

SRC is the checkout's ``src`` directory; bcjcalc is imported from there and
nowhere else.  The command's report goes to this process's stdout.  TIMES_OUT
receives the CLOCK_MONOTONIC stamps, so the parent can compare them with its
own, and the chunk times of speed.Sampler, taken while the interpreter set
up and ran the command.  SPANS_OUT is ``-`` for an untraced run; otherwise
the command runs with every layer callable wrapped (see spans.py) and the
spans are written there after the command returns.
"""

from __future__ import annotations

import json
import os
import sys
import time

from speed import Sampler


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    sampler = Sampler()
    sampler.start()
    src, times_out, spans_out, *rest = sys.argv[1:]
    setup_only = rest[0] == "--setup-only"
    argv = rest[rest.index("--") + 1:]

    sys.path.insert(0, src)
    from bcjcalc import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"bcjcalc imported from {cli.__file__}, not from {src}")
    args = cli.build_parser().parse_args(argv)
    times = {"setup_done": _now()}
    if setup_only:
        times["chunks"] = sampler.stop()
        _write_json(times_out, times)
        return 0

    tracer = None
    if spans_out != "-":
        from spans import Tracer, layer_bindings

        tracer = Tracer()
        tracer.install(layer_bindings())

    times["call"] = _now()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    times["return"] = _now()
    times["chunks"] = sampler.stop()

    if tracer is not None:
        tracer.restore()
        facts = {}
        if args.command == "search":
            from bcjcalc.wedgespan import closure_generators

            facts["closure_generators"] = len(closure_generators(args.g[0]))
        _write_json(spans_out, {"spans": tracer.spans, "facts": facts})
    times["written"] = _now()
    times["code"] = code
    _write_json(times_out, times)
    return code


def _write_json(path: str, data) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())
