"""Spans around bcjcalc's public callables, and the per-layer numbers
derived from them.

A traced run replaces each layer callable at the place its caller looks it
up (the module global or class attribute the calling code reads), records
one span per call, and restores the originals afterwards.  Nothing inside
the package is edited, so the untraced runs execute exactly the shipped
code.

A span is ``[name, start, end, parent, outcome]``: ``parent`` is the index
of the enclosing span (-1 for none) and ``outcome`` is the call's result
when that result is a bool (``SpanBasis.insert_bits`` reports independence
that way), else None.  Spans stay in memory until the run ends and are then
written out in one piece.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


def layer_bindings() -> dict[str, list[tuple[object, str]]]:
    """Span name -> the (module, attribute) or (class, method) bindings to
    wrap.  Each binding is where a caller looks the callable up, so sigma is
    wrapped as wedgespan.sigma (the search's name for it) and cli.sigma."""
    from bcjcalc import bcjmap, boolring, cassonmorita, cli, gf2core, surface, wedgespan

    return {
        "cli.main": [(cli, "main")],
        "wedgespan.search": [(cli, "image_rank_report")],
        "wedgespan.descriptors": [(wedgespan, "_descriptors_for_set")],
        "wedgespan.saturate": [(wedgespan, "saturate_span")],
        "wedgespan.action_table": [(wedgespan, "_wedge_action_table")],
        "gf2core.insert": [(gf2core.SpanBasis, "insert_bits")],
        "gf2core.contains": [(gf2core.SpanBasis, "contains_bits")],
        "bcjmap.sigma": [(wedgespan, "sigma"), (cli, "sigma")],
        "bcjmap.basis_independence": [(cli, "basis_independence_failures")],
        "bcjmap.equivariance": [(cli, "equivariance_failures")],
        "surface.validate": [
            (surface.SubsurfaceBasis, "validate"),
            (surface.ZSubsurfaceBasis, "validate"),
        ],
        "surface.zbasis": [
            (cassonmorita, "random_z_symplectic_basis"),
            (surface, "random_z_symplectic_basis"),
        ],
        "boolring.substitute_sp": [(boolring, "substitute_sp"), (bcjmap, "substitute_sp")],
        "cassonmorita.verify": [(cli, "verify_diagrams")],
        "cassonmorita.rho": [(cassonmorita, "rho_separating"), (cli, "rho_separating")],
        "cassonmorita.cm_generator": [(cassonmorita, "cm_generator")],
        "cassonmorita.cmpoly_mul": [(cassonmorita.CMPoly, "__mul__")],
        "cassonmorita.mu": [(cassonmorita, "mu"), (cli, "mu")],
        "cassonmorita.epsilon": [(cassonmorita, "epsilon"), (cli, "epsilon")],
    }


class Tracer:
    """Records a span for every call through the bindings it wrapped."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[list] = []
        self._clock = clock
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str) -> None:
        original = vars(owner)[attr]
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if result is True or result is False:
                span[4] = result
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self, bindings: dict[str, list[tuple[object, str]]]) -> None:
        for name, sites in bindings.items():
            for owner, attr in sites:
                self.wrap(owner, attr, name)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: dict[int, list[int]] = defaultdict(list)
    for k, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(k)
    out = []
    for k, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children.get(k, ()), key=lambda c: spans[c][1]):
            lo = max(spans[c][1], reach)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_metrics(spans: list[list], facts: dict) -> dict[str, float]:
    """Per-layer numbers of one traced command.

    ``facts`` carries what the spans cannot show: the command's report
    (for the stream counts), its size in bytes, and the number of closure
    generators.

    What each layer should move, written down before any optimisation:
      gf2core       wall_s on search-g5, then search-g4; nothing on verify-g4.
      wedgespan     stream.* moves wall_s and peak_rss_mb on search-g5 and
                    about nothing on search-g4; saturate.* moves wall_s on
                    both searches.
      bcjmap        sigma moves wall_s on search-g4 (descriptors are about
                    1/6 of it).
      surface       validate moves wall_s on the searches, zbasis on
                    verify-g4.
      boolring      substitute_sp builds the action tables in the searches
                    and runs the equivariance check in verify-g4.
      cassonmorita  wall_s on verify-g4 only.
      cli           nothing anywhere; it guards against reporting costs.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, selfs):
        calls[span[0]] += 1
        self_s[span[0]] += own
        total_s[span[0]] += span[2] - span[1]

    inserts = [(span, own) for span, own in zip(spans, selfs) if span[0] == "gf2core.insert"]
    independent = sum(1 for span, _ in inserts if span[4])
    in_saturate = sum(
        1 for span, _ in inserts
        if span[3] >= 0 and spans[span[3]][0] == "wedgespan.saturate"
    )
    in_search = sum(
        own for span, own in inserts
        if span[3] >= 0 and spans[span[3]][0] == "wedgespan.search"
    )
    counts = facts.get("report", {}).get("counts", {})
    pairs = counts.get("cycles", 0)
    distinct = counts.get("distinct_images", 0)

    return {
        "gf2core.insert.calls": len(inserts),
        "gf2core.insert.independent": independent,
        "gf2core.insert.useful_ratio": independent / len(inserts) if inserts else 0.0,
        "gf2core.insert.dependent_s": sum(own for span, own in inserts if not span[4]),
        "gf2core.insert.independent_s": sum(own for span, own in inserts if span[4]),
        "gf2core.insert.stream_s": in_search,
        "gf2core.contains.calls": calls["gf2core.contains"],
        "gf2core.contains.self_s": self_s["gf2core.contains"],
        "wedgespan.search.self_s": self_s["wedgespan.search"],
        "wedgespan.stream.pairs": pairs,
        "wedgespan.stream.distinct": distinct,
        "wedgespan.stream.dedupe_ratio": distinct / pairs if pairs else 0.0,
        "wedgespan.descriptors.total_s": total_s["wedgespan.descriptors"],
        "wedgespan.saturate.self_s": self_s["wedgespan.saturate"],
        "wedgespan.saturate.total_s": total_s["wedgespan.saturate"],
        "wedgespan.saturate.generators": facts.get("closure_generators", 0),
        "wedgespan.saturate.attempts": in_saturate,
        "wedgespan.saturate.added_rank": counts.get("closure_added_rank", 0),
        "wedgespan.action_table.calls": calls["wedgespan.action_table"],
        "wedgespan.action_table.self_s": self_s["wedgespan.action_table"],
        "bcjmap.sigma.calls": calls["bcjmap.sigma"],
        "bcjmap.sigma.self_s": self_s["bcjmap.sigma"],
        "bcjmap.basis_independence.self_s": self_s["bcjmap.basis_independence"],
        "bcjmap.equivariance.self_s": self_s["bcjmap.equivariance"],
        "surface.validate.calls": calls["surface.validate"],
        "surface.validate.self_s": self_s["surface.validate"],
        "surface.zbasis.calls": calls["surface.zbasis"],
        "surface.zbasis.self_s": self_s["surface.zbasis"],
        "boolring.substitute_sp.calls": calls["boolring.substitute_sp"],
        "boolring.substitute_sp.self_s": self_s["boolring.substitute_sp"],
        "cassonmorita.verify.self_s": self_s["cassonmorita.verify"],
        "cassonmorita.rho.calls": calls["cassonmorita.rho"],
        "cassonmorita.rho.self_s": self_s["cassonmorita.rho"],
        "cassonmorita.cm_generator.calls": calls["cassonmorita.cm_generator"],
        "cassonmorita.cm_generator.self_s": self_s["cassonmorita.cm_generator"],
        "cassonmorita.cmpoly_mul.calls": calls["cassonmorita.cmpoly_mul"],
        "cassonmorita.cmpoly_mul.self_s": self_s["cassonmorita.cmpoly_mul"],
        "cassonmorita.mu.self_s": self_s["cassonmorita.mu"],
        "cassonmorita.epsilon.self_s": self_s["cassonmorita.epsilon"],
        "cli.main.self_s": self_s["cli.main"],
        "cli.report_bytes": facts.get("report_bytes", 0),
        "trace.spans": len(spans),
    }


# Counts that a deterministic command must reproduce exactly on every run.
EXACT_COUNTS = (
    "wedgespan.stream.pairs",
    "wedgespan.stream.distinct",
    "wedgespan.saturate.generators",
    "wedgespan.saturate.attempts",
    "gf2core.insert.calls",
    "gf2core.insert.independent",
    "cassonmorita.rho.calls",
    "cassonmorita.cmpoly_mul.calls",
)
