"""Tests of the benchmark itself: span arithmetic, host-speed scaling, the
layer bindings, the output checks and the agreement between BENCHMARK.json
and the code.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import copy
import json
import signal
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402


def span(name, start, end, parent=-1, outcome=None):
    return [name, start, end, parent, outcome]


# -- self time -----------------------------------------------------------------


def test_self_time_subtracts_children_not_grandchildren():
    tree = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, 0),
        span("b", 5.0, 9.0, 0),
        span("c", 6.0, 7.0, 2),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    tree = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 5.0, 0),
        span("b", 3.0, 6.0, 0),
        span("c", 8.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_layer_metrics_split_inserts_by_caller_and_outcome():
    tree = [
        span("cli.main", 0.0, 20.0),
        span("wedgespan.search", 1.0, 19.0, 0),
        span("gf2core.insert", 2.0, 3.0, 1, True),
        span("gf2core.insert", 3.0, 3.5, 1, False),
        span("wedgespan.saturate", 4.0, 18.0, 1),
        span("wedgespan.action_table", 4.0, 5.0, 4),
        span("gf2core.insert", 6.0, 8.0, 4, False),
        span("gf2core.insert", 8.0, 9.0, 4, False),
        span("gf2core.insert", 9.0, 13.0, 4, True),
    ]
    facts = {
        "report": {"counts": {"cycles": 36, "distinct_images": 1, "closure_added_rank": 1}},
        "report_bytes": 100,
        "closure_generators": 1,
    }
    m = spans.layer_metrics(tree, facts)
    assert m["gf2core.insert.calls"] == 5
    assert m["gf2core.insert.independent"] == 2
    assert m["gf2core.insert.useful_ratio"] == pytest.approx(0.4)
    assert m["gf2core.insert.independent_s"] == pytest.approx(5.0)
    assert m["gf2core.insert.dependent_s"] == pytest.approx(3.5)
    assert m["gf2core.insert.stream_s"] == pytest.approx(1.5)
    assert m["wedgespan.saturate.attempts"] == 3
    assert m["wedgespan.saturate.self_s"] == pytest.approx(14.0 - 1.0 - 7.0)
    assert m["wedgespan.search.self_s"] == pytest.approx(18.0 - 1.5 - 14.0)
    assert m["wedgespan.stream.dedupe_ratio"] == pytest.approx(1 / 36)
    assert m["cli.main.self_s"] == pytest.approx(2.0)


# -- the tracer ----------------------------------------------------------------


def test_tracer_records_nesting_and_outcome_and_restores():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x > 0
    mod.outer = lambda x: [mod.inner(x), mod.inner(-x)]
    originals = (mod.inner, mod.outer)

    tracer = spans.Tracer()
    tracer.install({"t.inner": [(mod, "inner")], "t.outer": [(mod, "outer")]})
    assert mod.outer(1) == [True, False]
    tracer.restore()

    assert (mod.inner, mod.outer) == originals
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("t.outer", -1, None), ("t.inner", 0, True), ("t.inner", 0, False)]
    assert all(s[1] <= s[2] for s in tracer.spans)


def test_every_layer_binding_exists_in_the_package():
    for name, sites in spans.layer_bindings().items():
        for owner, attr in sites:
            assert callable(vars(owner).get(attr)), f"{name}: {owner!r}.{attr}"


# -- host speed ----------------------------------------------------------------


def test_scale_is_the_mean_rate_against_the_reference():
    ref = speed.REF_CHUNK_S
    assert speed.scale([ref] * 4) == pytest.approx(1.0)
    # Half the samples at half speed: three quarters of the nominal work per
    # second, however long the slow chunks took.
    assert speed.scale([ref, 2 * ref]) == pytest.approx(0.75)
    assert speed.scale([ref, 100 * ref]) == pytest.approx(0.505)


def test_sampler_times_chunks_while_work_runs_and_stops():
    sampler = speed.Sampler()
    sampler.start()
    end = time.perf_counter() + 6 * speed.PERIOD_S
    while time.perf_counter() < end:
        pass
    times = sampler.stop()
    assert len(times) >= 4 and all(t > 0 for t in times)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_bare_start_times_an_interpreter():
    assert 0 < speed.bare_start_s(run.child_env()) < 10


# -- output checks -------------------------------------------------------------


def search_report(genus=4):
    golden = checks.load_golden(f"search-g{genus}")
    report = copy.deepcopy(golden)
    report["codim"] = 2 * genus * genus + genus
    report["rank"] = report["dims"]["dim_wedge"] - report["codim"]
    report["missing"] = []
    report["coverage_complete"] = True
    report["counts"].update(closure_added_rank=348, family_elements=0)
    report["timestamp"] = "whenever"
    return golden, report


def verify_report():
    names = sorted(checks.VERIFY_CHECKS)
    return {
        "all_passed": True,
        "checks": {n: {"trials": 10, "failures": 0, "witnesses": [], "passed": True} for n in names},
    }


def test_search_check_accepts_the_golden_run():
    golden, report = search_report()
    assert checks.check_search(0, report, 4, golden) == []


@pytest.mark.parametrize(
    "doctor",
    [
        lambda r: r.update(rank=r["rank"] - 1),
        lambda r: r.update(
            missing=[{"slot": 5, "element": "a1 ^ a2", "class": "X"}], coverage_complete=False
        ),
        lambda r: r["missing"].append({"slot": 5}),
        lambda r: r.update(codim=r["codim"] + 1, rank=r["rank"] - 1),
        lambda r: r["counts"].update(cycle_rank=r["counts"]["cycle_rank"] - 1),
        lambda r: r["class_coverage"].update(IV="incomplete"),
        lambda r: r.pop("orbit_hits"),
    ],
    ids=["rank-1", "missing-slot", "missing-only", "codim", "cycle-rank", "class", "malformed"],
)
def test_search_check_rejects_doctored_reports(doctor):
    golden, report = search_report()
    doctor(report)
    assert checks.check_search(0, report, 4, golden)


def test_search_check_rejects_nonzero_exit():
    golden, report = search_report()
    assert checks.check_search(1, report, 4, golden)


def test_verify_check_accepts_a_clean_run():
    assert checks.check_verify(0, verify_report()) == []


@pytest.mark.parametrize(
    "doctor",
    [
        lambda r: r["checks"]["triangle"].update(trials=0),
        lambda r: r["checks"]["wedge_lift"].update(failures=1, passed=False),
        lambda r: r["checks"].pop("mu_quadratic"),
        lambda r: r.update(all_passed=False),
        lambda r: r.pop("checks"),
    ],
    ids=["zero-trials", "failure", "missing-check", "not-all-passed", "malformed"],
)
def test_verify_check_rejects_doctored_reports(doctor):
    report = verify_report()
    doctor(report)
    assert checks.check_verify(0, report)


def test_verify_check_rejects_nonzero_exit():
    assert checks.check_verify(1, verify_report())


# -- the descriptor and the command ---------------------------------------------


def test_benchmark_json_names_what_run_reports():
    with open(ROOT / "BENCHMARK.json") as fh:
        desc = json.load(fh)
    assert {w["name"] for w in desc["workloads"]} == set(run.WORKLOADS)
    assert {m["name"] for m in desc["end_to_end"]} == set(run.END_TO_END_UNITS)
    for m in desc["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    layer = spans.layer_metrics([], {})
    assert {m["name"] for m in desc["per_layer"]} == set(layer) | {"trace.overhead"}
    for m in desc["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])


def test_run_refuses_a_tree_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "search-g4", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_traced_command_repeats_its_exact_counts(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    argv = ["search", "--g", "3", "--max-support", "2"]
    layers = []
    for _ in range(2):
        cmd = run.run_command(argv, 60, "test", traced=True)
        assert cmd.code == 0 and not cmd.problems
        facts = dict(cmd.trace["facts"], report=cmd.report, report_bytes=cmd.report_bytes)
        layers.append(spans.layer_metrics(cmd.trace["spans"], facts))
        assert 0 < cmd.scale < 2
    for key in spans.EXACT_COUNTS:
        assert layers[0][key] == layers[1][key], key
    assert layers[0]["wedgespan.stream.pairs"] > 0
    assert layers[0]["gf2core.insert.calls"] > 0
