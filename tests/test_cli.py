"""Command-line contract: subcommands, exit codes, determinism, schemas."""

import csv
import gc
import hashlib
import io
import json
import random
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from bcjcalc import bcjmap, cli, jsonio, wedgespan
from bcjcalc.cassonmorita import LinkingMatrix
from bcjcalc.cli import MAX_GENUS, _genus_range, main
from bcjcalc.errors import CatalogError, ConsistencyError
from bcjcalc.surface import random_sp_word


SCHEMAS = Path(__file__).resolve().parents[1] / "docs" / "schemas"
SEARCH_SCHEMA = SCHEMAS / "search_report.json"


def str_digit_cap() -> int:
    """CPython's cap on the digits of a str-to-int conversion; skip without one."""
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not cap:
        pytest.skip("this interpreter converts integers of any length")
    return cap


def standard_model_json(g):
    """The standard-model linking matrix at genus g as a linking-matrix document."""
    L = LinkingMatrix.standard_model(g)
    return {"genus": g, "matrix": [list(row) for row in L.entries]}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDims:
    def test_range_md(self, capsys):
        code, out, _ = run(capsys, "dims", "--g", "1..4")
        assert code == 0
        rows = [line for line in out.splitlines() if line.startswith("| 4")]
        assert rows and "| 37 |" in rows[0] and "| 666 |" in rows[0]

    def test_single_genus(self, capsys):
        code, out, _ = run(capsys, "dims", "--g", "1")
        assert code == 0
        assert "| 4 |" in out

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "dims", "--g", "2..3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("g,d,dim_wedge")
        assert lines[1].split(",")[:3] == ["2", "11", "55"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "dims", "--g", "3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["rows"][0]["d"] == 22
        assert data["manifest"]["tool"] == "bcjcalc"

    def test_unknown_flag_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dims", "--g", "2", "--bogus"])
        assert exc.value.code == 2

    def test_bad_range_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dims", "--g", "4..1"])
        assert exc.value.code == 2

    def test_missing_genus_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dims"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["dims", "--g", "1..99999999"],
            ["dims", "--g", f"{MAX_GENUS}..{MAX_GENUS + 1}"],
            ["search", "--g", str(MAX_GENUS + 1)],
        ],
    )
    def test_genus_above_maximum_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"above the maximum {MAX_GENUS}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["orbits", "search", "verify"])
    def test_range_for_a_single_genus_command_usage_error(self, capsys, command):
        # the --g type of these commands rejects a range while parsing, so the
        # message names the option
        with pytest.raises(SystemExit) as exc:
            main([command, "--g", "1..3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --g: takes a single genus, got '1..3'" in err
        assert "Traceback" not in err

    def test_maximum_genus_accepted(self):
        assert _genus_range(f"{MAX_GENUS - 1}..{MAX_GENUS}") == [MAX_GENUS - 1, MAX_GENUS]
        assert _genus_range(str(MAX_GENUS)) == [MAX_GENUS]


class TestOrbits:
    def test_md_table(self, capsys):
        code, out, _ = run(capsys, "orbits", "--g", "4")
        assert code == 0
        for label in ("| I |", "| XI |", "| III |"):
            assert label in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "orbits", "--g", "3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["n_classes"] == 10
        assert data["errors"] == []

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "orbits", "--g", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "class,size,representative"
        assert len(lines) == 11


class TestSearch:
    def test_partial_coverage_exits_one(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, err = run(
            capsys, "search", "--g", "2", "--max-support", "1", "--out", str(out_path)
        )
        assert code == 1
        report = json.loads(out_path.read_text())
        assert report["missing"]
        assert report["rank"] == 10
        assert "missing 26" in err

    def test_full_coverage_exits_zero(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "search", "--g", "3", "--max-support", "3", "--out", str(out_path)
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["coverage_complete"] is True
        assert report["rank"] >= report["dims"]["dim_w"]
        assert report["manifest"]["config"]["max_support"] == 3

    def test_rerun_byte_identical_modulo_run_metadata(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "search", "--g", "2", "--max-support", "2", "--out", str(p1))
        run(capsys, "search", "--g", "2", "--max-support", "2", "--out", str(p2))
        d1, d2 = json.loads(p1.read_text()), json.loads(p2.read_text())
        for d in (d1, d2):
            d.pop("timestamp")
            d.pop("elapsed")
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)

    def test_report_keys_and_constants_follow_the_schema(self, capsys, tmp_path):
        schema = json.loads(SEARCH_SCHEMA.read_text())
        out_path = tmp_path / "report.json"
        run(capsys, "search", "--g", "3", "--max-support", "3", "--out", str(out_path))
        report = json.loads(out_path.read_text())
        assert set(schema["required"]) <= report.keys() <= schema["properties"].keys()

        def consts(node, path=()):
            for key, sub in node.get("properties", {}).items():
                if "const" in sub:
                    yield path + (key,), sub["const"]
                yield from consts(sub, path + (key,))

        found = dict(consts(schema))
        compatibility = {
            ("parameters", "include_families"), ("counts", "family_elements"),
            ("counts", "family_added_rank"), ("family_warnings",), ("machine_verified_only",),
        }
        assert compatibility <= found.keys()
        for path, const in found.items():
            value = report
            for key in path:
                value = value[key]
            # type too: the constant false is not 0
            assert (type(value), value) == (type(const), const), path

    @pytest.mark.parametrize("closure", [True, False])
    def test_report_is_the_search_result_plus_the_envelope(self, capsys, tmp_path, closure):
        result = wedgespan.image_rank_report(3, 2, sp_closure=closure)
        envelope = {"parameters", "family_warnings", "machine_verified_only", "manifest",
                    "timestamp", "elapsed"}
        assert not envelope & result.keys()
        assert not {"family_elements", "family_added_rank"} & result["counts"].keys()

        out_path = tmp_path / "report.json"
        flags = [] if closure else ["--no-sp-closure"]
        run(capsys, "search", "--g", "3", "--max-support", "2", *flags, "--out", str(out_path))
        report = json.loads(out_path.read_text())
        parameters = {"max_support": 2, "sp_closure": closure, "include_families": False}
        assert report.pop("parameters") == parameters
        assert report.pop("manifest") == cli._manifest({"g": 3, **parameters})
        assert isinstance(report.pop("elapsed"), float)
        assert isinstance(report.pop("timestamp"), str)
        assert report.pop("family_warnings") == []
        assert report.pop("machine_verified_only") is True
        assert report["counts"].pop("family_elements") == 0
        assert report["counts"].pop("family_added_rank") == 0
        assert report == json.loads(json.dumps(result))

    def test_zero_max_support_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--g", "3", "--max-support", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--max-support" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["6", "7", "100"])
    def test_max_support_above_five_usage_error(self, capsys, monkeypatch, value):
        # the 6-handle template alone outgrew 3 GB at genus 7, and the saturated
        # span does not depend on --max-support, so a value above 5 is refused
        # while parsing, before any template is built
        def no_template(s):
            raise AssertionError(f"_template({s})")

        monkeypatch.setattr(wedgespan, "_template", no_template)
        with pytest.raises(SystemExit) as exc:
            main(["search", "--g", "8", "--max-support", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: bcjcalc search")
        assert f"argument --max-support: must be at most 5, got {value}" in err
        assert "Traceback" not in err
        args = cli.build_parser().parse_args(["search", "--g", "8", "--max-support", "5"])
        assert args.max_support == 5

    @pytest.mark.parametrize(
        "flag",
        [
            ["--workers", "2"],
            ["--seed", "1"],
            ["--include-bp"],
            ["--format", "json"],
            ["--include-families"],
        ],
        ids=["workers", "seed", "include-bp", "format", "include-families"],
    )
    def test_removed_flags_usage_error(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--g", "2", "--max-support", "1", *flag])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and flag[0] in err
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"bcjcalc: error: unrecognized arguments: {' '.join(flag)}"
        ]
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "g,ms,digest",
        [
            (4, 4, "c2b15323d920057fb6890ca0ece8d7e7dc5241d5856768d3fa57d849283725e7"),
            (5, 5, "c70a06f107af2db8bea8ce2cb0d8423d0121f6a9a72dda9bd22b769105639592"),
        ],
    )
    def test_max_support_at_genus_builds_no_unused_template(
        self, capsys, tmp_path, monkeypatch, g, ms, digest
    ):
        # a support set of size s has a disjoint partner only if s < g, and a
        # shape (a, b) has blocks only if a + b <= g, so no block uses the
        # s-handle template for s >= g; building it took 2.2 s and 173 MB at
        # g = 5.  The digest is the report's, without run metadata, as built
        # when every template up to --max-support was built
        real = wedgespan._template

        def below_genus(s):
            assert s < g, f"_template({s})"
            return real(s)

        monkeypatch.setattr(wedgespan, "_template", below_genus)
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "search", "--g", str(g), "--max-support", str(ms),
                         "--out", str(out_path))
        assert code == 0
        report = json.loads(out_path.read_text())
        for key in ("timestamp", "elapsed"):
            report.pop(key)
        text = json.dumps(report, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_timestamp_parses_back_as_utc(self):
        before = datetime.now(timezone.utc)
        stamp = datetime.fromisoformat(cli._timestamp())
        after = datetime.now(timezone.utc)
        assert stamp.utcoffset() == timedelta(0)
        assert before - timedelta(microseconds=1) <= stamp <= after
        assert cli._timestamp().endswith("+00:00")

    def test_io_error_exits_three(self, capsys):
        code, _, err = run(
            capsys,
            "search", "--g", "2", "--max-support", "1",
            "--out", "/nonexistent-dir/report.json",
        )
        assert code == 3
        assert "i/o error" in err


class TestVerify:
    def test_passes(self, capsys, tmp_path):
        out_path = tmp_path / "verify.json"
        code, _, err = run(
            capsys,
            "verify", "--g", "2", "--trials", "60", "--seed", "7",
            "--out", str(out_path),
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["all_passed"] is True
        assert "triangle" in report["checks"]
        assert "sigma_equivariance" in report["checks"]
        assert "sigma_basis_independence" in report["checks"]
        assert "pass" in err

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_every_reported_check_ran_trials(self, capsys, tmp_path, g):
        out_path = tmp_path / "verify.json"
        code, _, _ = run(
            capsys, "verify", "--g", str(g), "--trials", "1", "--seed", "2",
            "--out", str(out_path),
        )
        assert code == 0
        checks = json.loads(out_path.read_text())["checks"]
        assert all(c["trials"] >= 1 for c in checks.values()), checks
        # no two disjoint handles exist at genus 1
        assert ("wedge_lift" in checks) == (g >= 2)

    @pytest.mark.parametrize("g, trials", [(1, 60), (2, 200), (4, 500)])
    def test_basis_independence_compares_the_recorded_trials(
        self, capsys, tmp_path, monkeypatch, g, trials
    ):
        # With a sigma that equals nothing, every comparison is a failure, so
        # the failure count is the number of rebases compared.
        real = cli.basis_independence_failures

        def every_comparison_fails(*args):
            with monkeypatch.context() as m:
                m.setattr(bcjmap, "sigma_separating", lambda basis: object())
                return real(*args)

        monkeypatch.setattr(cli, "basis_independence_failures", every_comparison_fails)
        out_path = tmp_path / "verify.json"
        code, _, _ = run(
            capsys, "verify", "--g", str(g), "--trials", str(trials), "--seed", "4",
            "--out", str(out_path),
        )
        record = json.loads(out_path.read_text())["checks"]["sigma_basis_independence"]
        assert code == 1
        assert record["failures"] == record["trials"] == max(10, trials // 5)

    @pytest.mark.parametrize("g, trials, seed", [(1, 60, 3), (3, 200, 9), (4, 500, 5151)])
    def test_equivariance_replays_the_sp_words(
        self, capsys, tmp_path, monkeypatch, g, trials, seed
    ):
        # the pinned reports hold counts only, so replay the draws: the
        # matrices are Sp words drawn in turn from Random(seed ^ 0x22)
        compared = []
        real = cli.equivariance_failures

        def recorded(genus, matrices, **kwargs):
            compared.extend(matrices)
            return real(genus, matrices, **kwargs)

        monkeypatch.setattr(cli, "equivariance_failures", recorded)
        code, _, _ = run(
            capsys, "verify", "--g", str(g), "--trials", str(trials), "--seed", str(seed),
            "--out", str(tmp_path / "verify.json"),
        )
        rng = random.Random(seed ^ 0x22)
        assert code == 0
        assert compared == [random_sp_word(g, rng) for _ in range(max(10, trials // 10))]

    def test_exhaustive_mu(self, capsys, tmp_path):
        out_path = tmp_path / "verify.json"
        code, _, _ = run(
            capsys,
            "verify", "--g", "3", "--trials", "20", "--seed", "3",
            "--exhaustive-mu", "--out", str(out_path),
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["checks"]["mu_quadratic_exhaustive"]["trials"] == 64
        assert report["checks"]["mu_quadratic_exhaustive"]["passed"] is True

    def test_verify_reproducible(self, capsys, tmp_path):
        p1, p2 = tmp_path / "v1.json", tmp_path / "v2.json"
        for p in (p1, p2):
            run(capsys, "verify", "--g", "2", "--trials", "30", "--seed", "11",
                "--out", str(p))
        d1, d2 = json.loads(p1.read_text()), json.loads(p2.read_text())
        d1.pop("timestamp"), d2.pop("timestamp")
        assert d1 == d2

    def test_valid_linking_matrix_used(self, capsys, tmp_path):
        mat_path = tmp_path / "L.json"
        mat_path.write_text(json.dumps(standard_model_json(2)))
        out_path = tmp_path / "verify.json"
        code, _, _ = run(
            capsys,
            "verify", "--g", "2", "--trials", "30", "--seed", "5",
            "--linking-matrix", str(mat_path), "--out", str(out_path),
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["checks"]["right_square_with_matrix"]["passed"] is True

    def test_invalid_linking_matrix_exits_three(self, capsys, tmp_path):
        mat_path = tmp_path / "bad.json"
        mat_path.write_text(json.dumps({"genus": 1, "matrix": [[0, 0], [0, 0]]}))
        code, _, err = run(capsys, "verify", "--g", "1", "--linking-matrix", str(mat_path))
        assert code == 3
        assert "a1" in err and "b1" in err

    def test_linking_matrix_genus_mismatch_exits_three(self, capsys, tmp_path):
        mat_path = tmp_path / "L1.json"
        mat_path.write_text(json.dumps(standard_model_json(1)))
        code, out, err = run(
            capsys, "verify", "--g", "2", "--trials", "5", "--linking-matrix", str(mat_path)
        )
        assert code == 3
        assert out == ""
        assert err.strip().count("\n") == 0
        assert "genus 1" in err and "--g 2" in err

    def test_malformed_linking_matrix_exits_three(self, capsys, tmp_path):
        mat_path = tmp_path / "L.json"
        for data in ({"matrix": [[0, 0], [1, 0]]}, [1, 2], {"genus": 1, "matrix": 5}):
            mat_path.write_text(json.dumps(data))
            code, _, err = run(capsys, "verify", "--g", "1", "--linking-matrix", str(mat_path))
            assert code == 3
            assert err.startswith("invalid linking matrix:")

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (5, "matrix must be a list of rows, got int"),
            ([5, [1, 0]], "matrix row 0 must be a list, got int"),
            ([[0, 0], "10"], "matrix row 1 must be a list, got str"),
        ],
        ids=["matrix-int", "row-int", "row-str"],
    )
    def test_malformed_matrix_field_is_named(self, capsys, tmp_path, matrix, message):
        # these used to say "'int' object is not iterable", naming no field
        mat_path = tmp_path / "L.json"
        mat_path.write_text(json.dumps({"genus": 1, "matrix": matrix}))
        code, out, err = run(capsys, "verify", "--g", "1", "--linking-matrix", str(mat_path))
        assert code == 3
        assert out == ""
        assert err == f"invalid linking matrix: {message}\n"

    @pytest.mark.parametrize("data", [[1, 2], "L", 5, None], ids=["list", "str", "int", "null"])
    def test_non_object_linking_matrix_exits_three(self, capsys, tmp_path, data):
        # a list used to be indexed by "genus": "list indices must be integers
        # or slices, not str"
        mat_path = tmp_path / "L.json"
        mat_path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", "--g", "1", "--linking-matrix", str(mat_path))
        assert code == 3
        assert out == ""
        assert err == "invalid linking matrix: linking matrix must be a JSON object\n"

    @pytest.mark.parametrize("entry", [1.5, True, "0"])
    def test_non_integer_linking_number_exits_three(self, capsys, tmp_path, entry):
        # the schema says integer: 1.5 used to be read as 1, true as 1, "0" as 0
        data = standard_model_json(2)
        data["matrix"][0][0] = entry
        mat_path = tmp_path / "L.json"
        mat_path.write_text(json.dumps(data))
        code, out, err = run(
            capsys, "verify", "--g", "2", "--trials", "5", "--linking-matrix", str(mat_path)
        )
        assert code == 3
        assert out == ""
        assert err.strip() == (
            f"invalid linking matrix: linking number must be an integer, got {entry!r}"
        )

    def test_boolean_genus_exits_three(self, capsys, tmp_path):
        # the schema says integer: true used to be read as genus 1, exit 0
        data = standard_model_json(1)
        data["genus"] = True
        mat_path = tmp_path / "L.json"
        mat_path.write_text(json.dumps(data))
        code, out, err = run(
            capsys, "verify", "--g", "1", "--trials", "3", "--linking-matrix", str(mat_path)
        )
        assert code == 3
        assert out == ""
        assert err.strip() == (
            "invalid linking matrix: genus must be a positive integer, got True"
        )

    def test_integer_past_the_str_digit_cap_is_one_line(self, capsys, tmp_path):
        # json.loads' message advised sys.set_int_max_str_digits(), which a
        # command-line user cannot call
        cap = str_digit_cap()
        mat_path = tmp_path / "L.json"
        mat_path.write_text('{"genus": 1, "matrix": [[1' + "0" * cap + ", 0], [1, 0]]}")
        code, out, err = run(capsys, "verify", "--g", "1", "--linking-matrix", str(mat_path))
        assert (code, out) == (3, "")
        assert err == (
            f"invalid linking matrix: an integer has {cap + 1} digits, more than the {cap} allowed\n"
        )

    def test_deeply_nested_json_exits_three(self, capsys, tmp_path):
        # 100,000 nested brackets used to end in a RecursionError traceback
        mat_path = tmp_path / "nested.json"
        mat_path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, "verify", "--g", "1", "--linking-matrix", str(mat_path))
        assert code == 3
        assert out == ""
        assert err.strip().splitlines() == [err.strip()]
        assert err.startswith("invalid linking matrix: not valid JSON: ")

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_below_one_usage_error(self, capsys, trials):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--g", "2", "--trials", trials])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--trials" in err
        assert "pass" not in err

    def test_format_usage_error(self, capsys):
        # verify writes JSON only, so it takes no --format
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--g", "2", "--trials", "5", "--format", "json"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--format" in err
        assert "Traceback" not in err

    def test_unreadable_linking_matrix_exits_three(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "verify", "--g", "1", "--linking-matrix", str(tmp_path / "nope.json")
        )
        assert code == 3


class TestEval:
    def write_catalog(self, tmp_path, entries, genus=2):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps({"genus": genus, "entries": entries}))
        return str(path)

    def test_separating_entry(self, capsys, tmp_path):
        path = self.write_catalog(
            tmp_path,
            [{"type": "separating", "basis": [[[1, 0, 0, 0], [0, 0, 1, 0]]], "label": "t1"}],
        )
        code, out, _ = run(capsys, "eval", path)
        assert code == 0
        assert "t1: sigma = a1*b1" in out

    def test_bp_entry(self, capsys, tmp_path):
        path = self.write_catalog(
            tmp_path,
            [
                {
                    "type": "bp",
                    "basis": [[[0, 1, 0, 0], [0, 0, 0, 1]]],
                    "C": [1, 0, 0, 0],
                    "label": "bp1",
                }
            ],
        )
        code, out, _ = run(capsys, "eval", path)
        assert code == 0
        assert "bp1: sigma = a2*b2 + a1*a2*b2" in out

    def test_integral_entry_includes_rho(self, capsys, tmp_path):
        path = self.write_catalog(
            tmp_path,
            [
                {
                    "type": "separating",
                    "basis": [[[1, 0, 0, 0], [0, 0, 1, 0]]],
                    "label": "z1",
                    "integral": True,
                }
            ],
        )
        code, out, _ = run(capsys, "eval", path)
        assert code == 0
        assert "z1: rho = l(a1,b1) - l(a1,a1)*l(b1,b1) + l(a1,b1)^2" in out
        assert "z1: mu(rho) = a1*b1" in out

    def test_standard_model_built_once(self, capsys, tmp_path, monkeypatch):
        # every integral entry's epsilon_standard reads one standard matrix;
        # it used to be rebuilt and re-checked per entry
        standard_model = LinkingMatrix.standard_model.__func__
        calls = []

        def counted(cls, genus):
            calls.append(genus)
            return standard_model(cls, genus)

        monkeypatch.setattr(LinkingMatrix, "standard_model", classmethod(counted))
        entry = {"type": "separating", "basis": [[[1, 0, 0, 0], [0, 0, 1, 0]]], "integral": True}
        path = self.write_catalog(tmp_path, [entry] * 3)
        code, out, _ = run(capsys, "eval", path, "--format", "json")
        assert code == 0
        assert [r["epsilon_standard"] for r in json.loads(out)["results"]] == [0, 0, 0]
        assert calls == [2]

    def test_each_integral_basis_validated_once(self, capsys, tmp_path, monkeypatch):
        # the catalog reader validates each integral basis over Z and rho reads
        # it unchecked; rho used to check it again (N = J on a coordinate
        # subspace, a second symplectic_violation call on any other)
        from bcjcalc import cassonmorita, surface

        checks, rho_calls = [], []
        violation, rho_rows = surface.symplectic_violation, cassonmorita.rho_rows

        def counted_violation(basis):
            checks.append(type(basis).__name__)
            return violation(basis)

        def counted_rho(g, rows, **kwargs):
            rho_calls.append(kwargs)
            return rho_rows(g, rows, **kwargs)

        monkeypatch.setattr(surface, "symplectic_violation", counted_violation)
        monkeypatch.setattr(cassonmorita, "rho_rows", counted_rho)
        entries = [
            {"type": "separating", "basis": basis, "integral": True}
            for basis in (
                [[[1, 0, 0, 0], [0, 0, 1, 0]]],  # the coordinate subspace of handle 1
                [[[1, 1, 0, 0], [0, 0, 1, 0]]],  # A = a1 + a2: 1 pair on 2 handles
                [[[1, 0, 0, 0], [0, 0, 1, 0]], [[0, 1, 0, 1], [0, 0, 0, 1]]],
            )
        ] + [{"type": "separating", "basis": [[[0, 1, 0, 0], [0, 0, 0, 1]]]}]
        path = self.write_catalog(tmp_path, entries)
        code, out, _ = run(capsys, "eval", path, "--format", "json")
        assert code == 0
        assert ["rho" in r for r in json.loads(out)["results"]] == [True, True, True, False]
        assert checks.count("ZSubsurfaceBasis") == 3
        assert rho_calls == [{"validated": True}] * 3

    def test_invalid_integral_basis_is_catalog_error(self, capsys, tmp_path):
        # A = 3 a1 is valid mod 2 only: the reader's check over Z names the entry
        entry = {"type": "separating", "basis": [[[3, 0, 0, 0], [0, 0, 1, 0]]],
                 "label": "z3", "integral": True}
        path = self.write_catalog(tmp_path, [entry])
        code, out, err = run(capsys, "eval", path)
        assert (code, out) == (2, "")
        assert err == "catalog error: entry 0 (z3): A1.B1 = 3, expected 1\n"

    @pytest.mark.parametrize(
        "coord, integral",
        [
            pytest.param(1.5, True, id="1.5"),
            pytest.param(True, True, id="True"),
            pytest.param("1", True, id="1"),
            pytest.param(1.5, False, id="mod2-1.5"),
            pytest.param(True, False, id="mod2-True"),
            pytest.param("1", False, id="mod2-1"),
        ],
    )
    def test_non_integer_integral_coordinate_is_catalog_error(
        self, capsys, tmp_path, coord, integral
    ):
        # the schema says integer, in a mod-2 entry too: true used to evaluate
        # as 1 with exit 0, and a mod-2 1.5 or "1" failed on Python's `&`
        path = self.write_catalog(
            tmp_path,
            [
                {
                    "type": "separating",
                    "basis": [[[coord, 0, 0, 0], [0, 0, 1, 0]]],
                    "label": "z1",
                    "integral": integral,
                }
            ],
        )
        code, out, err = run(capsys, "eval", path)
        assert code == 2
        assert out == ""
        assert err.strip() == (
            f"catalog error: entry 0 (z1): coordinate must be an integer, got {coord!r}"
        )

    def test_label_line_break_keeps_one_stderr_line(self, capsys, tmp_path):
        # the label is quoted in the message; its line break used to split it
        path = self.write_catalog(tmp_path, [{"type": "bp", "basis": [], "label": "a\nb"}])
        code, out, err = run(capsys, "eval", path)
        assert code == 2
        assert out == ""
        assert err == "catalog error: entry 0 (a b): bp entry is missing C\n"

    def test_label_line_break_keeps_one_md_line_per_record(self, capsys, tmp_path):
        # a line break in the label used to split the record over two lines
        entry = {
            "type": "separating",
            "basis": [[[1, 0, 0, 0], [0, 0, 1, 0]]],
            "label": "x\ny",
            "integral": True,
        }
        path = self.write_catalog(tmp_path, [entry])
        code, out, _ = run(capsys, "eval", path)
        assert code == 0
        assert out.splitlines() == [
            "x y: sigma = a1*b1",
            "x y: rho = l(a1,b1) - l(a1,a1)*l(b1,b1) + l(a1,b1)^2",
            "x y: mu(rho) = a1*b1",
        ]
        # JSON keeps the label as given, and CSV quotes it
        code, out, _ = run(capsys, "eval", path, "--format", "json")
        assert json.loads(out)["results"][0]["label"] == "x\ny"
        code, out, _ = run(capsys, "eval", path, "--format", "csv")
        assert list(csv.reader(io.StringIO(out)))[1][0] == "x\ny"

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("integral", "no", "entry 0 (z1): integral must be a boolean, got str"),
            ("integral", 1, "entry 0 (z1): integral must be a boolean, got int"),
            ("label", [1, {"a": 2}], "entry 0: label must be a string, got list"),
            ("label", 7, "entry 0: label must be a string, got int"),
        ],
        ids=["integral-no", "integral-1", "label-list", "label-int"],
    )
    def test_field_type_is_catalog_error(self, capsys, tmp_path, field, value, message):
        # the schema says label is a string and integral a boolean: "no" used
        # to be truthy, so rho was computed, and a list label was echoed into
        # the results; both exited 0
        entry = {
            "type": "separating",
            "basis": [[[1, 0, 0, 0], [0, 0, 1, 0]]],
            "label": "z1",
        }
        entry[field] = value
        path = self.write_catalog(tmp_path, [entry])
        code, out, err = run(capsys, "eval", path, "--format", "json")
        assert code == 2
        assert out == ""
        assert err == f"catalog error: {message}\n"

    @pytest.mark.parametrize("integral", [False, True], ids=["mod2", "integral"])
    def test_missing_basis_is_catalog_error(self, capsys, tmp_path, integral):
        # a mod-2 entry used to read a missing basis as the empty one (sigma
        # = 0, exit 0); an integral one printed the bare KeyError 'basis'
        path = self.write_catalog(
            tmp_path, [{"type": "separating", "label": "z", "integral": integral}]
        )
        code, out, err = run(capsys, "eval", path)
        assert code == 2
        assert out == ""
        assert err == "catalog error: entry 0 (z): missing field 'basis'\n"

    @pytest.mark.parametrize(
        "basis, integral, got",
        [
            (5, False, "int"),
            (5, True, "int"),
            ("ab", False, "str"),
            ({"A": [1, 0, 0, 0]}, False, "dict"),
            ({}, False, "dict"),
            (None, True, "NoneType"),
        ],
        ids=["int", "integral-int", "str", "dict", "empty-dict", "null"],
    )
    def test_basis_not_a_list_is_catalog_error(self, capsys, tmp_path, basis, integral, got):
        # 5 used to say "'int' object is not iterable", naming no field, and
        # an empty object was read as the empty basis (exit 0)
        entry = {"type": "separating", "basis": basis, "label": "z", "integral": integral}
        path = self.write_catalog(tmp_path, [entry])
        code, out, err = run(capsys, "eval", path)
        assert code == 2
        assert out == ""
        assert err == (
            f"catalog error: entry 0 (z): basis must be a list of [A, B] coordinate pairs, "
            f"got {got}\n"
        )

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"type": "bp", "basis": [[[1, 0, 0, 0], [0, 0, 1, 0]]], "C": 5},
             "C must be a list of 4 coordinates, got int"),
            ({"type": "bp", "basis": [], "C": [1, 0, 0]},
             "C must be a list of 4 coordinates, got a list of 3"),
            ({"type": "separating", "basis": [[5, 6]]},
             "basis[0][0] must be a list of 4 coordinates, got int"),
            ({"type": "separating", "basis": [[[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0]]]},
             "basis[0] must be an [A, B] pair, got a list of 3"),
            ({"type": "separating", "basis": [5]}, "basis[0] must be an [A, B] pair, got int"),
        ],
        ids=["C-int", "C-short", "basis-ints", "basis-triple", "basis-pair-int"],
    )
    def test_malformed_field_is_named(self, capsys, tmp_path, entry, message):
        # these used to say "object of type 'int' has no len()", "too many
        # values to unpack (expected 2)" or "cannot unpack non-iterable int
        # object", naming no field
        path = self.write_catalog(tmp_path, [entry])
        code, out, err = run(capsys, "eval", path)
        assert code == 2
        assert out == ""
        assert err == f"catalog error: entry 0: {message}\n"

    @pytest.mark.parametrize(
        "genus, message",
        [
            (True, "genus must be a positive integer, got True"),
            (MAX_GENUS + 1, f"genus {MAX_GENUS + 1} is above the maximum {MAX_GENUS}"),
        ],
        ids=["true", "above-maximum"],
    )
    def test_bad_genus_is_catalog_error(self, capsys, tmp_path, genus, message):
        # true used to be read as genus 1, and a genus above MAX_GENUS was
        # accepted; both exited 0.  The genus is checked before any entry.
        path = self.write_catalog(tmp_path, [{"type": "nope"}], genus=genus)
        code, out, err = run(capsys, "eval", path)
        assert code == 2
        assert out == ""
        assert err.strip() == f"catalog error: {message}"

    def test_integer_past_the_str_digit_cap_is_one_line(self, capsys, tmp_path):
        # json.loads' message advised sys.set_int_max_str_digits(), which a
        # command-line user cannot call; the sign is not a digit
        cap = str_digit_cap()
        path = tmp_path / "catalog.json"
        path.write_text('{"genus": 1, "entries": [{"type": "separating", '
                        '"basis": [[[1, 0], [-1' + "0" * cap + ", 1]]]}]}")
        code, out, err = run(capsys, "eval", str(path))
        assert (code, out) == (2, "")
        assert err == f"catalog error: an integer has {cap + 1} digits, more than the {cap} allowed\n"

    def test_deeply_nested_json_is_catalog_error(self, capsys, tmp_path):
        # 100,000 nested brackets used to end in a RecursionError traceback
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, "eval", str(path))
        assert code == 2
        assert out == ""
        assert err.strip().splitlines() == [err.strip()]
        assert err.startswith("catalog error: not valid JSON: ")

    def test_empty_catalog(self, capsys, tmp_path):
        path = self.write_catalog(tmp_path, [])
        code, out, _ = run(capsys, "eval", path)
        assert code == 0
        assert out.strip() == ""

    def test_schema_violation_names_entry(self, capsys, tmp_path):
        path = self.write_catalog(
            tmp_path,
            [
                {"type": "separating", "basis": [[[1, 0, 0, 0], [0, 0, 1, 0]]], "label": "ok"},
                {"type": "bp", "basis": [], "label": "broken"},
            ],
        )
        code, _, err = run(capsys, "eval", path)
        assert code == 2
        assert "entry 1" in err and "broken" in err

    def test_missing_file_exits_three(self, capsys, tmp_path):
        code, _, _ = run(capsys, "eval", str(tmp_path / "absent.json"))
        assert code == 3

    def test_json_format_carries_manifest_hash(self, capsys, tmp_path):
        path = self.write_catalog(
            tmp_path,
            [{"type": "separating", "basis": [[[1, 0, 0, 0], [0, 0, 1, 0]]], "label": "t"}],
        )
        code, out, _ = run(capsys, "eval", path, "--format", "json")
        assert code == 0
        data = json.loads(out)
        with open(path, "rb") as fh:
            assert data["manifest"]["config"]["sha256"] == hashlib.sha256(fh.read()).hexdigest()
        assert data["results"][0]["sigma_json"] == [[0, 2]]


    def test_csv_format(self, capsys, tmp_path):
        path = self.write_catalog(
            tmp_path,
            [
                {"type": "separating", "basis": [[[1, 0, 0, 0], [0, 0, 1, 0]]], "label": "t1"},
                {
                    "type": "separating",
                    "basis": [[[1, 0, 0, 0], [0, 0, 1, 0]]],
                    "label": "z1",
                    "integral": True,
                },
            ],
        )
        code, out, _ = run(capsys, "eval", path, "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows == [
            ["label", "sigma", "rho", "mu_rho"],
            ["t1", "a1*b1", "", ""],
            ["z1", "a1*b1", "l(a1,b1) - l(a1,a1)*l(b1,b1) + l(a1,b1)^2", "a1*b1"],
        ]

    # B = b1 + K a2 with K = 10^2200 (2,201 digits, within json.loads' cap), so
    # rho(A, B) = l(A,B) - l(A,A)l(B,B) + l(A,B)^2 expands bilinearly into
    # coefficients K, 2K and K^2; K^2 has 4,401 digits, past str()'s default cap.
    BIG_K, BIG_2K, BIG_K2 = "1" + "0" * 2200, "2" + "0" * 2200, "1" + "0" * 4400
    BIG_RHO = (
        f"{BIG_K}*l(a1,a2) + l(a1,b1) - {BIG_K2}*l(a1,a1)*l(a2,a2)"
        f" - {BIG_2K}*l(a1,a1)*l(a2,b1) - l(a1,a1)*l(b1,b1) + {BIG_K2}*l(a1,a2)^2"
        f" + {BIG_2K}*l(a1,a2)*l(a1,b1) + l(a1,b1)^2"
    )

    @pytest.mark.parametrize("fmt", ["md", "csv", "json"])
    def test_rho_coefficient_past_the_int_str_cap_is_exact(self, capsys, tmp_path, fmt):
        # str(K^2) used to raise ValueError in every format, a traceback with exit 1
        entry = {"type": "separating", "label": "big", "integral": True,
                 "basis": [[[1, 0, 0, 0], [0, 10**2200, 1, 0]]]}
        path = self.write_catalog(tmp_path, [entry])
        cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run(capsys, "eval", path, "--format", fmt)
        assert (code, err) == (0, "")
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap
        if fmt == "md":
            assert out.splitlines()[1] == f"big: rho = {self.BIG_RHO}"
        elif fmt == "csv":
            assert list(csv.reader(io.StringIO(out)))[1] == ["big", "a1*b1", self.BIG_RHO, "a1*b1"]
        else:
            result = json.loads(out, parse_int=str)["results"][0]
            assert result["rho"] == self.BIG_RHO
            coeffs = [term["coeff"] for term in result["rho_json"]]
            assert coeffs == [self.BIG_K, "1", f"-{self.BIG_K2}", f"-{self.BIG_2K}", "-1",
                              self.BIG_K2, self.BIG_2K, "1"]

    def test_interpreter_without_the_int_str_cap(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
        entry = {"type": "separating", "basis": [[[1, 0, 0, 0], [0, 0, 1, 0]]],
                 "label": "z1", "integral": True}
        code, out, _ = run(capsys, "eval", self.write_catalog(tmp_path, [entry]))
        assert code == 0
        assert "z1: rho = l(a1,b1) - l(a1,a1)*l(b1,b1) + l(a1,b1)^2" in out

    def test_missing_entries_is_catalog_error(self, capsys, tmp_path):
        # docs/schemas/catalog.json requires `entries`; an empty list stays valid
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps({"genus": 2}))
        code, out, err = run(capsys, "eval", str(path))
        assert code == 2
        assert out == ""
        assert err.strip() == "catalog error: catalog must have an entries list"

    @pytest.mark.parametrize("entries", [5, "ab", {"type": "separating"}, None])
    def test_entries_not_a_list_is_catalog_error(self, capsys, tmp_path, entries):
        # a non-list `entries` used to end in a TypeError traceback (5) or be
        # iterated character by character ("ab")
        path = self.write_catalog(tmp_path, entries)
        code, out, err = run(capsys, "eval", path)
        assert code == 2
        assert out == ""
        assert err.strip().splitlines() == [err.strip()]
        assert err.startswith("catalog error: entries must be a list")


# A genus-3 catalog with integral entries (one on two handles, one with a
# coefficient 2), bounding pairs and unlabelled entries.
PIN_CATALOG = {
    "genus": 3,
    "entries": [
        {"type": "separating", "basis": [[[1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0]]],
         "label": "t1"},
        {"type": "separating", "integral": True, "label": "z2",
         "basis": [[[1, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0]],
                   [[0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 1]]]},
        {"type": "separating", "integral": True, "label": "z1",
         "basis": [[[1, 0, 0, 0, 0, 0], [2, 0, 0, 1, 0, 0]]]},
        {"type": "bp", "basis": [[[0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0]]],
         "C": [1, 0, 1, 0, 0, 0], "label": "bp1"},
        {"type": "separating", "integral": True,
         "basis": [[[0, 0, 1, 0, 0, 0], [0, 0, 1, 0, 0, 1]]]},
        {"type": "bp", "basis": [[[1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0]]],
         "C": [0, 0, 1, 0, 0, 0]},
    ],
}


class TestOutputBytes:
    """sha256 of the exact stdout of the table commands in every format.

    For `eval --format json` the catalog path in `manifest.config.catalog`
    differs per run, so that one field is dropped and the rest re-serialized
    as the command writes it (indent 2, sorted keys, one final newline)."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["dims", "--g", "1..4", "--format", "md"],
             "3dad9381685bbee536bda4a636e54fd11771b35a59266637a2f0506c60567226"),
            (["dims", "--g", "1..4", "--format", "csv"],
             "737c79d5683e623f1e8a52800c40171d7954946d8ba76b00c2d34fac10671d07"),
            (["dims", "--g", "1..4", "--format", "json"],
             "e24df6d592ad350ab38015679b6205544a800611d4a4587cef06e6a5ceae854e"),
            (["orbits", "--g", "3", "--format", "md"],
             "eadbf3f518c7671b097e58b675e09902dc04073f63b08317541a36700e76cfa7"),
            (["orbits", "--g", "3", "--format", "csv"],
             "ae6cfc9bb7f7968599073d976270d3b63b4a9de995678116885ec8845ea07f1b"),
            (["orbits", "--g", "3", "--format", "json"],
             "74dd69c537185b644267ae2b8ce71fc492845ecd20d7a538f354ef3cdc0c37bc"),
            # g = 4 is the first genus with class III
            (["orbits", "--g", "4", "--format", "md"],
             "3c466963178d298fa3b2c3b016c940097e3452373622bdd4294a092d5486a716"),
            (["orbits", "--g", "4", "--format", "csv"],
             "20211e8861d02634a13cb8a46287f54d1ef0c6450db65e4546b58ff3ff3c4060"),
            (["orbits", "--g", "4", "--format", "json"],
             "9f2f46cea4491d6f0339c53948b185ebcc9c08e5b767f83727182ab0834c0798"),
            (["orbits", "--g", "5", "--format", "md"],
             "6df958ce6ea923447963cb4cbf8b132c494f0982c43ae9a661db6da0f10ff3de"),
            (["orbits", "--g", "5", "--format", "csv"],
             "83ce09771bc83e410265515f47c0f067f0fe30fcb80f0a65f66a1edb442cb6c1"),
            (["orbits", "--g", "5", "--format", "json"],
             "d9fb0795c1fb34371954e1dcbed7ab43c21bbc810994e83085c2f392e6e9bac7"),
            (["eval", "CATALOG", "--format", "md"],
             "9c8db1b9f35db5a5c3e5dcf7fe99307af8614768b82e07135fca2ba35d4d156c"),
            (["eval", "CATALOG", "--format", "csv"],
             "48c6ba77500d512bab628ef4d6bbf69971f63e64889151917bec5c9466dad2ad"),
            (["eval", "CATALOG", "--format", "json"],
             "a5b629b20de96ac73d7fce51d89882ae3dbae4ff02897641d9a97efe165e46b8"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else v[:8],
    )
    def test_output_sha256(self, capsys, tmp_path, argv, digest):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(PIN_CATALOG))
        argv = [str(path) if a == "CATALOG" else a for a in argv]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        if argv[0] == "eval" and argv[-1] == "json":
            data = json.loads(out)
            assert data["manifest"]["config"].pop("catalog") == str(path)
            out = json.dumps(data, indent=2, sort_keys=True) + "\n"
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class KeyLog(dict):
    """A dict that records every key a reader looks up in it."""

    def __init__(self, *args, **fields):
        super().__init__(*args, **fields)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


class TestDocuments:
    """The readers of `bcjcalc.jsonio` against docs/schemas, and the commands
    that load that module."""

    @pytest.mark.parametrize(
        "argv, loaded",
        [
            (["search", "--g", "3"], False),
            (["verify", "--g", "2", "--trials", "5"], False),
            (["eval", "catalog.json"], True),
            (["verify", "--g", "2", "--trials", "5", "--linking-matrix", "L.json"], True),
        ],
        ids=["search", "verify", "eval", "verify-linking-matrix"],
    )
    def test_only_commands_that_read_a_document_load_the_module(self, tmp_path, argv, loaded):
        (tmp_path / "catalog.json").write_text(json.dumps(PIN_CATALOG))
        (tmp_path / "L.json").write_text(json.dumps(standard_model_json(2)))
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import bcjcalc, bcjcalc.cli; "
            "before = 'bcjcalc.jsonio' in sys.modules; "
            "code = bcjcalc.cli.main(sys.argv[2:] + ['--out', 'out']); "
            "print(code, before, 'bcjcalc.jsonio' in sys.modules)"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        r = subprocess.run([sys.executable, "-S", "-c", code, src, *argv],
                           cwd=tmp_path, capture_output=True, text=True, check=True)
        assert r.stdout.split() == ["0", "False", str(loaded)]

    def test_catalog_reader_fields_follow_the_schema(self):
        schema = json.loads((SCHEMAS / "catalog.json").read_text())
        item = schema["properties"]["entries"]["items"]
        entries = [
            KeyLog(type="bp", label="bp1", basis=[[[0, 1, 0, 0], [0, 0, 0, 1]]], C=[1, 0, 0, 0]),
            KeyLog(type="separating", label="z1", integral=True,
                   basis=[[[1, 0, 0, 0], [0, 0, 1, 0]]]),
        ]
        document = KeyLog(genus=2, entries=entries)
        jsonio.catalog_from_json(document, MAX_GENUS)
        assert document.read == schema["properties"].keys()
        assert set(schema["required"]) <= document.read
        assert set().union(*(e.read for e in entries)) == item["properties"].keys()
        assert set(item["required"]) <= item["properties"].keys()
        for field in item["required"]:
            entry = {k: v for k, v in entries[1].items() if k != field}
            with pytest.raises(CatalogError):
                jsonio.catalog_from_json({"genus": 2, "entries": [entry]}, MAX_GENUS)
        for field in schema["required"]:
            with pytest.raises(CatalogError):
                jsonio.catalog_from_json({k: v for k, v in document.items() if k != field},
                                         MAX_GENUS)

    def test_linking_matrix_reader_fields_follow_the_schema(self):
        schema = json.loads((SCHEMAS / "linking_matrix.json").read_text())
        document = KeyLog(standard_model_json(2))
        assert jsonio.linking_matrix_from_json(document) == LinkingMatrix.standard_model(2)
        assert document.read == schema["properties"].keys()
        assert set(schema["required"]) <= document.read
        for field in schema["required"]:
            with pytest.raises(ConsistencyError):
                jsonio.linking_matrix_from_json({k: v for k, v in document.items() if k != field})


class TestExitHook:
    @pytest.mark.parametrize("n_calls", [0, 1, 2])
    def test_heap_is_frozen_at_exit_only(self, n_calls):
        # In a fresh interpreter, with gc.freeze wrapped to count its calls: an
        # observer registered before main runs after main's hook (atexit is last
        # in, first out), so it sees the heap frozen once; right after main
        # returns nothing is frozen, and importing the cli alone freezes nothing.
        # Counts are taken from the start-up count (375 on Python 3.12.1, else 0).
        code = """if True:
            import atexit, gc, sys
            sys.path.insert(0, sys.argv[1])
            freeze, calls, base = gc.freeze, [], gc.get_freeze_count()
            gc.freeze = lambda: calls.append(1) or freeze()
            atexit.register(lambda: print("at exit", len(calls), gc.get_freeze_count() > base))
            from bcjcalc import cli
            for _ in range(int(sys.argv[2])):
                cli.main(["dims", "--g", "2", "--format", "json"])
            print("after main", gc.get_freeze_count() - base)
        """
        src = str(Path(cli.__file__).resolve().parents[1])
        r = subprocess.run([sys.executable, "-c", code, src, str(n_calls)],
                           capture_output=True, text=True)
        assert (r.returncode, r.stderr) == (0, "")
        *reports, after_main, at_exit = r.stdout.splitlines()
        assert after_main == "after main 0"
        assert at_exit == ("at exit 1 True" if n_calls else "at exit 0 False")
        assert "\n".join(reports).count('"dim_wedge": 55') == n_calls


def run_fresh(code, *args):
    """Run `code` in a fresh interpreter with bcjcalc's src first on sys.path
    (it is argv[1] there, `args` follow); its stdout lines."""
    src = str(Path(cli.__file__).resolve().parents[1])
    r = subprocess.run([sys.executable, "-c", code, src, *args], capture_output=True, text=True)
    assert (r.returncode, r.stderr) == (0, "")
    return r.stdout.splitlines()


class TestCollector:
    """main turns the cyclic collector off from parsing to return and gives
    the caller back the state it had."""

    def test_no_collection_while_a_search_runs(self):
        # With the collector left on, this run makes 8 collection passes
        # (Python 3.11).
        code = """if True:
            import contextlib, gc, io, os, sys
            sys.path.insert(0, sys.argv[1])
            from bcjcalc import cli
            passes = []
            gc.callbacks.append(lambda phase, info: phase == "start" and passes.append(1))
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["search", "--g", "5", "--max-support", "3", "--out", os.devnull])
            gc.callbacks.clear()
            print(code, len(passes), gc.isenabled())
        """
        assert run_fresh(code) == ["0 0 True"]

    @pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "argv, exit_code",
        [
            (["search", "--g", "3"], 0),
            (["search", "--g", "2"], 1),  # 26 slots missing
            (["search", "--g", "1..3"], 2),  # argparse raises SystemExit
            (["eval", "/nonexistent-dir/catalog.json"], 3),
            (["--version"], 0),  # SystemExit(0)
        ],
        ids=["ok", "check-failed", "usage", "io", "version"],
    )
    def test_caller_state_restored_on_every_exit_path(self, capsys, argv, exit_code, collecting):
        before = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            after = gc.isenabled()
        finally:
            (gc.enable if before else gc.disable)()
        assert (code, after) == (exit_code, collecting)

    def test_disabled_caller_and_constant_cyclic_garbage(self):
        # A caller that disabled the collector finds it disabled after main,
        # and the only cyclic garbage a command leaves is its parser, the same
        # at genus 3 as at genus 8.
        code = """if True:
            import contextlib, gc, io, os, sys
            sys.path.insert(0, sys.argv[1])
            from bcjcalc import cli
            gc.disable()
            for g in ("3", "8"):
                gc.collect()
                with contextlib.redirect_stderr(io.StringIO()):
                    cli.main(["search", "--g", g, "--out", os.devnull])
                print(gc.isenabled(), gc.collect())
        """
        first, second = run_fresh(code)
        assert first == second
        assert first.startswith("False ")

    def test_module_entry_keeps_the_collector_off_to_exit(self, tmp_path):
        # `python -m bcjcalc.cli` runs `script`: no collection pass after the
        # command has written its report, and the collector still off at exit.
        # main alone re-enables it with the command's young generation pending,
        # and the next allocation made one pass (Python 3.11).
        code = """if True:
            import atexit, contextlib, gc, io, os, runpy, sys
            sys.path.insert(0, sys.argv[1])
            out = sys.argv[2]
            passes = []
            atexit.register(lambda: print(len(passes), gc.isenabled()))
            gc.callbacks.append(
                lambda phase, info: phase == "start" and os.path.exists(out) and passes.append(1))
            sys.argv = ["bcjcalc", "search", "--g", "4", "--max-support", "3", "--out", out]
            with contextlib.redirect_stderr(io.StringIO()):
                runpy.run_module("bcjcalc.cli", run_name="__main__")
        """
        assert run_fresh(code, str(tmp_path / "report.json")) == ["0 False"]

    def test_script_entry_point_keeps_the_collector_off(self):
        # the `bcjcalc` console script calls cli:script, which parses sys.argv
        pyproject = Path(cli.__file__).resolve().parents[2] / "pyproject.toml"
        assert 'bcjcalc = "bcjcalc.cli:script"' in pyproject.read_text().splitlines()
        code = """if True:
            import contextlib, gc, io, sys
            sys.path.insert(0, sys.argv[1])
            from bcjcalc import cli
            sys.argv = ["bcjcalc", "dims", "--g", "2", "--format", "json"]
            with contextlib.redirect_stdout(io.StringIO()) as report:
                code = cli.script()
            print(code, gc.isenabled(), '"dim_wedge": 55' in report.getvalue())
        """
        assert run_fresh(code) == ["0 False True"]

    def test_import_leaves_the_collector_enabled(self):
        code = """if True:
            import gc, sys
            sys.path.insert(0, sys.argv[1])
            import bcjcalc, bcjcalc.cli
            print(gc.isenabled())
        """
        assert run_fresh(code) == ["True"]
