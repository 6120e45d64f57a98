"""Command-line contract: subcommands, exit codes, determinism, schemas."""

import csv
import hashlib
import io
import json
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from bcjcalc import bcjmap, cli, wedgespan
from bcjcalc.cassonmorita import LinkingMatrix
from bcjcalc.cli import MAX_GENUS, _genus_range, main


SEARCH_SCHEMA = Path(__file__).resolve().parents[1] / "docs" / "schemas" / "search_report.json"


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

    def test_zero_max_support_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--g", "3", "--max-support", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--max-support" in err
        assert "Traceback" not in err

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
