"""Tests for the CLI and CSV export."""

from __future__ import annotations

import csv
import io

import pytest

from repro.cli import _coerce, _parse_overrides, main
from repro.experiments.export import rows_to_csv, write_report_csv
from repro.experiments.harness import ExperimentReport


class TestCoerce:
    def test_int_float_bool_string(self):
        assert _coerce("42") == 42
        assert _coerce("2.5") == 2.5
        assert _coerce("true") is True
        assert _coerce("False") is False
        assert _coerce("hello") == "hello"

    def test_tuples(self):
        assert _coerce("32,64,128") == (32, 64, 128)
        assert _coerce("0.1,0.5") == (0.1, 0.5)


class TestParseOverrides:
    def test_pairs(self):
        assert _parse_overrides(["--reps", "3", "--ks", "8,16"]) == {
            "reps": 3,
            "ks": (8, 16),
        }

    def test_dash_to_underscore(self):
        assert _parse_overrides(["--include-adaptive", "false"]) == {
            "include_adaptive": False
        }

    def test_odd_pairs_rejected(self):
        with pytest.raises(SystemExit):
            _parse_overrides(["--reps"])

    def test_bad_option_rejected(self):
        with pytest.raises(SystemExit):
            _parse_overrides(["reps", "3"])


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "thm51_wakeup" in out
        assert "table1_latency" in out

    def test_run_small_experiment(self, capsys):
        code = main(["run", "fig1_clocks"])
        assert code == 0
        assert "fig1_clocks" in capsys.readouterr().out

    def test_run_with_overrides_and_csv(self, capsys, tmp_path):
        code = main(
            ["run", "fig4_sublinear_schedule", "--csv", str(tmp_path),
             "--b", "2", "--segments", "2"]
        )
        assert code == 0
        csv_file = tmp_path / "fig4_sublinear_schedule.csv"
        assert csv_file.exists()
        rows = list(csv.DictReader(io.StringIO(csv_file.read_text())))
        assert rows and "u1_p" in rows[0]

    def test_unknown_experiment(self, capsys):
        assert main(["run", "nonsense"]) == 2

    def test_unknown_override_names_key_and_accepted_ones(self, capsys, tmp_path):
        code = main(["run", "table1_latency", "--out", str(tmp_path / "d")])
        assert code == 2
        err = capsys.readouterr().err
        assert "'out'" in err and "table1_latency" in err
        assert "ks" in err and "reps" in err
        assert not (tmp_path / "d").exists()


class TestCsvExport:
    def test_rows_to_csv_union_of_keys(self):
        text = rows_to_csv([{"a": 1}, {"a": 2, "b": 3}])
        rows = list(csv.DictReader(io.StringIO(text)))
        assert rows[0] == {"a": "1", "b": ""}
        assert rows[1] == {"a": "2", "b": "3"}

    def test_empty(self):
        assert rows_to_csv([]) == ""

    def test_write_report_csv(self, tmp_path):
        report = ExperimentReport("x", "t", rows=[{"k": 1, "v": 2.5}])
        path = write_report_csv(report, tmp_path / "sub")
        assert path.read_text().startswith("k,v")
