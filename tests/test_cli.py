"""CLI contract tests: exit codes, report files, determinism."""

import json
import math

import numpy as np
import pytest

from nodal_radius import cli, torus
from nodal_radius.cli import main


def read_body(path):
    """CSV minus the timestamp header line."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# generated:")
    return "\n".join(lines[1:])


class TestAnalyzeTrig:
    def test_default_fixture_ratio_half(self, tmp_path):
        code = main(["--cmd", "analyze-trig", "--out", str(tmp_path)])
        assert code == 0
        body = read_body(tmp_path / "report.csv")
        kozma_rows = [l for l in body.splitlines() if l.endswith(",kozma")]
        assert len(kozma_rows) == 1
        fields = kozma_rows[0].split(",")
        ratio = float(fields[10])
        assert ratio == pytest.approx(0.5, abs=0.02)
        assert fields[11] == "true"

    def test_input_file_and_svg(self, tmp_path):
        f = torus.TrigPoly.from_cosines(2, [((1, 0), 1.0, 0.0), ((2, 3), 0.4, 0.7)])
        inp = tmp_path / "poly.json"
        inp.write_text(torus.to_json(f))
        out = tmp_path / "out"
        code = main(
            ["--cmd", "analyze-trig", "--input", str(inp), "--out", str(out),
             "--svg", "--resolution", "128"]
        )
        assert code == 0
        assert (out / "report.json").exists()
        assert (out / "sign_raster.svg").exists()
        payload = json.loads((out / "report.json").read_text())
        assert payload["passed"] is True
        assert payload["config"]["seed"] == 0

    def test_malformed_json_exit_2(self, tmp_path):
        inp = tmp_path / "bad.json"
        inp.write_text("{not json")
        code = main(["--cmd", "analyze-trig", "--input", str(inp), "--out", str(tmp_path)])
        assert code == 2

    def test_missing_field_exit_2(self, tmp_path, capsys):
        inp = tmp_path / "bad.json"
        inp.write_text('{"dim": 1, "terms": [{"k": [3], "re": 0.5}]}')
        code = main(["--cmd", "analyze-trig", "--input", str(inp), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "im" in err  # names the offending field

    def test_missing_file_exit_2(self, tmp_path):
        code = main(
            ["--cmd", "analyze-trig", "--input", str(tmp_path / "nope.json"),
             "--out", str(tmp_path)]
        )
        assert code == 2


class TestOtherCommands:
    def test_analyze_sphere(self, tmp_path):
        code = main(
            ["--cmd", "analyze-sphere", "--out", str(tmp_path), "--resolution", "64",
             "--svg"]
        )
        assert code == 0
        assert (tmp_path / "mollweide.svg").exists()
        body = read_body(tmp_path / "report.csv")
        assert ",theorem2" in body

    def test_analyze_mix(self, tmp_path):
        code = main(
            ["--cmd", "analyze-mix", "--out", str(tmp_path), "--resolution", "128"]
        )
        assert code == 0
        body = read_body(tmp_path / "report.csv")
        assert ",theorem3" in body

    def test_verify_identity(self, tmp_path):
        code = main(
            ["--cmd", "verify-identity", "--out", str(tmp_path), "--count", "3",
             "--seed", "5"]
        )
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        rows = payload["sections"]["identity"]["rows"]
        assert len(rows) == 3
        assert all(r[6] for r in rows)
        assert all(r[4] <= r[5] for r in rows)

    def test_identity_tolerance_flag(self, tmp_path):
        code = main(
            ["--cmd", "verify-identity", "--out", str(tmp_path), "--count", "2",
             "--tol.residual=1e-4"]
        )
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["sections"]["identity"]["rows"][0][5] == 1e-4

    @pytest.mark.parametrize(
        "flags, tolerances", [([], {}), (["--tol.residual", "1e-4"], {"residual": 1e-4})]
    )
    def test_report_records_tolerances(self, tmp_path, flags, tolerances):
        code = main(["--cmd", "verify-identity", "--count", "1", "--out", str(tmp_path)] + flags)
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["config"]["tolerances"] == tolerances

    def test_sharpness(self, tmp_path):
        code = main(
            ["--cmd", "sharpness", "--A", "5", "--B", "0", "--trials", "10",
             "--out", str(tmp_path)]
        )
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        row = payload["sections"]["sharpness"]["rows"][0]
        assert abs(row[2] - 0.1) <= 2.0**-12

    def test_bad_tolerance_exit_2(self, tmp_path):
        code = main(
            ["--cmd", "sharpness", "--tol.residual=-1", "--out", str(tmp_path)]
        )
        assert code == 2

    def test_unknown_tolerance_exit_2(self, tmp_path, capsys):
        # a misspelt name used to be ignored, and the run passed
        code = main(
            ["--cmd", "verify-identity", "--tol.residul", "1e-30", "--count", "1",
             "--out", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "residul" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "cmd, text",
        [
            ("analyze-trig", '{"dim": 4, "terms": [{"k": [1, 0, 0, 1], "re": 0.5, "im": 0.0}]}'),
            ("analyze-sphere", '{"dim": 4, "terms": [{"k": 2, "pole": [0, 0, 0, 1], "w": 1.0}]}'),
            ("analyze-mix", '{"dim": 4, "parts": [{"coef": 1.0, "eigen": {"dim": 4, "lambda": 4.0,'
                            ' "waves": [{"k": [2.0, 0.0, 0.0, 0.0], "amp": 1.0, "phase": 0.0}]}}]}'),
        ],
        ids=["trig", "sphere", "mix"],
    )
    def test_dim_the_report_cannot_hold_exit_2(self, tmp_path, capsys, cmd, text):
        # the sign report has three center columns, and the sphere search
        # samples S^2: a dim-4 trig or mix input used to drop cx3 and pass,
        # and a dim-4 sphere input crashed in a matrix product (exit 1)
        inp = tmp_path / "dim4.json"
        inp.write_text(text)
        code = main(["--cmd", cmd, "--input", str(inp), "--resolution", "16",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "dim" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize(
        "cmd, text, field",
        [
            ("analyze-sphere", '{"dim": 3, "terms": [{"k": 2.7, "pole": [0, 0, 1], "w": 1.0}]}',
             "degree"),
            ("analyze-sphere", '{"dim": 3.5, "terms": [{"k": 2, "pole": [0, 0, 1], "w": 1.0}]}',
             "dim"),
            ("analyze-mix", '{"dim": 2.5, "parts": [{"coef": 1.0, "eigen": {"dim": 2, "lambda": 4.0,'
                            ' "waves": [{"k": [2.0, 0.0], "amp": 1.0, "phase": 0.0}]}}]}', "dim"),
            ("analyze-mix", '{"dim": 2, "parts": [{"coef": 1.0, "eigen": {"dim": 2.5, "lambda": 4.0,'
                            ' "waves": [{"k": [2.0, 0.0], "amp": 1.0, "phase": 0.0}]}}]}', "dim"),
        ],
        ids=["sphere-degree", "sphere-dim", "mix-dim", "eigen-dim"],
    )
    def test_non_integer_dim_or_degree_exit_2(self, tmp_path, capsys, cmd, text, field):
        # the loaders used to truncate: degree 2.7 was measured as degree 2
        inp = tmp_path / "bad.json"
        inp.write_text(text)
        code = main(["--cmd", cmd, "--input", str(inp), "--resolution", "16",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_out_is_a_file_exit_2(self, tmp_path, capsys):
        # this used to raise FileExistsError, a traceback and exit 1
        taken = tmp_path / "taken"
        taken.write_text("")
        code = main(["--cmd", "sharpness", "--trials", "10", "--out", str(taken)])
        assert code == 2
        err = capsys.readouterr().err
        assert "--out" in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_low_resolution_exit_2(self, tmp_path):
        code = main(
            ["--cmd", "analyze-trig", "--resolution", "8", "--out", str(tmp_path)]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["--cmd", "verify-identity", "--n", "9"],
            ["--cmd", "verify-identity", "--n", "2"],
            ["--cmd", "sharpness", "--A", "0"],
            ["--cmd", "sharpness", "--B", "-1"],
        ],
    )
    def test_out_of_range_argument_exit_2(self, tmp_path, capsys, args):
        code = main(args + ["--out", str(tmp_path)])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["--cmd", "verify-identity", "--count", "0"], "count"),
            (["--cmd", "verify-identity", "--count", "-4"], "count"),
            (["--cmd", "sharpness", "--trials", "-7"], "trials"),
            (["--cmd", "sharpness", "--trials", "0"], "trials"),
            (["--cmd", "suite", "--count", "-1"], "count"),
        ],
    )
    def test_nonpositive_count_or_trials_exit_2(self, tmp_path, capsys, args, flag):
        # these used to run with nothing to do and report a pass
        code = main(args + ["--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{flag} must be >= 1" in err and "Traceback" not in err
        assert not (tmp_path / "report.json").exists()


class TestSuiteDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        code1 = main(["--cmd", "suite", "--seed", "42", "--count", "4", "--out", str(out1)])
        code2 = main(["--cmd", "suite", "--seed", "42", "--count", "4", "--out", str(out2)])
        assert code1 == 0 and code2 == 0
        assert read_body(out1 / "report.csv") == read_body(out2 / "report.csv")

    def test_different_seed_changes_rows(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["--cmd", "suite", "--seed", "1", "--count", "4", "--out", str(out1)])
        main(["--cmd", "suite", "--seed", "2", "--count", "4", "--out", str(out2)])
        assert read_body(out1 / "report.csv") != read_body(out2 / "report.csv")
