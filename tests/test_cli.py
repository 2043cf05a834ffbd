"""Command-line surface: parsing, exit codes, output formats, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pairvis
from pairvis.cli import ConfigError, build_parser, main, parse_angle, parse_grid_shape

PI = math.pi

GOLDEN = Path(__file__).parent / "golden"
SRC = str(Path(pairvis.__file__).resolve().parents[1])


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    @pytest.mark.parametrize("token,expected", [
        ("0", 0.0),
        ("pi/8", PI / 8),
        ("pi/4", PI / 4),
        ("3pi/8", 3 * PI / 8),
        ("pi/2", PI / 2),
        ("3pi/4", 3 * PI / 4),
        ("0.3", 0.3),
        ("pi", PI),
        ("2pi/7", 2 * PI / 7),
    ])
    def test_angle_tokens(self, token, expected):
        assert parse_angle(token) == pytest.approx(expected, rel=1e-16)

    @pytest.mark.parametrize("bad", ["pie", "pi/0", "1..2", ""])
    def test_bad_angles_rejected(self, bad):
        with pytest.raises(ConfigError):
            parse_angle(bad)

    def test_grid_shape(self):
        assert parse_grid_shape("64x128") == (64, 128)

    @pytest.mark.parametrize("bad", ["64", "1x8", "0x0", "8x", "axb"])
    def test_bad_grid_shapes_rejected(self, bad):
        with pytest.raises(ConfigError):
            parse_grid_shape(bad)


class TestExitCodes:
    def test_missing_xi_is_config_error(self, capsys):
        code, _, err = run(["report", "--a", "4"], capsys)
        assert code == 2
        assert "xi" in err

    def test_invalid_params_are_config_errors(self, capsys):
        code, _, _ = run(["report", "--a", "-3", "--xi", "0.3"], capsys)
        assert code == 2

    def test_single_point_grid_is_config_error(self, capsys):
        code, _, _ = run(["grid", "--xi", "0.3", "--grid", "1x1"], capsys)
        assert code == 2

    def test_unknown_figure_is_config_error(self, capsys):
        code, _, _ = run(["grid", "--xi", "0.3", "--figure", "fig9"], capsys)
        assert code == 2

    def test_corrected_grid_requires_kk_basis(self, capsys):
        code, _, _ = run(["grid", "--xi", "0.3", "--basis", "xx", "--corrected", "--grid", "8x8"], capsys)
        assert code == 2

    def test_sweep_count_below_two_is_config_error(self, capsys):
        code, _, _ = run(["sweep", "--xi", "0.3", "--sweep-count", "1"], capsys)
        assert code == 2

    def test_negative_quad_tolerance_is_config_error(self, capsys):
        code, _, _ = run(["validate", "--tol-quad", "-1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("command", [
        ["grid", "--a", "4", "--xi", "0.3", "--grid", "8x8"],
        ["report", "--a", "4", "--xi", "0.3"],
        ["validate", "--quick"],
    ], ids=["grid", "report", "validate"])
    @pytest.mark.parametrize("target", ["missing_dir", "directory"])
    def test_unwritable_out_is_config_error(self, command, target, tmp_path, capsys):
        path = tmp_path / "missing" / "out.txt" if target == "missing_dir" else tmp_path
        code, out, err = run(command + ["--out", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert "Traceback" not in err

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--xi", "0.3", "--frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", [
        ["grid", "--xi", "0.3", "--grid", "8x8"],
        ["report", "--xi", "0.3"],
        ["sweep", "--xi", "0.3", "--sweep-count", "2"],
    ], ids=["grid", "report", "sweep"])
    def test_tol_quad_is_unknown_outside_validate(self, command, capsys):
        # only validate runs the quadrature oracles, so only it takes --tol-quad
        with pytest.raises(SystemExit) as exc:
            main(command + ["--tol-quad", "1e-9"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol-quad" in capsys.readouterr().err

    @pytest.mark.parametrize("option", [
        ["--format", "json"],
        ["--a", "5"],
        ["--convention", "b4_pi4"],
        ["--threads", "2"],
    ], ids=lambda option: option[0])
    def test_validate_rejects_options_it_does_not_read(self, option, capsys):
        # validate runs a fixed suite; an option it would ignore is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--quick"] + option)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


class TestGridCommand:
    def test_csv_grid_to_stdout(self, capsys):
        code, out, _ = run(["grid", "--a", "4", "--xi", "0.3", "--grid", "8x8"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "u,v,value"
        assert len(lines) == 1 + 64

    def test_json_grid_structure(self, capsys):
        code, out, _ = run(
            ["grid", "--a", "4", "--xi", "0.3", "--grid", "6x5", "--basis", "kx", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["basis"] == "kx"
        assert payload["grid"]["n_u"] == 6 and payload["grid"]["n_v"] == 5

    def test_figure_preset_fixes_geometry(self, capsys):
        code, out, _ = run(
            ["grid", "--figure", "fig2", "--xi", "pi/4", "--grid", "6x6", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["params"]["a"] == 30.0
        assert payload["params"]["h1"] == 1.0 and payload["params"]["h2"] == 2.0
        assert payload["basis"] == "kk"

    def test_fig5_is_position_basis(self, capsys):
        code, out, _ = run(
            ["grid", "--figure", "fig5", "--xi", "0", "--grid", "6x6", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["basis"] == "xx"

    def test_corrected_grid_on_preset(self, capsys):
        code, out, _ = run(
            ["grid", "--figure", "fig3", "--xi", "0.3", "--grid", "8x8"], capsys
        )
        assert code == 0
        assert out.startswith("u,v,value")

    def test_tiny_squeezing_at_anticorrelated_angle(self, capsys):
        # B^2 ~ 2e18 here: its denominator is (1 - e1)(1 - e2) ~ 1e-18
        code, out, _ = run(
            ["grid", "--a", "1e-8", "--h1", "0.01", "--h2", "5", "--xi", "1.5707963267948966", "--grid", "4x4"],
            capsys,
        )
        assert code == 0
        rows = out.strip().split("\n")
        assert rows[0] == "u,v,value" and len(rows) == 1 + 16
        assert all(math.isfinite(float(row.split(",")[2])) for row in rows[1:])

    def test_writes_file(self, tmp_path, capsys):
        target = tmp_path / "grid.csv"
        code, out, _ = run(
            ["grid", "--a", "4", "--xi", "0.3", "--grid", "8x8", "--out", str(target)], capsys
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("u,v,value")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("extra", [["--basis", "xk"], ["--figure", "fig3", "--convention", "b4_pi4"]],
                             ids=["xk", "fig3"])
    def test_out_file_holds_the_stdout_bytes(self, fmt, extra, tmp_path, capsys):
        argv = ["grid", "--a", "4", "--xi", "0.3", "--grid", "9x6", "--format", fmt] + extra
        _, out, _ = run(argv, capsys)
        target = tmp_path / f"grid.{fmt}"
        code, stdout, _ = run(argv + ["--out", str(target)], capsys)
        assert code == 0 and stdout == ""
        assert target.read_bytes() == out.encode()


class TestReportCommand:
    def test_json_sections(self, capsys):
        code, out, _ = run(
            ["report", "--a", "30", "--h1", "1", "--h2", "2", "--xi", "0.3", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"visibility", "corrected", "correlation"}
        vis = payload["visibility"]
        assert 1.0 - vis["V"] ** 2 - vis["D"] ** 2 == pytest.approx(vis["epsilon"], abs=1e-15)

    def test_separable_angle_trivial_values(self, capsys):
        code, out, _ = run(["report", "--a", "6", "--xi", "0", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["visibility"]["V"] == pytest.approx(1.0, abs=1e-15)
        assert payload["visibility"]["D"] == pytest.approx(0.0, abs=1e-15)
        # for equal slits the three-envelope contrast keeps an e^{-2a}-scale
        # residue at separable angles (the indirect method's artifact)
        assert payload["corrected"]["F"] == pytest.approx(0.0, abs=1e-4)
        assert payload["correlation"]["R"] == pytest.approx(0.0, abs=1e-15)
        assert payload["visibility"]["epsilon"] == pytest.approx(0.0, abs=1e-15)

    # log10 |rho_k| is about -2 a (h1^2 + h2^2) log10(e): -1.7e308 at a=1e308, and -8.7e399 at
    # h1=1e200, which lies beyond float64 and rounds to -inf
    @pytest.mark.parametrize("scale,log_rho", [(["--a", "1e308", "--h1", "1"], -1.737e308),
                                               (["--a", "1", "--h1", "1e200"], -math.inf)],
                             ids=["a1e308", "h1e200"])
    def test_overflowing_scale_reports_finite_fields(self, scale, log_rho, capsys):
        # 2 a (h1^2 + h2^2) overflows float64 here; the report runs at its capped precision
        code, out, err = run(["report", *scale, "--h2", "1", "--xi", "0.3", "--format", "json"], capsys)
        assert code == 0, err
        payload = json.loads(out)
        assert payload["correlation"].pop("rho_k_log10_abs") == pytest.approx(log_rho, rel=1e-3)
        for section in payload.values():
            for key, value in section.items():
                assert not isinstance(value, float) or math.isfinite(value), key

    def test_regime_warning_surfaces(self, capsys):
        code, out, _ = run(["report", "--a", "1", "--xi", "0.3", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["visibility"]["regime_warning"] is True

    def test_csv_format_has_section_rows(self, capsys):
        code, out, _ = run(["report", "--a", "4", "--xi", "0.3", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "section,key,value"
        sections = {row.split(",")[0] for row in lines[1:]}
        assert sections == {"visibility", "corrected", "correlation"}


class TestSweepCommand:
    def test_columns_and_shape(self, capsys):
        code, out, _ = run(
            ["sweep", "--xi", "0.3", "--sweep-start", "2", "--sweep-stop", "4", "--sweep-count", "5"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "a,V2_plus_D2,V2_plus_F2,V2_plus_R2,bound"
        assert len(lines) == 6
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 2.0

    def test_direct_sum_within_bound_and_corrected_below_one(self, capsys):
        code, out, _ = run(["sweep", "--figure", "fig4", "--xi", "0.3", "--sweep-count", "13"], capsys)
        assert code == 0
        rows = np.array([[float(x) for x in row.split(",")] for row in out.strip().split("\n")[1:]])
        a, v2d2, v2f2, _, bound = rows.T
        assert np.all(np.abs(v2d2 - 1.0) <= bound)
        assert np.all(np.abs(v2d2 - 1.0) <= 2.0 * np.exp(-a))
        assert np.all(v2f2 < 1.0)

    def test_indirect_correlation_converges_faster(self, capsys):
        code, out, _ = run(["sweep", "--figure", "fig7", "--xi", "0.3", "--sweep-count", "13"], capsys)
        assert code == 0
        rows = np.array([[float(x) for x in row.split(",")] for row in out.strip().split("\n")[1:]])
        _, v2d2, _, v2r2, _ = rows.T
        mask = (np.abs(v2d2 - 1.0) > 1e-10) & (np.abs(v2r2 - 1.0) > 1e-10)
        assert np.all(np.abs(v2r2 - 1.0)[mask] < np.abs(v2d2 - 1.0)[mask])

    def test_sweep_into_an_overflowing_scale_stays_finite(self, capsys):
        code, out, err = run(["sweep", "--h1", "1e200", "--xi", "0.3", "--sweep-start", "1",
                              "--sweep-stop", "1e308", "--sweep-count", "2", "--format", "csv"], capsys)
        assert code == 0, err
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 2
        assert all(math.isfinite(float(cell)) for row in rows for cell in row)

    def test_values_round_trip_through_17_digits(self, capsys):
        code, out, _ = run(["sweep", "--xi", "0.3", "--sweep-count", "3"], capsys)
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert float(row[0]) == 2.0
        # 17 significant digits round-trip float64 exactly
        for cell in row:
            assert f"{float(cell):.17g}" == cell


class TestGoldenOutput:
    """stdout byte for byte against files written by the command lines below."""

    @pytest.mark.parametrize("name,argv", [
        ("report_a30_h1-2_xi0.3_b4_xi", ["report", "--a", "30", "--h1", "1", "--h2", "2", "--xi", "0.3",
                                         "--format", "csv", "--convention", "b4_xi"]),
        ("report_a30_h1-2_xi0.3_b4_pi4", ["report", "--a", "30", "--h1", "1", "--h2", "2", "--xi", "0.3",
                                          "--format", "csv", "--convention", "b4_pi4"]),
        ("report_a6_h1-1_xi0", ["report", "--a", "6", "--h1", "1", "--h2", "1", "--xi", "0", "--format", "csv"]),
        ("report_a600_h1-2_xi0.3", ["report", "--a", "600", "--h1", "1", "--h2", "2", "--xi", "0.3",
                                    "--format", "csv"]),
        ("sweep_h1-2_xi0.3_a2-30_n16", ["sweep", "--h1", "1", "--h2", "2", "--xi", "0.3", "--sweep-start", "2",
                                        "--sweep-stop", "30", "--sweep-count", "16", "--format", "csv"]),
        # every column of each row read at 50 digits, from one record and one k1/k2 table
        ("sweep_fig4_xi0.7", ["sweep", "--figure", "fig4", "--xi", "0.7", "--format", "csv"]),
        # V, D and the bound at 56 to 290 digits, F and R at 50, under the b4_pi4 convention
        ("sweep_h1-2_xi0.3_a6-60_n9_b4_pi4", ["sweep", "--h1", "1", "--h2", "2", "--xi", "0.3", "--sweep-start", "6",
                                              "--sweep-stop", "60", "--sweep-count", "9", "--convention", "b4_pi4",
                                              "--format", "csv"]),
        # the visibility report at the 345-digit cap, the other two at 50 digits
        ("report_a10000_h1-2_xi0.3", ["report", "--a", "10000", "--h1", "1", "--h2", "2", "--xi", "0.3",
                                      "--format", "csv"]),
    ])
    def test_csv_stdout_matches_golden_file(self, name, argv, capsys):
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert out == (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")

    @pytest.mark.parametrize("a, h, epsilon", [
        ("10", "1", "-1.3618106938359116e-36"),
        ("2", "2", "-1.0063957180864759e-35"),
        ("3000", "0.05", "-1.6594471849284012e-35"),
    ])
    def test_epsilon_at_half_pi_is_correctly_rounded(self, a, h, epsilon, capsys):
        # the only report digits the closed-form epsilon changed: at the adaptive precision the
        # direct form printed -1.3618106938359096e-36, -1.006395718086476e-35 and -1.6594471849284009e-35
        code, out, _ = run(["report", "--a", a, "--h1", h, "--h2", h, "--xi", "pi/2", "--format", "csv"], capsys)
        assert code == 0
        assert f"visibility,epsilon,{epsilon}" in out.splitlines()


class TestDeterminism:
    def test_grid_byte_identical_across_thread_hints(self, capsys):
        argv = ["grid", "--a", "6", "--h2", "2", "--xi", "0.3", "--grid", "32x32"]
        _, out1, _ = run(argv + ["--threads", "1"], capsys)
        _, out4, _ = run(argv + ["--threads", "4"], capsys)
        assert out1 == out4

    def test_sweep_byte_identical_across_thread_hints(self, capsys):
        argv = ["sweep", "--xi", "pi/8", "--sweep-count", "7"]
        _, out1, _ = run(argv + ["--threads", "1"], capsys)
        _, out4, _ = run(argv + ["--threads", "4"], capsys)
        assert out1 == out4


class TestOneProcess:
    def test_commands_in_one_process_print_what_each_prints_alone(self, capsys):
        # main reuses one parser across calls; a usage error in between must leave it as built
        commands = [["report", "--a", "4", "--xi", "0.3"], ["sweep", "--xi", "pi/8", "--sweep-count", "5"]]
        alone = []
        for argv in commands:
            proc = subprocess.run([sys.executable, "-m", "pairvis.cli", *argv], capture_output=True, text=True,
                                  env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
            assert proc.returncode == 0, proc.stderr
            alone.append(proc.stdout)
        assert alone[0].startswith("{") and alone[1].startswith("a,")
        assert run(commands[0], capsys)[:2] == (0, alone[0])
        assert run(commands[1], capsys)[:2] == (0, alone[1])
        with pytest.raises(SystemExit) as exc:
            main(["report", "--xi", "0.3", "--format", "yaml"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(commands[0], capsys)[:2] == (0, alone[0])
        assert build_parser() is build_parser()


class TestValidateCommand:
    def test_quick_suite_passes(self, capsys):
        code, out, _ = run(["validate", "--quick"], capsys)
        assert code == 0
        lines = [row for row in out.strip().split("\n") if row]
        assert lines and all(row.startswith("PASS") for row in lines)

    def test_out_receives_the_lines(self, tmp_path, capsys):
        path = tmp_path / "validate.txt"
        code, out, _ = run(["validate", "--quick", "--out", str(path)], capsys)
        assert code == 0
        assert out == ""
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines[-1] == "" and len(lines) == 9
        assert all(row.startswith("PASS") for row in lines[:-1])

    def test_injected_fault_fails_nonzero(self, capsys):
        code, out, _ = run(["validate", "--quick", "--tol-quad", "0"], capsys)
        assert code == 1
        assert any(row.startswith("FAIL") for row in out.strip().split("\n"))
