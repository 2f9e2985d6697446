"""Command-line interface: formats, exit codes, determinism."""

import inspect
import json

import numpy as np
import pytest

from qwalk import cli, validation
from qwalk.errors import InvalidParameterError
from qwalk.spectral import (
    MomentReport,
    convergence_report,
    limit_moment_1d,
    limit_moment_2d,
    limit_moments_2d,
)
from qwalk.symmetry import extract_ab
from qwalk.validation import reference_table_deviation


def run(argv):
    return cli.main(argv)


class TestSim1D:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "d.csv"
        rc = run(["sim1d", "--p", "0.5", "--state", "1,0", "--t", "100",
                  "--format", "csv", "-o", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# model=sim1d")
        assert "convention=diffEq-3.2" in lines[0]
        assert "version=" in lines[0]
        assert lines[1] == "x,probability"
        rows = [ln for ln in lines[2:] if not ln.startswith("#")]
        total = sum(float(r.split(",")[1]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-12)
        xs = [int(r.split(",")[0]) for r in rows]
        assert xs == sorted(xs)
        moments = [ln for ln in lines if ln.startswith("# moment")]
        assert len(moments) == 2

    def test_json_output(self, tmp_path):
        out = tmp_path / "d.json"
        rc = run(["sim1d", "--p", "0.5", "--state", "0.6,0.8i", "--t", "20",
                  "--format", "json", "-o", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["model"] == "sim1d" and doc["t"] == 20
        assert doc["convention"] == "diffEq-3.2"
        assert sum(m for _, m in doc["masses"]) == pytest.approx(1.0, abs=1e-12)

    def test_bad_p_exits_2_with_diagnostic(self, capsys):
        rc = run(["sim1d", "--p", "1.5", "--state", "1,0", "--t", "5"])
        assert rc == 2
        assert "--p" in capsys.readouterr().err

    @pytest.mark.parametrize("p", ["1.5", "nan"])
    def test_out_of_range_or_nan_p_exits_2_without_output(self, p, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert run(["sim1d", "--p", p, "--state", "1,0", "--t", "5", "-o", str(out)]) == 2
        assert not out.exists()
        assert run(["sim1d", "--p", p, "--state", "1,0", "--t", "5"]) == 2
        assert capsys.readouterr().out == ""

    def test_bad_state_component_exits_2(self):
        assert run(["sim1d", "--p", "0.5", "--state", "1,zz", "--t", "5"]) == 2

    def test_unnormalized_state_exits_2(self):
        assert run(["sim1d", "--p", "0.5", "--state", "1,1", "--t", "5"]) == 2

    def test_overflowing_state_exits_2_without_a_runtime_warning(self, capsys):
        # numpy warned "overflow encountered in square" first; the test run
        # makes that warning an error
        assert run(["sim1d", "--p", "0.5", "--state", "1e200,0", "--t", "3"]) == 2
        assert "not normalized" in capsys.readouterr().err

    def test_slightly_off_state_renormalized_with_warning(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        rc = run(["sim1d", "--p", "0.5", "--state", "0.70710678,0.70710678i",
                  "--t", "4", "-o", str(out)])
        assert rc == 0
        assert "renormalized" in capsys.readouterr().err

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sim1d", "--p", "0.37", "--state", "0.6,0.8i", "--t", "50"]
        assert run(args + ["-o", str(a)]) == 0
        assert run(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_nan_phase_exits_2_without_output(self, capsys):
        rc = run(["sim1d", "--p", "0.5", "--state", "1,0", "--t", "3", "--k", "nan"])
        assert rc == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("cmd, state", [("sim1d", "1,0"), ("sim2d", "1,0,0,0")])
    def test_negative_t_names_the_flag(self, cmd, state, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert run([cmd, "--p", "0.5", "--state", state, "--t", "-1", "-o", str(out)]) == 2
        assert "--t" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_exits_4(self):
        rc = run(["sim1d", "--p", "0.5", "--state", "1,0", "--t", "5",
                  "-o", "/nonexistent-dir-qwalk/x.csv"])
        assert rc == 4


class TestSim2D:
    def test_json_fields_and_mass(self, tmp_path):
        out = tmp_path / "d.json"
        rc = run(["sim2d", "--p", "0.5", "--state", "1,0,0,0", "--t", "50",
                  "--format", "json", "-o", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["model"] == "sim2d" and doc["p"] == 0.5 and doc["t"] == 50
        assert doc["convention"] == "diffEq-3.4"
        assert sum(m for *_, m in doc["masses"]) == pytest.approx(1.0, abs=1e-12)

    def test_csv_rows_sorted(self, tmp_path):
        out = tmp_path / "d.csv"
        rc = run(["sim2d", "--p", "0.3", "--state", "0.5,0.5i,0.5i,-0.5",
                  "--t", "6", "-o", str(out)])
        assert rc == 0
        rows = [
            ln for ln in out.read_text().splitlines()[2:] if not ln.startswith("#")
        ]
        sites = [tuple(map(int, r.split(",")[:2])) for r in rows]
        assert sites == sorted(sites)


class TestLimit:
    @pytest.mark.parametrize(
        "dim, state, limits",
        [
            (1, (1, 0), (limit_moment_1d,)),
            (2, (1, 0, 0, 0), (limit_moments_2d, limit_moment_2d)),
        ],
    )
    def test_parser_defaults_are_the_library_defaults(self, dim, state, limits):
        # the CLI imports no private name, so its parser keeps literals;
        # they must stay the library's per-lattice defaults
        args = cli.build_parser().parse_args(
            [f"limit{dim}d", "--p", "0.5", "--state", ",".join(map(str, state)), "--alpha", "1"]
        )
        for limit in limits:
            assert args.grid == inspect.signature(limit).parameters["grid"].default.n
        ladder = convergence_report(state, 0.5, 1, grid=64).times
        assert tuple(map(int, args.ladder.split(","))) == ladder

    def test_limit1d_report(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        rc = run(["limit1d", "--p", "0.5", "--state", "1,0", "--alpha", "1",
                  "--grid", "1024", "--ladder", "50,100,200", "-o", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "quadrature," in text
        assert "t,simulated,gap" in text

    def test_limit1d_alpha_zero_exits_2(self):
        rc = run(["limit1d", "--p", "0.5", "--state", "1,0", "--alpha", "0"])
        assert rc == 2

    def test_limit1d_bad_grid_exits_2(self):
        rc = run(["limit1d", "--p", "0.5", "--state", "1,0", "--alpha", "1",
                  "--grid", "100"])
        assert rc == 2

    @pytest.mark.parametrize("grid", ["100", "32", "131072"])
    def test_bad_grid_names_the_flag(self, grid, capsys):
        rc = run(["limit2d", "--p", "0.5", "--state", "1,0,0,0", "--alpha", "1",
                  "--grid", grid, "--ladder", "10,20"])
        assert rc == 2
        assert "--grid" in capsys.readouterr().err

    def test_limit2d_orders_need_positive_sum(self, capsys):
        for alpha, beta in (("0", "0"), ("-1", "2")):
            rc = run(["limit2d", "--p", "0.5", "--state", "1,0,0,0", "--alpha", alpha,
                      "--beta", beta, "--grid", "64", "--ladder", "10,20"])
            assert rc == 2
        assert capsys.readouterr().out == ""

    def test_limit2d_balanced_state_near_zero(self, tmp_path):
        out = tmp_path / "r.csv"
        rc = run(["limit2d", "--p", "0.5", "--state", "0.5,0.5i,0.5i,-0.5",
                  "--alpha", "1", "--beta", "0", "--grid", "64",
                  "--ladder", "30,60", "-o", str(out)])
        assert rc == 0
        quad_line = [
            ln for ln in out.read_text().splitlines() if ln.startswith("quadrature")
        ][0]
        assert abs(float(quad_line.split(",")[1])) <= 2e-2

    def test_convergence_failure_exits_5(self, monkeypatch, tmp_path):
        fake = MomentReport(
            alpha=1, beta=None, quadrature=0.3, times=(10, 20),
            simulated=(0.3001, 0.31),
        )
        monkeypatch.setattr(cli, "convergence_report", lambda *a, **k: fake)
        rc = run(["limit1d", "--p", "0.5", "--state", "1,0", "--alpha", "1",
                  "--grid", "64", "--ladder", "10,20",
                  "-o", str(tmp_path / "r.csv")])
        assert rc == 5


class TestSymmetry:
    def test_state_classification(self, capsys):
        rc = run(["symmetry", "--p", "0.5", "--state", "0.70710678,0.70710678i",
                  "--t", "20"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "phi_perp=true" in out
        assert "symmetric=true" in out
        assert "zero_mean=true" in out

    def test_right_mover_not_symmetric(self, capsys):
        rc = run(["symmetry", "--p", "0.5", "--state", "1,0", "--t", "5"])
        assert rc == 0
        assert "symmetric=false" in capsys.readouterr().out

    def test_table_passes_reference(self, capsys):
        rc = run(["symmetry", "--p", "0.5", "--table", "--t", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verdict=PASS" in out
        assert "kns=true" in out
        assert out.count("\n") >= 12  # header + 10 rows + verdicts

    @pytest.mark.parametrize("t", ["-5", "1"])
    def test_table_needs_two_steps(self, t, capsys):
        assert run(["symmetry", "--p", "0.5", "--table", "--t", t]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "extra", [["--table", "--t", "1"], ["--state", "1,0", "--t", "0"]]
    )
    def test_bad_t_names_the_flag(self, extra, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run(["symmetry", "--p", "0.5", *extra, "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert "--t" in captured.err and captured.out == ""
        assert not out.exists()

    def test_table_verdict_comes_from_validation_helper(self, monkeypatch, capsys):
        dev = reference_table_deviation(extract_ab(0.5, 12))
        assert run(["symmetry", "--p", "0.5", "--table", "--t", "12"]) == 0
        assert f"deviation={dev:.3e} verdict=PASS" in capsys.readouterr().out
        monkeypatch.setattr(cli, "reference_table_deviation", lambda table: 1.0)
        assert run(["symmetry", "--p", "0.5", "--table", "--t", "12"]) == 0
        assert "verdict=FAIL" in capsys.readouterr().out

    def test_needs_state_or_table(self):
        assert run(["symmetry", "--p", "0.5"]) == 2

    def test_table_and_state_are_exclusive(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = run(["symmetry", "--p", "0.5", "--state", "1,0", "--table", "--t", "3",
                  "-o", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "--state" in captured.err and "--table" in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestLocalize:
    def test_line_not_localized(self, capsys):
        rc = run(["localize", "--dim", "1", "--p", "0.5", "--state", "1,0",
                  "--site", "0", "--ladder", "64,128,256"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verdict=NOT-LOCALIZED" in out
        assert "decaying=true" in out

    def test_lattice_not_localized(self, capsys):
        rc = run(["localize", "--dim", "2", "--p", "0.5", "--state", "1,0,0,0",
                  "--site", "0,0", "--ladder", "32,64,128"])
        assert rc == 0
        assert "verdict=NOT-LOCALIZED" in capsys.readouterr().out

    def test_epsilon_echoed(self, capsys):
        rc = run(["localize", "--dim", "1", "--p", "0.5", "--state", "1,0",
                  "--site", "0", "--ladder", "16,32,64", "--epsilon", "0.5"])
        assert rc == 0
        assert "epsilon=0.5" in capsys.readouterr().out

    def test_bad_epsilon_exits_2_without_verdict(self, capsys):
        rc = run(["localize", "--dim", "1", "--p", "0.5", "--state", "1,0",
                  "--site", "0", "--ladder", "64,128", "--epsilon", "7"])
        assert rc == 2
        assert capsys.readouterr().out == ""

    def test_bad_site_exits_2(self):
        rc = run(["localize", "--dim", "2", "--p", "0.5", "--state", "1,0,0,0",
                  "--site", "0", "--ladder", "16,32,64"])
        assert rc == 2

    @pytest.mark.parametrize("site", ["1,2", "x", ""])
    def test_line_site_is_one_integer(self, site, capsys):
        rc = run(["localize", "--dim", "1", "--p", "0.5", "--state", "1,0",
                  "--site", site, "--ladder", "16,32,64"])
        assert rc == 2
        assert "--site" in capsys.readouterr().err


LOC1 = ["localize", "--dim", "1", "--p", "0.5", "--state", "1,0"]
LIM1 = ["limit1d", "--p", "0.5", "--state", "1,0", "--alpha", "1"]


class TestFlagErrors:
    @pytest.mark.parametrize(
        "flag, argv",
        [
            ("--epsilon", LOC1 + ["--site", "0", "--epsilon", "7"]),
            ("--ladder", LOC1 + ["--site", "0", "--ladder", "64,x"]),
            ("--ladder", LIM1 + ["--grid", "64", "--ladder", "64,x"]),
            ("--site", LOC1 + ["--site", "y", "--ladder", "16,32,64"]),
            ("--site", ["localize", "--dim", "2", "--p", "0.5", "--state", "1,0,0,0",
                        "--site", "0,y", "--ladder", "16,32,64"]),
            ("--grid", LIM1 + ["--grid", "96", "--ladder", "10,20"]),
            ("--t", ["sim2d", "--p", "0.5", "--state", "1,0,0,0", "--t", "-3"]),
            ("--t", ["symmetry", "--p", "0.5", "--table", "--t", "-1"]),
            ("--p", LIM1 + ["--p", "0", "--grid", "64", "--ladder", "10,20"]),
            ("--p", LOC1 + ["--p", "inf", "--site", "0"]),
            ("--k", ["sim1d", "--p", "0.5", "--state", "1,0", "--t", "3", "--k", "inf"]),
            ("--state", ["sim1d", "--p", "0.5", "--state", "1,i0", "--t", "3"]),
            # ladders only the library rejects: below its minimum horizon, out of order
            ("--ladder", LOC1 + ["--site", "0", "--ladder", "4,8"]),
            ("--ladder", LIM1 + ["--grid", "64", "--ladder", "20,10"]),
            # above the size bound (2**28); each exited 1 with a traceback
            ("--t", ["sim1d", "--p", "0.5", "--state", "1,0", "--t", str(10**20)]),
            ("--t", ["sim2d", "--p", "0.5", "--state", "1,0,0,0", "--t", str(10**20)]),
            ("--ladder", LOC1 + ["--site", "0", "--ladder", f"8,{10**20}"]),
            ("--ladder", LIM1 + ["--ladder", f"10,{10**20}"]),
            ("--t", ["symmetry", "--p", "0.5", "--state", "1,0", "--t", str(10**20)]),
            ("--t", ["symmetry", "--p", "0.5", "--table", "--t", str(10**20)]),
        ],
    )
    def test_input_error_names_its_flag(self, flag, argv, tmp_path, capsys):
        out = tmp_path / "o.txt"
        assert run(argv + ["-o", str(out)]) == 2
        assert not out.exists()
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {flag}" in captured.err


class TestValidate:
    def test_quick_single_section(self, capsys):
        rc = run(["validate", "--quick", "--only", "hand"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "hand" in out

    def test_unknown_section_exits_2(self):
        assert run(["validate", "--only", "nosuchsection"]) == 2

    def test_a_nan_residual_exits_3(self, monkeypatch, capsys):
        # the NaN was dropped: [PASS] ... max residual = 1.963e-16, exit 0
        monkeypatch.setattr(validation, "reflection_identity_1d", lambda th, p, t: float("nan"))
        assert run(["validate", "--quick", "--only", "reflection"]) == 3
        assert "[FAIL]  9 reflection   max residual = nan " in capsys.readouterr().out

    def test_a_check_that_raises_exits_3_and_the_others_still_report(self, monkeypatch, capsys):
        # an InvalidParameterError from a check ended the suite with exit 2
        def broken(quick=False):
            raise InvalidParameterError("planted")

        checks = tuple(e if e[0] != 2 else (*e[:3], broken) for e in validation.ALL_CHECKS)
        monkeypatch.setattr(validation, "ALL_CHECKS", checks)
        assert run(["validate", "--quick"]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 11
        assert [ln for ln in lines if not ln.startswith("[PASS]")] == [lines[1]]
        assert lines[1].startswith("[FAIL]  2 hand         InvalidParameterError: planted (")


class TestStateParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1,0", [1, 0]),
            ("0.6,0.8i", [0.6, 0.8j]),
            ("0.6,-0.8i", [0.6, -0.8j]),
            ("0.5+0.5i,0.5-0.5i", [0.5 + 0.5j, 0.5 - 0.5j]),
        ],
    )
    def test_accepted_forms(self, text, expected):
        vec = cli._parse_state(text, 2)
        np.testing.assert_allclose(vec, expected, atol=1e-12)

    def test_wrong_component_count(self):
        with pytest.raises(InvalidParameterError, match="--state needs 2"):
            cli._parse_state("1,0,0", 2)
