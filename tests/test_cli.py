"""End-to-end command line tests: exit codes, JSON reports, reproducibility."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import nullsatz
from nullsatz import cli
from nullsatz.cli import main
from nullsatz.polyalg import BiPoly, poly_to_json

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"
SRC = Path(nullsatz.__file__).resolve().parent.parent

Z1 = BiPoly.var(1)
Z2 = BiPoly.var(2)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_poly(tmp_path, name, poly):
    path = tmp_path / name
    path.write_text(json.dumps(poly_to_json(poly)))
    return str(path)


class TestClassifyCommand:
    def test_closed_exit_zero(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--domain", "2,2",
            "--ideal", str(DATA / "princ_half.json"), "--no-certificate",
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["overall"] == "CLOSED"
        assert rep["config"]["domain"] == {"p": 2.0, "q": 2.0}

    def test_dense_exit_one(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--domain", "2,2",
            "--ideal", str(DATA / "princ_two.json"), "--no-certificate",
        )
        assert code == 1
        assert json.loads(out)["overall"] == "DENSE"

    def test_closed_on_omega11(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--domain", "1,1",
            "--ideal", str(DATA / "princ_half.json"), "--no-certificate",
        )
        assert code == 0
        assert json.loads(out)["overall"] == "CLOSED"

    def test_neither_exit_two(self, capsys, tmp_path):
        path = write_poly(tmp_path, "n.json", (Z1 - 2) * (2 * Z1 - 1))
        code, out, _ = run(
            capsys, "classify", "--ideal", path, "--no-certificate",
        )
        assert code == 2
        assert json.loads(out)["overall"] == "NEITHER"

    def test_pretty_summary_on_stderr(self, capsys):
        code, out, err = run(
            capsys, "classify", "--ideal", str(DATA / "princ_half.json"),
            "--no-certificate", "--pretty",
        )
        assert code == 0
        json.loads(out)  # stdout stays pure JSON
        assert "verdict: CLOSED" in err

    def test_byte_identical_reports(self, capsys):
        args = ("classify", "--ideal", str(DATA / "princ_half.json"),
                "--no-certificate", "--seed", "3")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestOtherCommands:
    def test_decompose_two_lines(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--poly", str(DATA / "twolines.json"),
        )
        assert code == 0
        rep = json.loads(out)
        assert len(rep["curve_components"]) == 2

    def test_decompose_mixed_ideal(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--poly", str(DATA / "mixed_ideal.json"),
        )
        assert code == 0
        rep = json.loads(out)
        assert len(rep["curve_components"]) == 1
        assert len(rep["isolated_points"]) == 1

    def test_norms_table(self, capsys):
        code, out, _ = run(
            capsys, "norms", "--domain", "2,2", "--max-degree", "2",
        )
        assert code == 0
        rep = json.loads(out)
        first = {(e["a"], e["b"]): e["norm_sq"] for e in rep["entries"]}
        assert first[(0, 0)] == pytest.approx(math.pi**2 / 2, rel=1e-12)
        assert len(rep["entries"]) == 6

    def test_ratio_product_bound(self, capsys, tmp_path):
        path = write_poly(tmp_path, "p.json", (Z1 - 2) * (Z2 - 2))
        code, out, _ = run(
            capsys, "ratio", "--poly", path, "--samples", "4000",
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["pass"] is True
        assert rep["sup"] <= 4.0 + 1e-9

    def test_hopf_balanced_product(self, capsys, tmp_path):
        path = write_poly(tmp_path, "h.json", Z1 * Z2)
        code, out, _ = run(capsys, "hopf", "--poly", path)
        assert code == 0
        rep = json.loads(out)
        assert rep["rotation"]["min_modulus"] == pytest.approx(0.5, abs=1e-6)

    def test_density_certificate(self, capsys):
        code, out, _ = run(
            capsys, "density", "--poly", str(DATA / "princ_two.json")
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["status"] == "DENSE"


class TestErrorPaths:
    def test_malformed_input_names_term(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"terms": [{"a": 0, "b": 0, "re": 0.5}]}')
        code, _, err = run(capsys, "classify", "--ideal", str(bad))
        assert code == 64
        assert "term #0" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "classify", "--ideal", str(tmp_path / "nope.json"),
        )
        assert code == 64
        assert "input error" in err

    def test_invalid_r_grid_is_config_error(self, capsys, tmp_path):
        path = write_poly(tmp_path, "p.json", Z1 - 2)
        code, _, err = run(
            capsys, "ratio", "--poly", path, "--r-grid", "0.4,0.6",
        )
        assert code == 10
        assert "error" in err

    @pytest.mark.parametrize("r_grid", ["", "0.9,x", "0.9,,0.95"])
    @pytest.mark.parametrize("command", ["ratio", "density"])
    def test_malformed_r_grid_is_input_error(self, capsys, tmp_path, command, r_grid):
        path = write_poly(tmp_path, "p.json", Z1 - 2)
        code, out, err = run(capsys, command, "--poly", path, "--r-grid", r_grid)
        assert code == 64
        assert "--r-grid" in err
        assert out == ""

    @pytest.mark.parametrize("witness", ["a,b,c,d", "0.5,0,0.5"])
    def test_bad_witness_is_input_error(self, capsys, tmp_path, witness):
        path = write_poly(tmp_path, "p.json", Z1 - 2)
        code, _, err = run(capsys, "density", "--poly", path, "--witness", witness)
        assert code == 64
        assert "--witness" in err

    def test_flags_only_where_read(self, tmp_path):
        path = write_poly(tmp_path, "p.json", Z1 - 2)
        for argv in (
            ["classify", "--ideal", path, "--r-grid", "0.9"],
            ["norms", "--max-degree", "2", "--threads", "2"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    @pytest.mark.parametrize(
        "f",
        [Z2**6 + Z1**5 * Z2 + Z1**5 - 10, Z2**7 + Z1**6 * Z2 + Z1**6 - 100],
        ids=["deg6", "deg7"],
    )
    def test_root_find_failure_exits_ten(self, capsys, tmp_path, f):
        path = write_poly(tmp_path, "p.json", f)
        code, _, err = run(capsys, "decompose", "--poly", path)
        assert code == 10
        assert "root solve failed" in err

    def test_env_seed_override(self, capsys, monkeypatch, tmp_path):
        path = write_poly(tmp_path, "p.json", Z2**2 - Z1)
        monkeypatch.setenv("NULLSATZ_SEED", "99")
        code, out, _ = run(capsys, "decompose", "--poly", path, "--seed", "1")
        assert code == 0
        assert json.loads(out)["config"]["seed"] == 99


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of one main call, a usage error included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("usage error", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParserReuse:
    def test_kept_parser_answers_as_a_fresh_one(self, capsys, monkeypatch):
        calls = (
            ["classify", "--ideal", str(DATA / "twolines.json"), "--domain", "ball"],
            ["classify", "--ideal", str(DATA / "twolines.json"), "--bogus"],
            ["density", "--poly", str(DATA / "princ_two.json")],
        )
        cli._kept_parser.cache_clear()
        kept = [outcome(capsys, argv) for argv in calls]
        assert cli._kept_parser.cache_info().misses == 1
        assert kept[1][0] == ("usage error", 2)
        monkeypatch.setattr(cli, "_kept_parser", cli.build_parser)
        assert [outcome(capsys, argv) for argv in calls] == kept


class TestImportPath:
    """No one-shot call loads scipy: the package runs on numpy alone."""

    @pytest.mark.parametrize("argv", [
        [],
        ["norms", "--max-degree", "4", "--domain", "1,3"],
        ["classify", "--ideal", str(DATA / "twolines.json"), "--domain", "ball"],
        ["density", "--poly", str(DATA / "princ_two.json")],
        ["classify", "--ideal", str(DATA / "princ_two.json")],
    ], ids=["import", "norms", "classify", "density", "classify_certificate"])
    def test_no_scipy_module_loaded(self, argv):
        code = (
            "import contextlib, io, json, sys\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "import nullsatz, nullsatz.cli\n"
            f"argv = {argv!r}\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = nullsatz.cli.main(argv) if argv else 0\n"
            "print(json.dumps([status, sorted(m for m in sys.modules\n"
            "                                 if m.split('.')[0] == 'scipy')]))\n"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, timeout=120)
        status, loaded = json.loads(done.stdout)
        assert status in cli.VERDICT_EXIT.values()
        assert loaded == []
