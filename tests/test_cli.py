"""Command-line interface behavior and output determinism."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import kcg
from kcg.cli import main
from kcg.tabledata import (concordant_fixture, reference_table, serialize,
                           unknown_fixture)

PACKAGE = Path(kcg.__file__).resolve().parent
UNKNOWN_CSV = str(PACKAGE / "data" / "unknown_11.csv")
SMALL_CSV = str(PACKAGE / "data" / "knots_small.csv")
README = Path(__file__).resolve().parents[1] / "README.md"

# runs kcg.cli.main in a new interpreter, then reports on stderr whether
# numpy got imported (the test process itself has numpy loaded already)
_RUN_MAIN = """\
import sys
from kcg.cli import main
status = main(sys.argv[1:])
print("numpy" in sys.modules, file=sys.stderr)
sys.exit(status)
"""


def _run_fresh(argv):
    """(exit code, stdout, stderr lines, numpy imported) of ``kcg argv``
    in a new process."""
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run([sys.executable, "-c", _RUN_MAIN, *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=False)
    *err, loaded = proc.stderr.splitlines()
    return proc.returncode, proc.stdout, err, loaded == "True"


def _readme_output(command):
    """The stdout lines the README shows after ``command``; it draws each
    tab as a run of spaces."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(command))
    shown = []
    for line in lines[start + 1:]:
        if not line.startswith("# "):
            break
        shown.append(re.sub(" {2,}", "\t", line[2:]))
    return shown


@pytest.fixture()
def unknown_csv(tmp_path):
    path = tmp_path / "unknown.csv"
    path.write_text(serialize(unknown_fixture()), encoding="utf-8")
    return str(path)


@pytest.fixture()
def reference_csv(tmp_path):
    path = tmp_path / "small.csv"
    path.write_text(serialize(reference_table()), encoding="utf-8")
    return str(path)


@pytest.fixture()
def concordant_csv(tmp_path):
    path = tmp_path / "concordant.csv"
    path.write_text(serialize(concordant_fixture()), encoding="utf-8")
    return str(path)


class TestFactorCommand:
    def test_factored_output(self, capsys):
        assert main(["factor", "--poly", "1;-6;15;-21;15;-6;1"]) == 0
        out = capsys.readouterr().out
        assert out == "(1;-3;1)^1 * (1;-3;5;-3;1)^1\n"

    def test_trivial_polynomial(self, capsys):
        assert main(["factor", "--poly", "1"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_bad_polynomial_exits_1(self, capsys):
        assert main(["factor", "--poly", "0;0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("kcg: ")
        assert err.count("\n") == 1

    def test_byte_deterministic(self, capsys):
        main(["factor", "--poly", "4;-15;30;-37;30;-15;4"])
        first = capsys.readouterr().out
        main(["factor", "--poly", "4;-15;30;-37;30;-15;4"])
        assert capsys.readouterr().out == first


class TestInvariantsCommand:
    def test_trefoil(self, capsys):
        # values starting with "-" need the = form, as usual with argparse
        assert main(["invariants", "--seifert=-1,1;0,-1"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "alexander\t1;-1;1"
        assert lines[1] == "signature\t-2"
        assert lines[2] == "jump\t1.047197551\t-2\t-1"

    def test_bad_matrix_exits_1(self, capsys):
        assert main(["invariants", "--seifert", "1,0;0,1"]) == 1
        assert "not a knot Seifert matrix" in capsys.readouterr().err

    # the polynomial is 10**24 (1-t)^2 + t (or 10**400 (1-t)^2 + t): one
    # root at theta of about 1e-12 (1e-200) where the signature rises to 2
    @pytest.mark.parametrize("matrix", [f"{10**12},1;0,{10**12}", f"{10**400},1;0,1"],
                             ids=["1e12", "1e400"])
    def test_root_near_one_gets_its_jump(self, matrix):
        status, out, err, _ = _run_fresh(["invariants", f"--seifert={matrix}"])
        assert (status, err) == (0, [])
        assert out.splitlines()[1:] == ["signature\t2", "jump\t0.000000000\t2\t1"]

    # det(V - tV^T) = t: no roots, and V + V^T is indefinite
    @pytest.mark.parametrize("entry", [10**400, 10**308], ids=["1e400", "1e308"])
    def test_entry_beyond_float_range(self, entry):
        status, out, err, _ = _run_fresh(["invariants", f"--seifert={entry},1;0,0"])
        assert (status, err) == (0, [])
        assert out.splitlines() == ["alexander\t1", "signature\t0"]


class TestImportCost:
    """No kcg command imports numpy."""

    @pytest.mark.parametrize("argv", [
        ["factor", "--poly", "1;-9;28;-39;28;-9;1"],
        ["bound", "--name", "11a_6", "--table", UNKNOWN_CSV],
        ["census", "--table", UNKNOWN_CSV, "--candidates", SMALL_CSV],
        ["match", "--name", "11n_152", "--table", UNKNOWN_CSV,
         "--candidates", SMALL_CSV],
    ], ids=["factor", "bound", "census", "match"])
    def test_rows_without_a_matrix_never_import_numpy(self, argv):
        status, out, _, numpy_loaded = _run_fresh(argv)
        assert status == 0
        assert out
        assert not numpy_loaded

    def test_invariants_still_prints_the_readme_lines(self):
        status, out, _, numpy_loaded = _run_fresh(["invariants", "--seifert=-1,1;0,-1"])
        assert status == 0
        assert out.splitlines() == _readme_output(
            'kcg invariants "--seifert=-1,1;0,-1"')
        assert not numpy_loaded


class TestBoundCommand:
    def test_partial_interval_row(self, unknown_csv, capsys):
        assert main(["bound", "--name", "11a_6", "--table", unknown_csv]) == 0
        out = capsys.readouterr().out
        assert out.startswith("11a_6\t2\t3\tundetermined\t")

    def test_unknown_name(self, unknown_csv, capsys):
        assert main(["bound", "--name", "nope", "--table", unknown_csv]) == 1
        assert "unknown knot: nope" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["bound", "--name", "x", "--table", "/nope.csv"]) == 1
        assert "cannot read table" in capsys.readouterr().err


class TestCensusCommand:
    def test_counts_and_report(self, concordant_csv, tmp_path, capsys):
        report = tmp_path / "out.tsv"
        code = main(["census", "--table", concordant_csv,
                     "--report", str(report)])
        assert code == 0
        out = capsys.readouterr().out
        assert "concordant_lower_genus\t29" in out
        assert "total\t29" in out
        text = report.read_text(encoding="utf-8")
        assert text.startswith("name\tgc_lower\tgc_upper\tcategory")
        assert len(text.strip().split("\n")) == 30

    def test_census_byte_deterministic(self, unknown_csv, reference_csv,
                                       tmp_path, capsys):
        outputs = []
        reports = []
        for i in range(2):
            report = tmp_path / f"r{i}.tsv"
            assert main(["census", "--table", unknown_csv,
                         "--candidates", reference_csv,
                         "--report", str(report)]) == 0
            outputs.append(capsys.readouterr().out)
            reports.append(report.read_bytes())
        assert outputs[0] == outputs[1]
        assert reports[0] == reports[1]

    def test_census_with_candidates(self, unknown_csv, reference_csv,
                                    tmp_path, capsys):
        report = tmp_path / "r.tsv"
        code = main(["census", "--table", unknown_csv,
                     "--candidates", reference_csv, "--report", str(report)])
        assert code == 0
        text = report.read_text(encoding="utf-8")
        row = next(l for l in text.split("\n") if l.startswith("11a_297\t"))
        assert row.split("\t")[5].startswith("5_2")

    def test_table_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "utf16.csv"
        path.write_bytes(b"\xff\xfen\x00a\x00m\x00e\x00")
        assert main(["census", "--table", str(path)]) == 1
        assert capsys.readouterr().err == f"kcg: cannot read table {path}: not UTF-8\n"


class TestMatchCommand:
    def test_match_output(self, concordant_csv, reference_csv, capsys):
        code = main(["match", "--name", "11a_196", "--table", concordant_csv,
                     "--candidates", reference_csv])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].split("\t") == ["3_1", "1", "3", "1;-1;1"]


class TestUsageErrors:
    def test_unknown_flag_is_fatal(self):
        with pytest.raises(SystemExit) as err:
            main(["factor", "--poly", "1;-1;1", "--bogus"])
        assert err.value.code == 2

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("argv", [
        ["match", "--name", "11n_152", "--table", UNKNOWN_CSV, "--candidates", SMALL_CSV],
        ["census", "--table", UNKNOWN_CSV, "--candidates", SMALL_CSV],
    ], ids=["match", "census"])
    def test_max_summands_below_one(self, argv, value, capsys):
        with pytest.raises(SystemExit) as err:
            main([*argv, f"--max-summands={value}"])
        assert err.value.code == 2
        assert capsys.readouterr().out == ""

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_module_entry_point(self):
        import os
        import pathlib
        import subprocess
        import sys

        import kcg
        src = str(pathlib.Path(kcg.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "kcg", "factor", "--poly", "1;-1;1"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert proc.stdout == "(1;-1;1)^1\n"
