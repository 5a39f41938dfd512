"""Command-line interface behavior and output determinism."""

import io
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kcg
from kcg.bounds import CATEGORIES
from kcg.cli import _COMMANDS, _build_parser, _parse_direct, main
from kcg.tabledata import (SCHEMA, census, concordant_fixture, parse_table,
                           reference_table, report_tsv, serialize, unknown_fixture)
from oracles import swinnerton_dyer

PACKAGE = Path(kcg.__file__).resolve().parent
UNKNOWN_CSV = str(PACKAGE / "data" / "unknown_11.csv")
SMALL_CSV = str(PACKAGE / "data" / "knots_small.csv")
README = Path(__file__).resolve().parents[1] / "README.md"

# runs kcg.cli.main in a new interpreter, then lists on stderr the modules
# it loaded (the test process itself has numpy and every kcg layer loaded)
_RUN_MAIN = """\
import sys
from kcg.cli import main
status = main(sys.argv[1:])
print(*sorted(sys.modules), file=sys.stderr)
sys.exit(status)
"""


def _env():
    """This environment, with the package under test first on the path."""
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))


def _run_fresh(argv):
    """(exit code, stdout, stderr lines, names of the loaded modules) of
    ``kcg argv`` in a new process."""
    proc = subprocess.run([sys.executable, "-c", _RUN_MAIN, *argv], env=_env(),
                          capture_output=True, text=True, timeout=120, check=False)
    *err, loaded = proc.stderr.splitlines()
    return proc.returncode, proc.stdout, err, set(loaded.split())


def _run_module(argv, timeout=120):
    """``python -m kcg argv`` in a new process, failing past ``timeout``
    seconds."""
    return subprocess.run([sys.executable, "-m", "kcg", *argv], env=_env(),
                          capture_output=True, text=True, timeout=timeout, check=False)


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

    def test_recombination_budget_refusal_exits_1(self, capsys):
        sd = ";".join(map(str, swinnerton_dyer([2, 3, 5, 7, 11])))
        assert main(["factor", "--poly", sd]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"kcg: .*recombination trials\n", captured.err)

    def test_large_prime_content(self):
        proc = _run_module(["factor", "--poly", "1000000000039"], timeout=5)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "(1000000000039)^1\n", "")

    @pytest.mark.parametrize("poly,out", [
        ("1000000000000037", "(1000000000000037)^1\n"),
        ("2305843009213693951;2305843009213693951", "(2305843009213693951)^1 * (1;1)^1\n"),
    ], ids=["10^15+37", "2^61-1"])
    def test_prime_content_beyond_trial_division(self, poly, out):
        # the content is printed whole, whatever its prime factors
        proc = _run_module(["factor", "--poly", poly], timeout=5)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")

    def test_large_contents_print_whole(self):
        # no integer factoring runs, so each answers in a fresh process within 2 s
        for content in ((2 ** 31 - 1) * 1000000000039, 2 ** 89 - 1):
            proc = _run_module(["factor", "--poly", str(content)], timeout=2)
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"({content})^1\n", "")

    def test_content_is_one_factor(self):
        proc = _run_module(["factor", "--poly", "12;12"], timeout=5)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "(12)^1 * (1;1)^1\n", "")
        assert proc.stdout.splitlines() == _readme_output('kcg factor --poly "12;12"')

    def test_byte_deterministic(self, capsys):
        main(["factor", "--poly", "4;-15;30;-37;30;-15;4"])
        first = capsys.readouterr().out
        main(["factor", "--poly", "4;-15;30;-37;30;-15;4"])
        assert capsys.readouterr().out == first


# stdout of ``kcg invariants`` for each Seifert matrix of knots_small.csv
INVARIANTS_STDOUT = {
    "3_1": "alexander\t1;-1;1\nsignature\t-2\njump\t1.047197551\t-2\t-1\n",
    "4_1": "alexander\t1;-3;1\nsignature\t0\n",
    "5_1": ("alexander\t1;-1;1;-1;1\nsignature\t-4\n"
            "jump\t0.628318531\t-2\t-1\njump\t1.884955592\t-2\t-3\n"),
    "5_2": "alexander\t2;-3;2\nsignature\t-2\njump\t0.722734248\t-2\t-1\n",
    "6_1": "alexander\t2;-5;2\nsignature\t0\n",
    "7_1": ("alexander\t1;-1;1;-1;1;-1;1\nsignature\t-6\n"
            "jump\t0.448798951\t-2\t-1\njump\t1.346396852\t-2\t-3\n"
            "jump\t2.243994753\t-2\t-5\n"),
    "7_2": "alexander\t3;-5;3\nsignature\t-2\njump\t0.585685543\t-2\t-1\n",
    "7_4": "alexander\t4;-7;4\nsignature\t-2\njump\t0.505360510\t-2\t-1\n",
}


class TestInvariantsCommand:
    def test_every_bundled_matrix_has_its_output_pinned(self):
        assert sorted(INVARIANTS_STDOUT) == sorted(
            r.name for r in reference_table().records if r.seifert is not None)

    @pytest.mark.parametrize("name", sorted(INVARIANTS_STDOUT))
    def test_bundled_matrix_output(self, name, capsys):
        matrix = reference_table().find(name).seifert.to_text()
        assert main(["invariants", f"--seifert={matrix}"]) == 0
        assert capsys.readouterr().out == INVARIANTS_STDOUT[name]

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
        status, out, _, loaded = _run_fresh(argv)
        assert status == 0
        assert out
        assert "numpy" not in loaded

    def test_invariants_still_prints_the_readme_lines(self):
        status, out, _, loaded = _run_fresh(["invariants", "--seifert=-1,1;0,-1"])
        assert status == 0
        assert out.splitlines() == _readme_output(
            'kcg invariants "--seifert=-1,1;0,-1"')
        assert "numpy" not in loaded


def _layers(loaded):
    """The kcg modules among ``loaded``, with csv and fractions: the
    standard-library modules only the table and Seifert layers import."""
    return {m for m in loaded if m.partition(".")[0] in ("kcg", "csv", "fractions")}


# what every command loads: the package, which imports errors and laurent
PACKAGE_MODULES = {"kcg", "kcg.errors", "kcg.laurent", "kcg._intpoly", "kcg._record"}


class TestColdStart:
    def test_import_loads_none_of_the_heavy_stdlib_modules(self):
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import kcg.cli; "
                "print(*sorted(sys.modules))")
        proc = subprocess.run([sys.executable, "-S", "-c", code, str(PACKAGE.parent)],
                              capture_output=True, text=True, timeout=120, check=True)
        loaded = set(proc.stdout.split())
        assert "kcg.cli" in loaded
        assert not loaded & {"argparse", "dataclasses", "inspect", "importlib.resources",
                             "pathlib", "typing"}

    def test_bare_import_loads_only_errors_and_laurent(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, kcg; print(*sorted(sys.modules))"],
            env=_env(), capture_output=True, text=True, timeout=120, check=True)
        assert _layers(proc.stdout.split()) == PACKAGE_MODULES

    # each command loads only the layers it runs: factor no table or
    # Seifert code, invariants no table code, and bound on a table without
    # matrices no Seifert code; census and match check the matrices of the
    # candidate table, which interpolates nothing, and profile none of
    # them, so they load the matrix record but neither the signature code
    # nor fractions; a census of a table with matrices profiles them
    @pytest.mark.parametrize("argv, layers", [
        (["factor", "--poly", "1;-1;1"], set()),
        (["invariants", "--seifert=-1,1;0,-1"], {"kcg._matrix", "kcg.seifert", "fractions"}),
        (["bound", "--name", "11a_6", "--table", UNKNOWN_CSV],
         {"kcg.bounds", "kcg.foxmilnor", "kcg.tabledata", "csv"}),
        (["census", "--table", UNKNOWN_CSV, "--candidates", SMALL_CSV],
         {"kcg.bounds", "kcg.foxmilnor", "kcg.tabledata", "kcg._matrix", "csv"}),
        (["match", "--name", "11n_152", "--table", UNKNOWN_CSV, "--candidates", SMALL_CSV],
         {"kcg.bounds", "kcg.foxmilnor", "kcg.tabledata", "kcg._matrix", "csv"}),
        (["census", "--table", SMALL_CSV],
         {"kcg.bounds", "kcg.foxmilnor", "kcg.tabledata", "kcg._matrix", "kcg.seifert",
          "fractions", "csv"}),
    ], ids=["factor", "invariants", "bound", "census", "match", "census-profiles"])
    def test_command_loads_only_its_layers(self, argv, layers):
        status, out, _, loaded = _run_fresh(argv)
        assert status == 0 and out
        assert _layers(loaded) == PACKAGE_MODULES | {"kcg.cli"} | layers
        # a well-formed command line is parsed without argparse
        assert not loaded & {"argparse", "gettext", "locale"}

    @pytest.mark.parametrize("argv, status", [
        (["-h"], 0),
        (["census", "-h"], 0),
        (["factor", "--bogus"], 2),
    ], ids=["help", "census-help", "bogus-flag"])
    def test_help_and_usage_are_argparses(self, argv, status, capsys):
        with pytest.raises(SystemExit) as want:
            _build_parser().parse_args(argv)
        expected = capsys.readouterr()
        with pytest.raises(SystemExit) as got:
            main(argv)
        assert (got.value.code, capsys.readouterr()) == (want.value.code, expected)
        assert got.value.code == status
        assert (expected.err if status else expected.out).startswith("usage: kcg")


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

    @pytest.mark.parametrize("filename", ["knots_small.csv", "slice_11.csv",
                                          "concordant_11.csv", "unknown_11.csv"])
    def test_byte_order_mark_gives_the_plain_tables_census(self, filename, tmp_path, capsys):
        plain = PACKAGE / "data" / filename
        marked = tmp_path / filename
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outputs = []
        for i, table in enumerate((plain, marked)):
            report = tmp_path / f"r{i}.tsv"
            assert main(["census", "--table", str(table), "--report", str(report)]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs.append((captured.out, report.read_bytes()))
        assert outputs[0] == outputs[1]

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

    def test_header_only_table(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(SCHEMA) + "\n", encoding="utf-8")
        proc = _run_module(["census", "--table", str(path)])
        assert proc.returncode == 0
        assert proc.stderr == f"kcg: {path}: no records\n"
        assert proc.stdout == "".join(f"{c}\t0\n" for c in CATEGORIES) + "total\t0\n"

    @pytest.mark.parametrize("row, reason", [
        ("x" * 131073 + ",3,1;-1;1,-2,1,1,1,not_slice,,",
         "field larger than field limit (131072)"),
        ("3_1\0,3,1;-1;1,-2,1,1,1,not_slice,,", "line contains NUL"),
        ("3_1,3,1;-2;1,0,1,1,1,not_slice,,", "not a knot polynomial"),
    ], ids=["long-field", "nul", "bad-polynomial"])
    def test_one_bad_row_is_named(self, tmp_path, row, reason, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(SCHEMA) + "\n" + row + "\n", encoding="utf-8")
        assert main(["census", "--table", str(path)]) == 1
        assert capsys.readouterr() == (
            "", f"kcg: all rows rejected; line 2: {reason}\n")

    def test_quoted_carriage_return_reads_as_parse_table_reads_it(self, tmp_path, capsys):
        text = (",".join(SCHEMA) + '\n"4\r1",4,1;-3;1,0,1,1,1,slice,,\n'
                "bad,3,1;-2;1,0,1,1,1,not_slice,,\n3_1,3,1;-1;1,-2,1,1,1,not_slice,,\n")
        path, report = tmp_path / "cr.csv", tmp_path / "r.tsv"
        path.write_bytes(text.encode("utf-8"))
        assert main(["census", "--table", str(path), "--report", str(report)]) == 0
        table = parse_table(text)
        assert [r.name for r in table.records] == ["3_1"]
        assert table.rejected[0].reason == "line contains CR"
        assert capsys.readouterr().err == "".join(
            f"kcg: {path}:{bad.line}: {bad.reason}\n" for bad in table.rejected)
        assert report.read_bytes() == report_tsv(census(table)).encode("utf-8")

    def test_polynomial_not_palindromic_is_a_rejected_row(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(SCHEMA) + "\nbad,3,2;-1,0,1,,,unknown,,\n"
                        "3_1,3,1;-1;1,-2,1,1,1,not_slice,,\n", encoding="utf-8")
        assert main(["census", "--table", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == f"kcg: {path}:2: not a knot polynomial\n"
        assert out.endswith("total\t1\n")

    @pytest.mark.parametrize("row", [
        f"big,3,1;-1;1,{10**400},1,0,1,not_slice,,",
        '"3\t1",3,1;-1;1,-2,1,1,1,not_slice,,',
        '"a\nb",3,1;-1;1,-2,1,1,1,not_slice,,',
        '"#x",3,1;-1;1,-2,1,1,1,not_slice,,',
    ], ids=["huge-signature", "tab", "quoted-line-feed", "comment-mark"])
    def test_bad_row_is_rejected_and_the_rest_reported(self, tmp_path, row):
        path, report = tmp_path / "bad.csv", tmp_path / "r.tsv"
        path.write_bytes((",".join(SCHEMA) + "\n" + row
                          + "\n3_1,3,1;-1;1,-2,1,1,1,not_slice,,\n").encode("utf-8"))
        proc = _run_module(["census", "--table", str(path), "--report", str(report)])
        assert proc.returncode == 0 and proc.stdout.endswith("total\t1\n")
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"kcg: {path}:2: ")
        assert all(line.startswith("kcg: ") for line in proc.stderr.splitlines())
        lines = report.read_text(encoding="utf-8").splitlines()
        assert [line.split("\t")[0] for line in lines] == ["name", "3_1"]
        assert all(line.count("\t") == 5 for line in lines)

    def test_cr_line_endings_are_bad_schema(self, tmp_path, capsys):
        path = tmp_path / "cr.csv"
        path.write_bytes((",".join(SCHEMA) + "\r3_1,3,1;-1;1,-2,1,1,1,not_slice,,\r")
                         .encode("utf-8"))
        assert main(["census", "--table", str(path)]) == 1
        assert capsys.readouterr() == ("", "kcg: bad schema\n")

    def test_table_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "utf16.csv"
        path.write_bytes(b"\xff\xfen\x00a\x00m\x00e\x00")
        assert main(["census", "--table", str(path)]) == 1
        assert capsys.readouterr().err == f"kcg: cannot read table {path}: not UTF-8\n"

    @pytest.mark.parametrize("where, reason", [
        ("missing/out.tsv", "No such file or directory"),
        (".", "Is a directory"),
    ], ids=["missing-directory", "directory"])
    def test_unwritable_report_is_one_line(self, concordant_csv, tmp_path,
                                           where, reason, capsys):
        report = tmp_path / where
        assert main(["census", "--table", concordant_csv,
                     "--report", str(report)]) == 1
        assert capsys.readouterr() == (
            "", f"kcg: cannot write report {report}: {reason}\n")


class TestMatchCommand:
    def test_match_output(self, concordant_csv, reference_csv, capsys):
        code = main(["match", "--name", "11a_196", "--table", concordant_csv,
                     "--candidates", reference_csv])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].split("\t") == ["3_1", "1", "3", "1;-1;1"]

    def test_product_past_the_string_limit_is_one_line(self, tmp_path):
        # h has coefficients of 2201 digits, h+h of 4401: more than int ->
        # str converts, so the match is refused before any line is printed
        a = 10 ** 2200
        header = ",".join(SCHEMA) + "\n"
        pool, table = tmp_path / "pool.csv", tmp_path / "query.csv"
        pool.write_text(header + f"h,3,{a};{1 - 2 * a};{a},0,1,0,1,unknown,,\n",
                        encoding="utf-8")
        table.write_text(header + "k,11,1;-6;11;-6;1,0,3,,,unknown,,\n", encoding="utf-8")
        proc = _run_module(["match", "--name", "k", "--table", str(table),
                            "--candidates", str(pool), "--max-summands", "2"])
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "kcg: coefficient too long to write as text\n"
        one = _run_module(["match", "--name", "k", "--table", str(table),
                           "--candidates", str(pool), "--max-summands", "1"])
        assert one.returncode == 0 and one.stdout.startswith("h\t1\t3\t")


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
        proc = _run_module(["factor", "--poly", "1;-1;1"])
        assert proc.returncode == 0
        assert proc.stdout == "(1;-1;1)^1\n"

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_stdout_is_one_line(self, unbuffered):
        # the write fails in print when stdout is unbuffered, else in the
        # flush; either way the interpreter's last flush must stay silent
        env = _env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen([sys.executable, "-m", "kcg", "factor", "--poly", "1;-1;1"],
                                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        proc.stdout.close()
        try:
            err = proc.communicate(timeout=120)[1]
        finally:
            proc.kill()
        assert proc.returncode == 1
        assert re.fullmatch(r"kcg: [^\n]*\n", err), err

    @pytest.mark.parametrize("argv", [
        ["factor", "--poly=--"],
        ["invariants", "--seifert=--"],
        ["bound", "--name=--", "--table", UNKNOWN_CSV],
        ["census", "--table=--"],
        ["census", "--table", UNKNOWN_CSV, "--max-summands=--"],
        ["match", "--name", "11n_152", "--table", UNKNOWN_CSV, "--candidates=--"],
    ], ids=["factor", "invariants", "bound", "census", "census-max-summands", "match"])
    def test_double_dash_value_is_refused_without_traceback(self, argv):
        # depending on the argparse release, "--" arrives as the value (a
        # domain error, exit 1) or is dropped (a usage error, exit 2)
        proc = _run_module(argv)
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
        if proc.returncode == 1:
            assert re.fullmatch(r"kcg: [^\n]*\n", proc.stderr)
        else:
            assert proc.returncode == 2
            assert proc.stderr.startswith("usage: kcg ")


# an argv grammar: subcommands exact, abbreviated, unknown or -h; options of
# any subcommand, abbreviated or unknown, in the = and the space form
_SUBCOMMANDS = [*_COMMANDS, "fac", "cen", "bogus", "-h"]
_FLAGS = [*sorted({flag for _, _, options in _COMMANDS.values() for flag, *_ in options}),
          "--max", "--cand", "--na", "--bogus", "-h"]
_TABLES = [UNKNOWN_CSV, SMALL_CSV]
_VALUES = ["", "-x", "--", " 3", "+3", "3_0", "-5", "a=b", "-a b", *_TABLES]


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(_SUBCOMMANDS))
    own = [flag for flag, *_ in _COMMANDS.get(command, (None, None, ()))[2]]
    # each option of the subcommand given or not, plus at most one of any
    flags = [flag for flag in own if draw(st.integers(0, 3))]
    flags = draw(st.permutations(flags + draw(st.lists(st.sampled_from(_FLAGS), max_size=1))))
    argv = [command]
    for flag in flags:
        value = draw(st.sampled_from(_VALUES))
        if flag == "--report" and value in _TABLES:
            value = "report.tsv"  # a report is written; never over a bundled table
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


def _argparse_vars(argv):
    """vars() of argparse's namespace for ``argv``, or its exit code."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(_build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code


class TestDirectParse:
    """A well-formed command line is parsed without argparse, into the
    namespace argparse gives it; any other goes to argparse."""

    @settings(derandomize=True, max_examples=1000, deadline=None, database=None)
    @given(_argvs())
    @example(["census", "--table", UNKNOWN_CSV, "--max-summands", " 3"])
    @example(["match", "--name=a=b", f"--table={UNKNOWN_CSV}", "--candidates", SMALL_CSV,
              "--max-summands=3_0"])
    @example(["invariants", "--seifert=-a b"])
    def test_direct_namespace_is_argparses(self, argv):
        direct = _parse_direct(argv)
        if direct is not None:
            assert vars(direct) == _argparse_vars(argv)

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["fac", "--poly", "1"], ["factor", "--po", "1"],
        ["factor", "--poly", "1", "--poly", "2"], ["factor", "--poly", "-5"],
        ["factor", "--poly", "1", "x"], ["factor", "--", "--poly", "1"],
        ["factor", "--poly=--"], ["factor"], ["census", "--table", UNKNOWN_CSV, "--max", "3"],
        ["census", "--table", UNKNOWN_CSV, "--max-summands", "x"],
    ], ids=["empty", "help", "abbreviated-command", "abbreviated-option", "repeated",
            "dash-value", "positional", "double-dash", "double-dash-value", "missing",
            "abbreviated-int", "bad-int"])
    def test_other_command_lines_go_to_argparse(self, argv):
        assert _parse_direct(argv) is None

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(_argvs())
    def test_main_ends_in_one_of_three_ways(self, argv):
        parsed = _argparse_vars(argv)
        summands = parsed.get("max_summands") if isinstance(parsed, dict) else None
        if isinstance(summands, int) and summands > 3:
            return  # a sweep over sums of up to 30 candidates runs for minutes
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out), redirect_stderr(err):
            os.chdir(tmp)  # a report path the grammar draws is written here
            try:
                status = main(argv)
            except SystemExit as exc:
                status = exc.code
            finally:
                os.chdir(cwd)
        err = err.getvalue()
        assert status in (0, 1, 2)
        assert (err == "" or re.fullmatch(r"kcg: [^\n]*\n", err)
                or err.startswith("usage: kcg")), err
