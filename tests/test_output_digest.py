"""One sha256 over what ``kcg`` prints for the bundled command set.

The set: ``census`` of each bundled table, alone and with the small table
as candidates at 3 summands with a report; ``match`` at 3 summands and
``bound`` for each unknown_11 row; ``bound`` for each knots_small row;
``invariants`` of each bundled Seifert matrix; and the README's two
``factor`` examples.  Per command the digest takes the argv (table paths
relative to the data directory), the exit code, stdout, stderr and the
report's bytes, so any change to any output moves it.  The pin holds on
every supported Python.

The module needs no pytest, so the same loop runs under any interpreter::

    PYTHONPATH=src python tests/test_output_digest.py
"""

import csv
import hashlib
import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import kcg
from kcg import cli

DATA = os.path.join(os.path.dirname(os.path.abspath(kcg.__file__)), "data")
TABLES = ("knots_small.csv", "slice_11.csv", "concordant_11.csv", "unknown_11.csv")
REPORT = "report.tsv"

DIGEST = "0387f10b36a0c481e07b90cb3ccedd1d911b0e44c641858a0d5e562c03e9b8c4"


def _rows(table):
    """The data rows of a bundled table as dicts, read with the csv module
    alone: comment and blank lines dropped, the header naming the fields."""
    with open(os.path.join(DATA, table), encoding="utf-8", newline="") as fh:
        lines = [line for line in fh.read().split("\n")
                 if line.strip() and not line.lstrip().startswith("#")]
    return list(csv.DictReader(lines))


def commands():
    """The argv of every command in the set, in a fixed order."""
    for table in TABLES:
        yield ["census", "--table", table]
        yield ["census", "--table", table, "--candidates", "knots_small.csv",
               "--max-summands", "3", "--report", REPORT]
    for row in _rows("unknown_11.csv"):
        yield ["match", "--name", row["name"], "--table", "unknown_11.csv",
               "--candidates", "knots_small.csv", "--max-summands", "3"]
        yield ["bound", "--name", row["name"], "--table", "unknown_11.csv"]
    for row in _rows("knots_small.csv"):
        yield ["bound", "--name", row["name"], "--table", "knots_small.csv"]
    for table in TABLES:
        for row in _rows(table):
            if row["seifert"]:
                yield ["invariants", f"--seifert={row['seifert']}"]
    yield ["factor", "--poly", "1;-9;28;-39;28;-9;1"]
    yield ["factor", "--poly", "12;12"]


def outputs_digest() -> tuple[int, str]:
    """(number of commands, sha256 of their outputs)."""
    digest = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, REPORT)
        for argv in commands():
            real = [os.path.join(DATA, a) if a in TABLES else report if a == REPORT else a
                    for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                status = cli.main(real)
            written = b""
            if os.path.exists(report):
                with open(report, "rb") as fh:
                    written = fh.read()
                os.remove(report)
            texts = ("\0".join(argv), str(status), out.getvalue(), err.getvalue())
            for part in (*(text.encode("utf-8") for text in texts), written):
                digest.update(b"%d:%s" % (len(part), part))
            count += 1
    return count, digest.hexdigest()


def test_outputs_of_the_bundled_command_set_are_pinned():
    assert outputs_digest() == (71, DIGEST)


if __name__ == "__main__":
    print(*outputs_digest())
