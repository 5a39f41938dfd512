"""The benchmark's contract: its spec file and its refusal without sources."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

from bench.run import SPEC

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_the_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == SPEC


def test_spec_is_within_the_limits():
    names = [w["name"] for w in SPEC["workloads"]]
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    assert 2 <= len(names) <= 8 and 1 <= len(SPEC["per_layer"]) <= 128
    assert all(NAME.match(n) for n in names + [m["name"] for m in metrics])
    assert len(set(names)) == len(names)
    assert len({m["name"] for m in metrics}) == len(metrics)
    assert all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
               for m in metrics)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_small", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
