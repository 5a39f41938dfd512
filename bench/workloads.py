"""The four workloads: set-up, one timed item, the oracle, the traced pass.

A workload object holds the inputs built by ``setup`` and the outputs its
items produced.  ``run_item`` is the only code inside the timed phase;
``check`` runs the oracles afterwards and raises ``OracleError`` on a
wrong output; ``traced_pass`` runs a fixed set of items in-process, so its
counters are exact and repeat for the same code and seed.  Each traced or
untraced pass runs in a fresh process after ``setup``, as a real ``kcg``
run would, so no pass finds the caches of another warm.

Refused items, and the signature profiles that the exact oracle shows
to be wrong, count as missed attempts instead of aborting the run: the
seed code's floating-point root isolation both refuses and, more rarely,
misses a pair of close unit-circle roots on valid genus 6-8 matrices, and
that defect must stay measurable.  Missed attempts lower ``ok_share``;
they are not failed operations, since every such item still runs to
its end and is checked.  Any other wrong output aborts.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
from pathlib import Path

# Library functions are called through their modules, so that the
# tracer's patched attributes are the ones called.
from kcg import cli, foxmilnor, laurent, seifert, tabledata
from kcg.errors import KcgError

from . import gen, oracles

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "kcg" / "data"
KNOTS_SMALL = DATA / "knots_small.csv"
UNKNOWN_11 = DATA / "unknown_11.csv"


# Every CPU the benchmark was given.  run.py pins its own process to one
# of them after importing this module; the processes it starts get them
# all back, so that kcg may use them.
ALL_CPUS = frozenset(os.sched_getaffinity(0))


def all_cpus() -> None:
    """``preexec_fn`` of a started process: every CPU in ALL_CPUS."""
    os.sched_setaffinity(0, ALL_CPUS)


def kcg_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get(
        "PYTHONPATH") else src
    return env


def run_kcg(argv, env) -> str:
    """stdout of one ``kcg`` process; a nonzero exit is a wrong output."""
    proc = subprocess.run([sys.executable, "-m", "kcg", *argv], env=env,
                          capture_output=True, text=True, timeout=120,
                          preexec_fn=all_cpus)
    oracles.check(proc.returncode == 0,
                  f"kcg {' '.join(argv)} exited {proc.returncode}: "
                  f"{proc.stderr.strip()}")
    return proc.stdout


def main_in_process(argv) -> str:
    """stdout of ``kcg.cli.main(argv)`` run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    oracles.check(code == 0, f"kcg {' '.join(argv)} returned {code}")
    return out.getvalue()


class Workload:
    name = ""
    in_process = True
    units_per_item = 1  # records per item for items_per_s
    min_items = 100     # p90 then has at least ten samples beyond it
    trace_repeats = 1   # untraced/traced pass pairs in a traced run

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.env = kcg_env()
        self.attempts: list = []  # item key of each attempt, in order
        self.outputs: dict = {}   # item key -> output of its first attempt
        self.missed: set = set()  # keys refused or answered wrongly
        self.wrong: set = set()   # keys whose output the oracle rejected

    def record(self, key, out) -> None:
        """Keep the first output of each item; repeats must reproduce it."""
        self.attempts.append(key)
        old = self.outputs.setdefault(key, out)
        oracles.check(old == out, f"{self.name} item {key}: output varies")

    def missed_attempts(self) -> int:
        return sum(key in self.missed for key in self.attempts)

    def nth(self, items, i: int):
        """Item ``i`` of a timed run.  Items never repeat within a run, so
        that no cache of the program can serve one twice; a run that goes
        past the last item fails instead."""
        if i >= len(items):
            raise RuntimeError(f"{self.name}: a run reached item {i}, but the "
                               f"seed gives only {len(items)} distinct items")
        return items[i]

    def setup(self) -> None:
        """Build the inputs and warm up, recording no attempt."""
        raise NotImplementedError

    def run_item(self, i: int) -> None:
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def traced_pass(self, tracer) -> None:
        """Run the fixed item set of a traced run, in this process."""
        raise NotImplementedError


# ---------------------------------------------------------------------------


class Census552(Workload):
    """Whole-table ``kcg census`` processes over the synthetic 552 table."""

    name = "census552"
    in_process = False
    units_per_item = 552
    min_items = 30  # about 20 s; fewer samples leave p90 at the maximum
    trace_repeats = 7  # a pass takes under a second

    def argv(self, report: Path):
        return ("census", "--table", str(self.table), "--candidates",
                str(KNOTS_SMALL), "--max-summands", "2", "--report", str(report))

    def setup(self):
        self.input = gen.census_input(self.seed)
        self.table = self.work / "census552.csv"
        self.table.write_text(tabledata.serialize(self.input.table),
                              encoding="utf-8")
        run_kcg(self.argv(self.work / "warmup.tsv"), self.env)

    def run_item(self, i):
        report = self.work / "report.tsv"
        stdout = run_kcg(self.argv(report), self.env)
        self.record("census", (stdout, report.read_text(encoding="utf-8")))

    def traced_pass(self, tracer):
        tracer.item = "census"
        report = self.work / "report.tsv"
        stdout = main_in_process(self.argv(report))
        self.record("census", (stdout, report.read_text(encoding="utf-8")))

    def check(self):
        oracles.check_census(*self.outputs["census"], self.input.category_of)
        if self.seed == 0:
            report = self.work / "no-candidates.tsv"
            run_kcg(("census", "--table", str(self.table), "--report",
                     str(report)), self.env)
            oracles.check_seed0_report(report.read_text(encoding="utf-8"))


class SeifertProfiles(Workload):
    """Signature profiles and required factors of distinct Seifert matrices."""

    name = "seifert_profiles"
    trace_repeats = 3
    traced_items = sum(gen.PER_GENUS.values())

    def setup(self):
        # the warm-up matrix is one that no timed item repeats
        *items, warmup = gen.seifert_items(self.seed)
        self.items = tuple(items)
        self.bundled = gen.bundled_matrices()
        self._compute(warmup)

    @staticmethod
    def _compute(item):
        v = item.matrix
        try:
            delta = seifert.alexander(v)
            signature = seifert.murasugi_signature(v)
            profile = seifert.signature_profile(v)
            fac = laurent.factor(delta)
            bound = foxmilnor.gc_poly_lower_bound(
                foxmilnor.enhanced_required_factors(fac, profile))
        except KcgError as exc:
            return ("refused", str(exc))
        return delta, signature, profile, fac, bound

    def run_item(self, i):
        item = self.nth(self.items, i)
        out = self._compute(item)
        self.record(item.index, out)
        if out[0] == "refused":
            self.missed.add(item.index)

    def traced_pass(self, tracer):
        for i in range(self.traced_items):
            tracer.item = self.items[i].index
            self.run_item(i)

    def check(self):
        for index, out in sorted(self.outputs.items()):
            if out[0] == "refused":
                continue
            item = self.items[index]
            entries = item.matrix.entries
            delta, signature, profile, fac, bound = out
            oracles.check_alexander(entries, delta.coeffs)
            oracles.check_product([(q.coeffs, m) for q, m in fac.factors],
                                  delta.coeffs)
            oracles.check_murasugi(entries, signature)
            oracles.check(0 <= bound <= item.genus, "bound outside [0, genus]")
            # every arc up to genus 3, one seeded arc above: the exact
            # evaluation costs about 40 ms per point at genus 8
            rng = random.Random(f"seifert-oracle-{self.seed}-{index}")
            arcs = profile.arcs if item.genus <= 3 else [rng.choice(profile.arcs)]
            try:
                if item.components:
                    oracles.check_jump_points(
                        profile.jump_points,
                        oracles.expected_jump_points(item.components,
                                                     self.bundled))
                for (lo, hi), value in arcs:
                    oracles.check_arc(entries, lo, hi, value)
            except oracles.OracleError as exc:
                print(f"bench: matrix {index}: wrong profile: {exc}",
                      file=sys.stderr)
                self.wrong.add(index)
                self.missed.add(index)


class MatchPool(Workload):
    """Candidate matching of distinct undetermined queries, pool 28, sums
    of 3."""

    name = "match_pool"
    min_items = 200  # about 14 s; at 100 items p90 spread 5-12% over seeds
    trace_repeats = 3
    oracle_queries = 8
    traced_queries = 40

    def setup(self):
        self.input = gen.match_input(self.seed)
        *queries, warmup = self.input.queries
        self.queries = tuple(queries)
        self._match(warmup)

    def _match(self, query):
        return tuple((m.expression, m.combined_genus3, m.combined_crossings,
                      m.combined_alexander.coeffs)
                     for m in tabledata.match_candidates(
                         query.record, self.input.pool, gen.MAX_SUMMANDS))

    def run_item(self, i):
        query = self.nth(self.queries, i)
        self.record(query.record.name, self._match(query))

    def traced_pass(self, tracer):
        for i in range(self.traced_queries):
            tracer.item = self.queries[i].record.name
            self.run_item(i)

    def check(self):
        names = {r.name for r in self.input.pool.records}
        done = [q for q in self.queries if q.record.name in self.outputs]
        for q in done:
            for expr, genus, _cross, _poly in self.outputs[q.record.name]:
                oracles.check(all(n in names for n in expr.split("+"))
                              and genus < q.record.genus3,
                              f"{q.record.name}: bad match {expr}")
        rng = random.Random(f"match-oracle-{self.seed}")
        for q in rng.sample(done, min(self.oracle_queries, len(done))):
            expected = oracles.brute_force_matches(
                q.record, q.required.coeffs, self.input.pool.records,
                gen.MAX_SUMMANDS)
            oracles.check(tuple(expected) == self.outputs[q.record.name],
                          f"{q.record.name}: matches differ from brute force")


class CliSmall(Workload):
    """Short ``kcg`` commands on the bundled fixtures."""

    name = "cli_small"
    in_process = False
    command_count = 400
    traced_commands = 8
    trace_repeats = 5

    def setup(self):
        self.commands = gen.cli_commands(self.seed, str(UNKNOWN_11),
                                         str(KNOTS_SMALL), self.command_count)
        for kind in gen.CLI_KINDS:
            run_kcg(next(c for c in self.commands if c.kind == kind).argv,
                    self.env)

    def run_item(self, i):
        k = i % len(self.commands)
        self.record(k, run_kcg(self.commands[k].argv, self.env))

    def traced_pass(self, tracer):
        for k in range(self.traced_commands):
            tracer.item = k
            self.record(k, main_in_process(self.commands[k].argv))

    def _expected(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        examples = oracles.readme_examples(
            readme, {"knots.csv": str(UNKNOWN_11), "small.csv": str(KNOTS_SMALL)})
        oracles.check(len(examples) >= 3, "README examples not found")
        for argv, lines in examples:
            oracles.check_readme_output(run_kcg(argv, self.env), lines)
        bound_lines = next(lines for argv, lines in examples
                           if argv[0] == "bound")
        small = tabledata.parse_table(KNOTS_SMALL.read_text(encoding="utf-8"))
        query = tabledata.parse_table(
            UNKNOWN_11.read_text(encoding="utf-8")).find("11n_152")
        match = oracles.match_stdout(oracles.brute_force_matches(
            query, oracles.REQUIRED_11N_152, small.records, 2))
        return bound_lines, small, match

    def check(self):
        bound_lines, small, match = self._expected()
        bundled = gen.bundled_matrices()
        for k, out in self.outputs.items():
            cmd = self.commands[k]
            if cmd.kind == "factor":
                expected = oracles.factor_stdout(cmd.expect)
            elif cmd.kind == "invariants":
                expected = oracles.invariants_stdout(small.find(cmd.expect),
                                                     bundled)
            elif cmd.kind == "match":
                expected = match
            else:
                oracles.check_readme_output(out, bound_lines)
                continue
            oracles.check(out == expected, f"{cmd.argv}: {out!r}")


WORKLOADS = {w.name: w for w in (Census552, SeifertProfiles, MatchPool, CliSmall)}
