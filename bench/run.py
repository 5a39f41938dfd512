"""Benchmark of the kcg command-line tools and library layers.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S]

A run builds its inputs from the seed, sets up five times (reporting the
median), measures items one at a time in a closed loop for at least
``--seconds`` seconds (and at least ``min_items`` items), then checks
every output with the oracles in ``oracles.py``.  Times are reported on
a reference clock that factors out the machine's changing speed (see
``slowness``); the wall-clock figures go to the results file.  With
``--trace 1`` it instead runs a fixed item set untraced and traced, each
pass in a fresh process, and reports per-layer counters and self times
plus the tracing overhead.  The last stdout line
is one JSON object: correct, attempted, failed and metrics.  Every
item runs to its end and is checked, or the run stops, so ``failed`` is
0; items that kcg refuses, or answers with a signature profile the
oracle rejects, lower ``ok_share`` instead.  Results,
the environment and spans go to ``.bench_run/`` in the checkout.

``--all`` runs every workload with and without tracing, prints every
metric with its unit, and writes ``BENCHMARK.json`` from ``SPEC``.

The benchmark acts only on its own processes and files: it uses no
machine-wide tracing, page-cache dropping or hardware counters.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_run"

SPEC = {
    "command": ["python3", "bench/run.py"],
    "paths": ["bench"],
    "run_seconds": 10,
    "workloads": [
        {"name": "census552", "why": "kcg census processes over a seeded 552-row table sharing ~120 polynomials: factor dominates, Seifert code is bypassed, repeated inputs show caching"},
        {"name": "seifert_profiles", "why": "seeded Seifert matrices of genus 1-8, none repeated in a run, in-process: signature profiles dominate, genus 6-8 refusals stay visible in ok_share"},
        {"name": "match_pool", "why": "seeded undetermined queries, none repeated in a run, against a 28-knot pool with sums of 3, in-process: the multiset matcher dominates"},
        {"name": "cli_small", "why": "short kcg factor/invariants/bound/match processes on bundled fixtures: interpreter start and imports dominate, compute barely shows"},
    ],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "item_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "item_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "ok_share", "unit": "share", "better": "higher", "bound": 0.06},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [
        {"name": n, "unit": u, "better": b} for n, u, b in (
            ("laurent.factor.calls", "count", "lower"),
            ("laurent.factor.distinct", "count", "lower"),
            ("laurent.factor.useful_ratio", "ratio", "higher"),
            ("laurent.factor.self_s", "s", "lower"),
            ("laurent.divides.calls", "count", "lower"),
            ("laurent.fmul.calls", "count", "lower"),
            ("seifert.alexander.self_s", "s", "lower"),
            ("seifert.murasugi_signature.self_s", "s", "lower"),
            ("seifert.signature_profile.calls", "count", "lower"),
            ("seifert.signature_profile.self_s", "s", "lower"),
            ("seifert.signature_profile.refused", "count", "lower"),
            ("seifert.signature_profile.wrong", "count", "lower"),
            ("seifert.unit_circle_root_angles.calls", "count", "lower"),
            ("seifert.unit_circle_root_angles.self_s", "s", "lower"),
            ("foxmilnor.enhanced_required_factors.calls", "count", "lower"),
            ("foxmilnor.enhanced_required_factors.self_s", "s", "lower"),
            ("foxmilnor.residual.calls", "count", "lower"),
            ("bounds.gc_bounds.calls", "count", "lower"),
            ("bounds.gc_bounds.self_s", "s", "lower"),
            ("bounds.gc_bounds.per_record", "ratio", "lower"),
            ("bounds.gc_bounds.max_per_record", "count", "lower"),
            ("bounds.classify.calls", "count", "lower"),
            ("bounds.classify.self_s", "s", "lower"),
            ("tabledata.parse_table.self_s", "s", "lower"),
            ("tabledata.census.self_s", "s", "lower"),
            ("tabledata.report_tsv.self_s", "s", "lower"),
            ("tabledata.match_candidates.calls", "count", "lower"),
            ("tabledata.match_candidates.self_s", "s", "lower"),
            ("tabledata.match.kept", "count", "higher"),
            ("tabledata.match.kept_ratio", "ratio", "higher"),
            ("cli.interpreter_ms", "ms", "lower"),
            ("cli.import_ms", "ms", "lower"),
            ("cli.main.self_s", "s", "lower"),
            ("fail_share", "share", "lower"),
            ("trace.overhead_pct", "%", "lower"),
        )
    ],
}

SETUP_REPEATS = 5
PROBE_REPEATS = 5

# Shared machines change speed by up to 1.6x over seconds to minutes: on
# a 2-vCPU Xeon VM a fixed CPU loop alternated between 105 and 165 ms,
# and ten 10-second runs of one workload spread by 20-35% (quartile
# distance over median).  So a fixed pure-Python kernel runs after every
# item, in the process that drives the work, and each item's wall
# time is divided by the median slowness (kernel time over
# REF_KERNEL_S) of the probes around it: timings read as on a machine
# where the kernel takes REF_KERNEL_S.  A change to the program cannot
# move the kernel, except by loading the benchmark process itself.
REF_KERNEL_S = 0.0005
PROBE_WINDOW = 3  # probes used on each side of an item
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
NOT_USED = ("machine-wide tracing, page-cache dropping and hardware "
            "performance counters: they act beyond the benchmark's own "
            "processes and files")


def _load_program():
    """Import kcg from this checkout's src/, or exit 1 without a result."""
    src = ROOT / "src"
    if not (src / "kcg" / "__init__.py").is_file():
        sys.exit(f"bench: no kcg sources under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import kcg
    if Path(kcg.__file__).resolve().parent != (src / "kcg").resolve():
        sys.exit(f"bench: imported kcg from {kcg.__file__}, not {src}")


def _tree_sha256(paths) -> str:
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str | None:
    """HEAD of the checkout, or None if it is not a git work tree."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_hash() -> str:
    return _tree_sha256([p for p in (ROOT / "src" / "kcg").rglob("*")
                         if p.is_file() and "__pycache__" not in p.parts])


def bench_hash() -> str:
    return _tree_sha256([p for p in HERE.rglob("*.py")
                         if "__pycache__" not in p.parts])


def environment(seed: int) -> dict:
    import numpy
    from bench.workloads import ALL_CPUS
    return {
        "commit": _git_commit(),
        "src_sha256": source_hash(),
        "bench_sha256": bench_hash(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(ALL_CPUS),
        "benchmark_pinned_to_cpu": min(ALL_CPUS),
        "seed": seed,
        "not_used": NOT_USED,
    }


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


# ---------------------------------------------------------------------------


def reference_kernel() -> int:
    """Fixed pure-Python work: integer arithmetic, small allocations and
    dict stores, like the library's inner loops."""
    acc, slots = 0, {}
    for i in range(4000):
        acc += (i * i) % 7
        slots[i & 63] = [acc]
    return acc


def slowness() -> float:
    """Kernel time over REF_KERNEL_S: 1.0 at the reference speed."""
    t = time.perf_counter()
    reference_kernel()
    return (time.perf_counter() - t) / REF_KERNEL_S


def on_reference_clock(durations, probes) -> list[float]:
    """Divide each duration by the median slowness of the probes around
    it; probes[k] ran just before item k."""
    return [d / statistics.median(
                probes[max(0, k - PROBE_WINDOW + 1):k + PROBE_WINDOW + 1])
            for k, d in enumerate(durations)]


def measure(wl, seconds: float):
    """Timed closed loop: one item at a time until ``seconds`` have passed
    and at least ``wl.min_items`` items ran, with a probe after each."""
    durations, probes = [], [slowness()]
    gc.collect()
    start = now = time.perf_counter()
    while now - start < seconds or len(durations) < wl.min_items:
        t = time.perf_counter()
        wl.run_item(len(durations))
        durations.append(time.perf_counter() - t)
        probes.append(slowness())
        now = time.perf_counter()
    return durations, probes, now - start


def untraced_run(wl, seconds: float):
    setups, setup_probes = [], []
    for _ in range(SETUP_REPEATS):
        before = slowness()
        t = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t)
        setup_probes.append((before + slowness()) / 2)
    durations, probes, elapsed = measure(wl, seconds)
    usage = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    peak_mb = resource.getrusage(usage).ru_maxrss / 1024
    wl.check()
    n, missed = len(durations), wl.missed_attempts()
    ref = on_reference_clock(durations, probes)
    metrics = {
        "setup_s": statistics.median(
            s / p for s, p in zip(setups, setup_probes)),
        "items_per_s": n * wl.units_per_item / sum(ref),
        "item_p50_ms": statistics.median(ref) * 1000,
        "item_p90_ms": p90(ref) * 1000,
        "ok_share": (n - missed) / n,
        "peak_rss_mb": peak_mb,
    }
    wall = {
        "setup_s": statistics.median(setups),
        "items_per_s": n * wl.units_per_item / elapsed,
        "item_p50_ms": statistics.median(durations) * 1000,
        "item_p90_ms": p90(durations) * 1000,
        "slowness_median": statistics.median(probes),
    }
    return n, metrics, {"wall_clock": wall}


def time_subprocess(argv, env) -> float:
    """Median wall time of PROBE_REPEATS runs of a short process."""
    from bench.workloads import all_cpus
    out = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, timeout=120,
                       stdout=subprocess.DEVNULL, preexec_fn=all_cpus)
        out.append(time.perf_counter() - start)
    return statistics.median(out)


WRONG_OUTPUT = 3  # exit code of a pass whose output an oracle rejected


def run_pass(name: str, seed: int, traced: bool) -> int:
    """Set up, run the workload's traced pass once, with or without the
    tracer, and check it; print duration and counters as JSON."""
    _load_program()
    from bench.spans import Tracer
    from bench.workloads import ALL_CPUS, WORKLOADS

    os.sched_setaffinity(0, {min(ALL_CPUS)})
    work = OUT / f"work-{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[name](seed, work)
    tracer = Tracer()
    try:
        wl.setup()
        before = [slowness() for _ in range(PROBE_REPEATS)]
        with tracer if traced else contextlib.nullcontext():
            t = time.perf_counter()
            wl.traced_pass(tracer)
            seconds = time.perf_counter() - t
        after = [slowness() for _ in range(PROBE_REPEATS)]
        wl.check()
    except AssertionError as exc:  # an oracle's, or the program's own
        print(f"bench: wrong output: {exc}", file=sys.stderr)
        return WRONG_OUTPUT
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # on the reference clock, so that passes run at different machine
    # speeds compare
    out = {"seconds": seconds / statistics.median(before + after),
           "attempted": len(wl.attempts),
           "missed": wl.missed_attempts()}
    if traced:
        tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")
        out["counters"] = {**tracer.counters(),
                           "seifert.signature_profile.wrong": len(wl.wrong)}
        out["self_s"] = tracer.self_seconds()
    print(json.dumps(out))
    return 0


def fresh_pass(name: str, seed: int, traced: bool) -> dict:
    """``run_pass`` in a new process, so that no cache is warm from an
    earlier pass."""
    from bench.workloads import all_cpus

    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
         str(seed), "--pass", "traced" if traced else "plain"],
        capture_output=True, text=True, timeout=150, preexec_fn=all_cpus)
    if proc.returncode == WRONG_OUTPUT:
        raise AssertionError(proc.stderr.strip())
    if proc.returncode:
        raise RuntimeError(f"{name} pass exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def traced_run(wl, name: str, seed: int):
    plain, traced, counters, self_s = [], [], None, []
    for _ in range(wl.trace_repeats):
        plain.append(fresh_pass(name, seed, False)["seconds"])
        result = fresh_pass(name, seed, True)
        traced.append(result["seconds"])
        if counters is None:
            counters, attempted, missed = (result["counters"],
                                           result["attempted"], result["missed"])
        elif result["counters"] != counters:
            raise AssertionError(f"counters differ between traced passes: "
                                 f"{counters} vs {result['counters']}")
        self_s.append(result["self_s"])
    interp = time_subprocess([sys.executable, "-c", "pass"], wl.env)
    imp = time_subprocess([sys.executable, "-c", "import kcg.cli"], wl.env)
    calls = lambda fn: counters[f"{fn}.calls"]
    ratio = lambda a, b: a / b if b else 0.0
    derived = {
        "laurent.factor.useful_ratio": ratio(counters["laurent.factor.distinct"],
                                             calls("laurent.factor")),
        "bounds.gc_bounds.per_record": ratio(calls("bounds.gc_bounds"),
                                             counters["bounds.gc_bounds.records"]),
        "tabledata.match.kept_ratio": ratio(counters["tabledata.match.kept"],
                                            calls("laurent.divides")),
        "cli.interpreter_ms": interp * 1000,
        "cli.import_ms": (imp - interp) * 1000,
        "fail_share": missed / attempted,
        "trace.overhead_pct": (statistics.median(traced)
                               / statistics.median(plain) - 1) * 100,
    }
    metrics = {}
    for m in SPEC["per_layer"]:
        key = m["name"]
        if key.endswith(".self_s"):
            metrics[key] = statistics.median(
                s[key[:-len(".self_s")]] for s in self_s)
        else:
            metrics[key] = counters[key] if key in counters else derived[key]
    return attempted, metrics, counters


def check_counters_repeat(name: str, seed: int, counters: dict) -> None:
    """Exact counters must be identical on every traced run of the same
    program and benchmark code with the same seed."""
    path = OUT / "counters.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    key = f"{source_hash()[:16]}:{bench_hash()[:16]}:{name}:{seed}"
    if key in known and known[key] != counters:
        raise AssertionError(f"counters differ from an earlier run: "
                             f"{known[key]} vs {counters}")
    known[key] = counters
    path.write_text(json.dumps(known, indent=1, sort_keys=True))


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    _load_program()
    from bench.workloads import ALL_CPUS, WORKLOADS

    # This process, and with it the in-process workloads and the probe,
    # runs on one CPU, so that the probe times the CPU that runs the work.
    # The kcg processes it starts get every CPU back (see run_kcg).
    os.sched_setaffinity(0, {min(ALL_CPUS)})
    work = OUT / f"work-{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[name](seed, work)
    try:
        if trace:
            attempted, metrics, counters = traced_run(wl, name, seed)
            check_counters_repeat(name, seed, counters)
            details = {"counters": counters}
        else:
            attempted, metrics, details = untraced_run(wl, seconds)
    except AssertionError as exc:  # an oracle's, or the program's own
        print(f"bench: wrong output: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = environment(seed)
    result = {"correct": True, "attempted": attempted, "failed": 0,
              "metrics": {k: {"value": v, "unit": UNITS[k]}
                          for k, v in metrics.items()}}
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"workload": name, "seconds": seconds, "trace": trace,
                    "environment": env, **details, **result},
                   indent=1))
    print(f"environment {json.dumps(env)}")
    for key, v in details.get("wall_clock", {}).items():
        print(f"{name}\twall_clock.{key}\t{v:.6g}")
    for key, v in metrics.items():
        print(f"{name}\t{key}\t{v:.6g}\t{UNITS[key]}")
    print(json.dumps(result))
    return 0


def write_spec() -> None:
    (ROOT / "BENCHMARK.json").write_text(json.dumps(SPEC, indent=2) + "\n")


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and traced, in its own process."""
    write_spec()
    status = 0
    for wl in SPEC["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", wl["name"], "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"correct": False}
            if proc.returncode or not result["correct"]:
                status = 1
                print(f"{wl['name']}\ttrace={trace}\tFAILED\t"
                      f"{proc.stderr.strip()}")
                continue
            print(f"{wl['name']}\ttrace={trace}\tcorrect\tattempted="
                  f"{result['attempted']}\tfailed={result['failed']}")
            for key, m in result["metrics"].items():
                print(f"{wl['name']}\t{key}\t{m['value']:.6g}\t{m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload and write BENCHMARK.json")
    parser.add_argument("--pass", dest="pass_", choices=("plain", "traced"),
                        help=argparse.SUPPRESS)  # one pass of a traced run
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    if args.pass_:
        return run_pass(args.workload, args.seed, args.pass_ == "traced")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
