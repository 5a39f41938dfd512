"""The tracer: self time, alias patching and exact call counts."""

import sys

import kcg
from kcg import cli, foxmilnor, laurent, tabledata

from bench import gen
from bench.spans import Span, Tracer, self_times
from bench.workloads import MatchPool


def test_self_time_on_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("b", 3.0, 6.0, 0, 0),       # overlaps a: the union counts once
        Span("late", 9.0, 12.0, 0, 0),   # clipped at the parent's end
        Span("leaf", 5.0, 5.5, 3, 0),
    ]
    assert self_times(spans) == [10 - 5 - 1, 3 - 1, 1, 3 - 0.5, 3, 0.5]


def test_install_patches_every_alias_and_uninstall_restores():
    originals = (laurent.factor, foxmilnor.factor, cli.factor, kcg.factor,
                 laurent.Factorization.divides)
    tracer = Tracer()
    with tracer:
        assert laurent.factor is not originals[0]
        assert foxmilnor.factor is laurent.factor
        assert cli.factor is laurent.factor and kcg.factor is laurent.factor
        assert laurent.Factorization.divides is not originals[4]
    assert (laurent.factor, foxmilnor.factor, cli.factor, kcg.factor,
            laurent.Factorization.divides) == originals


def _traced_census(candidates):
    table = gen.census_input(0).table
    code = laurent.factor.__code__
    seen = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            seen.append(1)

    tracer = Tracer()
    with tracer:
        sys.setprofile(profile)
        try:
            tabledata.census(table, candidates, max_summands=2)
        finally:
            sys.setprofile(None)
    counters = tracer.counters()
    # every call of the factor function went through a wrapper
    assert counters["laurent.factor.calls"] == len(seen)
    return counters["laurent.factor.calls"], counters["laurent.factor.distinct"]


def test_factor_calls_on_seed0_census_match_the_seed_code():
    # The counts of the code this benchmark was defined on; a change that
    # computes each polynomial once moves them, and should say so.
    assert _traced_census(None) == (1098, 121)
    assert _traced_census(tabledata.reference_table()) == (1440, 125)


def test_counters_repeat_for_the_same_seed(tmp_path, monkeypatch):
    monkeypatch.setattr(MatchPool, "traced_queries", 3)
    wl = MatchPool(5, tmp_path)
    wl.setup()
    runs = []
    for _ in range(2):
        tracer = Tracer()
        with tracer:
            wl.traced_pass(tracer)
        runs.append(tracer.counters())
    assert runs[0] == runs[1]
    assert runs[0]["tabledata.match_candidates.calls"] == 3
