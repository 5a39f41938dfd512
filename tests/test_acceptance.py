"""Acceptance suite: one test per exit criterion, each printing a
single PASS/FAIL line.

Two checks depend on external data exports that are not bundled: the
full 552-knot census (KCG_FULL_TABLE) and the candidate replay against a
complete table of knots through nine crossings (KCG_CANDIDATE_TABLE).
They skip cleanly when the environment variables are unset; the bundled
fixtures stand alone.
"""

import functools
import math
import os
import random
import time
from fractions import Fraction

import pytest

from kcg.bounds import UNDETERMINED, combine
from kcg.foxmilnor import (enhanced_required_factors, gc_poly_lower_bound,
                           residual)
from kcg.laurent import Factorization, factor, mul, poly_from_text
from kcg.seifert import (SeifertMatrix, SignatureProfile, lt_signature,
                         murasugi_signature, signature_profile)
from kcg.tabledata import (KnotTable, census, concordant_fixture,
                           match_candidates, parse_table, reference_table,
                           slice_fixture, unknown_fixture)
from oracles import bruteforce_min_residual, random_canonical, random_palindromic, random_seifert


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except pytest.skip.Exception:
                print(f"[acceptance] criterion {num} ({label}): SKIP")
                raise
            except BaseException:
                print(f"[acceptance] criterion {num} ({label}): FAIL")
                raise
            print(f"[acceptance] criterion {num} ({label}): PASS")
            return result
        return wrapper
    return deco


def P(text):
    return poly_from_text(text)


def expand(*texts):
    out = P("1")
    for t in texts:
        out = mul(out, P(t))
    return out


def factor_map(p):
    start = time.perf_counter()
    fac = factor(p)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"factorization took {elapsed:.3f}s"
    return {q.to_text(): m for q, m in fac.factors}


@criterion(1, "factorization regressions")
def test_criterion_1_factor_regressions():
    # degree-6, irreducible
    assert factor_map(P("2;-12;30;-39;30;-12;2")) == {"2;-12;30;-39;30;-12;2": 1}

    # two symmetric factors, each once (the factored form is authoritative;
    # the printed expanded coefficients for this knot disagree with it and
    # are checked separately below)
    assert factor_map(expand("1;-3;1", "1;-3;5;-3;1")) == {
        "1;-3;1": 1, "1;-3;5;-3;1": 1}
    assert factor_map(P("1;-9;28;-39;28;-9;1")) == {
        "1;-3;1": 1, "1;-6;9;-6;1": 1}

    # squared quadratic times an asymmetric-profile quadratic: the t and
    # t^5 coefficients of the expansion are -15, not the -14 sometimes
    # printed for this knot
    delta43 = expand("1;-1;1", "1;-1;1", "4;-7;4")
    assert delta43.coeffs == (4, -15, 30, -37, 30, -15, 4)
    assert delta43.coeffs[1] == -15 != -14
    assert factor_map(delta43) == {"1;-1;1": 2, "4;-7;4": 1}

    # degree-8 with a reciprocal cubic pair
    assert factor_map(P("1;-6;17;-31;37;-31;17;-6;1")) == {
        "1;-1;1": 1, "1;-2;3;-1": 1, "1;-3;2;-1": 1}

    # squared quadratic times a symmetric quartic (factored form is
    # authoritative; the printed expansion differs and is checked too)
    assert factor_map(expand("1;-1;1", "1;-1;1", "1;-1;1;-1;1")) == {
        "1;-1;1": 2, "1;-1;1;-1;1": 1}
    assert factor_map(P("1;-3;4;-4;3;-4;4;-3;1")) == {
        "1;-1;1": 2, "1;-1;-1;-1;1": 1}


# (name, expected interval, genus3, g4 interval, sigma, poly bound)
UNKNOWN_ROWS = (
    ("11a_6", (2, 3), 3, (1, 2), 2, 2),
    ("11a_8", (2, 3), 3, (1, 1), 0, 2),
    ("11a_67", (1, 3), 3, (1, 2), 0, 1),
    ("11a_72", (2, 4), 4, (1, 2), 0, 2),
    ("11a_108", (2, 4), 4, (1, 2), 2, 2),
    ("11a_109", (2, 4), 4, (1, 2), 0, 2),
    ("11a_135", (2, 3), 3, (1, 2), 0, 2),
    ("11a_181", (2, 3), 3, (1, 2), -2, 2),
    ("11a_249", (2, 3), 3, (1, 2), 0, 2),
    ("11a_264", (2, 4), 4, (1, 1), -2, 2),
    ("11a_297", (1, 3), 3, (1, 2), 2, 1),
    ("11a_305", (2, 4), 4, (1, 2), 2, 2),
    ("11a_332", (2, 4), 4, (1, 2), 0, 2),
    ("11a_352", (2, 3), 3, (1, 2), -2, 2),
    ("11n_34", (0, 3), 3, (0, 1), 0, 0),
    ("11n_45", (1, 3), 3, (1, 1), 0, 0),
    ("11n_66", (1, 3), 3, (1, 2), -2, 1),
    ("11n_145", (1, 3), 3, (1, 1), 0, 0),
    ("11n_152", (2, 3), 3, (1, 1), -2, 2),
)


@criterion(2, "19-row bound-table reproduction")
def test_criterion_2_bound_table():
    hits = 0
    for name, expected, genus3, (g4lo, _g4hi), sigma, poly_bound in UNKNOWN_ROWS:
        b = combine(g4lo, sigma, poly_bound, genus3)
        assert (b.lower, b.upper) == expected, name
        assert b.status == UNDETERMINED, name
        hits += 1
    assert hits == 19


@criterion(3, "census counts on bundled fixtures")
def test_criterion_3_fixture_census():
    assert census(slice_fixture()).counts["slice"] == 30
    assert census(slice_fixture()).total == 30
    assert census(concordant_fixture()).counts["concordant_lower_genus"] == 29
    assert census(unknown_fixture()).counts["unknown"] == 19


@criterion(3, "census counts on a full 552-knot export")
def test_criterion_3_full_table():
    path = os.environ.get("KCG_FULL_TABLE")
    if not path:
        pytest.skip("set KCG_FULL_TABLE to a 552-knot CSV export to enable")
    with open(path, encoding="utf-8") as handle:
        table = parse_table(handle, source_path=path)
    start = time.perf_counter()
    report = census(table)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"census took {elapsed:.1f}s"
    assert report.total == 552
    assert report.counts == {
        "determined_irreducible_poly": 384,
        "determined_poly_no_symmetric_pair": 84,
        "determined_signature_or_g4": 6,
        "slice": 30,
        "concordant_lower_genus": 29,
        "unknown": 19,
    }


@criterion(4, "1000 factorization round trips")
def test_criterion_4_factor_round_trips():
    rng = random.Random(20260808)
    failures = 0
    for _ in range(1000):
        product = mul(random_canonical(rng, 5), random_canonical(rng, 5))
        fac = factor(product)
        if fac.expand() != product:
            failures += 1
    assert failures == 0


@criterion(5, "residual matches the brute-force oracle")
def test_criterion_5_residual_oracle():
    rng = random.Random(97)
    for _ in range(200):
        p = random_palindromic(rng, 10)
        fac = factor(p)
        assert residual(fac) == bruteforce_min_residual(fac)


@criterion(6, "signature checks")
def test_criterion_6_signatures():
    trefoil = SeifertMatrix(((-1, 1), (0, -1)))
    figure_eight = SeifertMatrix(((1, 1), (0, -1)))
    assert murasugi_signature(trefoil) == -2
    assert murasugi_signature(figure_eight) == 0

    rng = random.Random(777)
    checked = 0
    for size, reps in ((2, 100), (4, 60), (6, 30), (8, 10)):
        for _ in range(reps):
            v = random_seifert(rng, size)
            assert lt_signature(v, math.pi) == murasugi_signature(v)
            checked += 1
    assert checked == 200

    prof = signature_profile(trefoil)
    assert len(prof.jump_points) == 1
    angle, jump, _avg = prof.jump_points[0]
    assert abs(angle - math.pi / 3) <= 1e-6
    assert abs(jump) == 2


@criterion(7, "signature-jump enhancement gives bound 4")
def test_criterion_7_jump_enhancement():
    fac = Factorization(((P("1;-1;1"), 2), (P("1;-1;1;-1;1"), 1)))
    third = math.pi / 3
    profile = SignatureProfile(
        arcs=(((0.0, third), 0), ((third, math.pi), 4)),
        jump_points=((third, 4, 2),),
        endpoint_value_at_pi=4,
        jump_brackets=((Fraction(99, 100), Fraction(101, 100)),))
    req = enhanced_required_factors(fac, profile)
    assert gc_poly_lower_bound(req) == 4


@criterion(8, "matcher finds the trefoil for 11a_196")
def test_criterion_8_trefoil_match():
    rec = concordant_fixture().find("11a_196")
    pool = KnotTable(tuple(r for r in reference_table().records
                           if r.name == "3_1"))
    assert [m.expression for m in match_candidates(rec, pool)] == ["3_1"]


LISTED_CANDIDATES = {
    "11a_6": "3_1+4_1",
    "11a_8": "6_3",
    "11a_67": "4_1",
    "11a_108": "6_2",
    "11a_109": "6_2",
    "11a_135": None,
    "11a_181": "6_2",
    "11a_249": "6_3",
    "11a_264": "3_1+4_1",
    "11a_297": "5_2",
    "11a_305": "3_1+4_1",
    "11a_332": "7_7",
    "11a_352": "3_1+4_1",
    "11n_66": "3_1",
    "11n_152": "8_6",
}


@criterion(8, "listed candidates against a user-supplied table")
def test_criterion_8_candidate_table():
    path = os.environ.get("KCG_CANDIDATE_TABLE")
    if not path:
        pytest.skip("set KCG_CANDIDATE_TABLE to a <=9-crossing CSV to enable")
    with open(path, encoding="utf-8") as handle:
        pool = parse_table(handle, source_path=path)
    for name, listed in LISTED_CANDIDATES.items():
        if listed is None:
            continue
        rec = unknown_fixture().find(name)
        matches = match_candidates(rec, pool)
        by_genus = {}
        for m in matches:
            by_genus.setdefault(m.combined_genus3, []).append(m.expression)
        genus = next(g for g, exprs in sorted(by_genus.items())
                     if listed in exprs)
        assert by_genus[genus][0] == listed, (name, by_genus)
