"""Generators and oracles of the benchmark."""

import cmath
import collections
import hashlib
import sys
from fractions import Fraction
from pathlib import Path

from kcg.bounds import UNDETERMINED, gc_bounds
from kcg.tabledata import census, report_tsv

from bench import gen, oracles

ROOT = Path(__file__).resolve().parents[2]


def test_census_generator_is_deterministic_per_seed():
    for seed in (0, 7):
        a, b = gen.census_input(seed), gen.census_input(seed)
        assert a.table.records == b.table.records
        assert a.category_of == b.category_of


def test_seed0_census_is_the_repository_table():
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        from test_census_scale import _full_table
    finally:
        sys.path.remove(str(ROOT / "tests"))
    table = gen.census_input(0).table
    assert table.records == _full_table().records
    oracles.check_seed0_report(report_tsv(census(table)))


def test_other_seed_gives_other_rows_with_the_same_profile():
    base, other = gen.census_input(0), gen.census_input(1)
    assert set(other.table.records) != set(base.table.records)
    assert collections.Counter(other.category_of.values()) == gen.CENSUS_PROFILE
    assert census(other.table).counts == gen.CENSUS_PROFILE
    report = report_tsv(census(other.table))
    assert hashlib.sha256(report.encode()).hexdigest()[:16] \
        != oracles.SEED0_REPORT_SHA256_PREFIX


def test_seifert_items_are_seeded_distinct_and_balanced():
    a, b, c = (gen.seifert_items(s, 360) for s in (3, 3, 4))
    assert a == b and a != c
    assert collections.Counter(i.genus for i in a) == {
        g: 2 * n for g, n in gen.PER_GENUS.items()}
    assert len({i.matrix.entries for i in a}) == len(a)
    assert sum(bool(i.components) for i in a) == len(a) // 2


def test_match_queries_are_distinct_and_undetermined():
    inp = gen.match_input(2)
    assert inp == gen.match_input(2)
    keys = {(q.record.alexander, q.record.signature) for q in inp.queries}
    assert len(keys) == gen.QUERY_COUNT >= 100
    assert all(gc_bounds(q.record).status == UNDETERMINED for q in inp.queries)


def test_exact_signature_of_the_trefoil():
    v = ((-1, 1), (0, -1))
    assert oracles.lt_signature_exact(v, Fraction(1, 10)) == 0
    assert oracles.lt_signature_exact(v, Fraction(10)) == -2
    assert oracles.sym_signature([[0, 1], [1, 0]]) == 0
    assert oracles.sym_signature([[1, 0, 0], [0, -1, 0], [0, 0, 2]]) == 1


def test_closed_form_angles_are_roots():
    polys = {r.name: r.alexander.coeffs
             for r in gen.reference_table().records}
    for name, angles in oracles.COMPONENT_ROOT_ANGLES.items():
        for theta in angles:
            z = cmath.exp(1j * theta)
            assert abs(sum(c * z ** k for k, c in enumerate(polys[name]))) < 1e-9


def test_brute_force_matcher_on_the_readme_example():
    small = gen.reference_table()
    query = gen.unknown_fixture().find("11n_152")
    got = oracles.brute_force_matches(query, oracles.REQUIRED_11N_152,
                                      small.records, 2)
    assert oracles.match_stdout(got) == "8_6\t2\t8\t2;-6;7;-6;2\n"
