"""Seeded input generators for the four benchmark workloads.

Every generator is a pure function of its seed: the same seed gives the
same inputs, byte for byte.  Each generated item carries the facts the
correctness oracles need (expected category, required factor, component
knots), and those facts follow from how the item was built, never from
the library under test.  The library is used here only for its data
types and the bundled fixture tables.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass

from kcg.bounds import KnotRecord
from kcg.laurent import LaurentPoly, mul, poly_from_text
from kcg.seifert import SeifertMatrix
from kcg.tabledata import (KnotTable, concordant_fixture, reference_table,
                           slice_fixture, unknown_fixture)


def conv(a, b):
    """Coefficient list of the product of two coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# ---------------------------------------------------------------------------
# census552: the synthetic eleven-crossing table

CENSUS_PROFILE = {
    "determined_irreducible_poly": 384,
    "determined_poly_no_symmetric_pair": 84,
    "determined_signature_or_g4": 6,
    "slice": 30,
    "concordant_lower_genus": 29,
    "unknown": 19,
}

# Symmetric irreducibles by half degree: the pool of the repository's
# synthetic 552-row census test.
CENSUS_IRREDUCIBLES = {
    1: ("1;-1;1", "1;-3;1", "2;-3;2", "3;-5;3", "4;-7;4", "5;-9;5"),
    2: ("1;-3;3;-3;1", "1;-3;5;-3;1", "2;-4;5;-4;2", "1;-5;7;-5;1",
        "1;-5;9;-5;1", "2;-6;7;-6;2"),
    3: ("2;-12;30;-39;30;-12;2", "1;-1;1;-1;1;-1;1"),
}
TREFOIL = poly_from_text("1;-1;1")


@dataclass(frozen=True)
class CensusInput:
    table: KnotTable
    category_of: dict  # record name -> category, known from the generator


def _irreducible_pool(seed: int):
    """The 14 symmetric irreducibles, in a seeded order for seeds other
    than 0.  The order decides which 84 of the 91 pairs are formed and
    which polynomials get the extra irreducible rows, while the work of
    factoring the table barely depends on it."""
    pool = [(g, poly_from_text(t)) for g, ts in CENSUS_IRREDUCIBLES.items()
            for t in ts]
    if seed != 0:
        random.Random(f"census-pool-{seed}").shuffle(pool)
    return pool


def census_input(seed: int) -> CensusInput:
    """552 records with the census category profile 384/84/6/30/29/19.

    Seed 0 reproduces the repository's synthetic table exactly (rows and
    order).  Other seeds reorder the irreducible pool, which changes the
    pair rows and the polynomial of each irreducible row, and shuffle the
    rows.
    """
    pool = _irreducible_pool(seed)
    rows: list[tuple[KnotRecord, str]] = []
    for i, (g3, delta) in zip(range(384), itertools.cycle(pool)):
        rows.append((KnotRecord(
            name=f"gen_irr_{i:03d}", crossings=11, alexander=delta,
            signature=0, genus3=g3, genus4=(0, g3), slice_status="not_slice"),
            "determined_irreducible_poly"))
    flat = [q for _, q in pool]
    pairs = itertools.cycle(itertools.combinations(flat, 2))
    for i, (a, b) in zip(range(84), pairs):
        delta = mul(a, b)
        g3 = delta.degree // 2
        rows.append((KnotRecord(
            name=f"gen_pair_{i:03d}", crossings=11, alexander=delta,
            signature=0, genus3=g3, genus4=(0, g3), slice_status="not_slice"),
            "determined_poly_no_symmetric_pair"))
    sig_delta = mul(mul(TREFOIL, TREFOIL), poly_from_text("4;-7;4"))
    for i in range(6):
        rows.append((KnotRecord(
            name=f"gen_sig_{i}", crossings=11, alexander=sig_delta,
            signature=-6, genus3=3, genus4=(3, 3), slice_status="not_slice"),
            "determined_signature_or_g4"))
    for fixture, category in ((slice_fixture(), "slice"),
                              (concordant_fixture(), "concordant_lower_genus"),
                              (unknown_fixture(), "unknown")):
        rows += [(rec, category) for rec in fixture.records]
    if seed != 0:
        random.Random(f"census-order-{seed}").shuffle(rows)
    table = KnotTable(tuple(r for r, _ in rows), source_path="<census552>")
    return CensusInput(table, {r.name: c for r, c in rows})


# ---------------------------------------------------------------------------
# seifert_profiles: Seifert matrices of genus 1..8

# Knots of the bundled small table that ship a Seifert matrix, by genus.
COMPONENT_GENUS = {"3_1": 1, "4_1": 1, "5_1": 2, "5_2": 1, "6_1": 1,
                   "7_1": 3, "7_2": 1, "7_4": 1}
# Matrices per genus, half from each family.  The counts put the median
# matrix in the middle of one cost class (the genus-4 block sums) rather
# than on the edge between two, where the median jumps between runs.
PER_GENUS = {1: 28, 2: 28, 3: 28, 4: 24, 5: 18, 6: 18, 7: 18, 8: 18}
# Matrices per seed: a 10-second run reaches 460-640 of them, and none
# may repeat within a run.
SEIFERT_COUNT = 8 * sum(PER_GENUS.values())


@dataclass(frozen=True)
class SeifertItem:
    index: int
    genus: int
    matrix: SeifertMatrix
    # block sums only: (knot name, mirrored) per diagonal block
    components: tuple[tuple[str, bool], ...] = ()


def bundled_matrices():
    return {r.name: r.seifert.entries for r in reference_table().records
            if r.seifert is not None}


def _family_matrix(rng: random.Random, genus: int):
    """V = M + U: M symmetric with entries in [-5, 5], U the block sum of
    [[0, 1], [0, 0]]; V - V^T is unimodular, so V is a Seifert matrix."""
    n = 2 * genus
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(-5, 5)
    for b in range(genus):
        m[2 * b][2 * b + 1] += 1
    return m


def _block_sum(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return out


def _scramble(rng: random.Random, v):
    """P V P^T for a random unimodular P (row additions and a permutation);
    the signature function and the polynomial are unchanged."""
    n = len(v)
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        p[j] = [a + c * b for a, b in zip(p[j], p[i])]
    rng.shuffle(p)
    pv = [[sum(p[i][k] * v[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    return [[sum(pv[i][k] * p[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _block_sum_matrix(rng: random.Random, genus: int, bundled):
    comps = []
    left = genus
    while left:
        name = rng.choice([k for k, g in COMPONENT_GENUS.items() if g <= left])
        comps.append((name, rng.random() < 0.5))
        left -= COMPONENT_GENUS[name]
    blocks = []
    for name, mirrored in comps:
        v = [list(r) for r in bundled[name]]
        if mirrored:  # -V^T presents the mirror image
            v = [[-v[j][i] for j in range(len(v))] for i in range(len(v))]
        blocks.append(v)
    return _scramble(rng, _block_sum(blocks)), tuple(comps)


def seifert_items(seed: int, count: int = SEIFERT_COUNT) -> tuple[SeifertItem, ...]:
    """``count`` distinct matrices of genus 1..8 in the PER_GENUS
    proportions (``count`` a multiple of their sum), spread evenly through
    the sequence so that every prefix has about the same genus mix."""
    reps, rest = divmod(count, sum(PER_GENUS.values()))
    if rest or not reps:
        raise ValueError(f"count {count} is not a multiple of "
                         f"{sum(PER_GENUS.values())}")
    rng = random.Random(f"seifert-{seed}")
    bundled = bundled_matrices()
    slots = sorted(((k + 0.5) / (n * reps), genus, k % 2)
                   for genus, n in PER_GENUS.items() for k in range(n * reps))
    items, seen = [], set()
    for _, genus, block in slots:
        while True:  # a repeated matrix could be served from a cache
            if block:
                rows, comps = _block_sum_matrix(rng, genus, bundled)
            else:
                rows, comps = _family_matrix(rng, genus), ()
            matrix = SeifertMatrix(tuple(tuple(r) for r in rows))
            if matrix.entries not in seen:
                break
        seen.add(matrix.entries)
        items.append(SeifertItem(len(items), genus, matrix, comps))
    return tuple(items)


# ---------------------------------------------------------------------------
# match_pool: undetermined queries against a seeded candidate pool

# Symmetric irreducibles by half degree (polynomials of bundled knots)
# and the norm factors of the unknown_11 fixture: P1 = (2-t)(1-2t),
# P2 = (3-2t)(2-3t), C = (1+t-t^2)(1-t-t^2).
MATCH_IRREDUCIBLES = {
    1: ("1;-1;1", "1;-3;1", "2;-3;2", "3;-5;3", "4;-7;4"),
    2: ("1;-3;3;-3;1", "1;-3;5;-3;1", "2;-4;5;-4;2", "1;-5;7;-5;1"),
}
NORMS = ("2;-5;2", "6;-13;6", "1;0;-3;0;1")
# Queries also draw (4-3t)(3-4t) and (5-4t)(4-5t), so that there are
# enough distinct queries: a 10-second run reaches 100-125 of them, and
# none may repeat within a run.
EXTRA_QUERY_NORMS = ("12;-25;12", "20;-41;20")
QUERY_COUNT = 360
MAX_SUMMANDS = 3


@dataclass(frozen=True)
class MatchQuery:
    record: KnotRecord
    required: LaurentPoly  # the residual, known from construction


@dataclass(frozen=True)
class MatchInput:
    pool: KnotTable
    queries: tuple[MatchQuery, ...]


def _product(polys):
    out = poly_from_text("1")
    for q in polys:
        out = mul(out, q)
    return out


def _pool_polynomials(irr, norms):
    """The 28 candidate polynomials, the same for every seed so that the
    matcher's work per query does not depend on the seed: each symmetric
    irreducible alone, each pair of distinct half-degree-1 irreducibles,
    and each irreducible times a norm factor."""
    flat = irr[1] + irr[2]
    return ([[q] for q in flat]
            + [list(pair) for pair in itertools.combinations(irr[1], 2)]
            + [[q, norms[i % len(norms)]] for i, q in enumerate(flat)])


def match_input(seed: int) -> MatchInput:
    """A pool of 28 candidates with seeded signatures, crossings and order,
    and QUERY_COUNT distinct undetermined queries: one or two distinct symmetric
    irreducibles (the required factor) times one or two norm factors."""
    rng = random.Random(f"match-{seed}")
    irr = {g: [poly_from_text(t) for t in ts]
           for g, ts in MATCH_IRREDUCIBLES.items()}
    norms = [poly_from_text(t) for t in NORMS]
    polys = _pool_polynomials(irr, norms)
    rng.shuffle(polys)
    sigmas = [(-2, 0, 2)[i % 3] for i in range(len(polys))]
    rng.shuffle(sigmas)
    pool = []
    for i, (parts, sigma) in enumerate(zip(polys, sigmas)):
        delta = _product(parts)
        g3 = delta.degree // 2
        pool.append(KnotRecord(
            name=f"c{i:02d}", crossings=rng.randint(3, 9), alexander=delta,
            signature=sigma, genus3=g3, genus4=(abs(sigma) // 2, g3),
            slice_status="not_slice"))
    flat = irr[1] + irr[2]
    # The matcher's cost depends mostly on the required factor and the
    # genus, so both follow a fixed cycle: each irreducible twice and each
    # pair of half-degree-1 irreducibles once, with one norm factor in
    # even cycles and two in odd ones.  The seed draws which norm factors
    # and the signature.
    schedule = ([[q] for q in flat] * 2
                + [list(p) for p in itertools.combinations(irr[1], 2)])
    # Each (required factor, norm count) class deals its norm factors and
    # signatures from its own shuffled deck, so no query repeats.
    query_norms = [poly_from_text(t) for t in NORMS + EXTRA_QUERY_NORMS]
    decks: dict = {}
    queries = []
    while len(queries) < QUERY_COUNT:
        cycle, at = divmod(len(queries), len(schedule))
        count = 1 + cycle % 2
        required = _product(schedule[at])
        deck = decks.get((required, count))
        if deck is None:
            deck = [(chosen, sigma) for chosen in
                    itertools.combinations_with_replacement(query_norms, count)
                    for sigma in (-2, 0, 2)]
            rng.shuffle(deck)
            decks[required, count] = deck
        chosen, sigma = deck.pop()
        delta = mul(required, _product(chosen))
        queries.append(MatchQuery(KnotRecord(
            name=f"q{len(queries):03d}", crossings=11, alexander=delta,
            signature=sigma, genus3=delta.degree // 2, genus4=(1, 2),
            slice_status="not_slice"), required))
    return MatchInput(KnotTable(tuple(pool), source_path="<match-pool>"),
                      tuple(queries))


# ---------------------------------------------------------------------------
# cli_small: short kcg commands on the bundled fixtures

CLI_KINDS = ("factor", "invariants", "bound", "match")


@dataclass(frozen=True)
class CliCommand:
    kind: str
    argv: tuple[str, ...]  # arguments after "kcg"
    # factor: sorted (coeffs, multiplicity); invariants: the knot name
    expect: object


def cli_commands(seed: int, table: str, candidates: str, count: int):
    """``count`` commands, cycling through the four kinds in a seeded
    order per cycle.  factor gets a seeded product of the census pool's
    irreducibles, invariants a seeded bundled Seifert matrix; bound and
    match use the README examples."""
    rng = random.Random(f"cli-{seed}")
    irr = [poly_from_text(t) for ts in CENSUS_IRREDUCIBLES.values()
           for t in ts]
    bundled = bundled_matrices()
    out = []
    while len(out) < count:
        for kind in rng.sample(CLI_KINDS, len(CLI_KINDS)):
            if kind == "factor":
                parts = [rng.choice(irr) for _ in range(rng.randint(2, 3))]
                expect = tuple(sorted(
                    ((q.coeffs, m) for q, m in Counter(parts).items()),
                    key=lambda e: (len(e[0]), e[0])))
                argv = ("factor", "--poly", _product(parts).to_text())
            elif kind == "invariants":
                name = rng.choice(sorted(bundled))
                text = ";".join(",".join(str(x) for x in row)
                                for row in bundled[name])
                argv, expect = ("invariants", f"--seifert={text}"), name
            elif kind == "bound":
                argv = ("bound", "--name", "11a_6", "--table", table)
                expect = None
            else:
                argv = ("match", "--name", "11n_152", "--table", table,
                        "--candidates", candidates)
                expect = None
            out.append(CliCommand(kind, argv, expect))
    return tuple(out[:count])
