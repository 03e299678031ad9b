"""Fisher exact test against exhaustive enumeration; phecode mapping."""

import datetime
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labrisk import LabriskError, comorbid
from labrisk.catalog import ClaimCode

import oracles


def enumerate_fisher(a, b, c, d):
    """Two-sided Fisher p by direct hypergeometric enumeration."""
    row1, row2 = a + b, c + d
    col1 = a + c
    n = row1 + row2

    def point(x):
        return (math.comb(row1, x) * math.comb(row2, col1 - x)
                / math.comb(n, col1))

    lo = max(0, col1 - row2)
    hi = min(row1, col1)
    p_obs = point(a)
    total = sum(point(x) for x in range(lo, hi + 1)
                if point(x) <= p_obs * (1 + 1e-7))
    return min(1.0, total)


def all_small_tables(n_max):
    for n in range(1, n_max + 1):
        for a in range(n + 1):
            for b in range(n + 1 - a):
                for c in range(n + 1 - a - b):
                    d = n - a - b - c
                    yield a, b, c, d


def test_fisher_matches_enumeration_small_n():
    checked = 0
    for a, b, c, d in all_small_tables(12):
        if (a + b) == 0 or (c + d) == 0:
            continue
        p = comorbid.fisher_exact(a, b, c, d)
        oracle = enumerate_fisher(a, b, c, d)
        assert p == pytest.approx(oracle, abs=1e-12), (a, b, c, d)
        checked += 1
    assert checked > 400


def test_fisher_random_tables_up_to_40():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(4, 41))
        cuts = np.sort(rng.integers(0, n + 1, size=3))
        a, b, c = cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1]
        d = n - a - b - c
        if (a + b) == 0 or (c + d) == 0:
            continue
        p = comorbid.fisher_exact(int(a), int(b), int(c), int(d))
        assert p == pytest.approx(enumerate_fisher(int(a), int(b),
                                                   int(c), int(d)),
                                  abs=1e-12)


def test_fisher_properties():
    assert comorbid.fisher_exact(5, 5, 5, 5) == pytest.approx(1.0)
    # Transposing the table leaves the p-value unchanged.
    assert comorbid.fisher_exact(8, 2, 1, 9) == pytest.approx(
        comorbid.fisher_exact(8, 1, 2, 9), abs=1e-12)
    p = comorbid.fisher_exact(20, 0, 0, 20)
    assert 0.0 < p < 1e-9


def test_odds_ratio_correction():
    orv, corrected = comorbid.odds_ratio(10, 5, 2, 8)
    assert not corrected
    assert orv == pytest.approx((10 * 8) / (5 * 2))
    orv0, corrected0 = comorbid.odds_ratio(10, 0, 2, 8)
    assert corrected0
    assert np.isfinite(orv0) and orv0 > 0


def test_phecode_longest_prefix_match():
    pmap = comorbid.PhecodeMap(
        prefix_to_phecode={"E11": "250.2", "E11.2": "250.22", "K74": "571.5"},
        labels={"250.2": "type 2 diabetes", "250.22": "diabetic nephropathy",
                "571.5": "cirrhosis"})
    assert pmap.match("E11.9") == "250.2"
    assert pmap.match("E11.21") == "250.22"  # longer prefix wins
    assert pmap.match("K74.60") == "571.5"
    assert pmap.match("C22.0") is None


# Short codes over a small alphabet, so that prefixes of each other are common.
CODES = st.text(alphabet="CEK27.", min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(mapping=st.dictionaries(CODES, st.text("0123456789.", max_size=5),
                               max_size=12),
       codes=st.lists(CODES | st.just(""), min_size=1, max_size=8))
def test_phecode_match_equals_the_prefix_scan_oracle(mapping, codes):
    pmap = comorbid.PhecodeMap(prefix_to_phecode=mapping)
    for code in codes + list(mapping):
        assert pmap.match(code) == oracles.phecode_match(pmap, code)


def test_map_patient_phecodes_censors_at_diagnosis():
    pmap = comorbid.default_phecode_map()
    dx = datetime.date(2021, 6, 1)
    codes = [
        ClaimCode("K74.60", "ICD10", datetime.date(2021, 1, 1)),  # before
        ClaimCode("E11.9", "ICD10", dx),                          # at dx
        ClaimCode("F17.210", "ICD10", datetime.date(2021, 8, 1)),  # after
        ClaimCode("99999", "CPT", datetime.date(2021, 1, 1)),     # not ICD
    ]
    phecodes, unmapped = comorbid.map_patient_phecodes(codes, dx, pmap)
    mapped_k74 = pmap.match("K74.60")
    assert mapped_k74 in phecodes
    assert pmap.match("E11.9") not in phecodes  # strictly-before only
    assert pmap.match("F17.210") not in phecodes
    # Without censoring, every ICD code with a mapping counts.
    phecodes_all, _ = comorbid.map_patient_phecodes(codes, None, pmap)
    assert pmap.match("F17.210") in phecodes_all


def test_build_and_rank_table():
    pmap = comorbid.PhecodeMap(prefix_to_phecode={"A": "1.0", "B": "2.0"},
                               labels={"1.0": "alpha", "2.0": "beta"})
    rng = np.random.default_rng(1)
    cancer = [{"1.0"} if rng.random() < 0.6 else set() for _ in range(200)]
    control = [{"1.0"} if rng.random() < 0.2 else set() for _ in range(400)]
    for s, p in zip(cancer, rng.random(200)):
        if p < 0.3:
            s.add("2.0")
    for s, p in zip(control, rng.random(400)):
        if p < 0.3:
            s.add("2.0")
    rows = comorbid.build_comorbidity_table(cancer, control, pmap)
    ranked = comorbid.rank_comorbidities(rows, min_each=20)
    assert ranked[0].phecode == "1.0"  # the enriched phecode ranks first
    assert ranked[0].p_value < 1e-6
    assert ranked[0].odds_ratio > 1.0
    assert ranked[0].neg_log10_p == pytest.approx(
        -math.log10(ranked[0].p_value))
    # The carrier floor excludes phecodes below min_each in either cohort.
    assert all(r.n_cancer_with >= 20 and r.n_control_with >= 20
               for r in ranked)


def test_load_phecode_map_rejects_conflicts(tmp_path):
    path = tmp_path / "map.tsv"
    path.write_text("icd_prefix\tphecode\tlabel\n"
                    "E11\t250.2\tdiabetes\n"
                    "E11\t999.9\tconflict\n")
    with pytest.raises(LabriskError, match="maps to both"):
        comorbid.load_phecode_map(path.read_bytes(), str(path))


def test_load_phecode_map_round_trip(tmp_path):
    path = tmp_path / "map.tsv"
    path.write_text("icd_prefix\tphecode\tlabel\n"
                    "E11\t250.2\tdiabetes\n"
                    "K74\t571.5\tcirrhosis\n")
    pmap = comorbid.load_phecode_map(path.read_bytes(), str(path))
    assert pmap.match("E11.9") == "250.2"
    assert pmap.label("571.5") == "cirrhosis"


def test_load_phecode_map_keeps_each_column_in_its_place():
    """Columns are split at tabs before they are stripped: an empty prefix
    column is an error naming the line, and an empty label column (or a
    trailing tab) gives no label."""
    with pytest.raises(LabriskError,
                       match="^map.tsv:2: empty ICD-10 prefix for phecode "
                             "'C22'$"):
        comorbid.load_phecode_map(b"K70\t155\n\tC22\tliver\n", "map.tsv")
    pmap = comorbid.load_phecode_map(
        b"# prefix\tphecode\tlabel\n \t\n K70 \t 155 \t\n"
        b"C22\t155.1\t \tx\nE11\t250.2\t diabetes \n", "map.tsv")
    assert pmap.prefix_to_phecode == {"K70": "155", "C22": "155.1",
                                      "E11": "250.2"}
    assert pmap.labels == {"250.2": "diabetes"}
    assert pmap.label("155") == "155"
