"""Phecode-based comorbidity analysis.

ICD-10 codes are mapped to phecodes by longest-prefix match, with all codes
on or after the diagnosis date censored for cancer patients. Per-phecode 2x2
tables against controls are scored with a two-sided Fisher exact test and
odds ratios, then ranked by p-value subject to a minimum-carrier floor.
"""

from __future__ import annotations

import datetime
import io
import math
from dataclasses import dataclass, field

from . import LabriskError
from .catalog import ClaimCode


@dataclass
class PhecodeMap:
    prefix_to_phecode: dict[str, str]
    labels: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for prefix in self.prefix_to_phecode:
            if not prefix:
                raise LabriskError("empty ICD-10 prefix in mapping")

    def match(self, code: str) -> str | None:
        """Longest-prefix phecode for an ICD-10 code, or None."""
        for end in range(len(code), 0, -1):
            phecode = self.prefix_to_phecode.get(code[:end])
            if phecode is not None:
                return phecode
        return None

    def label(self, phecode: str) -> str:
        return self.labels.get(phecode, phecode)


def load_phecode_map(data: bytes, where: str) -> PhecodeMap:
    """Parse the two/three-column delimited mapping file `data`:
    icd10_prefix <TAB> phecode [<TAB> label]."""
    mapping: dict[str, str] = {}
    labels: dict[str, str] = {}
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise LabriskError(f"{where}: cannot read ({e})") from None
    # newline=None splits at \n, \r and \r\n, as reading in text mode does.
    for lineno, line in enumerate(io.StringIO(text, newline=None), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        # Split first, so an empty column keeps its place.
        parts = [part.strip() for part in line.rstrip("\n").split("\t")]
        if len(parts) < 2:
            raise LabriskError(f"{where}:{lineno}: expected at least "
                               "two tab-separated columns")
        prefix, phecode = parts[0], parts[1]
        if not prefix:
            raise LabriskError(f"{where}:{lineno}: empty ICD-10 prefix for "
                               f"phecode {phecode!r}")
        if not phecode:
            raise LabriskError(f"{where}:{lineno}: empty phecode for prefix "
                               f"{prefix!r}")
        if prefix in mapping and mapping[prefix] != phecode:
            raise LabriskError(
                f"{where}:{lineno}: prefix {prefix!r} maps to both "
                f"{mapping[prefix]!r} and {phecode!r}")
        mapping[prefix] = phecode
        if len(parts) >= 3 and parts[2]:  # an empty label is no label
            labels[phecode] = parts[2]
    return PhecodeMap(prefix_to_phecode=mapping, labels=labels)


def default_phecode_map() -> PhecodeMap:
    from . import defaults
    mapping = {}
    labels = {}
    for prefix, phecode, label in defaults.DEMO_PHECODE_MAP:
        mapping[prefix] = phecode
        labels[phecode] = label
    return PhecodeMap(prefix_to_phecode=mapping, labels=labels)


def map_patient_phecodes(codes: list[ClaimCode],
                         diagnosis_date: datetime.date | None,
                         pmap: PhecodeMap) -> tuple[set[str], int]:
    """Phecode set for one patient. Cancer patients (diagnosis_date set)
    contribute only codes strictly before diagnosis; controls contribute all
    codes. Returns (phecodes, unmapped_code_count)."""
    phecodes: set[str] = set()
    unmapped = 0
    for c in codes:
        if c.system != "ICD10":
            continue
        if diagnosis_date is not None and c.date >= diagnosis_date:
            continue
        hit = pmap.match(c.code)
        if hit is None:
            unmapped += 1
        else:
            phecodes.add(hit)
    return phecodes, unmapped


def _log_comb(n: int, k: int) -> float:
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1))


def fisher_exact(a: int, b: int, c: int, d: int) -> float:
    """Two-sided Fisher exact p-value for the table [[a, b], [c, d]].

    Sums hypergeometric point probabilities (with fixed margins) over all
    tables whose probability does not exceed the observed one, with a
    relative tolerance of 1e-7 for float safety. Factorials are evaluated in
    log space so large counts stay finite.
    """
    if min(a, b, c, d) < 0:
        raise ValueError("fisher_exact requires non-negative counts")
    n = a + b + c + d
    if n == 0:
        return 1.0
    row1 = a + b
    col1 = a + c
    denom = _log_comb(n, col1)

    def log_p(x: int) -> float:
        return _log_comb(row1, x) + _log_comb(n - row1, col1 - x) - denom

    lo = max(0, col1 - (n - row1))
    hi = min(row1, col1)
    observed = log_p(a)
    cutoff = observed + math.log1p(1e-7)
    total = 0.0
    for x in range(lo, hi + 1):
        lp = log_p(x)
        if lp <= cutoff:
            total += math.exp(lp)
    return min(1.0, total)


def odds_ratio(a: int, b: int, c: int, d: int) -> tuple[float, bool]:
    """(a*d)/(b*c) with a 0.5 continuity correction (flagged) when any cell
    is zero."""
    if min(a, b, c, d) < 0:
        raise ValueError("odds_ratio requires non-negative counts")
    if 0 in (a, b, c, d):
        return ((a + 0.5) * (d + 0.5)) / ((b + 0.5) * (c + 0.5)), True
    return (a * d) / (b * c), False


@dataclass
class ComorbidityRow:
    phecode: str
    label: str
    n_cancer_with: int
    n_cancer_without: int
    n_control_with: int
    n_control_without: int
    odds_ratio: float
    or_corrected: bool
    p_value: float
    neg_log10_p: float
    cancer_prevalence: float
    control_prevalence: float


def build_comorbidity_table(cancer_phecodes: list[set[str]],
                            control_phecodes: list[set[str]],
                            pmap: PhecodeMap) -> list[ComorbidityRow]:
    """2x2 tables for every phecode seen in either cohort."""
    n_cancer = len(cancer_phecodes)
    n_control = len(control_phecodes)
    if n_cancer == 0 or n_control == 0:
        raise LabriskError("both cohorts must be non-empty")
    seen = sorted(set().union(*cancer_phecodes, *control_phecodes, set()))
    rows = []
    for phecode in seen:
        a = sum(1 for s in cancer_phecodes if phecode in s)
        c = sum(1 for s in control_phecodes if phecode in s)
        b = n_cancer - a
        d = n_control - c
        orr, corrected = odds_ratio(a, b, c, d)
        p = fisher_exact(a, b, c, d)
        rows.append(ComorbidityRow(
            phecode=phecode, label=pmap.label(phecode),
            n_cancer_with=a, n_cancer_without=b,
            n_control_with=c, n_control_without=d,
            odds_ratio=orr, or_corrected=corrected,
            p_value=p, neg_log10_p=-math.log10(max(p, 1e-300)),
            cancer_prevalence=a / n_cancer,
            control_prevalence=c / n_control))
    return rows


def rank_comorbidities(rows: list[ComorbidityRow],
                       min_each: int) -> list[ComorbidityRow]:
    """Phecodes with at least min_each carriers in both cohorts, ranked
    ascending by p-value."""
    eligible = [r for r in rows
                if r.n_cancer_with >= min_each and r.n_control_with >= min_each]
    return sorted(eligible, key=lambda r: (r.p_value, r.phecode))
