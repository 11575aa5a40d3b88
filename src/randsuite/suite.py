"""The three-step batch testing protocol over a sample set.

Step 1 applies every selected test to every sample, one kernel per test
over the stacked samples.  Step 2 compares each test's pass proportion
against an acceptance band around 1 - alpha.  Step 3 checks that each
test's p-values are uniform on [0, 1) via a ten-bin chi-squared test (needs
at least 55 samples).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bitseq import SampleSet, _document, atomic_write, write_json
from .errors import DomainError, EmptySet, SampleTooShort, TooFewSamples, check_int, check_real
from .randtests import (
    ALL_TESTS,
    MIN_LENGTH,
    TestId,
    TestParams,
    run_batch,
)
from .randtests import _APEN_STATISTIC_FORMULA, _DFT_THRESHOLD_FORMULA
from .special import as_probability, upper_igamc

__all__ = [
    "UNIFORMITY_ALPHA",
    "UNIFORMITY_MIN_SAMPLES",
    "ProportionBand",
    "proportion_band",
    "uniformity_check",
    "SuiteConfig",
    "TestAggregate",
    "SuiteReport",
    "run_suite",
    "report_to_dict",
    "write_report_json",
    "write_results_csv",
]

UNIFORMITY_ALPHA = 0.0001
UNIFORMITY_MIN_SAMPLES = 55

# Fixed column order of the flat results CSV.
CSV_COLUMNS = ("test_id", "sample_index", "statistic", "p_value", "passed")


@dataclass(frozen=True)
class SuiteConfig:
    """Test selection, the tests' parameters and the proportion band's coefficient; the
    uniformity level is the fixed ``UNIFORMITY_ALPHA``, which the report writes with them."""

    params: TestParams = field(default_factory=TestParams)
    tests: tuple[TestId, ...] = ALL_TESTS
    band_coefficient: float = 3.0

    def __post_init__(self):
        tests = tuple(TestId(t) for t in self.tests)
        if not tests:
            raise DomainError("at least one test must be selected")
        if len(set(tests)) != len(tests):
            raise DomainError("duplicate test ids in selection")
        object.__setattr__(self, "tests", tests)
        object.__setattr__(self, "band_coefficient", check_real(
            "band_coefficient", self.band_coefficient, 0, math.inf, "()"))


@dataclass(frozen=True)
class ProportionBand:
    """Acceptance band (1-alpha) +/- c*sqrt(alpha*(1-alpha)/m).

    The upper edge is clamped at 1.  Membership is strict at the bottom
    (a proportion exactly on the lower edge fails) and inclusive at the
    top, so a clamped band never rejects a perfect score.
    """

    center: float
    halfwidth: float
    coefficient: float
    sample_count: int

    @property
    def lower(self) -> float:
        return self.center - self.halfwidth

    @property
    def upper(self) -> float:
        return min(self.center + self.halfwidth, 1.0)

    def contains(self, proportion: float) -> bool:
        return self.lower < proportion <= self.upper


def proportion_band(alpha: float, m: int,
                    coefficient: float = SuiteConfig.band_coefficient) -> ProportionBand:
    """Acceptance band for the proportion of passed samples.

    The default coefficient 3 is the customary choice; 2.6 is a published
    alternative, hence the knob.
    """
    alpha = check_real("alpha", alpha, 0, 1, "()")
    m = check_int("sample count", m, 1)
    coefficient = check_real("band_coefficient", coefficient, 0, math.inf, "()")
    halfwidth = coefficient * math.sqrt(alpha * (1.0 - alpha) / m)
    return ProportionBand(center=1.0 - alpha, halfwidth=halfwidth,
                          coefficient=coefficient, sample_count=m)


def uniformity_check(p_values):
    """Ten-bin chi-squared uniformity check over a test's p-values.

    Bins are [k/10, (k+1)/10) for k = 0..9 with 1.0 landing in the top bin.

    Returns
    -------
    (chi2, p, ok) : tuple of (float, float, bool)
        ``ok`` is ``p >= UNIFORMITY_ALPHA``, the level NIST SP 800-22 Rev. 1a
        fixes in section 4.2.2.
    """
    p_values = np.fromiter(p_values, dtype=np.float64)
    m = p_values.size
    if m < UNIFORMITY_MIN_SAMPLES:
        raise TooFewSamples(
            f"uniformity check needs at least {UNIFORMITY_MIN_SAMPLES} samples, got {m}")
    p_values = as_probability(p_values, what="uniformity input")
    bins = np.minimum((p_values * 10).astype(np.int64), 9)
    counts = np.bincount(bins, minlength=10)
    expected = m / 10.0
    chi2 = float(((counts - expected) ** 2).sum() / expected)
    p = upper_igamc(9.0 / 2.0, chi2 / 2.0)
    return chi2, p, p >= UNIFORMITY_ALPHA


@dataclass(frozen=True, eq=False)
class TestAggregate:
    """Per-test aggregation over all samples, ordered by sample_index.

    ``statistics``, ``p_values`` and ``passed`` are read-only arrays with
    one entry per sample, aligned with ``sample_indices``.  Per-sample
    params records exist only on the single-sequence path
    (:func:`~randsuite.randtests.run_test`).
    """

    __test__ = False

    test_id: TestId
    sample_indices: tuple[int, ...]
    statistics: np.ndarray
    p_values: np.ndarray
    passed: np.ndarray
    pass_proportion: float
    band: ProportionBand
    proportion_ok: bool
    uniformity_chi2: float | None = None
    uniformity_p: float | None = None
    uniformity_ok: bool | None = None

    def __post_init__(self):
        for name in ("statistics", "p_values", "passed"):
            getattr(self, name).setflags(write=False)


@dataclass(frozen=True)
class SuiteReport:
    per_test: dict[TestId, TestAggregate]
    overall_pass: bool
    sample_count: int
    config: SuiteConfig


def run_suite(sample_set: SampleSet, config: SuiteConfig = SuiteConfig()) -> SuiteReport:
    """Apply the full three-step protocol to one sample set.

    The result is independent of sample order: a SampleSet holds its samples
    in sample_index order.  With fewer than 55 samples the uniformity step
    is skipped and the verdict rests on the proportion step alone.
    """
    if len(sample_set) == 0:
        raise EmptySet("cannot run the suite on an empty sample set")
    m, indices = len(sample_set), sample_set.sample_indices
    try:
        batches = run_batch(sample_set.packed, sample_set.declared_length, config.tests,
                            config.params)
    except SampleTooShort as exc:
        # Every sample has the same length, so the first one fails first.
        raise type(exc)(f"sample {indices[0]}: {exc}") from exc

    per_test: dict[TestId, TestAggregate] = {}
    overall = True
    for test_id in config.tests:
        batch = batches[test_id]
        proportion = int(batch.passed.sum()) / m
        band = proportion_band(config.params.alpha, m, config.band_coefficient)
        proportion_ok = band.contains(proportion)
        chi2 = p_uni = uni_ok = None
        if m >= UNIFORMITY_MIN_SAMPLES:
            chi2, p_uni, uni_ok = uniformity_check(batch.p_values)
        agg = TestAggregate(
            test_id=test_id,
            sample_indices=indices,
            statistics=batch.statistics,
            p_values=batch.p_values,
            passed=batch.passed,
            pass_proportion=proportion,
            band=band,
            proportion_ok=proportion_ok,
            uniformity_chi2=chi2,
            uniformity_p=p_uni,
            uniformity_ok=uni_ok,
        )
        per_test[test_id] = agg
        overall = overall and proportion_ok and (uni_ok is None or uni_ok)
    return SuiteReport(per_test=per_test, overall_pass=overall,
                       sample_count=m, config=config)


def _config_to_dict(config: SuiteConfig) -> dict:
    return {
        **_document(config.params),
        "tests": [t.value for t in config.tests],
        "band_coefficient": config.band_coefficient,
        "uniformity_alpha": UNIFORMITY_ALPHA,
        "min_lengths": {t.value: MIN_LENGTH[t] for t in config.tests},
    }


def report_to_dict(report: SuiteReport) -> dict:
    """JSON-ready view of a report's verdicts, conventions included for auditability.

    It holds no per-sample list: the arrays stay on the report's aggregates,
    and :func:`write_results_csv` writes them.
    """
    tests = {}
    for test_id, agg in report.per_test.items():
        entry = {
            "pass_proportion": agg.pass_proportion,
            "proportion_ok": agg.proportion_ok,
            "band": {**_document(agg.band), "lower": agg.band.lower, "upper": agg.band.upper},
        }
        if agg.uniformity_ok is not None:
            entry["uniformity"] = {
                "chi2": agg.uniformity_chi2,
                "p_value": agg.uniformity_p,
                "ok": agg.uniformity_ok,
            }
        tests[test_id.value] = entry
    return {
        "config": _config_to_dict(report.config),
        "conventions": {
            "dft_peak_threshold": _DFT_THRESHOLD_FORMULA,
            "approx_entropy_statistic": _APEN_STATISTIC_FORMULA,
            "proportion_band": "(1-alpha) +/- c*sqrt(alpha*(1-alpha)/m); "
                               "pass iff lower < proportion <= min(upper, 1)",
            "uniformity_bins": "[k/10, (k+1)/10) for k=0..9; 1.0 in top bin",
        },
        "sample_count": report.sample_count,
        "overall_pass": report.overall_pass,
        "tests": tests,
    }


def write_report_json(report: SuiteReport, path) -> None:
    """Commit ``report_to_dict(report)`` by the package's one JSON rule."""
    write_json(path, report_to_dict(report))


def write_results_csv(report: SuiteReport, path) -> None:
    """Flat per-(test, sample) rows; column order is fixed.

    The lines are what ``csv.writer`` would write: no field needs quoting,
    and rows end in ``\\r\\n``.
    """
    lines = [",".join(CSV_COLUMNS) + "\r\n"]
    for test_id in report.config.tests:
        agg = report.per_test[test_id]
        name = test_id.value
        lines += [f"{name},{idx},{statistic!r},{p_value!r},{passed}\r\n"
                  for idx, statistic, p_value, passed in zip(
                      agg.sample_indices, agg.statistics.tolist(),
                      agg.p_values.tolist(), agg.passed.tolist())]
    atomic_write(path, "".join(lines))
