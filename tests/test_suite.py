"""Three-step protocol: proportion banding, p-value uniformity, aggregation."""

import csv
import hashlib
import io
import json
import math

import pytest

import randsuite as rs
from randsuite import (
    ALL_TESTS,
    SampleSet,
    SuiteConfig,
    TestId,
    TestParams,
    proportion_band,
    run_suite,
    uniformity_check,
)
from randsuite.errors import DomainError, EmptySet, SampleTooShort, TooFewSamples
from randsuite.suite import report_to_dict


class TestProportionBand:
    def test_thousand_sample_example(self):
        band = proportion_band(0.01, 1000, 3.0)
        assert band.center == 0.99
        assert band.halfwidth == pytest.approx(0.0094, abs=1e-4)

    def test_579_sample_lower_edge(self):
        band = proportion_band(0.01, 579, 3.0)
        assert band.lower == pytest.approx(0.977595, abs=1e-6)

    def test_coefficient_zero_rejected_and_limit(self):
        with pytest.raises(DomainError):
            proportion_band(0.01, 100, 0.0)
        tiny = proportion_band(0.01, 100, 1e-12)
        assert tiny.lower == pytest.approx(0.99, abs=1e-9)
        assert tiny.upper == pytest.approx(0.99, abs=1e-9)

    def test_membership_strict_at_lower_edge(self):
        band = proportion_band(0.01, 579, 3.0)
        assert not band.contains(band.lower)
        assert band.contains(band.lower + 1e-12)

    def test_upper_edge_clamped_at_one(self):
        band = proportion_band(0.01, 579, 3.0)  # raw upper would exceed 1
        assert band.upper == 1.0
        assert band.contains(1.0)
        narrow = proportion_band(0.01, 100000, 3.0)
        assert narrow.upper < 1.0
        assert not narrow.contains(1.0)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            proportion_band(0.0, 100)
        with pytest.raises(DomainError):
            proportion_band(0.01, 0)
        for coefficient in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                proportion_band(0.01, 100, coefficient)

    @pytest.mark.parametrize("knobs", [
        {"band_coefficient": math.nan}, {"band_coefficient": math.inf},
        {"band_coefficient": 0.0}, {"tests": ("frequency", "frequency")}])
    def test_suite_config_domain_checks(self, knobs):
        with pytest.raises(DomainError):
            SuiteConfig(**knobs)


class TestUniformityCheck:
    def test_worked_example_counts(self):
        mids = [0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95]
        counts = [2, 8, 10, 13, 17, 17, 13, 10, 8, 2]
        p_values = [m for m, c in zip(mids, counts) for _ in range(c)]
        chi2, p, ok = uniformity_check(p_values)
        assert chi2 == pytest.approx(25.2, abs=1e-6)
        assert p == pytest.approx(0.002758, abs=1e-6)
        assert ok  # uniform at the 0.0001 level

    def test_perfectly_uniform(self):
        p_values = [k / 10 + 0.05 for k in range(10) for _ in range(10)]
        chi2, p, ok = uniformity_check(p_values)
        assert chi2 == 0.0
        assert p == 1.0
        assert ok

    def test_single_bin_blowup(self):
        chi2, p, ok = uniformity_check([0.45] * 100)
        assert chi2 == 900.0  # 8100/10 + 9*100/10
        assert p < 1e-50
        assert not ok

    def test_edge_values_bin_placement(self):
        # 1.0 lands in the top bin, 0.0 in the bottom bin
        chi2_top, _, _ = uniformity_check([1.0] * 55)
        chi2_bottom, _, _ = uniformity_check([0.0] * 55)
        expected = (55 - 5.5) ** 2 / 5.5 + 9 * 5.5
        assert chi2_top == expected
        assert chi2_bottom == expected

    def test_minimum_sample_count(self):
        with pytest.raises(TooFewSamples):
            uniformity_check([0.5] * 54)
        uniformity_check([0.5] * 55)  # runs at exactly 55

    def test_count_preservation(self):
        # every p-value lands in exactly one bin: chi2 of uniform batches of
        # unequal sizes still reconstructs the total
        p_values = [0.0, 0.999999, 1.0] + [0.5] * 60
        chi2, _, _ = uniformity_check(p_values)
        m = len(p_values)
        counts = [1, 0, 0, 0, 0, 60, 0, 0, 0, 2]
        assert chi2 == pytest.approx(
            sum((c - m / 10) ** 2 / (m / 10) for c in counts), rel=1e-12)


def small_experiment(num_samples=60, shots=1024, seed=5, num_qubits=1):
    plan = rs.unbiased_plan(num_qubits=num_qubits, samples_per_qubit=num_samples,
                            shots_per_sample=shots, master_seed=seed)
    return rs.generate_experiment(plan)[0]


class TestRunSuite:
    def test_report_shape_and_band(self):
        sample_set = small_experiment()
        report = run_suite(sample_set)
        assert report.sample_count == 60
        assert set(report.per_test) == set(TestId)
        for agg in report.per_test.values():
            assert len(agg.p_values) == 60
            assert agg.sample_indices == tuple(range(60))
            assert agg.uniformity_ok is not None  # m >= 55

    def test_no_uniformity_below_55(self):
        report = run_suite(small_experiment(num_samples=54))
        for agg in report.per_test.values():
            assert agg.uniformity_chi2 is None
            assert agg.uniformity_p is None
            assert agg.uniformity_ok is None

    def test_single_sample_single_test(self, bits):
        sample_set = SampleSet([bits("1001100010")])
        config = SuiteConfig(params=TestParams(enforce_min_length=False),
                             tests=(TestId.FREQUENCY,))
        report = run_suite(sample_set, config)
        assert list(report.per_test) == [TestId.FREQUENCY]
        agg = report.per_test[TestId.FREQUENCY]
        assert len(agg.p_values) == 1
        assert agg.p_values[0] == pytest.approx(0.527089, abs=1e-6)
        assert agg.uniformity_ok is None
        assert report.overall_pass  # 1/1 passed, band contains 1.0

    def test_order_invariance(self):
        sample_set = small_experiment()
        shuffled = SampleSet(list(sample_set)[::-1])
        a = report_to_dict(run_suite(sample_set))
        b = report_to_dict(run_suite(shuffled))
        assert a == b

    def test_pass_proportion_exact_fraction(self):
        sample_set = small_experiment()
        report = run_suite(sample_set)
        for agg in report.per_test.values():
            passes = sum(1 for passed in agg.passed if passed)
            assert agg.pass_proportion == passes / 60

    def test_overall_pass_is_conjunction(self, bits):
        # all-ones samples fail frequency hard: overall must be False
        sample_set = SampleSet([rs.BitSequence([1] * 128, sample_index=i)
                                for i in range(8)])
        config = SuiteConfig(tests=(TestId.FREQUENCY, TestId.LONGEST_RUN))
        report = run_suite(sample_set, config)
        assert not report.per_test[TestId.FREQUENCY].proportion_ok
        assert not report.overall_pass

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySet, match="^a SampleSet needs at least one sample$"):
            SampleSet([])

    def test_sample_too_short_reports_index(self, bits):
        # the lowest sample index is reported, whatever the input order
        sample_set = SampleSet([bits("10" * 20, sample_index=i) for i in (9, 7, 12)])
        with pytest.raises(SampleTooShort) as err:
            run_suite(sample_set, SuiteConfig(tests=(TestId.FREQUENCY,)))
        assert str(err.value).startswith("sample 7: ")

    def test_tests_selection_respected(self, bits):
        report = run_suite(small_experiment(),
                           SuiteConfig(tests=(TestId.RUNS, TestId.CUSUM_FORWARD)))
        assert list(report.per_test) == [TestId.RUNS, TestId.CUSUM_FORWARD]
        seq = bits("01" * 64)
        for unknown in (lambda: SuiteConfig(tests=("bogus",)), lambda: rs.run_test("bogus", seq),
                        lambda: rs.run_test("cusum_sideways", seq)):
            with pytest.raises(DomainError, match="valid values: "):
                unknown()

    def test_579_sample_threshold(self):
        sample_set = small_experiment(num_samples=579, shots=1024, seed=3)
        report = run_suite(sample_set, SuiteConfig(tests=(TestId.FREQUENCY,)))
        agg = report.per_test[TestId.FREQUENCY]
        assert agg.band.lower == pytest.approx(0.977595, abs=1e-6)
        assert agg.proportion_ok == (agg.pass_proportion > agg.band.lower)


class TestReportSerialization:
    def test_json_structure_and_determinism(self, tmp_path):
        # report.json holds the verdicts; results.csv is the one per-sample
        # record, one row per (test, sample) in selection order, each p-value
        # the repr of the report's own array entry.
        for tests in (ALL_TESTS, (TestId.RUNS, TestId.FREQUENCY)):
            report = run_suite(small_experiment(), SuiteConfig(tests=tests))
            doc = report_to_dict(report)
            assert doc["sample_count"] == 60
            assert set(doc["tests"]) == {t.value for t in tests}
            assert "conventions" in doc and "config" in doc
            for entry in doc["tests"].values():
                assert set(entry) == {"pass_proportion", "proportion_ok", "band", "uniformity"}
            p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
            rs.write_report_json(report, p1)
            rs.write_report_json(report, p2)
            assert p1.read_bytes() == p2.read_bytes()

            rs.write_results_csv(report, tmp_path / "results.csv")
            with open(tmp_path / "results.csv", newline="") as fh:
                rows = [(row["test_id"], int(row["sample_index"]), row["p_value"])
                        for row in csv.DictReader(fh)]
            assert rows == [(t.value, idx, repr(p_value))
                            for t in tests
                            for idx, p_value in zip(report.per_test[t].sample_indices,
                                                    report.per_test[t].p_values.tolist())]

    def test_csv_columns_and_rows(self, tmp_path):
        report = run_suite(small_experiment(num_samples=10),
                           SuiteConfig(tests=(TestId.FREQUENCY, TestId.RUNS)))
        path = tmp_path / "results.csv"
        rs.write_results_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "test_id,sample_index,statistic,p_value,passed"
        assert len(lines) == 1 + 2 * 10
        first = lines[1].split(",")
        assert first[0] == "frequency"
        assert first[1] == "0"
        assert first[4] in ("True", "False")

    @pytest.mark.parametrize("num_samples, tests", [
        (60, ALL_TESTS),                                       # uniformity blocks
        (12, ALL_TESTS),                                       # m < 55: none
        (57, (TestId.RUNS, TestId.FREQUENCY, TestId.CUSUM_BACKWARD)),
    ])
    def test_report_json_bytes_equal_json_dumps(self, tmp_path, num_samples, tests):
        report = run_suite(small_experiment(num_samples=num_samples),
                           SuiteConfig(tests=tests))
        path = tmp_path / "report.json"
        rs.write_report_json(report, path)
        expected = json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
        assert path.read_text() == expected

    def test_csv_bytes_equal_csv_writer(self, tmp_path):
        # The rows as csv.writer writes them, with its default \r\n line ends.
        report = run_suite(small_experiment(num_samples=12))
        path = tmp_path / "results.csv"
        rs.write_results_csv(report, path)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(("test_id", "sample_index", "statistic", "p_value", "passed"))
        for test_id in report.config.tests:
            agg = report.per_test[test_id]
            for idx, statistic, p_value, passed in zip(
                    agg.sample_indices, agg.statistics.tolist(),
                    agg.p_values.tolist(), agg.passed.tolist()):
                writer.writerow([test_id.value, idx, repr(statistic), repr(p_value), passed])
        assert path.read_bytes() == expected.getvalue().encode()


# SHA-256 of report.json and results.csv per long-sample shape, recorded from
# the code before the spectral test's four-step transform was blocked and its
# twiddle table factored.  2^17 bits is the four-step cutoff (n1 = 512, two
# rows per kernel chunk); 2^20 is the classic 1-Mbit shape, read through the
# hex codec.  The report.json digests were re-recorded when the report stopped
# repeating the per-sample lists; both 4-sample reports pass every test and
# are now the same bytes, and their results.csv digests tell the shapes apart.
LONG_SAMPLE_REPORT = "0de04347e6e4b4109fd0c7cf0b53b35550e3424316a028b14d67aacefc799a21"
LONG_SAMPLE_PINS = {(1 << 17, "packed-msb"): {
    "report.json": LONG_SAMPLE_REPORT,
    "results.csv": "93d9167c0da3a124cb491722092a967d94d8e30e0910b75a421e5cfab9984aec",
}, (1 << 20, "hex"): {
    "report.json": LONG_SAMPLE_REPORT,
    "results.csv": "c56062201eb3f695bc1073c9cacb16c6254841d2f163138bf264b67b96fa455c",
}}


@pytest.mark.parametrize("shots, encoding", sorted(LONG_SAMPLE_PINS))
def test_long_samples_match_pinned_digests(tmp_path, shots, encoding):
    """Four long samples, saved, loaded, run and written, give the pinned bytes."""
    plan = rs.unbiased_plan(num_qubits=1, samples_per_qubit=4, shots_per_sample=shots,
                            master_seed=22)
    manifest = rs.save_sample_set(rs.generate_experiment(plan)[0], tmp_path / "q", encoding)
    report = run_suite(rs.load_sample_set(rs.load_manifest(manifest)))
    rs.write_report_json(report, tmp_path / "report.json")
    rs.write_results_csv(report, tmp_path / "results.csv")
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in LONG_SAMPLE_PINS[shots, encoding]}
    assert digests == LONG_SAMPLE_PINS[shots, encoding]
