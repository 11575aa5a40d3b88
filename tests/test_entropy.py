"""Entropy measures, entropy series, proportion band, deviation series."""

import csv
import io
import math
from datetime import datetime, timezone

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import randsuite as rs
from randsuite import (
    BitSequence,
    SampleSet,
    TestId,
    deviation_series,
    entropy_series,
    min_entropy,
    proportion_band_for_length,
    run_test,
    shannon_entropy,
)
from randsuite.errors import DomainError, EmptySequence, EmptySet

mp.mp.dps = 40


def seq_with_ones(ones, n, **kwargs):
    return BitSequence([1] * ones + [0] * (n - ones), **kwargs)


def test_nothing_empty_reaches_a_measure():
    # The measures check no emptiness of their own: the constructors reject it.
    with pytest.raises(EmptySequence, match="^a BitSequence needs at least one bit$"):
        BitSequence([])
    with pytest.raises(EmptySet, match="^a SampleSet needs at least one sample$"):
        SampleSet([])


class TestMinEntropy:
    def test_uniform_is_one(self):
        assert min_entropy(seq_with_ones(5, 10)) == 1.0

    def test_degenerate_is_zero(self):
        # repr tells 0.0 from -0.0, which compare equal
        assert repr(min_entropy(seq_with_ones(10, 10))) == "0.0"
        assert repr(min_entropy(seq_with_ones(0, 10))) == "0.0"

    def test_point_six(self):
        # independent oracle: -log2(0.6) at high precision
        oracle = float(-mp.log(mp.mpf(6) / 10, 2))
        assert oracle == pytest.approx(0.736966, abs=1e-6)
        assert min_entropy(seq_with_ones(6, 10)) == pytest.approx(oracle, rel=1e-12)


class TestShannonEntropy:
    def test_uniform_is_one(self):
        assert shannon_entropy(seq_with_ones(50, 100)) == 1.0

    def test_degenerate_is_zero(self):
        assert shannon_entropy(seq_with_ones(100, 100)) == 0.0
        assert shannon_entropy(seq_with_ones(0, 100)) == 0.0

    def test_point_six(self):
        p, q = mp.mpf(6) / 10, mp.mpf(4) / 10
        oracle = float(-(p * mp.log(p, 2) + q * mp.log(q, 2)))
        assert oracle == pytest.approx(0.970951, abs=1e-6)
        assert shannon_entropy(seq_with_ones(6, 10)) == pytest.approx(oracle, rel=1e-12)

    @given(ones=st.integers(0, 64), extra=st.integers(1, 64))
    @settings(max_examples=80, deadline=None)
    def test_min_never_exceeds_shannon(self, ones, extra):
        n = max(ones + 1, ones + extra)
        seq = seq_with_ones(ones, n)
        h_min, h_sh = min_entropy(seq), shannon_entropy(seq)
        assert h_min <= h_sh + 1e-15
        assert 0.0 <= h_min <= 1.0
        assert 0.0 <= h_sh <= 1.0
        p1 = ones / n
        if p1 in (0.0, 0.5, 1.0):
            assert h_min == h_sh
        else:
            assert h_min < h_sh

    def test_permutation_invariance(self, random_bits):
        seq = random_bits(512, seed=8, p1=0.4)
        rng = np.random.Generator(np.random.PCG64(9))
        shuffled = BitSequence(rng.permutation(seq.asarray()))
        assert min_entropy(shuffled) == min_entropy(seq)
        assert shannon_entropy(shuffled) == shannon_entropy(seq)


class TestEntropySeries:
    def test_one_point_per_sample(self):
        plan = rs.unbiased_plan(num_qubits=1, samples_per_qubit=25,
                                shots_per_sample=256, master_seed=3)
        series = entropy_series(rs.generate_experiment(plan)[0])
        assert len(series) == 25
        assert series.sample_indices == tuple(range(25))
        assert all(0.0 <= h <= 1.0 for h in series.min_entropies)
        assert all(hm <= hs + 1e-15 for hm, hs in
                   zip(series.min_entropies, series.shannon_entropies))

    def test_single_degenerate_sample(self, tmp_path):
        series = entropy_series(SampleSet([seq_with_ones(8, 8, sample_index=0)]))
        assert series.min_entropies == (0.0,)
        rs.write_entropy_csv(series, tmp_path / "entropy.csv")
        assert (tmp_path / "entropy.csv").read_bytes().splitlines()[1] == b"0,,0.0,0.0"

    def test_bias_step_is_visible(self):
        # a state-bias step at the fourth calibration epoch must show up as a
        # min-entropy drop much larger than the pre-step scatter
        model = rs.QubitNoiseModel(qubit_id=0, epochs=(
            rs.Epoch(0, 0.5), rs.Epoch(40, 0.5), rs.Epoch(80, 0.5),
            rs.Epoch(120, 0.42)))
        samples = [rs.generate_sample(model, i, 4096, master_seed=77)
                   for i in range(160)]
        series = entropy_series(SampleSet(samples))
        pre = np.array(series.min_entropies[:120])
        post = np.array(series.min_entropies[120:])
        drop = float(np.median(pre) - np.median(post))
        assert drop > 5.0 * float(pre.std())


class TestProportionBandForLength:
    def test_full_experiment_length(self):
        lower, upper = proportion_band_for_length(4_743_168, 0.01)
        assert (upper - lower) / 2 == pytest.approx(5.914e-4, abs=5e-7)
        assert lower == pytest.approx(0.499409, abs=1e-6)
        assert upper == pytest.approx(0.500591, abs=1e-6)

    def test_n_100(self):
        lower, upper = proportion_band_for_length(100, 0.01)
        assert 0.5 - lower == pytest.approx(0.128791, abs=1e-6)

    def test_alpha_to_one_collapses(self):
        lower, upper = proportion_band_for_length(100, 1.0 - 1e-12)
        assert upper - lower < 1e-10

    def test_bisection_oracle(self):
        # invert erfc by bisection, independent of the library inverse
        def halfwidth_oracle(n, alpha):
            lo, hi = mp.mpf(0), mp.mpf(10)
            for _ in range(200):
                mid = (lo + hi) / 2
                if mp.erfc(mid) > alpha:
                    lo = mid
                else:
                    hi = mid
            return float(mp.sqrt(2) * (lo + hi) / 2 / (2 * mp.sqrt(n)))

        for n in (100, 10_000, 4_743_168):
            lower, upper = proportion_band_for_length(n, 0.01)
            assert (upper - lower) / 2 == pytest.approx(
                halfwidth_oracle(n, 0.01), rel=1e-10)

    def test_consistency_with_frequency_test(self):
        # p-hat strictly inside the open band <=> frequency-test p-value > alpha
        alpha = 0.01
        for n in (100, 10_000, 4_743_168):
            lower, upper = proportion_band_for_length(n, alpha)
            edge = round(n * upper)
            for ones in (n // 2, edge - 2, edge - 1, edge, edge + 1, edge + 2):
                if not 0 <= ones <= n:
                    continue
                seq = seq_with_ones(ones, n)
                p = run_test(TestId.FREQUENCY, seq,
                             rs.TestParams(enforce_min_length=False)).p_value
                assert (p > alpha) == (lower < ones / n < upper), (n, ones)

    # At n = 400 and alpha = 0.01 the band's upper edge lies between 225 and 226 ones.
    @pytest.mark.parametrize("extra", [0, 25, 26, 30])
    def test_ones_band_is_the_joined_frequency_test(self, extra):
        sample_set = SampleSet([seq_with_ones(50 + extra * (i == 3), 100, sample_index=i)
                                for i in range(4)])
        lower, upper = proportion_band_for_length(400, 0.01)
        p = run_test(TestId.FREQUENCY, rs.concat_chronological(sample_set)).p_value
        assert rs.ones_band(sample_set, 0.01) == {
            "n": 400, "proportion_of_ones": (200 + extra) / 400, "band_lower": lower,
            "band_upper": upper, "inside": p > 0.01}

    def test_domain(self):
        with pytest.raises(DomainError):
            proportion_band_for_length(0, 0.01)
        with pytest.raises(DomainError):
            proportion_band_for_length(100, 0.0)


class TestDeviationSeries:
    def test_all_ones_maximal_slope(self):
        series = deviation_series(seq_with_ones(16, 16), stride=1)
        assert np.array_equal(series.bit_indices, np.arange(1, 17))
        assert np.array_equal(series.deviations, np.arange(1, 17) / 2.0)

    def test_alternating_bounded(self):
        seq = BitSequence(np.tile([1, 0], 50))
        series = deviation_series(seq, stride=1)
        assert set(series.deviations.tolist()) == {0.0, 0.5}

    def test_unit_steps(self, random_bits):
        seq = random_bits(257, seed=4)
        series = deviation_series(seq, stride=1)
        walk = np.concatenate([[0.0], series.deviations])
        assert np.all(np.abs(np.diff(walk)) == 0.5)

    def test_terminal_identity_exact(self, random_bits):
        for seed in range(5):
            seq = random_bits(1000, seed=seed, p1=0.52)
            series = deviation_series(seq, stride=64)
            assert series.bit_indices[-1] == seq.n
            assert series.deviations[-1] == seq.count_ones() - seq.n / 2.0

    def test_stride_and_final_point(self, random_bits):
        seq = random_bits(100, seed=1)
        series = deviation_series(seq, stride=30)
        assert series.bit_indices.tolist() == [30, 60, 90, 100]
        assert len(series) == 4
        series = deviation_series(seq, stride=25)
        assert series.bit_indices.tolist() == [25, 50, 75, 100]

    def test_biased_walk_matches_binomial_expectation(self):
        # p1 = 0.52 over 10^6 bits: terminal deviation within 3 binomial sigma
        p1, n = 0.52, 10 ** 6
        rng = np.random.Generator(np.random.PCG64(123))
        seq = BitSequence((rng.random(n) < p1).astype(np.uint8))
        series = deviation_series(seq, stride=1000)
        expected = n * (p1 - 0.5)
        sigma = math.sqrt(n * p1 * (1 - p1))
        assert abs(series.deviations[-1] - expected) < 3 * sigma

    def test_errors(self, random_bits):
        with pytest.raises(DomainError):
            deviation_series(random_bits(10, seed=0), stride=0)


class TestCsvWriters:
    def test_entropy_csv(self, tmp_path):
        plan = rs.unbiased_plan(num_qubits=1, samples_per_qubit=5,
                                shots_per_sample=64, master_seed=2)
        series = entropy_series(rs.generate_experiment(plan)[0])
        path = tmp_path / "entropy.csv"
        rs.write_entropy_csv(series, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "sample_index,timestamp,min_entropy,shannon_entropy"
        assert len(lines) == 6
        assert lines[1].startswith("0,2019-01-01T00:00:00+00:00,")

    def test_deviation_csv(self, tmp_path, random_bits):
        series = deviation_series(random_bits(64, seed=3), stride=16)
        path = tmp_path / "dev.csv"
        rs.write_deviation_csv(series, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "bit_index,deviation"
        assert len(lines) == 5

    def test_entropy_csv_bytes_equal_csv_writer(self, tmp_path):
        # Simulated timestamps on rows 0-1, one with microseconds on row 2,
        # None on the rest.
        plan = rs.unbiased_plan(num_qubits=1, samples_per_qubit=6,
                                shots_per_sample=100, master_seed=4)
        samples = list(rs.generate_experiment(plan)[0])
        samples[3:] = [BitSequence(s.asarray(), sample_index=s.sample_index)
                       for s in samples[3:]]
        samples[2] = BitSequence(samples[2].asarray(), sample_index=2,
                                 timestamp=datetime(2020, 2, 29, 23, 59, 58, 123456,
                                                    tzinfo=timezone.utc))
        series = entropy_series(SampleSet(samples, source_id="s"))
        assert series.timestamps[0] is not None and series.timestamps[-1] is None
        path = tmp_path / "entropy.csv"
        rs.write_entropy_csv(series, path)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["sample_index", "timestamp", "min_entropy", "shannon_entropy"])
        for i, ts, h_min, h_sh in zip(series.sample_indices, series.timestamps,
                                      series.min_entropies, series.shannon_entropies):
            writer.writerow([i, ts.isoformat() if ts else "", repr(h_min), repr(h_sh)])
        assert path.read_bytes() == expected.getvalue().encode()

    @pytest.mark.parametrize("n, stride", [(64, 16), (1001, 100), (8192 * 3 + 5, 8192)])
    def test_deviation_csv_bytes_equal_csv_writer(self, tmp_path, random_bits, n, stride):
        series = deviation_series(random_bits(n, seed=n, p1=0.55), stride=stride)
        path = tmp_path / "dev.csv"
        rs.write_deviation_csv(series, path)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["bit_index", "deviation"])
        for i, d in zip(series.bit_indices, series.deviations):
            writer.writerow([int(i), repr(float(d))])
        assert path.read_bytes() == expected.getvalue().encode()
