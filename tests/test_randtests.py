"""Worked-example goldens, independent oracles, and invariants of the eight tests."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import randsuite as rs
from randsuite import randtests as R
from randsuite import BitSequence, TestId, TestParams, run_test
from randsuite.errors import (
    BlockTooLarge,
    DomainError,
    EmptySequence,
    PatternTooLong,
    SampleTooShort,
)
from randsuite.randtests import _cusum_pvalue, _longest_run_finish

import reference

mp.mp.dps = 40

RELAXED = TestParams(enforce_min_length=False)


def seeded_bits(n, seed=0, p1=0.5):
    rng = np.random.Generator(np.random.PCG64(seed))
    return BitSequence((rng.random(n) < p1).astype(np.uint8))


class TestFrequency:
    def test_worked_example(self, bits):
        out = run_test(TestId.FREQUENCY, bits("1001100010"), RELAXED)
        assert out.statistic == pytest.approx(0.632455, abs=1e-6)
        assert out.p_value == pytest.approx(0.527089, abs=1e-6)
        assert out.passed

    def test_perfectly_balanced(self, bits):
        out = run_test(TestId.FREQUENCY, bits("01" * 50))
        assert out.statistic == 0.0
        assert out.p_value == 1.0
        assert out.passed

    def test_all_ones_fails(self, bits):
        out = run_test(TestId.FREQUENCY, bits("1" * 100))
        assert out.statistic == 10.0
        oracle = float(mp.erfc(10 / mp.sqrt(2)))
        assert out.p_value == pytest.approx(oracle, rel=1e-10)
        assert out.p_value == pytest.approx(1.5e-23, rel=0.05)
        assert not out.passed

    def test_min_length(self, bits):
        with pytest.raises(SampleTooShort):
            run_test(TestId.FREQUENCY, bits("1" * 99))
        run_test(TestId.FREQUENCY, bits("1" * 99), RELAXED)  # allowed when relaxed

    def test_empty_sequence_when_relaxed(self):
        with pytest.raises(EmptySequence, match="^a BitSequence needs at least one bit$"):
            BitSequence([])
        with pytest.raises(DomainError, match="^n must be >= 1, got 0$"):
            rs.run_batch(np.zeros((1, 0), np.uint8), 0, (TestId.FREQUENCY,), RELAXED)


class TestBlockFrequency:
    def test_worked_example(self, bits):
        out = run_test(TestId.BLOCK_FREQUENCY, bits("1001100010"),
                       TestParams(enforce_min_length=False, block_size_m=3))
        assert out.statistic == 1.0  # exact
        assert out.p_value == pytest.approx(0.801252, abs=1e-6)
        assert out.params["num_blocks"] == 3
        assert out.params["discarded_bits"] == 1

    def test_alternating_blocks_balanced(self, bits):
        out = run_test(TestId.BLOCK_FREQUENCY, bits("01" * 50), TestParams(block_size_m=10))
        assert out.statistic == 0.0
        assert out.p_value == 1.0

    def test_half_ones_half_zeros_fails(self, bits):
        out = run_test(TestId.BLOCK_FREQUENCY, bits("1" * 50 + "0" * 50),
                       TestParams(block_size_m=10))
        assert out.statistic == 100.0  # 4*10*(10*0.25)
        oracle = float(mp.gammainc(5, 50, mp.inf, regularized=True))
        assert out.p_value == pytest.approx(oracle, rel=1e-10)
        assert not out.passed

    def test_block_too_large(self, bits):
        with pytest.raises(BlockTooLarge):
            run_test(TestId.BLOCK_FREQUENCY, bits("1" * 100), TestParams(block_size_m=101))


class TestRuns:
    def test_worked_example(self, bits):
        out = run_test(TestId.RUNS, bits("1010110001"), RELAXED)
        assert out.statistic == 7.0
        assert out.p_value == pytest.approx(0.21, abs=0.005)
        assert out.passed

    def test_prerequisite_failure_is_exact_zero(self, bits):
        out = run_test(TestId.RUNS, bits("1" * 100))
        assert out.p_value == 0.0
        assert not out.passed
        assert out.params["prerequisite_ok"] is False

    def test_alternating_oscillates_too_much(self, bits):
        out = run_test(TestId.RUNS, bits("01" * 50))
        assert out.statistic == 100.0
        oracle = float(mp.erfc(50 / (2 * mp.sqrt(200) * mp.mpf("0.25"))))
        assert out.p_value == pytest.approx(oracle, rel=1e-10)
        assert not out.passed

    def test_prerequisite_boundary(self):
        # exactly |pi - 0.5| == 2/sqrt(n) must already fail the prerequisite
        n = 64
        ones = n // 2 + int(2 / math.sqrt(n) * n)  # pi = 0.5 + 0.25 at n=64
        seq = BitSequence([1] * ones + [0] * (n - ones))
        out = run_test(TestId.RUNS, seq, RELAXED)
        assert out.p_value == 0.0


class TestLongestRun:
    def test_reference_longest_runs_basics(self):
        def longest(text):
            return reference.longest_runs(np.array([[int(c) for c in text]], np.uint8))[0]

        assert longest("11110000") == 4
        assert longest("00000000") == 0
        assert longest("10110111") == 3
        assert longest("1") == 1
        assert longest("0111111111") == 9
        # runs that cross byte boundaries
        assert longest("0" * 5 + "1" * 20 + "0" * 7) == 20
        assert longest("1" * 17) == 17
        assert longest("0000000111111110") == 8
        assert longest("") == 0
        assert reference.longest_runs(np.ones((1, 10**6), np.uint8)).tolist() == [10**6]
        # Each row is a block of its own: a run does not continue into the next row.
        blocks = np.array([[0, 1, 1, 1], [1, 1, 0, 0], [0, 0, 0, 0], [1, 0, 1, 1]], np.uint8)
        assert reference.longest_runs(blocks).tolist() == [3, 2, 0, 2]

    def test_worked_example_statistic(self):
        [chi2], [p], record = _longest_run_finish(
            {"class_counts": np.array([[6, 10, 10, 7, 7, 9]])}, 6272, TestParams())
        assert (record["block_size_m"], record["num_classes_k"]) == (128, 5)
        assert chi2 == pytest.approx(3.994459, abs=1e-6)
        assert p == pytest.approx(0.550214, abs=1e-6)

    def test_classification_m8(self, bits):
        # sixteen blocks of "11000000": every longest run is 2 -> class v1
        out = run_test(TestId.LONGEST_RUN, bits("11000000" * 16))
        assert out.params["block_size_m"] == 8
        assert out.params["num_blocks"] == 16
        assert out.params["class_counts"] == [0, 16, 0, 0]

    def test_all_zeros_fails(self, bits):
        out = run_test(TestId.LONGEST_RUN, bits("0" * 6272))
        assert out.params["block_size_m"] == 128
        assert out.params["class_counts"] == [49, 0, 0, 0, 0, 0]
        # SP 800-22 2.4.4 (4) at M = 128: chi2 = sum (v_i - N pi_i)^2 / (N pi_i), N = 49.
        pis = (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)
        expected_chi2 = sum((v - 49 * pi) ** 2 / (49 * pi)
                            for v, pi in zip((49, 0, 0, 0, 0, 0), pis))
        assert out.statistic == pytest.approx(expected_chi2, rel=1e-12)
        assert out.statistic == pytest.approx(368.376, abs=1e-3)
        assert not out.passed

    def test_sample_length_selects_m128_and_discards(self):
        out = run_test(TestId.LONGEST_RUN, seeded_bits(8192, seed=1))
        assert out.params["block_size_m"] == 128
        assert out.params["num_blocks"] == 49
        assert out.params["discarded_bits"] == 1920

    def test_too_short_even_when_relaxed(self, bits):
        with pytest.raises(SampleTooShort):
            run_test(TestId.LONGEST_RUN, bits("1" * 127), RELAXED)


class TestDft:
    def test_worked_example_sequence(self, bits):
        # The procedure yields N_obs=5 (p=0.468160) on this classic sequence;
        # the value N_obs=4 (p~0.0318) that circulates with it is a known
        # erratum in its source and is not reproducible from the definition.
        out = run_test(TestId.DFT, bits("1001010011"), RELAXED)
        assert out.params["n_ideal"] == 4.75
        assert out.params["n_obs"] == 5
        assert out.p_value == pytest.approx(0.468160, abs=1e-6)
        _, oracle_n_obs, oracle_p = reference.dft_direct([1, 0, 0, 1, 0, 1, 0, 0, 1, 1])
        assert out.params["n_obs"] == oracle_n_obs
        assert out.p_value == pytest.approx(oracle_p, rel=1e-9)

    def test_exact_ideal_count_gives_p_one(self):
        # d == 0 path, synthesized via the statistic helper
        assert rs.erfc(0.0) == 1.0

    def test_alternating_has_nyquist_peak_only(self):
        seq = BitSequence(np.tile([1, 0], 512))
        out = run_test(TestId.DFT, seq)
        moduli, oracle_n_obs, oracle_p = reference.dft_direct(seq.asarray())
        # all spectral mass sits at the (excluded) Nyquist bin
        assert np.all(moduli < 1e-6)
        assert out.params["n_obs"] == 512 == oracle_n_obs
        assert out.p_value == pytest.approx(oracle_p, rel=1e-9, abs=1e-300)
        assert not out.passed

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_matches_direct_oracle_on_random_input(self, seed):
        seq = seeded_bits(1024, seed=seed)
        out = run_test(TestId.DFT, seq)
        moduli, oracle_n_obs, oracle_p = reference.dft_direct(seq.asarray())
        fast = reference.dft_moduli(seq.asarray()[None])[0]
        assert np.allclose(fast, moduli, rtol=1e-9, atol=1e-9)
        assert out.params["n_obs"] == oracle_n_obs
        assert out.p_value == pytest.approx(oracle_p, rel=1e-9)

    def test_odd_length_uses_floor_half(self, bits):
        seq = seeded_bits(1001, seed=9)
        out = run_test(TestId.DFT, seq)
        assert out.params["n_ideal"] == 0.95 * 1001 / 2
        # floor(1001/2) = 500 moduli examined: bins 0..499
        assert reference.dft_moduli(seq.asarray()[None]).shape == (1, 500)
        assert out.params["n_obs"] == reference.dft_n_obs(seq.asarray()[None])[0]

    def test_min_length(self):
        with pytest.raises(SampleTooShort):
            run_test(TestId.DFT, seeded_bits(999))


class TestApproxEntropy:
    def test_worked_example(self, bits):
        out = run_test(TestId.APPROX_ENTROPY, bits("1011010010"),
                       TestParams(enforce_min_length=False, pattern_len_m=3))
        assert out.params["phi_m"] == pytest.approx(-1.643418, abs=1e-6)
        assert out.params["phi_m1"] == pytest.approx(-2.025326, abs=1e-6)
        assert out.statistic == pytest.approx(6.224774, abs=1e-6)
        assert out.p_value == pytest.approx(0.622069, abs=1e-6)
        assert out.passed

    def test_all_zeros_constant_pattern(self, bits):
        n = 100
        out = run_test(TestId.APPROX_ENTROPY, bits("0" * n))
        assert out.params["phi_m"] == 0.0
        assert out.params["phi_m1"] == 0.0
        assert out.statistic == pytest.approx(2 * n * math.log(2), rel=1e-12)
        assert out.p_value < 1e-20
        assert not out.passed

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_bruteforce_oracle(self, m, seed):
        seq = seeded_bits(64, seed=seed)
        out = run_test(TestId.APPROX_ENTROPY, seq,
                       TestParams(enforce_min_length=False, pattern_len_m=m))
        vals = list(seq.asarray())
        assert out.params["phi_m"] == pytest.approx(reference.apen_phi(vals, m), rel=1e-12)
        assert out.params["phi_m1"] == pytest.approx(reference.apen_phi(vals, m + 1), rel=1e-12)

    def test_pattern_too_long(self):
        seq = seeded_bits(128, seed=2)
        with pytest.raises(PatternTooLong) as exc:
            # floor(log2(128)) - 1 = 6
            run_test(TestId.APPROX_ENTROPY, seq, TestParams(pattern_len_m=6))
        assert str(exc.value) == ("pattern length 6 is too long for meaningful results at "
                                  "n=128 (need m < floor(log2(n)) - 1)")
        # 2^17 patterns exceed max(n, 2^16) too; the minimum-length rule is named first.
        with pytest.raises(PatternTooLong) as exc:
            run_test(TestId.APPROX_ENTROPY, seeded_bits(8192, seed=2),
                     TestParams(pattern_len_m=16))
        assert str(exc.value) == ("pattern length 16 is too long for meaningful results at "
                                  "n=8192 (need m < floor(log2(n)) - 1)")
        run_test(TestId.APPROX_ENTROPY, seq, TestParams(pattern_len_m=6, enforce_min_length=False))
        with pytest.raises(PatternTooLong):
            run_test(TestId.APPROX_ENTROPY, seq,
                     TestParams(pattern_len_m=128, enforce_min_length=False))


class TestCusum:
    def test_worked_example_both_modes(self, bits):
        fwd = run_test(TestId.CUSUM_FORWARD, bits("1011010010"), RELAXED)
        bwd = run_test(TestId.CUSUM_BACKWARD, bits("1011010010"), RELAXED)
        assert fwd.statistic == 2.0
        assert bwd.statistic == 2.0
        assert fwd.p_value == pytest.approx(0.941740, abs=1e-6)
        assert bwd.p_value == pytest.approx(0.941740, abs=1e-6)

    def test_all_ones_maximal_excursion(self, bits):
        out = run_test(TestId.CUSUM_FORWARD, bits("1" * 100))
        assert out.statistic == 100.0
        assert out.p_value < 1e-20
        assert not out.passed
        # independent evaluation of the same tail expression via mpmath
        z, n = 100, 100
        total = mp.mpf(1)
        for k in range(0, 1):
            total -= mp.ncdf((4 * k + 1) * z / mp.sqrt(n)) - mp.ncdf((4 * k - 1) * z / mp.sqrt(n))
        for k in range(-1, 1):
            total += mp.ncdf((4 * k + 3) * z / mp.sqrt(n)) - mp.ncdf((4 * k + 1) * z / mp.sqrt(n))
        assert out.p_value == pytest.approx(float(total), rel=1e-6)

    def test_walk_that_never_leaves_one(self, bits):
        # z = 1: the series alone exceeds 1 for n = 3..48
        for seq in (bits("0110100101101001"), bits("01" * 8), bits("10" * 500)):
            for test_id in (TestId.CUSUM_FORWARD, TestId.CUSUM_BACKWARD):
                out = run_test(test_id, seq, RELAXED)
                assert (out.statistic, out.p_value) == (1.0, 1.0)
        assert all(_cusum_pvalue(n, 1) == 1.0 for n in range(1, 64))

    @given(data=st.binary(min_size=2, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_forward_equals_backward_of_reversed(self, data):
        values = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        fwd = run_test(TestId.CUSUM_FORWARD, BitSequence(values), RELAXED)
        bwd = run_test(TestId.CUSUM_BACKWARD, BitSequence(values[::-1]), RELAXED)
        assert fwd.statistic == bwd.statistic
        assert fwd.p_value == bwd.p_value


ADVERSARIAL = [
    "0" * 1000,
    "1" * 1000,
    "01" * 500,
    "0011" * 250,
    "1" * 500 + "0" * 500,
    "1" + "0" * 999,
    ("10010" * 200),
]


class TestSharedInvariants:
    @pytest.mark.parametrize("pattern", ADVERSARIAL)
    @pytest.mark.parametrize("test_id", list(TestId))
    def test_p_values_in_unit_interval_adversarial(self, bits, pattern, test_id):
        out = run_test(test_id, bits(pattern), RELAXED)
        assert 0.0 <= out.p_value <= 1.0
        assert math.isfinite(out.statistic)

    @given(data=st.binary(min_size=125, max_size=512))
    @settings(max_examples=40, deadline=None)
    def test_p_values_in_unit_interval_fuzz(self, data):
        seq = BitSequence(np.unpackbits(np.frombuffer(data, dtype=np.uint8)))
        for test_id in TestId:
            out = run_test(test_id, seq, TestParams())
            assert 0.0 <= out.p_value <= 1.0

    @pytest.mark.parametrize("test_id", list(TestId))
    def test_purity(self, test_id):
        seq = seeded_bits(2048, seed=11)
        a = run_test(test_id, seq)
        b = run_test(test_id, BitSequence(seq.asarray()))
        assert a == b

    def test_test_id_prints_as_its_value(self):
        assert str(TestId.DFT) == f"{TestId.DFT}" == "dft"
        assert [str(test_id) for test_id in TestId] == [test_id.value for test_id in TestId]

    def test_passed_flag_matches_alpha(self):
        seq = seeded_bits(4096, seed=12)
        for test_id in TestId:
            strict = run_test(test_id, seq, TestParams(alpha=0.5))
            loose = run_test(test_id, seq, TestParams(alpha=1e-9))
            assert strict.passed == (strict.p_value >= 0.5)
            assert loose.passed == (loose.p_value >= 1e-9)
            assert strict.params["alpha"] == 0.5

    def test_monotone_bias_sensitivity(self):
        # frequency-test pass proportion is non-increasing in |p1 - 0.5|
        proportions = []
        for j, p1 in enumerate((0.50, 0.51, 0.52, 0.55)):
            rng = np.random.Generator(np.random.PCG64(1000 + j))
            passes = 0
            for _ in range(500):
                seq = BitSequence((rng.random(8192) < p1).astype(np.uint8))
                passes += run_test(TestId.FREQUENCY, seq).passed
            proportions.append(passes / 500)
        assert all(b <= a for a, b in zip(proportions, proportions[1:])), proportions


class TestUniformSourceLaw:
    """Over 1000 ideal-uniform samples of 8192 bits, every test's pass
    proportion sits in the 0.99 +/- 0.0094 band and (except the spectral
    test, whose statistic is known not to converge to the reference normal
    at this sample length) the p-values pass the uniformity check."""

    def test_uniform_source_law(self):
        plan = rs.unbiased_plan(num_qubits=1, samples_per_qubit=1000,
                                shots_per_sample=8192, master_seed=42)
        sample_set = rs.generate_experiment(plan)[0]
        report = rs.run_suite(sample_set)
        band = rs.proportion_band(0.01, 1000)
        assert band.halfwidth == pytest.approx(0.0094, abs=1e-4)
        for test_id, agg in report.per_test.items():
            assert band.lower < agg.pass_proportion <= band.upper, test_id
            if test_id is not TestId.DFT:
                assert agg.uniformity_ok, (test_id, agg.uniformity_p)


def equivalence_set(n):
    """Enough samples to fill one kernel chunk and spill into the next.

    Degenerate rows sit at the start (all zeros), on both sides of the
    chunk boundary (all ones last in the first chunk, then alternating,
    then a 20 % ones row that fails the runs prerequisite) and at the end
    (alternating from 1).  Returns the set and the rows per chunk.
    """
    per_chunk = max(1, rs.randtests._CHUNK_BITS // n)
    count = per_chunk + 5
    rng = np.random.Generator(np.random.PCG64(n))
    rows = (rng.random((count, n)) < 0.5).astype(np.uint8)
    alternating = np.arange(n, dtype=np.uint8) % 2
    specials = [np.zeros(n, np.uint8), np.ones(n, np.uint8), alternating,
                (rng.random(n) < 0.2).astype(np.uint8), 1 - alternating]
    for pos, row in zip([0, per_chunk - 1, per_chunk, per_chunk + 1, count - 1], specials):
        rows[pos] = row
    return rs.SampleSet([BitSequence(r, sample_index=i) for i, r in enumerate(rows)]), per_chunk


def assert_batch_matches_single(sample_set, params, tests=tuple(TestId)):
    report = rs.run_suite(sample_set, rs.SuiteConfig(params=params, tests=tests))
    for test_id, agg in report.per_test.items():
        for seq, statistic, p, passed in zip(sample_set, agg.statistics.tolist(),
                                             agg.p_values.tolist(), agg.passed.tolist()):
            single = run_test(test_id, seq, params)
            assert (single.statistic, single.p_value, single.passed) == \
                (statistic, p, passed), (test_id, seq.sample_index)
    return report


class TestBatchKernels:
    """The suite's batch rows equal the single-sequence results exactly."""

    @pytest.mark.parametrize("n", [128, 1000, 1001, 8191, 8192, 40000, 1 << 20])
    def test_batch_rows_equal_single_sequence(self, n):
        sample_set, per_chunk = equivalence_set(n)
        report = assert_batch_matches_single(sample_set, RELAXED)
        bits = np.stack([s.asarray() for s in sample_set])
        # Independent references for the integer statistics.
        stats = {t: report.per_test[t].statistics for t in TestId}
        assert np.array_equal(stats[TestId.CUSUM_FORWARD], reference.cusum_z(bits, "forward"))
        assert np.array_equal(stats[TestId.CUSUM_BACKWARD], reference.cusum_z(bits, "backward"))
        assert np.array_equal(stats[TestId.RUNS], reference.runs(bits))
        # The all-ones row walks to S_n = n: past int16 when n = 40000.
        ones = per_chunk - 1
        assert stats[TestId.CUSUM_FORWARD][ones] == stats[TestId.CUSUM_BACKWARD][ones] == n
        assert report.per_test[TestId.RUNS].p_values[per_chunk + 1] == 0.0

    @pytest.mark.parametrize("n", [128, 8192, 40000])
    def test_longest_run_classes_match_reference(self, n):
        sample_set, per_chunk = equivalence_set(n)
        for seq in list(sample_set)[:4] + list(sample_set)[per_chunk - 2:]:
            out = run_test(TestId.LONGEST_RUN, seq, RELAXED)
            expected = reference.longest_run_class_counts(seq.asarray()[None])[0]
            assert out.params["class_counts"] == expected.tolist()

    # m = 5 and 6 straddle the switch from byte keys to bit-by-bit counting,
    # and m = 15 is the largest accepted at n = 1001: 2^16 patterns.  From
    # m = 16 the 2^(m+1) patterns exceed max(n, 2^16).
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 8, 15, 16, 24])
    def test_approx_entropy_pattern_lengths(self, m):
        sample_set, _ = equivalence_set(1001)
        params = TestParams(enforce_min_length=False, pattern_len_m=m)
        if m >= 16:
            with pytest.raises(PatternTooLong, match=r"exceed max\(n, 2\^16\)"):
                run_test(TestId.APPROX_ENTROPY, sample_set[2], params)
            return
        assert_batch_matches_single(sample_set, params, tests=(TestId.APPROX_ENTROPY,))
        seq = sample_set[2]
        vals = list(seq.asarray())
        out = run_test(TestId.APPROX_ENTROPY, seq, params)
        assert out.params["phi_m"] == pytest.approx(reference.apen_phi(vals, m), rel=1e-12)
        assert out.params["phi_m1"] == pytest.approx(reference.apen_phi(vals, m + 1), rel=1e-12)


def workspace(rows, n):
    """A workspace as run_batch sizes it for chunks of ``rows`` n-bit rows."""
    return R._Workspace(rows, n, R._four_step_split(n))


def chunk_rows(samples, n):
    """One kernel chunk of every sample in ``samples``."""
    return R._Rows(np.stack([s.packed for s in samples]), n, workspace(len(samples), n))


def spy_on_transforms(monkeypatch):
    """In call order, ("float32" or "float64", rows) for each later single
    transform and ("four_step", 1) for each later four-step one."""
    calls, single, four_step = [], R._dft_single, R._dft_four_step

    def spy_single(bits, work, limit, dtype, guard):
        calls.append((np.dtype(dtype).name, len(bits)))
        return single(bits, work, limit, dtype, guard)

    def spy_four_step(row, work, limit, n2):
        calls.append(("four_step", 1))
        return four_step(row, work, limit, n2)

    monkeypatch.setattr(R, "_dft_single", spy_single)
    monkeypatch.setattr(R, "_dft_four_step", spy_four_step)
    return calls


def structured_rows(n):
    """Rows whose energy sits in a few bins: constant, periodic and single-run ones."""
    j = np.arange(n)
    return np.array([np.zeros(n), np.ones(n), j % 2, j % 3 == 0,
                     j % 16 < 8, j % 64 < 32], dtype=np.uint8)


class TestPackedDomainKernels:
    """The byte-at-a-time kernels against references over unpacked bits."""

    # The all-ones row walks to S_n = n: the int16 maximum at 32767, one
    # past it at 32768.
    @pytest.mark.parametrize("n", [100, 1001, 8191, 8192, 32767, 32768, 40000])
    def test_packed_walk_equals_unpacked_cumsum(self, n):
        rng = np.random.Generator(np.random.PCG64(n))
        rows = (rng.random((6, n)) < 0.5).astype(np.uint8)
        rows[1] = 1
        rows[2] = 0
        rows[3, -1] = 1  # the last bit: in a partly filled byte unless 8 divides n
        rows[4] = (rng.random(n) < 0.55)
        rows[5] = (rng.random(n) < 0.45)
        sums = reference.partial_sums(rows)
        samples = [BitSequence(r) for r in rows]
        end, low, high = chunk_rows(samples, n).walk
        assert np.array_equal(end, sums[:, -1])
        assert np.array_equal(low, sums.min(axis=1))
        assert np.array_equal(high, sums.max(axis=1))

    def test_walk_accumulator_is_the_narrowest_that_holds_n(self):
        assert R._accumulator(2 ** 15 - 1) is np.int16
        assert R._accumulator(2 ** 15) is np.int32
        assert R._accumulator(2 ** 31 - 1) is np.int32
        assert R._accumulator(2 ** 31) is np.int64

    @pytest.mark.parametrize("n,block", [(1000, 8), (8192, 128), (750000, 10000)])
    def test_and_shift_classes_equal_per_block_longest_runs(self, n, block):
        rng = np.random.Generator(np.random.PCG64(block))
        rows = (rng.random((6, n)) < 0.5).astype(np.uint8)
        # Runs of 2..20 ones that start mid-byte, some across a block end.
        for start in rng.integers(0, n - 20, size=n // 50):
            rows[0, start:start + rng.integers(2, 21)] = 1
        for end in range(block, n - 8, block):
            rows[1, end - 3:end + 3] = 1
        rows[2] = 1
        # Blocks are shifted as words of gcd(M/8, 8) bytes.  Row 3 has runs
        # across each word boundary, row 4 runs of exactly each class edge
        # (one run per block, after a zero), row 5 all-ones blocks between
        # all-zero ones.
        word = 8 * math.gcd(block // 8, 8)
        for boundary in range(word, n - 12, word * 3):
            rows[3, boundary - 5:boundary + 6] = 1
            rows[3, boundary - 6] = rows[3, boundary + 6] = 0
        _, _, k, _, edge, _ = R._longest_run_config(n)
        rows[4] = 0
        for b, start in enumerate(range(0, n - block + 1, block)):
            length = edge + b % (k + 1)
            rows[4, start + 1:start + 1 + length] = 1
        rows[5] = np.arange(n) // block % 2
        samples = [BitSequence(r) for r in rows]
        assert R._longest_run_config(n)[1] == block
        counts = R._longest_run_count(chunk_rows(samples, n), RELAXED)["class_counts"]
        for row, expected in zip(counts, reference.longest_run_class_counts(rows)):
            assert row.tolist() == expected.tolist()

    @pytest.mark.parametrize("n", [100, 1001, 8192])
    def test_memoised_cusum_pvalue_equals_direct(self, n):
        for z in range(2, n + 1):
            assert _cusum_pvalue(n, z) == _cusum_pvalue.__wrapped__(n, z), z

    @pytest.mark.parametrize("n", [100, 1001, 8192])
    def test_cusum_pvalue_equals_scipy_ndtr_expression(self, n):
        # The tail sums written against scipy.special.ndtr directly: pins the
        # route through special.normal_cdf, which __wrapped__ shares.
        from scipy.special import ndtr

        def direct(n, z):
            sqrt_n = math.sqrt(n)
            hi = math.floor((n / z - 1) / 4)
            k1 = np.arange(math.floor((-n / z + 1) / 4), hi + 1, dtype=np.float64)
            k2 = np.arange(math.floor((-n / z - 3) / 4), hi + 1, dtype=np.float64)
            term1 = (ndtr((4 * k1 + 1) * z / sqrt_n)
                     - ndtr((4 * k1 - 1) * z / sqrt_n)).sum() if k1.size else 0.0
            term2 = (ndtr((4 * k2 + 3) * z / sqrt_n)
                     - ndtr((4 * k2 + 1) * z / sqrt_n)).sum() if k2.size else 0.0
            return 1.0 - float(term1) + float(term2)

        for z in sorted({2, 3, 7, n // 40, n // 10, n // 4, n // 3 + 1, n // 2, n - 1, n}):
            assert _cusum_pvalue(n, z) == direct(n, z), z

    @pytest.mark.parametrize("n", [1001, 8192])
    def test_chunked_batch_equals_one_row_calls(self, n):
        # Two full chunks and a short third; the workspace is reused by all.
        per_chunk = max(1, R._CHUNK_BITS // n)
        rng = np.random.Generator(np.random.PCG64(n + 1))
        rows = (rng.random((2 * per_chunk + 3, n)) < 0.5).astype(np.uint8)
        samples = [BitSequence(r) for r in rows]
        batches = R.run_batch(np.packbits(rows, axis=1), n, params=RELAXED)
        for test_id, batch in batches.items():
            for i in (0, per_chunk - 1, per_chunk, 2 * per_chunk - 1, 2 * per_chunk,
                      len(samples) - 1):
                single = run_test(test_id, samples[i], RELAXED)
                assert (single.statistic, single.p_value, single.passed) == (
                    batch.statistics[i], batch.p_values[i], batch.passed[i]), (test_id, i)
                for key, value in batch.record.items():
                    if isinstance(value, np.ndarray):
                        assert single.params[key] == value[i].tolist(), (test_id, key, i)

    def test_run_batch_rejects_a_matrix_of_another_shape(self):
        packed = np.zeros((3, 1024), dtype=np.uint8)
        for bad in (packed[:, 1:], np.zeros((3, 1025), np.uint8), packed[:0], packed[0],
                    packed[None], np.array(0, np.uint8)):
            with pytest.raises(DomainError, match="packed needs shape"):
                R.run_batch(bad, 8192)

    def test_run_batch_rejects_what_it_cannot_count(self):
        zeros = np.zeros((1, 126), dtype=np.uint8)
        for bad in (zeros.astype(np.int64), zeros.astype(bool), zeros.astype(np.int8),
                    zeros.astype(np.float64), zeros.tolist()):
            with pytest.raises(DomainError, match="packed must be a uint8 ndarray"):
                R.run_batch(bad, 1001)
        # A 1001-bit row ends in 7 padding bits; each one is checked.
        for bit in range(7):
            padded = zeros.copy()
            padded[0, -1] = 1 << bit
            with pytest.raises(DomainError, match="nonzero padding bits after bit 1001"):
                R.run_batch(padded, 1001)
        zeros[0, -1] = 0x80  # bit 1000, the row's last
        batch = R.run_batch(zeros, 1001, (TestId.FREQUENCY,))[TestId.FREQUENCY]
        assert batch.record["partial_sum"].tolist() == [2 - 1001]

    # Up to the four-step cutoff, from it, at 2^20 and 10^6 (n1 = 1024 and
    # 1000), and at 144000 = 375 * 384 (odd n1).
    @pytest.mark.parametrize("n", [1000, 1001, 8192, R._FOUR_STEP_MIN_N - 1,
                                   R._FOUR_STEP_MIN_N, 144000, 1 << 20, 10 ** 6])
    def test_half_scale_spectrum_counts_equal_unit_scale(self, n):
        rng = np.random.Generator(np.random.PCG64(n + 2))
        rows = (rng.random((8, n)) < rng.uniform(0.3, 0.7, (8, 1))).astype(np.uint8)
        rows[0] = np.arange(n) % 2
        rows[1] = (np.arange(n) // 3) % 2
        rows[2] = 0
        samples = [BitSequence(r) for r in rows]
        assert np.array_equal(R._dft_count(chunk_rows(samples, n), RELAXED)["n_obs"],
                              reference.dft_n_obs(rows))

    @pytest.mark.parametrize("n,n2", [(R._FOUR_STEP_MIN_N - 2, None), (1 << 17, 256),
                                      (1 << 20, 1024), (10 ** 6, 1000), (144000, 384),
                                      (2 * 3 ** 11, 486), (2 * 131101, None)])
    def test_four_step_split(self, n, n2):
        # The even divisor nearest sqrt(n) with both factors >= 64; 131101 is prime.
        assert R._four_step_split(n) == n2

    @pytest.mark.parametrize("n", [R._FOUR_STEP_MIN_N, 144000])
    def test_four_step_guard_recounts_at_the_threshold(self, n, monkeypatch):
        rng = np.random.Generator(np.random.PCG64(n + 3))
        bits = (rng.random((3, n)) < 0.5).astype(np.uint8)
        moduli = 0.5 * reference.dft_moduli(bits)
        # The limit is one of row 1's moduli, so its four-step count could
        # differ from the single transform's by that one bin.
        limit = moduli[1, n // 7]
        calls = spy_on_transforms(monkeypatch)
        n_obs = R._dft_n_obs(bits, workspace(3, n), limit)
        assert n_obs.tolist() == np.count_nonzero(moduli < limit, axis=1).tolist()
        assert calls == [("four_step", 1)] * 3 + [("float64", 1)]

    @pytest.mark.parametrize("n", [R._FOUR_STEP_MIN_N, 144000])
    def test_four_step_multi_row_chunks_equal_single_transform(self, n):
        # Two rows per chunk, as run_batch stacks them at 2^17, each row
        # transformed in the chunk's workspace; 144000 has the odd n1 = 375.
        # No random row comes near the guard band.
        rng = np.random.Generator(np.random.PCG64(n + 4))
        bits = (rng.random((4, n)) < 0.5).astype(np.uint8)
        n2, limit = R._four_step_split(n), 0.5 * R._dft_threshold(n)
        for chunk in (bits[:2], bits[2:]):
            work = workspace(2, n)
            counts = [R._dft_four_step(row, work, limit, n2) for row in chunk]
            assert [unsure for _, unsure in counts] == [False, False]
            assert [n_obs for n_obs, _ in counts] == reference.dft_n_obs(chunk).tolist()

    # n1 = 512 is four blocks, 375 ends in a partial one, 1024 is eight.
    @pytest.mark.parametrize("n,n1", [(1 << 17, 512), (144000, 375), (1 << 20, 1024)])
    def test_twiddle_factors_multiply_to_the_transposed_input_table(self, n, n1):
        outer, inner = R._twiddle_factors(n, n1)
        block, width = R._FOUR_STEP_BLOCK, n // n1 // 2 + 1
        assert outer.shape == (-(-n1 // block), width) and inner.shape == (block, width)
        assert not outer.flags.writeable and not inner.flags.writeable
        b, c = np.meshgrid(np.arange(n1), np.arange(width), indexing="ij")
        products = outer[b // block, c] * inner[b % block, c]
        assert np.allclose(products, np.exp(-2j * np.pi * b * c / n), rtol=0, atol=1e-12)

    # Periodic, constant and single-run rows put their energy in a few bins.
    # From 2^17 on they take the four-step transform, in run_batch's chunks:
    # two rows per chunk at 2^17 (n1 = 512), a partial last block at 144000
    # (n1 = 375), and 10^6.
    @pytest.mark.parametrize("n", [1001, 8190, 8192, R._FLOAT32_MAX_N, 1 << 15, 1 << 16,
                                   1 << 17, 144000, 10 ** 6])
    def test_structured_rows_count_as_the_single_transform(self, n):
        bits = structured_rows(n)
        limit = 0.5 * R._dft_threshold(n)
        expected = reference.dft_n_obs(bits)
        single, _ = R._dft_single(bits, R._Workspace(len(bits), n, None), limit, np.float64, 0.0)
        assert single.tolist() == expected.tolist()
        step = max(1, R._CHUNK_BITS // n)
        work = workspace(step, n)
        n_obs = [R._dft_n_obs(bits[i:i + step], work, limit) for i in range(0, len(bits), step)]
        assert np.concatenate(n_obs).tolist() == expected.tolist()

    # At 2^17 a chunk holds two samples, and a block of 128 of the 512 rows
    # of a sample's transposed view is 2 bytes per bit of the sample.
    @pytest.mark.parametrize("n,rows,block", [(1 << 20, 1, 1), (1 << 17, 2, 2)])
    def test_spectral_count_takes_bounded_memory(self, n, rows, block):
        import tracemalloc

        packed = np.packbits(seeded_bits(rows * n, seed=10).asarray().reshape(rows, n), axis=1)
        R.run_batch(packed, n, (TestId.DFT,))  # the twiddle factors are cached here
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            R.run_batch(packed, n, (TestId.DFT,))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # The chunk's bits (1 byte per bit) and one sample's spectrum (8 per
        # bit of a sample) are needed, and one block of the sample's
        # transposed input; numpy's buffer for the broadcast twiddle product
        # is 128 KB.  Holding both samples' spectra took 23 bytes per bit of
        # a sample at 2^17.
        assert peak < rows * n + (9 + block) * n + (1 << 18)

    # One 2^20-bit row, a chunk of its own, and one full chunk of 32 rows of
    # 8192 bits.  With all eight tests the peak is 10.43 and 19.03 bytes per
    # bit: the spectral workspace is 9 bytes per bit at 2^20 (the spectrum
    # and a block) and 16 at 8192 (the scratch and the spectrum).  Any other
    # chunk-sized copy held across kernels, such as the unpacked bits at one
    # byte per bit (11.43 and 20.03), exceeds the bounds.
    @pytest.mark.parametrize("rows,n,per_bit", [(1, 1 << 20, 10.9), (32, 8192, 19.5)])
    def test_battery_takes_bounded_memory(self, rows, n, per_bit):
        import tracemalloc

        packed = np.packbits(seeded_bits(rows * n, seed=12).asarray().reshape(rows, n), axis=1)
        R.run_batch(packed, n)  # SciPy, the tables and the cusum p-values are cached here
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            R.run_batch(packed, n)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < per_bit * rows * n


class TestFloat32Spectrum:
    """The float32 transform's guarded counts against the float64 single transform."""

    def test_guarded_count_flags_moduli_inside_the_band(self):
        g, limit = 1e-3, 10.0
        moduli = np.array([[9.0, 10.0 * (1 - 2 * g), 11.0],       # counted, not flagged
                           [9.0, 10.0 * (1 - g / 2), 11.0],       # inside, below the limit
                           [9.0, 10.0 * (1 + g / 2), 11.0],       # inside, above it
                           [9.0, 10.0 * (1 + 2 * g), 9.5]])
        lower, unsure = R._guarded_count(moduli, np.empty(moduli.shape, bool), limit, g)
        assert lower.tolist() == [2, 1, 1, 2]
        assert unsure.tolist() == [False, True, True, False]

    def test_guard_recounts_a_float32_ambiguous_row(self, monkeypatch):
        import scipy.fft

        n = 8192
        rng = np.random.Generator(np.random.PCG64(n + 5))
        bits = (rng.random((3, n)) < 0.5).astype(np.uint8)
        m64 = 0.5 * reference.dft_moduli(bits)
        m32 = np.abs(scipy.fft.rfft(bits.astype(np.float32) - np.float32(0.5),
                                    axis=1)[:, :n // 2]).astype(np.float64)
        # Row 1's bin with the largest relative float32 error among bins
        # above 1/100 of the threshold; the limit halves the two moduli,
        # so float32 alone would count that bin on the wrong side.
        half_threshold = 0.5 * R._dft_threshold(n)
        error = np.where(m64[1] > 0.01 * half_threshold, np.abs(m32[1] - m64[1]) / m64[1], 0)
        k = error.argmax()
        limit = 0.5 * (m32[1, k] + m64[1, k])
        assert (m32[1, k] < limit) != (m64[1, k] < limit)
        assert abs(m32[1, k] - limit) > 1e-6 * limit  # outside a 100 times narrower guard
        _, unsure = R._dft_single(bits, workspace(3, n), limit, np.float32, R._FLOAT32_GUARD)
        assert unsure[1]
        calls = spy_on_transforms(monkeypatch)
        n_obs = R._dft_n_obs(bits, workspace(3, n), limit)
        assert n_obs.tolist() == np.count_nonzero(m64 < limit, axis=1).tolist()
        assert calls == [("float32", 3), ("float64", unsure.sum())]

    @pytest.mark.parametrize("n,path", [
        (1001, "float32"), (8192, "float32"), (R._FLOAT32_MAX_N, "float32"),
        (R._FLOAT32_MAX_N + 2, "float64"), (1 << 15, "float64"), (1 << 16, "float64"),
        (R._FOUR_STEP_MIN_N, "four_step")])
    def test_transform_chosen_by_length(self, n, path, monkeypatch):
        calls = spy_on_transforms(monkeypatch)
        rng = np.random.Generator(np.random.PCG64(n + 6))
        bits = (rng.random((2, n)) < 0.5).astype(np.uint8)
        R._dft_n_obs(bits, workspace(2, n), 0.5 * R._dft_threshold(n))
        # A fast transform's flagged rows add a call to the float64 single
        # one.  The four-step transform takes each of the two rows in its
        # own call.
        paths = [name for name, _ in calls]
        fast = [path] * (2 if path == "four_step" else 1)
        assert paths in ([[path]] if path == "float64" else [fast, fast + ["float64"]])


class TestBytewiseApproximateEntropy:
    """The byte-key pattern counts against a per-bit reference."""

    @pytest.mark.parametrize("n", [65, 1001, 8190, 8192, 1 << 17])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 16])
    def test_pattern_counts_equal_per_bit_reference(self, n, m):
        rng = np.random.Generator(np.random.PCG64(n + m))
        bits = (rng.random((8, n)) < rng.uniform(0.2, 0.8, (8, 1))).astype(np.uint8)
        bits[0] = 0
        bits[1] = 1
        bits[2] = np.arange(n) % 2
        bits[3] = np.arange(n) % 3 == 0
        counts = R._pattern_counts(np.packbits(bits, axis=1), n, m)
        assert counts.sum(axis=1).tolist() == [n] * 8
        assert np.array_equal(counts, reference.pattern_counts(bits, m))

    def test_longest_accepted_pattern_takes_bounded_memory(self):
        import tracemalloc

        packed = np.packbits(seeded_bits(130, seed=9).asarray().reshape(2, 65), axis=1)
        with pytest.raises(PatternTooLong) as exc:
            R.run_batch(packed, 65, (TestId.APPROX_ENTROPY,),
                        TestParams(pattern_len_m=24, enforce_min_length=False))
        assert str(exc.value) == ("pattern length 24 is too long at n=65: its 2^(m+1) = "
                                  "33554432 patterns exceed max(n, 2^16)")
        # m = 15 counts 2^16 patterns per row, the most accepted at any n <= 2^16.
        params = TestParams(pattern_len_m=15, enforce_min_length=False)
        R.run_batch(packed, 65, (TestId.APPROX_ENTROPY,), params)  # SciPy loads here
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            batch = R.run_batch(packed, 65, (TestId.APPROX_ENTROPY,), params)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
        for row, phi_m, phi_m1 in zip(np.unpackbits(packed, axis=1, count=65),
                                      batch[TestId.APPROX_ENTROPY].record["phi_m"],
                                      batch[TestId.APPROX_ENTROPY].record["phi_m1"]):
            assert phi_m == pytest.approx(reference.apen_phi(list(row), 15), rel=1e-12)
            assert phi_m1 == pytest.approx(reference.apen_phi(list(row), 16), rel=1e-12)

    def test_window_table(self):
        table = R._window_table(2)
        assert table.shape == (1024, 8) and not table.flags.writeable
        key = "0001101100"  # 8 + 2 bits
        windows = [int(key[start:start + 3], 2) for start in range(8)]
        assert table[int(key, 2)].tolist() == np.bincount(windows, minlength=8).tolist()
        assert table.sum(axis=1).tolist() == [8] * 1024


# Every length at which a kernel switches path, +/-2: the float32 and the
# four-step spectral cutoffs, the longest-run block sizes' minimum lengths,
# and the walk's switch from an int16 to an int32 accumulator.
CUTOFFS = (R._FLOAT32_MAX_N, R._FOUR_STEP_MIN_N, 128, 6272, 750000, 32767, 32768)
CUTOFF_LENGTHS = sorted({c + d for c in CUTOFFS for d in range(-2, 3)})

# Seeds of random rows (PCG64(seed).random(n) < 0.5) that a float32
# transform alone counts wrong: one modulus lies within a float32 rounding
# of the threshold, on the other side of it than its float64 value, so only
# the guard's recount makes the count exact.  Found by a search of seeds.
FLOAT32_MISCOUNTED = {8192: 6051}


def kinds_of_rows(n, count, rng):
    """``count`` n-bit rows: random, biased, all-zero, all-one, alternating,
    periodic, Thue-Morse and single-run, in turn from a kind that depends
    on n, and random rows after those eight."""
    j = np.arange(n)
    period = int(rng.integers(3, 40))
    start, stop = np.sort(rng.integers(0, n + 1, size=2))
    kinds = [rng.random(n) < 0.5, rng.random(n) < rng.uniform(0.05, 0.3),
             np.zeros(n), np.ones(n), j % 2, j % period < rng.integers(1, period),
             np.bitwise_count(j) % 2, (start <= j) & (j < stop)]
    rows = (rng.random((count, n)) < 0.5).astype(np.uint8)
    for i in range(min(count, len(kinds))):
        rows[i] = kinds[(n + i) % len(kinds)]
    return rows


def kernel_counts(packed, n, tests, params, monkeypatch):
    """Each test's ``_KERNELS`` count over run_batch's own chunks,
    concatenated, and the number of chunks."""
    parts = {test_id: [] for test_id in tests}
    with monkeypatch.context() as patch:
        for test_id in tests:
            count, finish = R._KERNELS[test_id]

            def spy(rows, params, _count=count, _parts=parts[test_id]):
                _parts.append(_count(rows, params))
                return _parts[-1]
            patch.setitem(R._KERNELS, test_id, (spy, finish))
        R.run_batch(packed, n, tests, params)
    counts = {test_id: {key: np.concatenate([part[key] for part in chunks]) for key in chunks[0]}
              for test_id, chunks in parts.items()}
    return counts, len(parts[tests[0]])


def reference_counts(bits, test_id, params):
    """The values that the test's ``_KERNELS`` count gives, from the reference."""
    m = params.pattern_len_m
    return {
        TestId.FREQUENCY: lambda: {"ones": bits.sum(axis=1)},
        TestId.BLOCK_FREQUENCY: lambda: {
            "squares": reference.block_squares(bits, params.block_size_m)},
        TestId.RUNS: lambda: {"ones": bits.sum(axis=1), "transitions": reference.runs(bits) - 1},
        TestId.LONGEST_RUN: lambda: {"class_counts": reference.longest_run_class_counts(bits)},
        TestId.DFT: lambda: {"n_obs": reference.dft_n_obs(bits)},
        TestId.APPROX_ENTROPY: lambda: {
            "phi_m": reference.phi(reference.pattern_counts(bits, m - 1), bits.shape[1]),
            "phi_m1": reference.phi(reference.pattern_counts(bits, m), bits.shape[1])},
        TestId.CUSUM_FORWARD: lambda: {"z": reference.cusum_z(bits, "forward")},
        TestId.CUSUM_BACKWARD: lambda: {"z": reference.cusum_z(bits, "backward")},
    }[test_id]()


class TestKernelsEqualReference:
    """Every kernel's count equals the reference's, at every path cutoff."""

    # A few lengths off the cutoffs too: odd, prime, and 8 dividing n or not.
    @pytest.mark.parametrize("n", CUTOFF_LENGTHS + [1000, 1001, 4099, 8192, 10007])
    def test_kernel_counts_equal_reference(self, n, monkeypatch):
        rng = np.random.Generator(np.random.PCG64(n))
        bits = kinds_of_rows(n, R._CHUNK_BITS // n + 2, rng)
        if n in FLOAT32_MISCOUNTED:  # in place of the first random row after the eight kinds
            bits[8] = np.random.Generator(np.random.PCG64(FLOAT32_MISCOUNTED[n])).random(n) < 0.5
        block = int(2 ** rng.uniform(1, math.log2(n)))
        tests = [t for t in TestId if n >= 128 or t is not TestId.LONGEST_RUN]
        # m = 5 and 6 lie on the two sides of _APEN_BYTE_MAX_M.  Each run
        # takes rows enough for two chunks: with all eight tests at m = 5 a
        # chunk is max(n, 2^13) bits wide (the byte keys' counts), and with
        # approximate entropy alone at m = 6 it is n bits wide.
        assert R._APEN_BYTE_MAX_M == 5
        for selected, m, rows in [(tests, 5, R._CHUNK_BITS // max(n, 1 << 13) + 2),
                                  ([TestId.APPROX_ENTROPY], 6, len(bits))]:
            params = TestParams(enforce_min_length=False, block_size_m=block, pattern_len_m=m)
            counts, chunks = kernel_counts(np.packbits(bits[:rows], axis=1), n, selected,
                                           params, monkeypatch)
            assert chunks >= 2
            for test_id in selected:
                expected = reference_counts(bits[:rows], test_id, params)
                assert counts[test_id].keys() == expected.keys(), test_id
                for key, values in expected.items():
                    if test_id is TestId.APPROX_ENTROPY:
                        np.testing.assert_allclose(counts[test_id][key], values, rtol=1e-12,
                                                   atol=0, err_msg=f"{test_id} {key} m={m}")
                    else:
                        assert np.array_equal(counts[test_id][key], values), (test_id, key)


def images(bits):
    """A stack of rows rotated by 1 and by n/2, complemented and reversed, by name."""
    n = bits.shape[1]
    return {"rotated-by-1": np.roll(bits, 1, axis=1),
            "rotated-by-half": np.roll(bits, n // 2, axis=1),
            "complemented": 1 - bits, "reversed": bits[:, ::-1]}


class TestInvariance:
    """Exact identities of the tests' definitions: a row and its rotations,
    complement and reversal give the same integer records.  They hold for
    any kernel that counts right, so a miscount that the reference shares
    (a chunking error applied alike to both, say) still breaks them."""

    # Float32 spectra up to 2^14, the four-step one at 2^17.  The longest-run
    # test reads a fixed number of blocks (49 of 128 bits from 6272 bits on),
    # so reversal keeps the blocks it reads only where they cover the row:
    # here, at 6272.
    LENGTHS = [1001, 6272, 8192, 2 ** 14, 2 ** 17]

    @pytest.mark.parametrize("n", LENGTHS)
    def test_battery_records(self, n):
        bits = kinds_of_rows(n, 10, np.random.Generator(np.random.PCG64(n)))
        shown = images(bits)
        variants = {"row": bits, **shown}
        batches = R.run_batch(np.packbits(np.concatenate(list(variants.values())), axis=1), n)
        r = len(bits)

        def values(test_id, key=None):
            # Absolute values: the partial sum S_n changes sign under complement.
            batch = batches[test_id]
            v = np.abs(batch.statistics if key is None else batch.record[key])
            return {name: v[i * r:(i + 1) * r] for i, name in enumerate(variants)}

        _, run_m, _, run_blocks, _, _ = R._longest_run_config(n)
        unchanged = {
            (TestId.DFT, "n_obs"): list(shown),
            (TestId.FREQUENCY, "partial_sum"): ["complemented", "reversed"],
            (TestId.RUNS, None): ["complemented", "reversed"],
            (TestId.CUSUM_FORWARD, None): ["complemented"],
            (TestId.CUSUM_BACKWARD, None): ["complemented"],
            (TestId.BLOCK_FREQUENCY, None):
                ["complemented"] + ["reversed"] * (n % TestParams().block_size_m == 0),
            (TestId.LONGEST_RUN, "class_counts"): ["reversed"] * (run_blocks * run_m == n),
        }
        for (test_id, key), names in unchanged.items():
            found = values(test_id, key)
            for name in names:
                assert np.array_equal(found[name], found["row"]), (test_id, key, name)
        forward, backward = values(TestId.CUSUM_FORWARD), values(TestId.CUSUM_BACKWARD)
        assert np.array_equal(forward["reversed"], backward["row"])
        assert np.array_equal(backward["reversed"], forward["row"])

    @pytest.mark.parametrize("m", [2, R._APEN_BYTE_MAX_M + 1])
    @pytest.mark.parametrize("n", LENGTHS)
    def test_pattern_count_multisets(self, n, m):
        # The windows wrap around the row, so rotation keeps every count;
        # complement and reversal map each pattern to another.
        bits = kinds_of_rows(n, 10, np.random.Generator(np.random.PCG64(n)))

        def multiset(rows):
            return np.sort(R._pattern_counts(np.packbits(rows, axis=1), n, m), axis=1)
        expected = multiset(bits)
        for name, image in images(bits).items():
            assert np.array_equal(multiset(image), expected), name
