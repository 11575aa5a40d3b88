"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Worked-example goldens pin the published example values at their stated
tolerances; the statistical criteria run the simulator end to end with
pinned master seeds (they are deterministic for a given numpy Philox
stream, which numpy guarantees to be stable).
"""

import hashlib
import math
import time

import numpy as np
import pytest

import randsuite as rs
from randsuite import (
    BitSequence,
    TestId,
    TestParams,
)
from randsuite.randtests import _cusum_pvalue, _longest_run_finish

import reference

RELAXED = TestParams(enforce_min_length=False)

# Pinned master seeds for the statistical acceptance runs.
FULL_SCALE_SEEDS = (42, 43, 44, 45, 47)
DESK_SEEDS = (101, 102, 103, 104, 105)
BIASED_SEED = 7

HARD_TESTS = (TestId.FREQUENCY, TestId.CUSUM_FORWARD, TestId.CUSUM_BACKWARD)


def check(cid, name, checks):
    """Print one acceptance line, then assert every sub-check."""
    failed = [f"{label}: {detail}" for label, ok, detail in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    print(f"\nACCEPTANCE {cid} {name}: {status}"
          + (f" [{'; '.join(failed)}]" if failed else ""))
    assert not failed, f"{cid} {name}: " + "; ".join(failed)


def seq(s):
    return BitSequence([int(c) for c in s])


def test_c01_frequency_golden():
    out = rs.run_test(TestId.FREQUENCY, seq("1001100010"), RELAXED)
    check("C1", "frequency golden", [
        ("p", abs(out.p_value - 0.527089) <= 1e-6, f"p={out.p_value!r}"),
    ])


def test_c02_block_frequency_golden():
    out = rs.run_test(TestId.BLOCK_FREQUENCY, seq("1001100010"),
                      TestParams(enforce_min_length=False, block_size_m=3))
    check("C2", "block-frequency golden", [
        ("chi2 exact", out.statistic == 1.0, f"chi2={out.statistic!r}"),
        ("p", abs(out.p_value - 0.801252) <= 1e-6, f"p={out.p_value!r}"),
    ])


def test_c03_runs_golden():
    out = rs.run_test(TestId.RUNS, seq("1010110001"), RELAXED)
    check("C3", "runs golden", [
        ("V exact", out.statistic == 7.0, f"V={out.statistic!r}"),
        ("p", abs(out.p_value - 0.21) <= 0.005, f"p={out.p_value!r}"),
    ])


def test_c04_longest_run_golden():
    # The published class counts of 6272 bits (M = 128, N = 49 blocks).
    [chi2], [p], _ = _longest_run_finish({"class_counts": np.array([[6, 10, 10, 7, 7, 9]])},
                                         6272, TestParams())
    chi2, p = float(chi2), float(p)
    check("C4", "longest-run golden", [
        ("chi2", abs(chi2 - 3.994459) <= 1e-6, f"chi2={chi2!r}"),
        ("p", abs(p - 0.550214) <= 1e-6, f"p={p!r}"),
    ])


def test_c05_dft_golden():
    """Pins the published worked-example values for the spectral test.

    Known-red: the expected values N_obs=4 / p~0.0318 circulate with this
    example but are not reproducible from the test's own definition.  The
    moduli of the first floor(n/2) = 5 frequencies of 1001010011 are
    {0, 2, 4.472, 2, 4.472}, all below the threshold sqrt(10*ln 20) = 5.473,
    so any faithful implementation counts N_obs=5 and gets p=0.468160 (the
    O(n^2) direct-summation oracle in the module tests agrees).  The values
    are asserted as published rather than weakened to match.
    """
    out = rs.run_test(TestId.DFT, seq("1001010011"), RELAXED)
    n_ideal, n_obs = out.params["n_ideal"], out.params["n_obs"]
    check("C5", "dft golden", [
        ("N_ideal exact", n_ideal == 4.75, f"N_ideal={n_ideal!r}"),
        ("N_obs exact", n_obs == 4, f"N_obs={n_obs!r}"),
        ("p", abs(out.p_value - 0.031761) <= 0.003, f"p={out.p_value!r}"),
    ])


def test_c06_approx_entropy_golden():
    out = rs.run_test(TestId.APPROX_ENTROPY, seq("1011010010"),
                      TestParams(enforce_min_length=False, pattern_len_m=3))
    phi_m, phi_m1 = out.params["phi_m"], out.params["phi_m1"]
    check("C6", "approximate-entropy golden (pins the ln-2 statistic)", [
        ("phi_3", abs(phi_m - (-1.643418)) <= 1e-6, f"phi_3={phi_m!r}"),
        ("phi_4", abs(phi_m1 - (-2.025326)) <= 1e-6, f"phi_4={phi_m1!r}"),
        ("obs", abs(out.statistic - 6.224774) <= 1e-6, f"obs={out.statistic!r}"),
        ("p", abs(out.p_value - 0.622069) <= 1e-6, f"p={out.p_value!r}"),
    ])


def test_c07_cusum_golden():
    fwd = rs.run_test(TestId.CUSUM_FORWARD, seq("1011010010"), RELAXED)
    bwd = rs.run_test(TestId.CUSUM_BACKWARD, seq("1011010010"), RELAXED)
    check("C7", "cumulative-sums golden", [
        ("z fwd exact", fwd.statistic == 2.0, f"z={fwd.statistic!r}"),
        ("z bwd exact", bwd.statistic == 2.0, f"z={bwd.statistic!r}"),
        ("p fwd", abs(fwd.p_value - 0.941740) <= 1e-6, f"p={fwd.p_value!r}"),
        ("p bwd", abs(bwd.p_value - 0.941740) <= 1e-6, f"p={bwd.p_value!r}"),
    ])


def test_c08_proportion_band_goldens():
    band_1000 = rs.proportion_band(0.01, 1000, 3.0)
    band_579 = rs.proportion_band(0.01, 579, 3.0)
    check("C8", "proportion-band goldens", [
        ("center m=1000", band_1000.center == 0.99, f"center={band_1000.center!r}"),
        ("halfwidth m=1000", abs(band_1000.halfwidth - 0.0094) <= 1e-4,
         f"halfwidth={band_1000.halfwidth!r}"),
        ("lower m=579", abs(band_579.lower - 0.977595) <= 1e-6,
         f"lower={band_579.lower!r}"),
    ])


def test_c09_uniformity_golden():
    mids = [0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95]
    counts = [2, 8, 10, 13, 17, 17, 13, 10, 8, 2]
    p_values = [m for m, c in zip(mids, counts) for _ in range(c)]
    chi2, p, ok = rs.uniformity_check(p_values)
    check("C9", "p-value uniformity golden", [
        ("chi2", abs(chi2 - 25.2) <= 1e-6, f"chi2={chi2!r}"),
        ("p", abs(p - 0.002758) <= 1e-6, f"p={p!r}"),
        ("verdict uniform", ok is True, f"ok={ok}"),
    ])


def _pipeline_checks(num_qubits, samples, seeds, budget_s, min_clear, render=None):
    """Shared body of the experiment-scale criterion at either scale.

    For every pinned seed, at least ``min_clear`` of the qubits must clear
    the proportion bar (the band's lower edge at the actual sample count;
    0.977595 at 579 samples) on every test.  The companion biased plan must
    show the failure signature: qubits below the bar, with the frequency
    and cumulative-sums tests failing hardest.  ``render``, when given, is
    called with every sample set and its report, in that order.
    """
    t0 = time.time()
    bar = rs.proportion_band(0.01, samples).lower
    checks = []
    for master_seed in seeds:
        plan = rs.unbiased_plan(num_qubits=num_qubits, samples_per_qubit=samples,
                                shots_per_sample=8192, master_seed=master_seed)
        clear = 0
        worst = 1.0
        for sample_set in rs.generate_experiment(plan):
            report = rs.run_suite(sample_set)
            if render:
                render(sample_set, report)
            props = [a.pass_proportion for a in report.per_test.values()]
            worst = min(worst, min(props))
            clear += all(p > bar for p in props)
        checks.append((f"seed {master_seed}: >= {min_clear}/{num_qubits} qubits clear bar",
                       clear >= min_clear,
                       f"cleared={clear}, worst proportion={worst:.6f}"))

    biased = rs.biased_demo_plan(num_qubits=num_qubits, samples_per_qubit=samples,
                                 shots_per_sample=8192, master_seed=BIASED_SEED)
    mean_props = {t: [] for t in TestId}
    below = 0
    for sample_set in rs.generate_experiment(biased):
        report = rs.run_suite(sample_set)
        if render:
            render(sample_set, report)
        below += any(not a.pass_proportion > bar for a in report.per_test.values())
        for t, agg in report.per_test.items():
            mean_props[t].append(agg.pass_proportion)
    means = {t: float(np.mean(v)) for t, v in mean_props.items()}
    hard_max = max(means[t] for t in HARD_TESTS)
    soft_min = min(v for t, v in means.items() if t not in HARD_TESTS)
    elapsed = time.time() - t0
    checks += [
        ("biased plan: some qubits below bar", below >= 1, f"below={below}"),
        ("biased plan: frequency/cusum fail hardest", hard_max <= soft_min,
         f"hard_max={hard_max:.4f}, soft_min={soft_min:.4f}"),
        (f"runtime < {budget_s}s", elapsed < budget_s, f"elapsed={elapsed:.1f}s"),
    ]
    return checks, elapsed


def test_c10_desk_scale_pipeline():
    checks, elapsed = _pipeline_checks(num_qubits=5, samples=100,
                                       seeds=DESK_SEEDS, budget_s=30, min_clear=4)
    check("C10-desk", f"desk-scale pipeline ({elapsed:.1f}s)", checks)


# SHA-256 over the rendered report.json, results.csv and deviation_<source>.csv
# of the 120 sources of the experiment-scale run, in run order.  Re-recorded
# when report.json stopped repeating the per-sample p-values and indices that
# results.csv holds.
EXPERIMENT_SCALE_PIN = "45f1133bfe787e68f154679eb195d70ca66fe4276b3d589099ab7cadddd01ac7"

# SHA-256 over the results.csv and deviation_<source>.csv of the same sources,
# in run order: the per-sample record, recorded from the code before that
# report.json change, which left it unchanged.  It covers the 8192-bit float32
# spectral path with its float64 recounts, and ones_before at the deviation
# series' stride of 8192 over 579 * 8192 bits.
EXPERIMENT_SCALE_RECORD_PIN = "ca8b56518ad45fc838251ff8aeef9f53004912291390f737a2023fccf078c8ee"


@pytest.mark.slow
def test_c10_experiment_scale_pipeline(tmp_path):
    digest, record = hashlib.sha256(), hashlib.sha256()

    def render(sample_set, report):
        source = sample_set.source_id
        paths = [tmp_path / "report.json", tmp_path / "results.csv",
                 tmp_path / f"deviation_{source}.csv"]
        rs.write_report_json(report, paths[0])
        rs.write_results_csv(report, paths[1])
        rs.write_deviation_csv(rs.deviation_series(rs.concat_chronological(sample_set)),
                               paths[2])
        data = [path.read_bytes() for path in paths]
        for part in data:
            digest.update(part)
        for part in data[1:]:
            record.update(part)

    checks, elapsed = _pipeline_checks(num_qubits=20, samples=579,
                                       seeds=FULL_SCALE_SEEDS, budget_s=600,
                                       min_clear=19, render=render)
    bar = rs.proportion_band(0.01, 579).lower
    checks.append(("bar equals 0.977595", abs(bar - 0.977595) <= 1e-6, f"bar={bar!r}"))
    checks.append(("120 sources' outputs match the pin",
                   digest.hexdigest() == EXPERIMENT_SCALE_PIN, digest.hexdigest()))
    checks.append(("120 sources' results and deviations match the pin",
                   record.hexdigest() == EXPERIMENT_SCALE_RECORD_PIN, record.hexdigest()))
    check("C10-full", f"experiment-scale pipeline ({elapsed:.1f}s)", checks)


def test_c11_property_battery():
    checks = []

    # direct-summation DFT oracle vs the FFT implementation
    rng = np.random.Generator(np.random.PCG64(99))
    for trial in range(3):
        values = rng.integers(0, 2, size=1024, dtype=np.uint8)
        out = rs.run_test(TestId.DFT, BitSequence(values))
        _, n_obs, _ = reference.dft_direct(values)
        checks.append((f"dft oracle #{trial}", out.params["n_obs"] == n_obs,
                       f"{out.params['n_obs']} vs {n_obs}"))

    # brute-force overlapping-pattern counting vs the vectorized counter
    for m in (2, 3):
        values = rng.integers(0, 2, size=64, dtype=np.uint8)
        out = rs.run_test(TestId.APPROX_ENTROPY, BitSequence(values),
                          TestParams(enforce_min_length=False, pattern_len_m=m))
        phi = reference.apen_phi(values, m)
        checks.append((f"apen oracle m={m}",
                       abs(out.params["phi_m"] - phi) < 1e-12,
                       f"{out.params['phi_m']} vs {phi}"))

    # Monte-Carlo distribution of the max |partial sum| over 10^6 walks
    walks, n = 1_000_000, 100
    mc_rng = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(2718)))
    zmax = np.empty(walks, dtype=np.int64)
    chunk = 100_000
    for i in range(0, walks, chunk):
        x = mc_rng.integers(0, 2, size=(chunk, n), dtype=np.int8) * 2 - 1
        zmax[i:i + chunk] = np.abs(np.cumsum(x, axis=1, dtype=np.int32)).max(axis=1)
    for z in (5, 8, 10, 12, 15, 20, 25, 30):
        emp = float(np.mean(zmax >= z))
        theo = _cusum_pvalue(n, z)
        checks.append((f"cusum MC z={z}", abs(theo - emp) <= 0.01,
                       f"formula={theo:.6f} MC={emp:.6f}"))

    # binomial bound on the generator
    model = rs.QubitNoiseModel(qubit_id=0, epochs=(rs.Epoch(0, 0.45),))
    sample = rs.generate_sample(model, 0, 10 ** 6, master_seed=5)
    p_hat = sample.count_ones() / sample.n
    sigma = math.sqrt(0.45 * 0.55 / 10 ** 6)
    checks.append(("generator binomial bound", abs(p_hat - 0.45) <= 3 * sigma,
                   f"p_hat={p_hat:.6f}"))

    # min-entropy never exceeds Shannon entropy
    dominance_ok = True
    for ones in range(0, 65, 4):
        s = BitSequence([1] * ones + [0] * (64 - ones))
        if rs.min_entropy(s) > rs.shannon_entropy(s) + 1e-15:
            dominance_ok = False
    checks.append(("min <= shannon dominance", dominance_ok, ""))

    # open proportion band <=> frequency-test pass, at several lengths
    consistent = True
    for n_len in (100, 10_000):
        lower, upper = rs.proportion_band_for_length(n_len, 0.01)
        edge = round(n_len * upper)
        for ones in (edge - 1, edge, edge + 1, n_len // 2):
            if not 0 <= ones <= n_len:
                continue
            s = BitSequence([1] * ones + [0] * (n_len - ones))
            p = rs.run_test(TestId.FREQUENCY, s, RELAXED).p_value
            if (p > 0.01) != (lower < ones / n_len < upper):
                consistent = False
    checks.append(("band/frequency-test consistency", consistent, ""))

    # p-values always in [0, 1], random and adversarial inputs
    fuzz_ok = True
    adversarial = ["0" * 1000, "1" * 1000, "01" * 500, "1" * 500 + "0" * 500]
    pool = [BitSequence([int(c) for c in s]) for s in adversarial]
    pool += [BitSequence(rng.integers(0, 2, size=1000, dtype=np.uint8))
             for _ in range(200)]
    for s in pool:
        for test_id in TestId:
            p = rs.run_test(test_id, s, RELAXED).p_value
            if not 0.0 <= p <= 1.0:
                fuzz_ok = False
    checks.append(("p-value fuzz in [0,1]", fuzz_ok, ""))

    check("C11", "property battery (oracle equivalences)", checks)


def test_c12_min_entropy_anomaly_reproduction():
    plan = rs.biased_demo_plan(num_qubits=1, samples_per_qubit=200,
                               shots_per_sample=8192, master_seed=17,
                               anomaly_qubit=0)
    model = plan.qubit_models[0]
    series = rs.entropy_series(rs.generate_experiment(plan)[0])
    values = np.array(series.min_entropies)
    window = values[model.anomaly.start_sample:model.anomaly.stop_sample]
    window_median = float(np.median(window))
    p5 = float(np.percentile(values, 5))
    check("C12", "min-entropy anomaly reproduction", [
        ("window median < global 5th percentile", window_median < p5,
         f"median={window_median:.4f}, p5={p5:.4f}"),
    ])
