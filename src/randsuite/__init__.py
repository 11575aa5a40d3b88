"""Statistical randomness testing for bit sources.

A classic eight-test battery over bit sequences, the three-step batch
protocol (per-sample testing, pass-proportion banding, p-value uniformity),
per-sample entropy and stability analytics, and a deterministic noisy-qubit
sample generator for end-to-end experiments at any scale.
"""

from .bitseq import (
    ENCODINGS,
    BitSequence,
    Manifest,
    ManifestEntry,
    SampleSet,
    concat_chronological,
    load_manifest,
    load_sample_set,
    parse_bits,
    save_manifest,
    save_sample_set,
    serialize_bits,
)
from .entropy import (
    DeviationSeries,
    EntropySeries,
    deviation_series,
    entropy_series,
    min_entropy,
    ones_band,
    proportion_band_for_length,
    shannon_entropy,
    write_band_json,
    write_deviation_csv,
    write_entropy_csv,
)
from .errors import (
    BlockTooLarge,
    DomainError,
    DuplicateIndex,
    EmptyInput,
    EmptySequence,
    EmptySet,
    IndexOutOfRange,
    InvalidCharacter,
    LengthMismatch,
    ManifestError,
    NonFiniteInput,
    PatternTooLong,
    RandsuiteError,
    SampleTooShort,
    TooFewSamples,
)
from .randtests import (
    ALL_TESTS,
    MIN_LENGTH,
    CusumMode,
    TestId,
    TestOutcome,
    TestParams,
    approx_entropy_test,
    block_frequency_test,
    cusum_test,
    dft_test,
    frequency_test,
    longest_run_of_ones,
    longest_run_test,
    run_test,
    runs_test,
)
from .sim import (
    Anomaly,
    Epoch,
    ExperimentPlan,
    QubitNoiseModel,
    biased_demo_plan,
    effective_bias,
    generate_experiment,
    generate_sample,
    load_plan,
    save_plan,
    unbiased_plan,
    with_seed,
    write_experiment,
)
from .special import erfc, erfc_inv, lower_igamc, normal_cdf, upper_igamc
from .suite import (
    ProportionBand,
    SuiteConfig,
    SuiteReport,
    TestAggregate,
    proportion_band,
    run_suite,
    uniformity_check,
    write_report_json,
    write_results_csv,
)

__version__ = "0.1.0"
