"""Argument checks: errors.check_int and errors.check_real, and every public
constructor and function that takes a count, a probability, a level or a flag."""

import dataclasses
import math
from datetime import datetime, timezone

import numpy as np
import pytest

import randsuite as rs
from randsuite import (
    Anomaly,
    BitSequence,
    Epoch,
    ExperimentPlan,
    Manifest,
    ManifestEntry,
    QubitNoiseModel,
    SuiteConfig,
    TestParams,
)
from randsuite.errors import (
    DomainError,
    ManifestError,
    RandsuiteError,
    check_int,
    check_real,
)


class TestCheckInt:
    def test_returns_a_python_int(self):
        assert check_int("n", 5, 1) == 5
        value = check_int("n", np.int64(5), 1)
        assert value == 5 and type(value) is int

    @pytest.mark.parametrize("value", [True, False, 2.0, 2.5, "2", None, np.float64(2.0)])
    def test_rejects_what_is_no_integer(self, value):
        with pytest.raises(DomainError, match="n must be an integer"):
            check_int("n", value, 0)

    def test_range_and_error_class(self):
        with pytest.raises(DomainError, match="n must be >= 2, got 1"):
            check_int("n", 1, 2)
        assert check_int("seed", 2 ** 64 - 1, 0, 2 ** 64 - 1) == 2 ** 64 - 1
        with pytest.raises(DomainError, match=f"seed must be a 64-bit value, got {2 ** 64}"):
            check_int("seed", 2 ** 64, 0, 2 ** 64 - 1)
        for value in ("1", -1):
            with pytest.raises(ManifestError):
                check_int("n", value, 0, error=ManifestError)


class TestCheckReal:
    @pytest.mark.parametrize("edges,value,ok", [
        ("()", 0, False), ("()", 1, False), ("()", 0.5, True),
        ("[]", 0, True), ("[]", 1, True), ("[]", 1.0000001, False),
        ("[)", 0, True), ("[)", 1, False), ("(]", 0, False), ("(]", 1, True)])
    def test_edges(self, edges, value, ok):
        if ok:
            assert check_real("x", value, 0, 1, edges) == value
        else:
            with pytest.raises(DomainError, match=rf"x must be in \{edges[0]}0, 1\{edges[1]}"):
                check_real("x", value, 0, 1, edges)

    def test_nan_and_infinities(self):
        for edges in ("[]", "()", "[)", "(]"):
            with pytest.raises(DomainError):
                check_real("x", math.nan, -math.inf, math.inf, edges)
        with pytest.raises(DomainError, match=r"x must be in \[0, inf\), got inf"):
            check_real("x", math.inf, 0, math.inf, "[)")
        assert check_real("x", math.inf, 0, math.inf, "[]") == math.inf
        assert check_real("x", -math.inf, -math.inf, 0, "[]") == -math.inf

    @pytest.mark.parametrize("value", [True, "0.5", None, 0.5j])
    def test_rejects_what_is_no_real(self, value):
        with pytest.raises(DomainError, match="x must be a real number"):
            check_real("x", value, 0, 1)

    def test_python_numbers_are_returned_as_given(self):
        assert type(check_real("x", 1, 0, 1)) is int
        assert type(check_real("x", 0.25, 0, 1)) is float
        assert type(check_real("x", np.float64(0.25), 0, 1)) is np.float64
        for value in (np.float32(0.25), np.int64(1), np.uint8(0)):
            result = check_real("x", value, 0, 1)
            assert type(result) is float and result == value


def _seq():
    return BitSequence(np.arange(2048) % 3 == 0)


_MODEL = QubitNoiseModel(0, (Epoch(0, 0.5),))
_SET = rs.SampleSet([_seq()])

COUNT = (True, "3", 2.5, 2.0, None)
REAL = (True, "0.5", None, math.nan, math.inf, -math.inf)
FLAG = ("no", 1, None)
TEXT = (5, None, b"a", ["a"])
TIME = ("2019-01-01", 5, None)
_START = datetime(2020, 1, 1, tzinfo=timezone.utc)
_ENTRIES = (ManifestEntry("a.txt", "hex", 0),)

# (argument, wrong values, a right value, call with the value, the error expected)
ARGUMENTS = [
    ("TestParams.alpha", REAL, 0.05, lambda v: TestParams(alpha=v), DomainError),
    ("TestParams.block_size_m", COUNT, 8, lambda v: TestParams(block_size_m=v), DomainError),
    ("TestParams.pattern_len_m", COUNT, 3, lambda v: TestParams(pattern_len_m=v), DomainError),
    ("TestParams.enforce_min_length", FLAG, False,
     lambda v: TestParams(enforce_min_length=v), DomainError),
    ("SuiteConfig.band_coefficient", REAL, 2.6, lambda v: SuiteConfig(band_coefficient=v),
     DomainError),
    ("proportion_band.alpha", REAL, 0.05, lambda v: rs.proportion_band(v, 100), DomainError),
    ("proportion_band.m", COUNT, 3, lambda v: rs.proportion_band(0.01, v), DomainError),
    ("proportion_band.coefficient", REAL, 2.6, lambda v: rs.proportion_band(0.01, 100, v),
     DomainError),
    ("proportion_band_for_length.n", COUNT, 8, lambda v: rs.proportion_band_for_length(v),
     DomainError),
    ("proportion_band_for_length.alpha", REAL, 0.05,
     lambda v: rs.proportion_band_for_length(1000, v), DomainError),
    ("deviation_series.stride", COUNT, 3, lambda v: rs.deviation_series(_seq(), stride=v),
     DomainError),
    ("Epoch.start_sample", COUNT, 0, lambda v: Epoch(v, 0.5), DomainError),
    ("Epoch.p1_state", REAL, 0.25, lambda v: Epoch(0, v), DomainError),
    ("Epoch.eps01", REAL, 0.25, lambda v: Epoch(0, 0.5, eps01=v), DomainError),
    ("Epoch.eps10", REAL, 0.25, lambda v: Epoch(0, 0.5, eps10=v), DomainError),
    ("Anomaly.start_sample", COUNT, 3, lambda v: Anomaly(v, 5, 0.5), DomainError),
    ("Anomaly.stop_sample", COUNT, 3, lambda v: Anomaly(0, v, 0.5), DomainError),
    ("Anomaly.p1_override", REAL, 0.25, lambda v: Anomaly(0, 5, v), DomainError),
    ("QubitNoiseModel.qubit_id", COUNT, 3, lambda v: QubitNoiseModel(v, (Epoch(0, 0.5),)),
     DomainError),
    ("ExperimentPlan.samples_per_qubit", COUNT, 3,
     lambda v: ExperimentPlan((_MODEL,), samples_per_qubit=v), DomainError),
    ("ExperimentPlan.shots_per_sample", COUNT, 3,
     lambda v: ExperimentPlan((_MODEL,), shots_per_sample=v), DomainError),
    ("ExperimentPlan.master_seed", COUNT, 3,
     lambda v: ExperimentPlan((_MODEL,), master_seed=v), DomainError),
    ("ExperimentPlan.sample_interval_s", REAL, 0.25,
     lambda v: ExperimentPlan((_MODEL,), sample_interval_s=v), DomainError),
    ("ExperimentPlan.start_time", TIME, _START,
     lambda v: ExperimentPlan((_MODEL,), start_time=v), DomainError),
    ("unbiased_plan.num_qubits", COUNT, 3,
     lambda v: rs.unbiased_plan(v, samples_per_qubit=2, shots_per_sample=8), DomainError),
    ("biased_demo_plan.num_qubits", COUNT, 3,
     lambda v: rs.biased_demo_plan(v, samples_per_qubit=2, shots_per_sample=8), DomainError),
    ("biased_demo_plan.samples_per_qubit", COUNT, 3,
     lambda v: rs.biased_demo_plan(3, samples_per_qubit=v, shots_per_sample=8), DomainError),
    # None gives no qubit an anomaly.
    ("biased_demo_plan.anomaly_qubit", COUNT[:-1] + (-1, 3, 7), 2,
     lambda v: rs.biased_demo_plan(3, samples_per_qubit=40, anomaly_qubit=v), DomainError),
    ("with_seed.master_seed", COUNT, 3,
     lambda v: rs.with_seed(ExperimentPlan((_MODEL,)), v), DomainError),
    ("generate_sample.sample_index", COUNT, 3, lambda v: rs.generate_sample(_MODEL, v, 64, 1),
     DomainError),
    ("generate_sample.shots", COUNT, 3, lambda v: rs.generate_sample(_MODEL, 0, v, 1),
     DomainError),
    ("generate_sample.master_seed", COUNT, 3, lambda v: rs.generate_sample(_MODEL, 0, 64, v),
     DomainError),
    ("run_batch.n", COUNT, 8, lambda v: rs.run_batch(
        np.zeros((1, 1), np.uint8), v, ("frequency",), TestParams(enforce_min_length=False)),
     DomainError),
    ("effective_bias.sample_index", COUNT, 3, lambda v: rs.effective_bias(_MODEL, v),
     DomainError),
    ("BitSequence.sample_index", COUNT, 3, lambda v: BitSequence([0, 1], sample_index=v),
     DomainError),
    # None is a timestamp not known.
    ("BitSequence.timestamp", TIME[:-1], _START, lambda v: BitSequence([0, 1], timestamp=v),
     DomainError),
    # None declares no length.
    ("parse_bits.length", COUNT[:-1] + (0, -1), 2,
     lambda v: rs.parse_bits("01", "ascii01", length=v), DomainError),
    ("Manifest.declared_length", COUNT, 8,
     lambda v: Manifest(declared_length=v, source_id="s", entries=_ENTRIES), ManifestError),
    ("Manifest.source_id", TEXT, "qubit-03",
     lambda v: Manifest(declared_length=8, source_id=v, entries=_ENTRIES), ManifestError),
    ("ManifestEntry.path", TEXT, "b.txt",
     lambda v: ManifestEntry(v, "hex", 0), ManifestError),
    ("ManifestEntry.encoding", TEXT, "ascii01",
     lambda v: ManifestEntry("a.txt", v, 0), ManifestError),
    ("ManifestEntry.sample_index", COUNT, 3,
     lambda v: ManifestEntry("a.txt", "hex", v), ManifestError),
    ("ManifestEntry.timestamp", TIME[:-1], _START,
     lambda v: ManifestEntry("a.txt", "hex", 0, v), ManifestError),
    ("erfc.z", REAL, 0.5, rs.erfc, DomainError),
    ("erfc_inv.p", REAL, 0.5, rs.erfc_inv, DomainError),
    ("normal_cdf.x", REAL, 0.5, rs.normal_cdf, DomainError),
    ("upper_igamc.a", REAL, 2.0, lambda v: rs.upper_igamc(v, 1.0), DomainError),
    # Q(a, inf) = 0.
    ("upper_igamc.x", REAL[:-2] + (-math.inf,), 1.0, lambda v: rs.upper_igamc(2.0, v),
     DomainError),
    ("as_probability.value", REAL, 0.5, rs.as_probability, DomainError),
    ("uniformity_check.p_values", REAL, 0.5, lambda v: rs.uniformity_check([v] * 60),
     DomainError),
    ("ones_band.alpha", REAL, 0.05, lambda v: rs.ones_band(_SET, v), DomainError),
    ("write_band_json.alpha", REAL, 0.05,
     lambda v: rs.write_band_json({}, v, "band.json"), DomainError),
]


@pytest.fixture(autouse=True)
def _in_a_fresh_directory(tmp_path, monkeypatch):
    """A call that writes a file writes it here."""
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("call,value,error", [
    pytest.param(call, value, error, id=f"{name}={value!r}")
    for name, wrong, _, call, error in ARGUMENTS for value in wrong])
def test_a_wrong_argument_raises_a_randsuite_error(call, value, error):
    with pytest.raises(error):
        call(value)


@pytest.mark.parametrize("call,value", [
    pytest.param(call, right, id=name) for name, _, right, call, _ in ARGUMENTS])
def test_the_same_call_succeeds_with_a_right_argument(call, value):
    call(value)


def test_a_fractional_block_size_gives_no_p_value():
    with pytest.raises(DomainError, match="block_size_m must be an integer, got 128.5"):
        rs.run_test(rs.TestId.BLOCK_FREQUENCY, _seq(), TestParams(block_size_m=128.5))


def test_a_negative_sample_index_is_out_of_the_models_range():
    with pytest.raises(DomainError, match="sample_index must be >= 0, got -1"):
        rs.effective_bias(_MODEL, -1)


# One valid instance of each public frozen dataclass a caller configures.
EXAMPLES = [
    TestParams(),
    SuiteConfig(),
    Epoch(0, 0.5),
    Anomaly(0, 5, 0.5),
    _MODEL,
    ExperimentPlan((_MODEL,)),
    Manifest(8, "s", (ManifestEntry("a.txt", "hex", 0),)),
    ManifestEntry("a.txt", "hex", 0),
]


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda example: type(example).__name__)
def test_every_int_float_and_bool_field_is_checked(example):
    """A field added later without a check fails here."""
    names = [field.name for field in dataclasses.fields(example)
             if field.type in ("int", "float", "bool")]
    assert names
    for name in names:
        with pytest.raises(RandsuiteError):
            dataclasses.replace(example, **{name: "7"})
