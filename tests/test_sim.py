"""Noise model semantics and determinism of the sample generator."""

import hashlib
import json
import math
import os
import re
import stat
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import randsuite as rs
from randsuite import (
    Anomaly,
    Epoch,
    ExperimentPlan,
    QubitNoiseModel,
    effective_bias,
    generate_experiment,
    generate_sample,
    min_entropy,
)
from randsuite.cli import main
from randsuite.errors import DomainError, ManifestError, RandsuiteError
from randsuite.sim import _draw_rows, _philox_keys, plan_from_dict, plan_to_dict


DESK_PLAN = Path(__file__).resolve().parents[1] / "plans" / "desk_biased_5q.json"


def fair_model(qubit_id=0):
    return QubitNoiseModel(qubit_id=qubit_id, epochs=(Epoch(0, 0.5),))


UNIT = st.floats(0, 1)
# Aware times with whole-minute offsets, early enough for any plan's last sample.
TIMES = st.datetimes(datetime(1900, 1, 1), datetime(2100, 1, 1), timezones=st.builds(
    lambda minutes: timezone(timedelta(minutes=minutes)), st.integers(-1439, 1439)))


@st.composite
def noise_models(draw, qubit_id):
    starts = [0, *sorted(draw(st.lists(st.integers(1, 10 ** 6), max_size=2, unique=True)))]
    epochs = tuple(Epoch(start, draw(UNIT), draw(UNIT), draw(UNIT)) for start in starts)
    anomaly = None
    if draw(st.booleans()):
        start = draw(st.integers(0, 10 ** 6))
        anomaly = Anomaly(start, start + draw(st.integers(1, 10 ** 6)), draw(UNIT))
    return QubitNoiseModel(qubit_id, epochs, anomaly)


@st.composite
def plans(draw):
    """Plans of 1-3 qubits with 1-3 epochs each, with or without an anomaly, a
    start_time or a sample_interval_s."""
    ids = draw(st.lists(st.integers(0, 2 ** 70), min_size=1, max_size=3, unique=True))
    options = {}
    if draw(st.booleans()):
        options["start_time"] = draw(TIMES)
    if draw(st.booleans()):
        options["sample_interval_s"] = draw(st.floats(0, 1e6))
    return ExperimentPlan(tuple(draw(noise_models(q)) for q in ids),
                          samples_per_qubit=draw(st.integers(1, 1000)),
                          shots_per_sample=draw(st.integers(1, 10 ** 6)),
                          master_seed=draw(st.integers(0, 2 ** 64 - 1)), **options)


class TestEffectiveBias:
    def test_noiseless_hadamard(self):
        assert effective_bias(fair_model(), 0) == 0.5

    def test_readout_asymmetry_arithmetic(self):
        model = QubitNoiseModel(qubit_id=1, epochs=(Epoch(0, 0.5, eps01=0.02, eps10=0.06),))
        assert effective_bias(model, 5) == pytest.approx(0.48, abs=1e-15)

    def test_epoch_switching(self):
        model = QubitNoiseModel(qubit_id=0, epochs=(
            Epoch(0, 0.5), Epoch(10, 0.4), Epoch(20, 0.6)))
        assert effective_bias(model, 9) == 0.5
        assert effective_bias(model, 10) == 0.4
        assert effective_bias(model, 19) == 0.4
        assert effective_bias(model, 20) == 0.6
        assert effective_bias(model, 10 ** 6) == 0.6

    def test_anomaly_override_window(self):
        model = QubitNoiseModel(
            qubit_id=0, epochs=(Epoch(0, 0.5),),
            anomaly=Anomaly(300, 320, p1_override=0.3))
        assert effective_bias(model, 299) == 0.5
        assert effective_bias(model, 300) == 0.3
        assert effective_bias(model, 319) == 0.3
        assert effective_bias(model, 320) == 0.5

    def test_anomaly_respects_epoch_readout_error(self):
        model = QubitNoiseModel(
            qubit_id=0, epochs=(Epoch(0, 0.5, eps01=0.02, eps10=0.06),),
            anomaly=Anomaly(0, 10, p1_override=0.3))
        # 0.3*0.94 + 0.7*0.02
        assert effective_bias(model, 0) == pytest.approx(0.296, abs=1e-15)

    def test_negative_index_rejected(self):
        with pytest.raises(DomainError, match="^sample_index must be >= 0, got -1$"):
            effective_bias(fair_model(), -1)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            QubitNoiseModel(qubit_id=0, epochs=())
        with pytest.raises(ValueError):
            QubitNoiseModel(qubit_id=0, epochs=(Epoch(1, 0.5),))
        with pytest.raises(ValueError):
            QubitNoiseModel(qubit_id=0, epochs=(Epoch(0, 0.5), Epoch(0, 0.4)))
        with pytest.raises(ValueError):
            QubitNoiseModel(qubit_id=-1, epochs=(Epoch(0, 0.5),))
        with pytest.raises(ValueError):
            Epoch(0, 1.5)
        with pytest.raises(ValueError):
            Anomaly(10, 10, 0.5)
        with pytest.raises(DomainError, match="real number"):
            Epoch(0, "0.5")
        with pytest.raises(DomainError, match="real number"):
            Epoch(0, 0.5, eps01=True)
        with pytest.raises(DomainError, match="real number"):
            Anomaly(0, 5, None)
        for bad_id in (True, "3", 2.0):
            with pytest.raises(DomainError, match="qubit_id must be an integer"):
                QubitNoiseModel(qubit_id=bad_id, epochs=(Epoch(0, 0.5),))
        for bad_start in (True, 1.5):
            with pytest.raises(DomainError, match="start_sample must be an integer"):
                Epoch(bad_start, 0.5)
        with pytest.raises(DomainError, match="stop_sample must be an integer"):
            Anomaly(0, 2.5, 0.5)
        with pytest.raises(DomainError, match="stop_sample must be >= 11, got 10"):
            Anomaly(10, 10, 0.5)
        with pytest.raises(DomainError, match="start_sample must be >= 0, got -1"):
            Epoch(-1, 0.5)


class TestGenerateSample:
    def test_a_row_numpy_cannot_hold_is_rejected(self):
        with pytest.raises(DomainError,
                           match=rf"ceil\(shots / 8\) must be a 63-bit value, got {2 ** 67}"):
            generate_sample(fair_model(), 0, 2 ** 70, 0)

    def test_deterministic_regeneration(self):
        a = generate_sample(fair_model(), 3, 8192, master_seed=99)
        b = generate_sample(fair_model(), 3, 8192, master_seed=99)
        assert a == b

    def test_key_separation(self):
        base = generate_sample(fair_model(), 3, 2048, master_seed=99)
        assert generate_sample(fair_model(), 4, 2048, master_seed=99) != base
        assert generate_sample(fair_model(qubit_id=1), 3, 2048, master_seed=99) != base
        assert generate_sample(fair_model(), 3, 2048, master_seed=100) != base

    def test_degenerate_biases(self):
        zeros = generate_sample(
            QubitNoiseModel(qubit_id=0, epochs=(Epoch(0, 0.0),)), 0, 8192, 1)
        assert zeros.count_ones() == 0
        ones = generate_sample(
            QubitNoiseModel(qubit_id=0, epochs=(Epoch(0, 1.0),)), 0, 8192, 1)
        assert ones.count_ones() == 8192

    def test_biased_proportion_within_binomial_bounds(self):
        model = QubitNoiseModel(qubit_id=2, epochs=(Epoch(0, 0.45),))
        seq = generate_sample(model, 0, 10 ** 6, master_seed=5)
        p_hat = seq.count_ones() / seq.n
        sigma = math.sqrt(0.45 * 0.55 / 10 ** 6)
        assert abs(p_hat - 0.45) < 3 * sigma

    @pytest.mark.parametrize("shots,digest", [
        (1001, "cc3c62de82f0dc7b1371b94d5a92ee71b297b87042744e03a6543d66e1661264"),
        (8192, "7b1e67eadf990c19f39c89d21ff6a8c00de0006171cae42f1111684c3327aa94"),
    ])
    @pytest.mark.parametrize("source", ["generate_sample", "generate_experiment"])
    def test_stream_is_pinned(self, shots, digest, source):
        # Recorded when shots were drawn as Generator(Philox).random(shots) < p_eff.
        # Samples 2..5 are in the anomaly window, 6 and 7 have p_eff = 0 and
        # 8..11 have p_eff = 1.  A set's rows are its samples, byte for byte.
        model = QubitNoiseModel(
            qubit_id=3, epochs=(Epoch(0, 0.5, 0.01, 0.02), Epoch(4, 0.0), Epoch(8, 1.0),
                                Epoch(12, 0.3, 0.05, 0.1)),
            anomaly=Anomaly(2, 6, 0.9))
        if source == "generate_sample":
            packed = b"".join(generate_sample(model, i, shots, 104729).packed.tobytes()
                              for i in range(16))
        else:
            plan = ExperimentPlan(qubit_models=(model,), samples_per_qubit=16,
                                  shots_per_sample=shots, master_seed=104729)
            packed = generate_experiment(plan)[0].packed.tobytes()
        assert hashlib.sha256(packed).hexdigest() == digest

    def test_threshold_matches_float_draws_at_the_boundary(self):
        # A shot reads 1 iff its uniform double u is below p_eff.  Setting
        # p_eff to one of the doubles, or to a neighbour of it, puts that
        # shot exactly on the boundary.
        reference = np.random.Generator(np.random.Philox(
            seed=np.random.SeedSequence(entropy=(5, 1, 0)))).random(64)
        for u in reference[:8]:
            for p in (u, np.nextafter(u, 1.0), np.nextafter(u, 0.0)):
                model = QubitNoiseModel(qubit_id=1, epochs=(Epoch(0, float(p)),))
                seq = generate_sample(model, 0, 64, master_seed=5)
                assert np.array_equal(seq.asarray(), reference < p), p

    def test_metadata(self):
        seq = generate_sample(fair_model(qubit_id=7), 11, 64, master_seed=1)
        assert seq.source_id == "qubit-07"
        assert seq.sample_index == 11
        assert seq.n == 64

    def test_argument_validation(self):
        for bad in (64.0, True, "64"):
            with pytest.raises(DomainError, match="shots must be an integer"):
                generate_sample(fair_model(), 0, bad, master_seed=1)
        with pytest.raises(DomainError, match="shots must be >= 1, got 0"):
            generate_sample(fair_model(), 0, 0, master_seed=1)
        for bad in (1.0, True):
            with pytest.raises(DomainError, match="master_seed must be an integer"):
                generate_sample(fair_model(), 0, 64, master_seed=bad)
        with pytest.raises(DomainError, match="64-bit"):
            generate_sample(fair_model(), 0, 64, master_seed=2 ** 64)
        for bad in (1.5, True, "1"):
            with pytest.raises(DomainError, match="sample_index must be an integer"):
                generate_sample(fair_model(), bad, 64, master_seed=1)
        with pytest.raises(DomainError, match="^sample_index must be >= 0, got -1$"):
            generate_sample(fair_model(), -1, 64, master_seed=1)


class TestVectorisedKeys:
    """One pass of key derivation and one Philox per qubit give numpy's streams."""

    SEEDS = (0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1)
    QUBITS = (0, 19, 20, 2 ** 32 + 5)
    # Up to seven entropy words: two each for the seed and qubit id, up to
    # two for the index, so the pool's third mixing loop runs.
    INDICES = (0, 578, 2 ** 32 - 1, 2 ** 32, 2 ** 40)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("qubit_id", QUBITS)
    def test_keys_equal_seed_sequence(self, seed, qubit_id):
        keys = _philox_keys(seed, qubit_id, self.INDICES)
        assert keys.dtype == np.uint64 and keys.shape == (len(self.INDICES), 2)
        for key, i in zip(keys, self.INDICES):
            expected = np.random.SeedSequence(entropy=(seed, qubit_id, i)).generate_state(
                2, np.uint64)
            assert key.tolist() == expected.tolist(), i

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rows_equal_a_fresh_philox_per_sample(self, seed):
        # 1001 shots leave Philox's four-value buffer part used after each
        # row, so a row that did not reset it would differ.
        shots = 1001
        model = QubitNoiseModel(qubit_id=2 ** 32 + 5, epochs=(Epoch(0, 0.3),))
        limit = math.ceil(math.ldexp(0.3, 53)) << 11
        indices = self.INDICES + self.INDICES[::-1]
        rows = _draw_rows(model, indices, shots, seed)
        for row, i in zip(rows, indices):
            key = np.random.SeedSequence(entropy=(seed, model.qubit_id, i))
            raw = np.random.Philox(seed=key).random_raw(shots)
            assert row.tobytes() == np.packbits(raw < limit).tobytes(), i
            assert row.tobytes() == generate_sample(model, i, shots, seed).packed.tobytes()


class TestGenerateExperiment:
    def test_shape_and_timestamps(self):
        plan = rs.unbiased_plan(num_qubits=3, samples_per_qubit=4,
                                shots_per_sample=32, master_seed=8)
        sets = generate_experiment(plan)
        assert [s.source_id for s in sets] == ["qubit-00", "qubit-01", "qubit-02"]
        for s in sets:
            assert len(s) == 4
            assert s.declared_length == 32
            deltas = {b.timestamp - a.timestamp for a, b in zip(s, list(s)[1:])}
            assert deltas == {timedelta(seconds=plan.sample_interval_s)}

    def test_sets_hold_one_read_only_matrix(self):
        plan = rs.biased_demo_plan(num_qubits=2, samples_per_qubit=7, shots_per_sample=1001,
                                   master_seed=3, anomaly_qubit=1)
        interval = timedelta(seconds=plan.sample_interval_s)
        for s, model in zip(generate_experiment(plan), plan.qubit_models):
            assert s.packed.shape == (7, 126) and s.packed.dtype == np.uint8
            assert s.packed.flags.c_contiguous and not s.packed.flags.writeable
            # 1001 = 125 * 8 + 1: the last byte carries one bit and seven zeros.
            assert not (s.packed[:, -1] & 0x7F).any()
            assert s.sample_indices == tuple(range(7))
            assert s.timestamps == tuple(plan.start_time + i * interval for i in range(7))
            for i in range(7):
                assert s[i] == generate_sample(model, i, 1001, plan.master_seed)

    def test_full_regeneration_is_bit_identical(self):
        plan = rs.unbiased_plan(num_qubits=2, samples_per_qubit=6,
                                shots_per_sample=512, master_seed=21)
        first = generate_experiment(plan)
        second = generate_experiment(plan)
        for a, b in zip(first, second):
            assert all(x == y for x, y in zip(a, b))

    def test_minimal_plan(self):
        plan = ExperimentPlan(qubit_models=(fair_model(),), samples_per_qubit=1,
                              shots_per_sample=10, master_seed=0)
        sets = generate_experiment(plan)
        assert len(sets) == 1 and len(sets[0]) == 1 and sets[0][0].n == 10

    def test_different_master_seeds_differ_heavily(self):
        plan_a = rs.unbiased_plan(num_qubits=1, samples_per_qubit=20,
                                  shots_per_sample=8192, master_seed=1)
        plan_b = rs.with_seed(plan_a, 2)
        bits_a = rs.concat_chronological(generate_experiment(plan_a)[0]).asarray()
        bits_b = rs.concat_chronological(generate_experiment(plan_b)[0]).asarray()
        hamming = float(np.mean(bits_a != bits_b))
        assert hamming >= 0.45

    def test_cross_correlation_between_streams(self):
        # lag-0 correlation between distinct (qubit, sample) sequences
        plan = rs.unbiased_plan(num_qubits=2, samples_per_qubit=5,
                                shots_per_sample=8192, master_seed=4)
        sets = generate_experiment(plan)
        seqs = [s.asarray().astype(np.float64) * 2 - 1 for ss in sets for s in ss]
        bound = 4.0 / math.sqrt(8192)
        for i in range(len(seqs)):
            for j in range(i + 1, len(seqs)):
                corr = float(np.mean(seqs[i] * seqs[j]))
                assert abs(corr) <= bound, (i, j, corr)

    def test_epoch_fidelity(self):
        plan = rs.biased_demo_plan(num_qubits=1, samples_per_qubit=100,
                                   shots_per_sample=8192, master_seed=10)
        model = plan.qubit_models[0]
        sample_set = generate_experiment(plan)[0]
        starts = [e.start_sample for e in model.epochs] + [plan.samples_per_qubit]
        for epoch, lo, hi in zip(model.epochs, starts, starts[1:]):
            ones = sum(s.count_ones() for s in list(sample_set)[lo:hi])
            total = (hi - lo) * plan.shots_per_sample
            p_hat = ones / total
            sigma = math.sqrt(epoch.p_eff * (1 - epoch.p_eff) / total)
            assert abs(p_hat - epoch.p_eff) < 3 * sigma, (lo, hi)

    def test_anomaly_depresses_min_entropy(self):
        plan = rs.biased_demo_plan(num_qubits=1, samples_per_qubit=100,
                                   shots_per_sample=8192, master_seed=11,
                                   anomaly_qubit=0)
        model = plan.qubit_models[0]
        assert abs(model.anomaly.p1_override - 0.5) > 0.05
        sample_set = generate_experiment(plan)[0]
        values = np.array([min_entropy(s) for s in sample_set])
        window = slice(model.anomaly.start_sample, model.anomaly.stop_sample)
        inside = values[window]
        outside = np.concatenate([values[:window.start], values[window.stop:]])
        assert float(np.median(inside)) < float(np.median(outside))
        assert inside.max() < np.percentile(outside, 1)


class TestPlans:
    def test_factories_default_to_the_plans_shape(self):
        for plan in (rs.unbiased_plan(), rs.biased_demo_plan()):
            assert (plan.samples_per_qubit, plan.shots_per_sample) == (579, 8192)

    # One qubit's packed samples must be an array numpy can represent; the
    # plans are only built, never generated.
    @pytest.mark.parametrize("samples,shots", [(100, 2 ** 63), (579, 2 ** 70), (2 ** 70, 8)])
    def test_a_shape_numpy_cannot_hold_is_rejected(self, samples, shots):
        message = (r"samples_per_qubit \* ceil\(shots_per_sample / 8\) must be a 63-bit value, "
                   f"got {samples * -(-shots // 8)}")
        with pytest.raises(DomainError, match=message):
            ExperimentPlan((fair_model(),), samples_per_qubit=samples, shots_per_sample=shots,
                           sample_interval_s=0)

    def test_the_largest_shape_is_accepted(self):
        plan = ExperimentPlan((fair_model(),), samples_per_qubit=2 ** 63 - 1, shots_per_sample=8,
                              sample_interval_s=0)
        assert plan.samples_per_qubit == 2 ** 63 - 1

    def test_biased_demo_plan_bias_range(self):
        plan = rs.biased_demo_plan(num_qubits=20, samples_per_qubit=579)
        effs = []
        for model in plan.qubit_models:
            for epoch in model.epochs:
                assert 0.0 <= epoch.eps01 <= 0.06
                assert 0.0 <= epoch.eps10 <= 0.06
                assert 0.47 <= epoch.p_eff <= 0.50
            effs.append(effective_bias(model, 0))
        assert min(effs) == pytest.approx(0.47, abs=0.002)
        assert max(effs) == pytest.approx(0.50, abs=0.002)

    def test_plan_json_round_trip(self, tmp_path):
        plan = rs.biased_demo_plan(num_qubits=4, samples_per_qubit=50,
                                   shots_per_sample=256, master_seed=77,
                                   anomaly_qubit=2)
        path = tmp_path / "plan.json"
        rs.save_plan(plan, path)
        assert rs.load_plan(path) == plan

    # Every field the writer puts in a plan document, the hand-written reader takes back.
    @given(plan=plans())
    @settings(max_examples=60, deadline=None)
    def test_any_plan_round_trips(self, plan):
        assert plan_from_dict(plan_to_dict(plan)) == plan
        assert plan_from_dict(json.loads(json.dumps(plan_to_dict(plan)))) == plan

    @pytest.mark.parametrize("name", ["biased_20q_anomalous", "desk_biased_5q", "unbiased_20q"])
    def test_committed_plans_round_trip(self, tmp_path, name):
        committed = Path(__file__).resolve().parents[1] / "plans" / f"{name}.json"
        rs.save_plan(rs.load_plan(committed), tmp_path / "plan.json")
        assert (tmp_path / "plan.json").read_bytes() == committed.read_bytes()

    # Each committed plan is what its builder writes, byte for byte.
    @pytest.mark.parametrize("name,build", [
        ("desk_biased_5q", lambda: rs.biased_demo_plan(5, 100, 8192, master_seed=7,
                                                       anomaly_qubit=4)),
        ("unbiased_20q", lambda: rs.unbiased_plan(20)),
        ("biased_20q_anomalous", lambda: rs.biased_demo_plan(20, master_seed=7,
                                                             anomaly_qubit=17))])
    def test_committed_plans_are_their_builders(self, tmp_path, name, build):
        committed = Path(__file__).resolve().parents[1] / "plans" / f"{name}.json"
        rs.save_plan(build(), tmp_path / "plan.json")
        assert (tmp_path / "plan.json").read_bytes() == committed.read_bytes()

    def test_naive_start_time_reads_as_utc(self):
        plan = ExperimentPlan(qubit_models=(fair_model(),), start_time=datetime(2019, 1, 1))
        assert plan.start_time == datetime(2019, 1, 1, tzinfo=timezone.utc)
        assert plan_to_dict(plan)["start_time"] == "2019-01-01T00:00:00+00:00"

    def test_integer_plan_numbers_are_numbers(self, tmp_path):
        doc = plan_to_dict(rs.unbiased_plan(num_qubits=1, samples_per_qubit=2))
        doc["qubits"][0]["epochs"][0].update(p1_state=1, eps01=0)
        doc["sample_interval_s"] = 60
        plan = plan_from_dict(doc)
        assert plan.qubit_models[0].epochs[0] == Epoch(0, 1.0, 0.0)
        assert plan.sample_interval_s == 60.0

    # As a null timestamp or start_time does, a null anomaly reads as none.
    def test_a_null_anomaly_reads_as_none(self, tmp_path):
        doc = plan_to_dict(rs.unbiased_plan(num_qubits=1, samples_per_qubit=2,
                                            shots_per_sample=64))
        plan = plan_from_dict(doc)
        doc["qubits"][0]["anomaly"] = None
        assert plan_from_dict(doc) == plan
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--plan", str(path), "--out", str(tmp_path / "out")]) == 0

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            ExperimentPlan(qubit_models=())
        with pytest.raises(ValueError):
            ExperimentPlan(qubit_models=(fair_model(), fair_model()))
        with pytest.raises(ValueError):
            ExperimentPlan(qubit_models=(fair_model(),), samples_per_qubit=0)
        with pytest.raises(ValueError):
            ExperimentPlan(qubit_models=(fair_model(),), master_seed=-1)
        for key, bad in (("master_seed", True), ("samples_per_qubit", 2.5),
                         ("shots_per_sample", 8.0), ("samples_per_qubit", "3")):
            with pytest.raises(DomainError, match=f"{key} must be an integer"):
                ExperimentPlan(qubit_models=(fair_model(),), **{key: bad})
        plan = ExperimentPlan(qubit_models=(fair_model(),))
        for bad in (2.5, True):
            with pytest.raises(DomainError, match="master_seed must be an integer"):
                rs.with_seed(plan, bad)

    # A plan file's error names the file once, and a constructor's error keeps its type.
    @pytest.mark.parametrize("mutate,error,after_name", [
        pytest.param(lambda doc: doc.update(qubits=[]), DomainError,
                     ": a plan needs at least one qubit model", id="no-qubits"),
        pytest.param(lambda doc: doc.update(samples_per_qubit=0), DomainError,
                     ": samples_per_qubit must be >= 1, got 0", id="no-samples"),
        pytest.param(lambda doc: doc["qubits"][1].update(qubit_id=doc["qubits"][0]["qubit_id"]),
                     DomainError, ": duplicate qubit_id in plan", id="duplicate-qubit-id"),
        pytest.param(lambda doc: doc.pop("shots_per_sample"), ManifestError,
                     " is malformed: 'shots_per_sample'", id="no-shots")])
    def test_plan_file_errors(self, tmp_path, mutate, error, after_name):
        doc = json.loads(DESK_PLAN.read_text())
        mutate(doc)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(RandsuiteError) as exc:
            rs.load_plan(path)
        assert type(exc.value) is error
        assert str(exc.value) == f"plan {path}{after_name}"

    def test_truncated_plan_file_is_not_json(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(DESK_PLAN.read_text()[:100])
        with pytest.raises(ManifestError, match=f"^plan {re.escape(str(path))} is not valid JSON: "):
            rs.load_plan(path)

    def test_plan_document_errors_keep_their_type(self):
        doc = json.loads(DESK_PLAN.read_text())
        doc["qubits"] = []
        with pytest.raises(DomainError) as exc:
            plan_from_dict(doc)
        assert type(exc.value) is DomainError
        assert str(exc.value) == "plan document: a plan needs at least one qubit model"

    def test_numpy_scalars_are_stored_as_python_numbers(self, tmp_path):
        epochs = (Epoch(np.int64(0), np.float32(0.5), np.float64(0.01)),
                  Epoch(np.int32(2), np.float32(0.25)))
        model = QubitNoiseModel(np.int64(3), epochs,
                                anomaly=Anomaly(np.int64(1), np.uint8(2), np.float32(0.125)))
        plan = ExperimentPlan((model,), samples_per_qubit=np.int64(4),
                              shots_per_sample=np.int16(64), master_seed=np.uint64(2 ** 63),
                              sample_interval_s=np.float32(2.5))
        assert type(plan.master_seed) is int and type(model.epochs[1].start_sample) is int
        assert type(plan.sample_interval_s) is float and type(model.anomaly.p1_override) is float
        rs.save_plan(plan, tmp_path / "plan.json")
        assert rs.load_plan(tmp_path / "plan.json") == plan
        # Python numbers are kept as given, so a saved plan's bytes do not move.
        assert type(Epoch(0, 1).p1_state) is int

    def test_unknown_encoding_is_rejected_before_any_directory(self, tmp_path):
        plan = rs.unbiased_plan(num_qubits=1, samples_per_qubit=2, shots_per_sample=64)
        with pytest.raises(ManifestError) as written:
            rs.write_experiment(plan, tmp_path / "out", encoding="utf-9")
        assert not (tmp_path / "out").exists()
        with pytest.raises(ManifestError) as serialized:
            rs.serialize_bits(rs.BitSequence([0, 1]), "utf-9")
        with pytest.raises(ManifestError) as parsed:
            rs.parse_bits(b"01", "utf-9")
        assert str(written.value) == str(serialized.value) == str(parsed.value) == (
            "unknown encoding 'utf-9'; expected one of ('ascii01', 'packed-msb', 'hex')")

    def test_write_experiment_layout(self, tmp_path):
        plan = rs.unbiased_plan(num_qubits=2, samples_per_qubit=3,
                                shots_per_sample=64, master_seed=6)
        manifests = rs.write_experiment(plan, tmp_path)
        assert [m.parent.name for m in manifests] == ["qubit-00", "qubit-01"]
        loaded = rs.load_sample_set(rs.load_manifest(manifests[0]))
        regenerated = generate_experiment(plan)[0]
        assert all(a == b for a, b in zip(loaded, regenerated))
        assert loaded[0].timestamp == regenerated[0].timestamp

    def test_qubit_ids_past_19(self, tmp_path):
        plan = ExperimentPlan(qubit_models=(fair_model(qubit_id=25),),
                              samples_per_qubit=3, shots_per_sample=64, master_seed=6)
        rs.save_plan(plan, tmp_path / "plan.json")
        assert rs.load_plan(tmp_path / "plan.json") == plan
        manifest = rs.write_experiment(plan, tmp_path / "out")[0]
        assert manifest == tmp_path / "out" / "qubit-25" / "manifest.json"
        loaded = rs.load_sample_set(rs.load_manifest(manifest))
        assert loaded.source_id == "qubit-25"
        assert all(a == b for a, b in zip(loaded, generate_experiment(plan)[0]))

    def test_write_experiment_commits_with_the_manifest(self, tmp_path, monkeypatch):
        plan = rs.unbiased_plan(num_qubits=2, samples_per_qubit=3,
                                shots_per_sample=64, master_seed=6)
        clean = rs.write_experiment(plan, tmp_path / "clean")
        out = tmp_path / "out"
        manifest = rs.write_experiment(rs.with_seed(plan, 7), out)[0]
        assert manifest.is_file()

        calls = []

        encode = rs.bitseq._encode

        def fail_on_second(row, n, encoding):
            calls.append(n)
            if len(calls) == 2:
                raise OSError("disk full")
            return encode(row, n, encoding)

        monkeypatch.setattr(rs.bitseq, "_encode", fail_on_second)
        with pytest.raises(OSError, match="disk full"):
            rs.write_experiment(plan, out)
        # The old manifest is gone, so it cannot declare the half-written set.
        assert not manifest.exists()
        assert not list(manifest.parent.glob("manifest.json*"))
        monkeypatch.undo()

        umask = os.umask(0o027)
        try:
            rerun = rs.write_experiment(plan, out)
        finally:
            os.umask(umask)
        for clean_path, rerun_path in zip(clean, rerun):
            for name in sorted(p.name for p in clean_path.parent.iterdir()):
                assert ((rerun_path.parent / name).read_bytes()
                        == (clean_path.parent / name).read_bytes()), name
            assert stat.S_IMODE(rerun_path.stat().st_mode) == 0o666 & ~0o027
