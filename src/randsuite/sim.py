"""Deterministic generator of noisy-qubit bit samples.

Each simulated qubit emits Bernoulli shots whose effective bias composes a
pre-readout excitation probability with an asymmetric readout error:

    p_eff = p1_state * (1 - eps10) + (1 - p1_state) * eps01

Parameters are piecewise-constant across calibration epochs, with an
optional anomaly window overriding the state bias mid-run.  Randomness
comes from a counter-based stream (Philox) keyed by
(master_seed, qubit_id, sample_index), so any sample can be regenerated
bit-for-bit in isolation and distinct samples are independent by key
separation, not by shared-stream discipline.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .bitseq import (MAX_SIZE, BitSequence, SampleSet, _built, _built_list, _document,
                     parse_timestamp, read_json, save_sample_set, write_json)
from .errors import DomainError, check_int, check_real

__all__ = [
    "Epoch",
    "Anomaly",
    "QubitNoiseModel",
    "ExperimentPlan",
    "effective_bias",
    "generate_sample",
    "generate_experiment",
    "unbiased_plan",
    "biased_demo_plan",
    "plan_to_dict",
    "plan_from_dict",
    "load_plan",
    "save_plan",
    "with_seed",
    "write_experiment",
]

# With the default interval, 579 samples span just under five days.
DEFAULT_SAMPLE_INTERVAL_S = 746.0
DEFAULT_START_TIME = datetime(2019, 1, 1, tzinfo=timezone.utc)


def check_seed(master_seed) -> int:
    """``master_seed`` as an ``int`` if it is an integer in [0, 2**64 - 1]; DomainError if not."""
    return check_int("master_seed", master_seed, 0, 2 ** 64 - 1)


def _store(obj, **values) -> None:
    """Set fields of a frozen dataclass to their checked values."""
    for name, value in values.items():
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class Epoch:
    """Noise parameters holding between two calibrations.

    ``p1_state`` is the probability the pre-readout state is 1 (an ideal
    Hadamard gives 0.5); ``eps01`` the probability of reading 1 given state
    0; ``eps10`` the probability of reading 0 given state 1.
    """

    start_sample: int
    p1_state: float
    eps01: float = 0.0
    eps10: float = 0.0

    def __post_init__(self):
        _store(self, start_sample=check_int("start_sample", self.start_sample, 0),
               p1_state=check_real("p1_state", self.p1_state, 0, 1),
               eps01=check_real("eps01", self.eps01, 0, 1),
               eps10=check_real("eps10", self.eps10, 0, 1))

    @property
    def p_eff(self) -> float:
        return self.p1_state * (1.0 - self.eps10) + (1.0 - self.p1_state) * self.eps01


@dataclass(frozen=True)
class Anomaly:
    """Overrides p1_state on the half-open sample range [start, stop)."""

    start_sample: int
    stop_sample: int
    p1_override: float

    def __post_init__(self):
        start = check_int("start_sample", self.start_sample, 0)
        _store(self, start_sample=start,
               stop_sample=check_int("stop_sample", self.stop_sample, start + 1),
               p1_override=check_real("p1_override", self.p1_override, 0, 1))

    def covers(self, sample_index: int) -> bool:
        return self.start_sample <= sample_index < self.stop_sample


@dataclass(frozen=True)
class QubitNoiseModel:
    """One simulated qubit: calibration epochs plus an optional anomaly."""

    qubit_id: int
    epochs: tuple[Epoch, ...]
    anomaly: Anomaly | None = None

    def __post_init__(self):
        _store(self, epochs=tuple(self.epochs),
               qubit_id=check_int("qubit_id", self.qubit_id, 0))
        if not self.epochs:
            raise DomainError("a noise model needs at least one epoch")
        if self.epochs[0].start_sample != 0:
            raise DomainError("epochs must cover sample indices from 0")
        starts = [e.start_sample for e in self.epochs]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise DomainError("epoch start_sample values must be strictly increasing")

    @property
    def source_id(self) -> str:
        return f"qubit-{self.qubit_id:02d}"


def effective_bias(model: QubitNoiseModel, sample_index: int) -> float:
    """Probability of reading 1 at ``sample_index`` under ``model``."""
    check_int("sample_index", sample_index, 0)
    epoch = model.epochs[bisect_right(model.epochs, sample_index,
                                      key=lambda e: e.start_sample) - 1]
    if model.anomaly is not None and model.anomaly.covers(sample_index):
        epoch = replace(epoch, p1_state=model.anomaly.p1_override)
    return epoch.p_eff


# Constants of numpy's SeedSequence, O'Neill's seed_seq_fe hash ("PCG: A
# Family of Simple Fast Space-Efficient Statistically Good Algorithms for
# Random Number Generation", 2014) with a pool of four 32-bit words.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _int_words(value: int) -> list[int]:
    """``value``'s little-endian 32-bit words, as SeedSequence splits an int; 0 is one word."""
    return [(value >> shift) & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]


def _philox_keys(master_seed: int, qubit_id: int, indices) -> np.ndarray:
    """``(len(indices), 2)`` uint64 keys: row r is
    ``SeedSequence(entropy=(master_seed, qubit_id, indices[r])).generate_state(2, np.uint64)``.

    The hash runs over all rows at once in uint32 arrays, whose arithmetic
    wraps as the C code's does.  Its multiplier sequence does not depend on
    the data.  A missing word among the pool's first four hashes as 0; an
    entropy word past them (a seed, qubit id or index of 2**32 or more)
    mixes into the pool only in the rows that have it.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> 16)

    prefix = _int_words(master_seed) + _int_words(qubit_id)
    indices = np.array([int(i) for i in indices], dtype=object)
    index_words = len(_int_words(max(indices)))
    columns = [np.full(len(indices), word, dtype=np.uint32) for word in prefix]
    columns += [((indices >> (32 * k)) & _MASK32).astype(np.uint32) for k in range(index_words)]
    columns += [np.zeros(len(indices), dtype=np.uint32)] * (_POOL_SIZE - len(columns))
    # Entropy words per row: the prefix and the index up to its highest nonzero word.
    length = np.full(len(indices), len(prefix) + 1)
    for k in range(1, index_words):
        length[columns[len(prefix) + k] != 0] = len(prefix) + k + 1

    pool = [hashmix(column) for column in columns[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(columns)):
        present = src < length
        for dst in range(_POOL_SIZE):
            pool[dst] = np.where(present, mix(pool[dst], hashmix(columns[src])), pool[dst])

    state, hash_const = [], _INIT_B
    for word in pool:
        word = word ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        word = word * np.uint32(hash_const)
        state.append((word ^ (word >> 16)).astype(np.uint64))
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)


def _draw_rows(model: QubitNoiseModel, indices, shots: int, master_seed: int) -> np.ndarray:
    """A packed ``(len(indices), ceil(shots/8))`` matrix whose row r is sample ``indices[r]``.

    Each sample has its own Philox stream, keyed by (master_seed, qubit_id, index), so no
    row depends on what else is generated.  The keys are the ones ``Philox(seed=
    SeedSequence(entropy=(master_seed, qubit_id, index)))`` takes; they come from one
    vectorised pass (:func:`_philox_keys`), and one ``Philox`` draws every row, its state
    reset to the row's key with counter 0 and an empty buffer, so the streams are those
    of a fresh ``Philox`` per sample.  Shot j reads 1 iff the stream's j-th double
    ``(raw_j >> 11) * 2**-53`` is below p_eff; ``p_eff * 2**53`` is exact, so the test is
    made on the raw 64-bit integers: ``raw_j < ceil(p_eff * 2**53) * 2**11``.
    """
    # 2**64 when p_eff = 1, which every uint64 is below.  effective_bias
    # checks each index, before any key is derived from it.
    limits = [math.ceil(math.ldexp(effective_bias(model, i), 53)) << 11 for i in indices]
    keys = _philox_keys(master_seed, model.qubit_id, indices)
    bit_generator = np.random.Philox(0)
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, dtype=np.uint64), "key": None},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    rows = np.empty((len(indices), -(-shots // 8)), dtype=np.uint8)
    for row, limit, key in zip(rows, limits, keys):
        state["state"]["key"] = key
        bit_generator.state = state
        row[:] = np.packbits(bit_generator.random_raw(shots) < limit)
    return rows


def generate_sample(model: QubitNoiseModel, sample_index: int, shots: int,
                    master_seed: int) -> BitSequence:
    """Generate one sample: ``shots`` Bernoulli(p_eff) draws in shot order.

    Identical (master_seed, qubit_id, sample_index, shots) reproduce it bit-for-bit,
    as row ``sample_index`` of the qubit's set from :func:`generate_experiment`.
    """
    shots = check_int("shots", shots, 1)
    check_int("ceil(shots / 8)", -(-shots // 8), 1, MAX_SIZE)
    check_seed(master_seed)
    [row] = _draw_rows(model, (sample_index,), shots, master_seed)
    return BitSequence._from_packed(row, shots, source_id=model.source_id,
                                    sample_index=int(sample_index))


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything needed to regenerate a multi-qubit experiment."""

    qubit_models: tuple[QubitNoiseModel, ...]
    samples_per_qubit: int = 579
    shots_per_sample: int = 8192
    master_seed: int = 0
    start_time: datetime = DEFAULT_START_TIME
    sample_interval_s: float = DEFAULT_SAMPLE_INTERVAL_S

    def __post_init__(self):
        _store(self, qubit_models=tuple(self.qubit_models),
               samples_per_qubit=check_int("samples_per_qubit", self.samples_per_qubit, 1),
               shots_per_sample=check_int("shots_per_sample", self.shots_per_sample, 1),
               master_seed=check_seed(self.master_seed),
               sample_interval_s=check_real("sample_interval_s", self.sample_interval_s,
                                            0, math.inf, "[)"))
        # The packed bytes of one qubit's samples, checked before generate_experiment
        # builds their indices or numpy is asked for their matrix.
        check_int("samples_per_qubit * ceil(shots_per_sample / 8)",
                  self.samples_per_qubit * -(-self.shots_per_sample // 8), 1, MAX_SIZE)
        if not self.qubit_models:
            raise DomainError("a plan needs at least one qubit model")
        if len({m.qubit_id for m in self.qubit_models}) != len(self.qubit_models):
            raise DomainError("duplicate qubit_id in plan")
        if not isinstance(self.start_time, datetime):
            raise DomainError(f"start_time must be a datetime, got {self.start_time!r}")
        if self.start_time.tzinfo is None:  # read as UTC, as a manifest's timestamps are
            _store(self, start_time=self.start_time.replace(tzinfo=timezone.utc))
        interval = self.sample_interval_s
        try:
            self.start_time + (self.samples_per_qubit - 1) * timedelta(seconds=interval)
        except OverflowError as exc:
            raise DomainError(f"sample_interval_s {interval} puts the last sample's "
                              f"timestamp out of range") from exc


def generate_experiment(plan: ExperimentPlan) -> list[SampleSet]:
    """One SampleSet per qubit, its matrix filled row by row, with advancing timestamps."""
    indices = tuple(range(plan.samples_per_qubit))
    interval = timedelta(seconds=plan.sample_interval_s)
    timestamps = tuple(plan.start_time + i * interval for i in indices)
    return [SampleSet._from_rows(_draw_rows(m, indices, plan.shots_per_sample, plan.master_seed),
                                 indices, timestamps, m.source_id, plan.shots_per_sample)
            for m in plan.qubit_models]


def unbiased_plan(num_qubits: int = 20,
                  samples_per_qubit: int = ExperimentPlan.samples_per_qubit,
                  shots_per_sample: int = ExperimentPlan.shots_per_sample,
                  master_seed: int = 42) -> ExperimentPlan:
    """Ideal reference plan: every qubit reads a fair coin, no readout error."""
    models = tuple(QubitNoiseModel(qubit_id=q, epochs=(Epoch(0, 0.5),))
                   for q in range(check_int("num_qubits", num_qubits, 1)))
    return ExperimentPlan(qubit_models=models, samples_per_qubit=samples_per_qubit,
                          shots_per_sample=shots_per_sample, master_seed=master_seed)


def biased_demo_plan(num_qubits: int = 20,
                     samples_per_qubit: int = ExperimentPlan.samples_per_qubit,
                     shots_per_sample: int = ExperimentPlan.shots_per_sample,
                     master_seed: int = 42,
                     anomaly_qubit: int | None = None) -> ExperimentPlan:
    """Plan with per-qubit effective biases spread over [0.47, 0.50].

    Readout asymmetries are synthetic but plausible (roughly 1-6 %) and drift
    slightly over five calibration epochs, a fifth of the samples each.  Qubit
    ``anomaly_qubit`` (None, or below ``num_qubits``) gets a mid-run state-bias
    anomaly.  Every epoch's p_eff stays inside [0.47, 0.50] by construction.
    """
    num_qubits = check_int("num_qubits", num_qubits, 1)
    samples_per_qubit = check_int("samples_per_qubit", samples_per_qubit, 1)
    if anomaly_qubit is not None and check_int("anomaly_qubit", anomaly_qubit, 0) >= num_qubits:
        raise DomainError(f"anomaly_qubit must be < num_qubits = {num_qubits}, "
                          f"got {anomaly_qubit}")
    num_epochs = 5
    models = []
    for q in range(num_qubits):
        frac = q / (num_qubits - 1) if num_qubits > 1 else 0.0
        target = 0.47 + 0.03 * frac
        p1 = 0.5 - 0.4 * (0.5 - target)
        epochs = []
        for e in range(num_epochs):
            start = e * samples_per_qubit // num_epochs
            if epochs and start <= epochs[-1].start_sample:
                continue
            eps01 = 0.01 + 0.002 * ((q + e) % 3)
            target_e = min(0.5, max(0.47, target + 0.001 * ((q + 2 * e) % 3 - 1)))
            eps10 = (p1 + (1.0 - p1) * eps01 - target_e) / p1
            epochs.append(Epoch(start, p1, eps01, eps10))
        anomaly = None
        if anomaly_qubit is not None and q == anomaly_qubit:
            start = samples_per_qubit // 2
            width = max(2, samples_per_qubit // 30)
            anomaly = Anomaly(start, min(start + width, samples_per_qubit), 0.3)
        models.append(QubitNoiseModel(qubit_id=q, epochs=tuple(epochs), anomaly=anomaly))
    return ExperimentPlan(qubit_models=tuple(models),
                          samples_per_qubit=samples_per_qubit,
                          shots_per_sample=shots_per_sample, master_seed=master_seed)


def plan_to_dict(plan: ExperimentPlan) -> dict:
    return _document(plan)


def _epoch(e) -> Epoch:
    return Epoch(e["start_sample"], e["p1_state"], e.get("eps01", 0.0), e.get("eps10", 0.0))


def _anomaly(a) -> Anomaly:
    return Anomaly(a["start_sample"], a["stop_sample"], a["p1_override"])


def _qubit(q) -> QubitNoiseModel:
    return QubitNoiseModel(
        qubit_id=q["qubit_id"], epochs=_built_list(q, "epochs", _epoch),
        anomaly=None if q.get("anomaly") is None else _built("anomaly", _anomaly, q["anomaly"]))


def _plan(doc) -> ExperimentPlan:
    return ExperimentPlan(
        qubit_models=_built_list(doc, "qubits", _qubit),
        samples_per_qubit=doc["samples_per_qubit"],
        shots_per_sample=doc["shots_per_sample"],
        master_seed=doc["master_seed"],
        start_time=parse_timestamp(doc.get("start_time"), "start_time") or DEFAULT_START_TIME,
        sample_interval_s=doc.get("sample_interval_s", DEFAULT_SAMPLE_INTERVAL_S),
    )


def plan_from_dict(doc: dict) -> ExperimentPlan:
    """The plan ``doc`` describes; a RandsuiteError it raises starts with ``plan document``."""
    return _built("plan document", _plan, doc)


def load_plan(path) -> ExperimentPlan:
    """Read a plan JSON file; a RandsuiteError it raises starts with ``plan <path>``."""
    return read_json(path, "plan", _plan)


def save_plan(plan: ExperimentPlan, path) -> None:
    write_json(path, plan_to_dict(plan))


def with_seed(plan: ExperimentPlan, master_seed: int) -> ExperimentPlan:
    """Same plan, different master seed."""
    return replace(plan, master_seed=master_seed)


def write_experiment(plan: ExperimentPlan, out_dir,
                     encoding: str = "packed-msb") -> list[Path]:
    """Generate the experiment, save each qubit's set to ``out_dir/<source_id>`` with
    :func:`~randsuite.bitseq.save_sample_set`, and return the manifest paths."""
    return [save_sample_set(sample_set, Path(out_dir) / sample_set.source_id, encoding)
            for sample_set in generate_experiment(plan)]
