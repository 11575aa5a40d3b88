"""The eight bit-sequence statistical tests.

Each test has one kernel over a stack of samples: a ``(rows, ceil(n/8))``
uint8 matrix of packed samples in, one statistic and one p-value per row
out.  :func:`run_batch` runs the selected kernels over a sample set's matrix;
:func:`run_test` is its one-row case, returning a :class:`TestOutcome` with
the observed statistic, the p-value, the pass/fail verdict at level ``alpha``
and a params record of the values behind them.

Conventions that remedy known defects in circulating descriptions of these
tests (both are recorded in every outcome's params so reports are
auditable):

* the spectral test's 95 % peak-height threshold is ``sqrt(n * ln(1/0.05))``
  (an n-independent threshold cannot bound moduli that grow like sqrt(n));
* the approximate-entropy statistic is ``2n * (ln 2 - (phi_m - phi_{m+1}))``
  (with ``ln n`` the statistic would not be chi-squared distributed, and the
  standard worked example is reproducible only with ``ln 2``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache, partial
from typing import Mapping, NamedTuple

import numpy as np

from .bitseq import BitSequence, ones_before
from .errors import (
    BlockTooLarge,
    DomainError,
    EmptySequence,
    PatternTooLong,
    SampleTooShort,
    check_int,
    check_real,
)
from .special import _scipy_fft, as_probability, erfc, normal_cdf, upper_igamc

__all__ = [
    "TestId",
    "TestParams",
    "TestOutcome",
    "Batch",
    "MIN_LENGTH",
    "ALL_TESTS",
    "run_test",
    "run_batch",
]


class TestId(str, Enum):
    """A test of the battery; an unknown value raises DomainError, naming the valid ones."""

    __test__ = False  # keep pytest from collecting this as a test class

    FREQUENCY = "frequency"
    BLOCK_FREQUENCY = "block_frequency"
    RUNS = "runs"
    LONGEST_RUN = "longest_run"
    DFT = "dft"
    APPROX_ENTROPY = "approx_entropy"
    CUSUM_FORWARD = "cusum_forward"
    CUSUM_BACKWARD = "cusum_backward"

    def __str__(self):
        return self.value

    @classmethod
    def _missing_(cls, value):
        valid = ", ".join(member.value for member in cls)
        raise DomainError(f"{value!r} is not a valid {cls.__name__}; valid values: {valid}")


ALL_TESTS = tuple(TestId)

# Minimum length for meaningful results, enforced unless
# TestParams.enforce_min_length is off.
MIN_LENGTH = {
    TestId.FREQUENCY: 100,
    TestId.BLOCK_FREQUENCY: 100,
    TestId.RUNS: 100,
    TestId.LONGEST_RUN: 128,
    TestId.DFT: 1000,
    TestId.APPROX_ENTROPY: 65,
    TestId.CUSUM_FORWARD: 100,
    TestId.CUSUM_BACKWARD: 100,
}


@dataclass(frozen=True)
class TestParams:
    """Knobs shared by the tests.

    ``enforce_min_length`` exists so the tiny pedagogical sequences used in
    the worked examples can run; leave it on for real data.
    """

    __test__ = False

    alpha: float = 0.01
    block_size_m: int = 128
    pattern_len_m: int = 2
    enforce_min_length: bool = True

    def __post_init__(self):
        object.__setattr__(self, "alpha", check_real("alpha", self.alpha, 0, 1, "()"))
        object.__setattr__(self, "block_size_m", check_int("block_size_m", self.block_size_m, 2))
        object.__setattr__(self, "pattern_len_m",
                           check_int("pattern_len_m", self.pattern_len_m, 1))
        if not isinstance(self.enforce_min_length, bool):
            raise DomainError(f"enforce_min_length must be a bool, "
                              f"got {self.enforce_min_length!r}")


@dataclass(frozen=True)
class TestOutcome:
    """One test applied to one sample."""

    __test__ = False

    test_id: TestId
    statistic: float
    p_value: float
    passed: bool
    params: Mapping[str, object]


class Batch(NamedTuple):
    """One test over a stack of samples, one entry per row.

    ``record`` holds the values behind the statistics: per-row arrays
    (``n_obs``, ``phi_m``, ``class_counts``, ...) and constants (``n``,
    conventions).  :func:`run_test` turns it into
    :attr:`TestOutcome.params`.
    """

    statistics: np.ndarray
    p_values: np.ndarray
    passed: np.ndarray
    record: dict


# Bits of stacked samples per kernel chunk.  Rows are processed this many
# bits at a time so that the workspace below stays at a few MB; a longer
# sample is a chunk of its own.
_CHUNK_BITS = 1 << 18


def _as_buffer(buffer: np.ndarray, dtype, shape) -> np.ndarray:
    """The start of a contiguous buffer, viewed as a ``dtype`` array of ``shape``."""
    return buffer.reshape(-1).view(dtype)[:math.prod(shape)].reshape(shape)


class _Workspace:
    """Buffers that every chunk of one :func:`run_batch` call reuses, sized
    for the spectral transform of n-bit rows: the four-step one with split
    ``n2``, or the single one where ``n2`` is None.

    For the single transform, ``scratch`` holds 8 bytes per bit of the
    chunk and serves, in turn, as the input and its moduli, float64 or
    float32; ``spectrum`` holds the chunk's Fourier coefficients, complex128
    or complex64, and then the moduli's comparisons with the threshold.  The
    four-step transform takes one sample at a time: ``scratch`` holds one
    block of _FOUR_STEP_BLOCK rows of the sample's transposed (n1, n2) view,
    and in turn that block's moduli and their comparisons; ``spectrum``
    holds the sample's whole spectrum, 8 bytes per bit.  Every transform
    writes into these buffers: fresh multi-MB temporaries per chunk would
    be faulted in page by page every time.  ``np.empty`` writes nothing, so
    a buffer that no selected kernel touches never has a page faulted in.
    """

    def __init__(self, rows: int, n: int, n2: int | None):
        if n2 is None:
            self.scratch = np.empty(rows * n, dtype=np.float64)
            self.spectrum = np.empty(rows * (n // 2 + 1), dtype=np.complex128)
        else:
            n1 = n // n2
            self.scratch = np.empty(min(n1, _FOUR_STEP_BLOCK) * n2, dtype=np.float64)
            self.spectrum = np.empty(n1 * (n2 // 2 + 1), dtype=np.complex128)


class _Rows:
    """One chunk of packed samples, with values shared between kernels."""

    def __init__(self, packed: np.ndarray, n: int, work: _Workspace):
        self.packed = packed
        self.n = n
        self.work = work

    @cached_property
    def ones(self) -> np.ndarray:
        return np.bitwise_count(self.packed).sum(axis=1, dtype=np.int64)

    @cached_property
    def walk(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(S_n, min S, max S) of each row's +/-1 partial sums, S_0 = 0 included.

        Walked a byte at a time: ``sums`` holds S at the end of each byte,
        and the lowest and highest S inside a byte are that byte's end
        value plus a table entry.
        """
        packed = self.packed
        valid = self.n - 8 * (packed.shape[1] - 1)
        net, low, high = (_by_valid_bits(table, packed, valid) for table in _WALK_TABLES)
        sums = np.cumsum(net, axis=1, dtype=_accumulator(self.n))
        return (sums[:, -1].astype(np.int64),
                np.minimum((sums + low).min(axis=1), 0).astype(np.int64),
                np.maximum((sums + high).max(axis=1), 0).astype(np.int64))


def _walk_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Byte tables of the +/-1 walk, one row per count v of leading bits walked.

    Entry ``[v, b]`` is, over the first v bits of byte value b (most
    significant first): the net step, and the lowest and the highest
    partial sum minus that net step.  Row 0 is unused.
    """
    steps = 2 * np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).astype(np.int8) - 1
    prefix = np.cumsum(steps, axis=1, dtype=np.int8)
    tables = np.zeros((3, 9, 256), dtype=np.int8)
    for v in range(1, 9):
        net = prefix[:, v - 1]
        tables[:, v] = net, prefix[:, :v].min(axis=1) - net, prefix[:, :v].max(axis=1) - net
    return tables[0], tables[1], tables[2]


_WALK_TABLES = _walk_tables()


def _by_valid_bits(table: np.ndarray, packed: np.ndarray, valid: int) -> np.ndarray:
    """``table`` looked up per byte: all 8 bits of each byte, ``valid`` of the last."""
    out = np.take(table[8], packed)
    out[:, -1] = np.take(table[valid], packed[:, -1])
    return out


def _accumulator(n: int):
    """Narrowest signed integer type that holds every partial sum of n steps."""
    for dtype in (np.int16, np.int32):
        if n <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def _check(test_id: TestId, n: int, params: TestParams) -> None:
    """Raise the error a test gives for n-bit samples under ``params``, if any."""
    min_n = MIN_LENGTH[test_id]
    # The longest-run minimum holds regardless of enforce_min_length: no block
    # size is defined below it.
    if n < min_n and (params.enforce_min_length or test_id is TestId.LONGEST_RUN):
        why = " (no block size is defined below that)" if test_id is TestId.LONGEST_RUN else ""
        raise SampleTooShort(f"{test_id.value} needs at least {min_n} bits{why}, got {n}")
    if n == 0:
        raise EmptySequence(f"{test_id.value} needs a non-empty sequence")
    if test_id is TestId.BLOCK_FREQUENCY and params.block_size_m > n:
        raise BlockTooLarge(f"block size {params.block_size_m} exceeds sequence length {n}")
    if test_id is TestId.APPROX_ENTROPY:
        m = params.pattern_len_m
        if m + 1 > n or m > 24:
            raise PatternTooLong(f"pattern length {m} is not usable at n={n}")
        if params.enforce_min_length and m >= int(math.log2(n)) - 1:
            raise PatternTooLong(
                f"pattern length {m} is too long for meaningful results at n={n} "
                f"(need m < floor(log2(n)) - 1)")
        # The counts take 2^(m+1) values per row.  Past both n and 2^16 a
        # pattern expects less than one window, and the memory grows with
        # 2^m instead of n.  Under the enforced minimum length it never binds.
        if 2 ** (m + 1) > max(n, 2 ** 16):
            raise PatternTooLong(f"pattern length {m} is too long at n={n}: its "
                                 f"2^(m+1) = {2 ** (m + 1)} patterns exceed max(n, 2^16)")


# Each test is a pair of functions.  ``count`` maps one chunk of rows to
# per-row values (mostly integer counts); ``finish`` maps those values for
# all rows to (statistic, p-value, record) arrays, so the special functions
# run once per sample set.  ``run_test``'s docstring documents each test.

def _frequency_count(rows: _Rows, params: TestParams) -> dict:
    return {"ones": rows.ones}


def _frequency_finish(values: dict, n: int, params: TestParams):
    s_n = 2 * values["ones"] - n
    s_obs = np.abs(s_n) / math.sqrt(n)
    return s_obs, erfc(s_obs / math.sqrt(2)), {"n": n, "partial_sum": s_n}


def _block_frequency_count(rows: _Rows, params: TestParams) -> dict:
    m = params.block_size_m
    edges = m * np.arange(rows.n // m + 1)
    ones = np.diff(ones_before(rows.packed, edges), axis=1)
    # Terms are multiples of 1/4, so the sum is exact in any order.
    return {"squares": ((ones - m / 2.0) ** 2).sum(axis=1)}


def _block_frequency_finish(values: dict, n: int, params: TestParams):
    m = params.block_size_m
    num_blocks = n // m
    # 4M * sum((pi_i - 1/2)^2) computed on integer one-counts so that the
    # worked examples come out exact.
    chi2 = 4.0 * values["squares"] / m
    return chi2, upper_igamc(num_blocks / 2.0, chi2 / 2.0), {
        "n": n, "block_size_m": m, "num_blocks": num_blocks,
        "discarded_bits": n - num_blocks * m}


def _runs_count(rows: _Rows, params: TestParams) -> dict:
    # Bit i of (row XOR row shifted left by one) is 1 where bits i and i+1
    # differ; only the first n - 1 positions compare two real bits.
    packed = rows.packed
    shifted = packed << 1
    shifted[:, :-1] |= packed[:, 1:] >> 7
    changes = packed ^ shifted
    valid = rows.n - 1 - 8 * (packed.shape[1] - 1)
    changes[:, -1] &= (0xFF << (8 - valid)) & 0xFF
    return {"ones": rows.ones,
            "transitions": np.bitwise_count(changes).sum(axis=1, dtype=np.int64)}


def _runs_finish(values: dict, n: int, params: TestParams):
    v_obs = values["transitions"] + 1
    pi = values["ones"] / n
    ok = (np.abs(pi - 0.5) < 2.0 / math.sqrt(n)) & (pi != 0.0) & (pi != 1.0)
    p = np.zeros(pi.shape)
    q = pi[ok]
    p[ok] = erfc(np.abs(v_obs[ok] - 2.0 * n * q * (1 - q))
                 / (2.0 * math.sqrt(2.0 * n) * q * (1 - q)))
    return v_obs, p, {"n": n, "proportion_of_ones": pi, "prerequisite_ok": ok}


# Block size selection and reference class probabilities for the
# longest-run test, keyed by minimum sequence length.  Every block size is
# a whole number of bytes.
_LONGEST_RUN_CONFIG = (
    # (min_n, M, K, N, run-length upper edge of lowest class, pi table)
    (750000, 10000, 6, 75, 10,
     (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
    (6272, 128, 5, 49, 4,
     (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)),
    (128, 8, 3, 16, 1,
     (0.2148, 0.3672, 0.2305, 0.1875)),
)


def _longest_run_config(n: int):
    return next(c for c in _LONGEST_RUN_CONFIG if n >= c[0])


def _longest_run_count(rows: _Rows, params: TestParams) -> dict:
    _, m, k, num_blocks, v0_edge, _ = _longest_run_config(rows.n)
    # After the step for `length`, bit i of a block is set iff bits
    # i..i+length-1 of the block are all ones, so a block has a run of
    # `length` ones iff it is still nonzero.  A block's class is the number
    # of class edges v0_edge+1..v0_edge+k that its longest run reaches.
    # Blocks are shifted as big-endian words of gcd(M/8, 8) bytes (8 at
    # M = 128, 2 at M = 10000, 1 at M = 8), so bit order is sequence order
    # and each word takes its carry from the top bit of the next.
    r = len(rows.packed)
    size = math.gcd(m // 8, 8)
    per_block = m // 8 // size
    x = (rows.packed[:, :num_blocks * m // 8].reshape(-1, size)
         .view(f">u{size}").astype(f"u{size}").reshape(-1))
    shifted, carry = np.empty_like(x), np.empty_like(x)
    classes = np.zeros(len(x) // per_block, dtype=np.intp)
    for length in range(2, v0_edge + k + 1):
        np.left_shift(x, 1, out=shifted)
        np.right_shift(x[1:], 8 * size - 1, out=carry[:-1])
        carry[per_block - 1::per_block] = 0  # nothing carries across a block's end
        shifted |= carry
        x &= shifted
        if length > v0_edge:
            classes += np.bitwise_or.reduce(x.reshape(-1, per_block), axis=1) != 0
    classes += (k + 1) * np.repeat(np.arange(r), num_blocks)
    return {"class_counts": np.bincount(classes, minlength=r * (k + 1)).reshape(r, k + 1)}


def _longest_run_finish(values: dict, n: int, params: TestParams):
    _, m, k, num_blocks, _, pis = _longest_run_config(n)
    counts = values["class_counts"]
    expected = num_blocks * np.asarray(pis)
    chi2 = (((counts - expected) ** 2) / expected).sum(axis=-1)
    return chi2, upper_igamc(k / 2.0, chi2 / 2.0), {
        "n": n, "block_size_m": m, "num_classes_k": k, "num_blocks": num_blocks,
        "class_counts": counts, "discarded_bits": n - num_blocks * m}


_DFT_THRESHOLD_FORMULA = "sqrt(n*ln(1/0.05))"


def _dft_threshold(n: int) -> float:
    return math.sqrt(n * math.log(1.0 / 0.05))


# Samples of at least this many bits take the four-step transform (Bailey,
# "FFTs in external or hierarchical memory", 1990): one transform of n
# points becomes about 1.5 sqrt(n) transforms of about sqrt(n) points, whose
# data stay in cache.  Below it the single real FFT is as fast or faster.
_FOUR_STEP_MIN_N = 1 << 17

# Relative distance from the threshold within which a four-step modulus
# might fall on the other side of it than the single transform's modulus
# of the same bin.  At n = 2^20, where the half threshold is about 886,
# the two differed by at most 1.2e-12 on random rows and 2e-11 on
# structured ones (periodic, constant, single runs): 2.2e-14 of it.
_FOUR_STEP_GUARD = 1e-9

# Rows of the transposed (n1, n2) view that the four-step transform takes
# at a time (see _dft_four_step).  At n = 2^20 a block of 128 rows is 1 MB
# of float64 input, half a 2 MB L2 cache.  Against 128 rows, measured per
# row at 2^17, 2^18 and 2^20: 64 rows saved half a byte per bit but took
# 3-6% longer, and 256 rows took 1-2 bytes per bit more for under 2% less
# time at 2^17 and 2^18 and 2% more at 2^20.
_FOUR_STEP_BLOCK = 128

# Samples of at most this many bits take their moduli from a float32
# transform.  A row has about 0.3 * g * n moduli inside a guard band of
# relative width g, and every flagged row is transformed again in float64:
# at 24576 and 2^15 bits those recounts cancel what single precision saves,
# and at 2^15 structured rows err by more than a tenth of the guard below.
_FLOAT32_MAX_N = 1 << 14

# Relative distance from the threshold within which a float32 modulus might
# fall on the other side of it than the float64 modulus of the same bin.
# The input's +/-1/2 values are exact in float32.  The transform's rounding
# error scales with the input's norm, which by Parseval is
# ||x||_2 = sqrt(n)/2 whatever the row, as the half threshold sqrt(n ln 20)/2
# does; so on random rows the error relative to the threshold hardly
# depends on n.  A structured row, whose energy sits in a few large bins,
# spreads more error into the others, and more as n grows.  Measured
# against the float64 moduli, over bins below twice the threshold, at
# n = 1001, 8190, 8192, 12288, 16382 and 16384: at most 8.1e-7 of the
# threshold on 10^4 random rows at each n, and at most 4.1e-6 on about
# 2,300 structured rows at each n (periodic with many periods, duties and
# phases, single runs, sparse, biased and noisy periodic rows).  The guard
# is more than 10 times that.  The moduli are compared in float32: rounding
# the band's edges moves them by 6e-8 of the threshold, far inside the band.
_FLOAT32_GUARD = 5e-5


def _four_step_split(n: int) -> int | None:
    """n2 of the four-step split n = n1 * n2, or None for the single transform.

    n2 is the even divisor of n nearest sqrt(n) for which n1 and n2 are
    both at least 64.
    """
    if n < _FOUR_STEP_MIN_N:
        return None
    small = np.arange(1, math.isqrt(n) + 1)
    small = small[n % small == 0]
    divisors = np.concatenate([small, n // small])
    usable = divisors[(divisors % 2 == 0) & (np.minimum(divisors, n // divisors) >= 64)]
    return min(usable.tolist(), key=lambda d: (abs(d - math.sqrt(n)), d), default=None)


@lru_cache(maxsize=2)
def _twiddle_factors(n: int, n1: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only W_n^(i*B*c) and W_n^(j*c), W_n = exp(-2 pi i / n), for the
    blocks i and the rows j < B of a block, B = min(n1, _FOUR_STEP_BLOCK),
    and c = 0..n2/2: the product of rows i and j is row b = i*B + j of the
    four-step twiddle factors W_n^(b*c)."""
    block, width = min(n1, _FOUR_STEP_BLOCK), n // n1 // 2 + 1
    return (_unit_powers(n, np.arange(0, n1, block), width),
            _unit_powers(n, np.arange(block), width))


def _unit_powers(n: int, rows: np.ndarray, width: int) -> np.ndarray:
    """Read-only W_n^(r*c) for each r in ``rows`` and c = 0..width-1."""
    table = np.empty((len(rows), width), dtype=np.complex128)
    angle = table.real
    # Each r * c < n is an exact float64.
    np.multiply.outer(rows.astype(np.float64), np.arange(width, dtype=np.float64), out=angle)
    angle *= -2.0 * math.pi / n
    np.sin(angle, out=table.imag)
    np.cos(angle, out=angle)
    table.flags.writeable = False
    return table


def _guarded_count(moduli: np.ndarray, below: np.ndarray, limit: float,
                   guard: float) -> tuple[np.ndarray, np.ndarray]:
    """Each row's count of ``moduli`` below ``(1 - guard) * limit``, and the
    rows with a modulus in ``[(1 - guard) * limit, (1 + guard) * limit)``.

    If no modulus of a row is farther than ``guard * limit`` from the exact
    value, the row's count below ``limit`` is the count returned unless the
    row is flagged.  ``below``, a bool array of the 2-D ``moduli``'s shape,
    is left holding the comparisons with the lower edge.
    """
    np.less(moduli, (1.0 + guard) * limit, out=below)
    upper = np.count_nonzero(below, axis=1)
    np.less(moduli, (1.0 - guard) * limit, out=below)
    lower = np.count_nonzero(below, axis=1)
    return lower, upper != lower


def _dft_single(bits: np.ndarray, work: _Workspace, limit: float, dtype,
                guard: float) -> tuple[np.ndarray, np.ndarray]:
    """Each row's count of moduli below ``limit`` in bins 0..floor(n/2)-1,
    from one real FFT in ``dtype``, and the rows with a modulus within
    ``guard`` of ``limit``, relative to it, whose count is not to be trusted.

    In float64 with guard 0 this is the exact count, which every faster
    transform's flagged rows are counted again by; in float32 with
    _FLOAT32_GUARD it is the fast one.
    """
    r, n = bits.shape
    half = n // 2
    x = _as_buffer(work.scratch, dtype, (r, n))
    np.subtract(bits, dtype(0.5), out=x)
    # complex64 for float32, complex128 for float64.
    spectrum = _as_buffer(work.spectrum, np.result_type(dtype, np.complex64), (r, half + 1))
    _scipy_fft()(x, out=spectrum)
    moduli = _as_buffer(work.scratch, dtype, (r, half))
    np.abs(spectrum[:, :half], out=moduli)
    # The spectrum is spent; its memory takes the comparisons.
    below = _as_buffer(work.spectrum, np.bool_, (r, half))
    return _guarded_count(moduli, below, limit, guard)


def _dft_four_step(row: np.ndarray, work: _Workspace, limit: float,
                   n2: int) -> tuple[int, bool]:
    """The exact count (see :func:`_dft_single`) for one row of bits by the
    four-step transform, and whether a modulus is too close to ``limit``
    for the count to be trusted.

    With j = b + n1 * a and k = c + n2 * d, the row viewed as an (n2, n1)
    array is written transposed, as an (n1, n2) array, so that its real
    transform along a runs over contiguous rows (columns c = 0..n2/2).  It
    is multiplied by W_n^(b*c) and transformed along b in place: column c
    then holds X[c + n2 * d].  Only that spectrum is whole at any time: the
    rows b are written, transformed and multiplied a block at a time, and
    the moduli are compared a block at a time, all in one block buffer.
    Columns n2/2+1..n2-1 would hold the conjugates of columns n2/2-1..1, so
    those count twice and columns 0 and n2/2 once: ``full`` counts all n
    bins.  X_0 and X_{n/2} are their own conjugates and every other bin
    pairs with one in 1..n/2-1, so full is [X_0] + [X_{n/2}] plus twice the
    count over 1..n/2-1, and (full + [X_0]) // 2 is the count over 0..n/2-1.
    """
    n = row.size
    n1 = n // n2
    block = min(n1, _FOUR_STEP_BLOCK)
    starts = range(0, n1, block)
    spectrum = _as_buffer(work.spectrum, np.complex128, (n1, n2 // 2 + 1))
    columns = row.reshape(n2, n1).T
    outer, inner = _twiddle_factors(n, n1)
    for start, factors in zip(starts, outer):
        x = _as_buffer(work.scratch, np.float64, (min(block, n1 - start), n2))
        # The transposing copy costs less than a transform along strided data.
        np.subtract(columns[start:start + block], 0.5, out=x)
        part = spectrum[start:start + block]
        np.fft.rfft(x, axis=1, out=part)
        part *= inner[:len(x)]
        part *= factors
    np.fft.fft(spectrum, axis=0, out=spectrum)
    full, unsure = 0, False
    for start in starts:
        part = spectrum[start:start + block]
        moduli = _as_buffer(work.scratch, np.float64, part.shape)
        np.abs(part, out=moduli)
        below = _as_buffer(work.scratch[moduli.size:], np.bool_, part.shape)
        lower, flagged = _guarded_count(moduli, below, limit, _FOUR_STEP_GUARD)
        full += (2 * int(lower.sum()) - np.count_nonzero(below[:, 0])
                 - np.count_nonzero(below[:, -1]))
        unsure = unsure or bool(flagged.any())
        if not start:
            x0 = int(below[0, 0])
    return (full + x0) // 2, unsure


def _dft_n_obs(bits: np.ndarray, work: _Workspace, limit: float) -> np.ndarray:
    """The exact counts (see :func:`_dft_single`), by a faster transform where n allows.

    Up to _FLOAT32_MAX_N bits the float32 single transform counts, from
    _FOUR_STEP_MIN_N bits the four-step one, and in between (or where n
    has no four-step split) the float64 single transform.  The two fast
    transforms flag the rows with a modulus near ``limit``; the float64
    single transform counts those rows again.
    """
    n = bits.shape[1]
    n2 = _four_step_split(n)
    if n2 is not None:
        # One sample at a time, so that the workspace holds one sample's spectrum.
        counts = [_dft_four_step(row, work, limit, n2) for row in bits]
        n_obs, unsure = (np.array(values) for values in zip(*counts))
    elif n <= _FLOAT32_MAX_N:
        n_obs, unsure = _dft_single(bits, work, limit, np.float32, _FLOAT32_GUARD)
    else:
        n_obs, unsure = _dft_single(bits, work, limit, np.float64, 0.0)
    if unsure.any():
        # The single transform rebuilds these rows' input from the bits.  A
        # four-step workspace holds blocks, not whole rows, so the rare
        # four-step recount brings its own buffers.
        flagged = bits[unsure]
        if n2 is not None:
            work = _Workspace(len(flagged), n, None)
        n_obs[unsure] = _dft_single(flagged, work, limit, np.float64, 0.0)[0]
    return n_obs


def _dft_count(rows: _Rows, params: TestParams) -> dict:
    # The bits are mapped to +/-1/2 rather than +/-1.  Halving is exact in
    # binary floating point, so every modulus is exactly half of its +/-1
    # value and is compared with exactly half the threshold.  Only this test
    # reads the bits unpacked, one byte each; they are freed on return.
    bits = np.unpackbits(rows.packed, axis=1, count=rows.n)
    return {"n_obs": _dft_n_obs(bits, rows.work, 0.5 * _dft_threshold(rows.n))}


def _dft_finish(values: dict, n: int, params: TestParams):
    n_obs = values["n_obs"]
    n_ideal = 0.95 * n / 2.0
    d = (n_ideal - n_obs) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    return d, erfc(np.abs(d) / math.sqrt(2)), {
        "n": n, "threshold": _dft_threshold(n),
        "threshold_formula": _DFT_THRESHOLD_FORMULA, "n_ideal": n_ideal, "n_obs": n_obs}


def _phi(counts: np.ndarray, n: int) -> np.ndarray:
    """Sum of (count/n) * ln(count/n) over the patterns of each row, 0 * ln 0 := 0.

    That is the sum over the observed patterns (NIST SP 800-22, 2.12).  A
    row's sum depends on that row alone, so a one-row call gives the same
    float as any batch that holds the row.
    """
    freq = counts / n
    return (freq * np.log(freq, out=np.zeros_like(freq), where=counts > 0)).sum(axis=1)


# Approximate entropy counts its windows a byte at a time for pattern
# lengths up to this one, and bit by bit above it.  The byte path's table
# has 2^(2m+9) entries; at n = 8192 it is the faster path up to m = 5 and
# the slower one from m = 6 on.
_APEN_BYTE_MAX_M = 5


@lru_cache(maxsize=None)
def _window_table(m: int) -> np.ndarray:
    """Read-only (2^(8+m), 2^(m+1)) float64 table of approximate entropy's
    byte keys: entry [key, p] is how many of the 8 (m+1)-bit windows that
    start at bits 0..7 of the (8+m)-bit key (most significant first) show
    pattern p."""
    keys = np.arange(2 ** (8 + m))
    table = np.zeros((len(keys), 2 ** (m + 1)))
    for start in range(8):
        table[keys, (keys >> (7 - start)) & (2 ** (m + 1) - 1)] += 1
    table.flags.writeable = False
    return table


def _pattern_counts(packed: np.ndarray, n: int, m: int) -> np.ndarray:
    """Each row's counts of the n cyclic (m+1)-bit windows, by pattern.

    The first m bits are appended to each row, so there are exactly n
    windows.  The 8 windows that start in each of the first ``whole`` bytes
    end before bit n: that byte and the top m bits of the next make an
    (8+m)-bit key, one bincount over all rows counts the keys (2^(8+m) bins
    per row), and the window table turns key counts into pattern counts.
    The remaining windows, m to m + 7 of them (all n when m is above
    _APEN_BYTE_MAX_M), are counted bit by bit from their codes.  The
    float64 counts are exact integers.
    """
    r, size = len(packed), 2 ** (m + 1)
    whole = (n - m) // 8 if m <= _APEN_BYTE_MAX_M else 0
    counts = np.zeros((r, size))
    if whole:
        keys = packed[:, :whole].astype(np.intp)
        keys <<= m
        keys |= packed[:, 1:whole + 1] >> (8 - m)
        keys += (np.arange(r, dtype=np.intp) << (8 + m))[:, None]
        hist = np.bincount(keys.reshape(-1), minlength=r << (8 + m))
        np.matmul(hist.reshape(r, -1), _window_table(m), out=counts)
    # The windows from bit 8 * whole on: the row's bits from there with its
    # first m bits appended, which is the wrap.
    width = n - 8 * whole
    tail = np.concatenate([np.unpackbits(packed[:, whole:], axis=1, count=width),
                           np.unpackbits(packed[:, :(m + 7) // 8], axis=1, count=m)], axis=1)
    codes = tail[:, :width].astype(np.intp)
    for j in range(1, m + 1):
        codes <<= 1
        codes |= tail[:, j:j + width]
    codes += size * np.arange(r, dtype=np.intp)[:, None]
    counts += np.bincount(codes.reshape(-1), minlength=size * r).reshape(r, size)
    return counts


def _approx_entropy_count(rows: _Rows, params: TestParams) -> dict:
    # The m-bit counts are the (m+1)-bit counts summed over the last bit.
    counts = _pattern_counts(rows.packed, rows.n, params.pattern_len_m)
    r, size = counts.shape
    return {"phi_m": _phi(counts.reshape(r, size // 2, 2).sum(axis=2), rows.n),
            "phi_m1": _phi(counts, rows.n)}


_APEN_STATISTIC_FORMULA = "2*n*(ln(2) - (phi_m - phi_{m+1}))"


def _approx_entropy_finish(values: dict, n: int, params: TestParams):
    m = params.pattern_len_m
    phi_m, phi_m1 = values["phi_m"], values["phi_m1"]
    obs = 2.0 * n * (math.log(2.0) - (phi_m - phi_m1))
    return obs, upper_igamc(2.0 ** (m - 1), obs / 2.0), {
        "n": n, "pattern_len_m": m, "phi_m": phi_m, "phi_m1": phi_m1,
        "statistic_formula": _APEN_STATISTIC_FORMULA}


# Distinct (n, z) pairs remembered by _cusum_pvalue.  One 20-source run at
# n = 8192 asks about 10,000 times for about 700 pairs.
_CUSUM_CACHE_SIZE = 4096


@lru_cache(maxsize=_CUSUM_CACHE_SIZE)
def _cusum_pvalue(n: int, z: int) -> float:
    """Tail probability of the maximum absolute partial sum."""
    if z == 1:
        # |S_1| = 1, so z >= 1 is certain.  The truncated series below
        # overshoots 1 there (by up to 0.046 for n = 3..48).
        return 1.0
    sqrt_n = math.sqrt(n)
    hi = math.floor((n / z - 1) / 4)
    lo1 = math.floor((-n / z + 1) / 4)
    lo2 = math.floor((-n / z - 3) / 4)
    k1 = np.arange(lo1, hi + 1, dtype=np.float64)
    k2 = np.arange(lo2, hi + 1, dtype=np.float64)
    term1 = (normal_cdf((4 * k1 + 1) * z / sqrt_n)
             - normal_cdf((4 * k1 - 1) * z / sqrt_n)).sum()
    term2 = (normal_cdf((4 * k2 + 3) * z / sqrt_n)
             - normal_cdf((4 * k2 + 1) * z / sqrt_n)).sum()
    return 1.0 - float(term1) + float(term2)


def _cusum_forward_count(rows: _Rows, params: TestParams) -> dict:
    _, low, high = rows.walk
    return {"z": np.maximum(high, -low)}


def _cusum_backward_count(rows: _Rows, params: TestParams) -> dict:
    # The sums of the last k steps are S_n - S_(n-k), k = 1..n.
    end, low, high = rows.walk
    return {"z": np.maximum(end - low, high - end)}


def _cusum_finish(values: dict, n: int, params: TestParams, *, mode: str):
    # Each p-value is one sample's tail sum; the cache computes each (n, z) once.
    z = values["z"]
    p = np.array([_cusum_pvalue(n, v) for v in z.tolist()])
    return z, p, {"n": n, "mode": mode}


_KERNELS = {
    TestId.FREQUENCY: (_frequency_count, _frequency_finish),
    TestId.BLOCK_FREQUENCY: (_block_frequency_count, _block_frequency_finish),
    TestId.RUNS: (_runs_count, _runs_finish),
    TestId.LONGEST_RUN: (_longest_run_count, _longest_run_finish),
    TestId.DFT: (_dft_count, _dft_finish),
    TestId.APPROX_ENTROPY: (_approx_entropy_count, _approx_entropy_finish),
    TestId.CUSUM_FORWARD: (_cusum_forward_count, partial(_cusum_finish, mode="forward")),
    TestId.CUSUM_BACKWARD: (_cusum_backward_count, partial(_cusum_finish, mode="backward")),
}


def run_batch(packed: np.ndarray, n: int, tests=ALL_TESTS,
              params: TestParams = TestParams()) -> dict[TestId, Batch]:
    """Run the selected tests over each n-bit row of a packed ``(rows, ceil(n/8))`` matrix.

    ``packed`` must be a uint8 ndarray of at least one row of ceil(n/8)
    bytes, with zero padding bits, as a SampleSet's matrix is; anything else
    raises DomainError.  It is taken in
    chunks of about ``_CHUNK_BITS`` bits, which the kernels read packed;
    only the spectral test unpacks a chunk to bits.  The chunks share one
    workspace, and the p-values are computed once over all rows.  Entry i
    of each result belongs to row i.

    Raises
    ------
    SampleTooShort, EmptySequence, BlockTooLarge, PatternTooLong
        For the first test, in selection order, that cannot run on n-bit
        samples; raised before any test runs.
    """
    n = check_int("n", n, 0)
    if not isinstance(packed, np.ndarray) or packed.dtype != np.uint8:
        what = getattr(packed, "dtype", type(packed).__name__)
        raise DomainError(f"packed must be a uint8 ndarray, got {what}")
    if packed.ndim != 2 or not len(packed) or packed.shape[1] != -(-n // 8):
        raise DomainError(f"packed needs shape (rows >= 1, {-(-n // 8)}), got {packed.shape}")
    if n % 8 and (packed[:, -1] & (0xFF >> n % 8)).any():
        raise DomainError(f"packed has nonzero padding bits after bit {n}")
    tests = tuple(TestId(t) for t in tests)
    for test_id in tests:
        _check(test_id, n, params)
    # The widest per-row temporary: the bits themselves, or approximate
    # entropy's largest count.
    width = n
    if TestId.APPROX_ENTROPY in tests:
        m = params.pattern_len_m
        width = max(n, 2 ** (8 + m) if m <= _APEN_BYTE_MAX_M else 2 ** (m + 1))
    step = max(1, _CHUNK_BITS // width)
    work = _Workspace(min(step, len(packed)), n, _four_step_split(n))
    parts = {test_id: [] for test_id in tests}
    for start in range(0, len(packed), step):
        rows = _Rows(packed[start:start + step], n, work)
        for test_id in tests:
            parts[test_id].append(_KERNELS[test_id][0](rows, params))
    results = {}
    for test_id in tests:
        values = {key: np.concatenate([part[key] for part in parts[test_id]])
                  for key in parts[test_id][0]}
        statistics, p, record = _KERNELS[test_id][1](values, n, params)
        p = as_probability(p, what=f"{test_id.value} p-value")
        results[test_id] = Batch(statistics=np.asarray(statistics, dtype=np.float64),
                                 p_values=p, passed=p >= params.alpha, record=record)
    return results


def run_test(test_id: TestId, seq: BitSequence,
             params: TestParams = TestParams()) -> TestOutcome:
    """Run one test on one sample: the one-row case of :func:`run_batch`.

    ``test_id`` is a :class:`TestId` or its value:

    * ``frequency``: the normalized absolute +/-1 sum of the bits against
      the half-normal distribution;
    * ``block_frequency``: the balance of ones within blocks of
      ``block_size_m`` bits; trailing bits that fill no block are discarded;
    * ``runs``: the number of maximal runs of identical bits; the p-value is
      0 by definition unless the proportion of ones is within 2/sqrt(n) of 1/2;
    * ``longest_run``: the longest run of ones within blocks of 8, 128 or
      10000 bits, chosen by n; below 128 bits it raises SampleTooShort even
      with ``enforce_min_length`` off;
    * ``dft``: the count of the first floor(n/2) Fourier moduli under the
      95 % peak-height threshold, against its expectation;
    * ``approx_entropy``: the frequencies of the cyclic overlapping m-bit
      against (m+1)-bit patterns, m being ``pattern_len_m``;
    * ``cusum_forward`` and ``cusum_backward``: the largest absolute partial
      +/-1 sum, of the first bits or of the last bits.
    """
    test_id = TestId(test_id)
    batch = run_batch(seq.packed[None], seq.n, (test_id,), params)[test_id]
    record = {key: value[0].tolist() if isinstance(value, np.ndarray) else value
              for key, value in batch.record.items()}
    record["alpha"] = params.alpha
    return TestOutcome(test_id=test_id, statistic=float(batch.statistics[0]),
                       p_value=float(batch.p_values[0]), passed=bool(batch.passed[0]),
                       params=record)
