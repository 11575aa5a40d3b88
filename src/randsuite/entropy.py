"""Per-sample entropy measures and source-stability analytics.

Min-entropy is the conservative uniformity measure: -log2 of the most
probable outcome's empirical frequency.  It never exceeds the Shannon
entropy and is the better discriminator near uniformity, which is why the
per-sample time series uses it.

The deviation series tracks (#ones so far) - i/2 along a long sequence;
its slope exposes bias and its kinks expose drift that a whole-sequence
histogram cannot see.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitseq import BitSequence, SampleSet, atomic_write, ones_before, write_json
from .errors import EmptySequence, EmptySet, check_int, check_real
from .randtests import TestParams
from .special import erfc_inv

__all__ = [
    "min_entropy",
    "shannon_entropy",
    "EntropySeries",
    "entropy_series",
    "proportion_band_for_length",
    "ones_band",
    "write_band_json",
    "DeviationSeries",
    "deviation_series",
    "write_entropy_csv",
    "write_deviation_csv",
]


def _min_entropy(p1: float) -> float:
    # 0.0 - x, not -x: a constant sample's log2(1) = 0.0 would give -0.0.
    return 0.0 - math.log2(max(p1, 1.0 - p1))


def _shannon_entropy(p1: float) -> float:
    h = 0.0
    for p in (p1, 1.0 - p1):
        if p > 0.0:
            h -= p * math.log2(p)
    return h


def min_entropy(seq: BitSequence) -> float:
    """-log2(max(p1, p0)) of the empirical bit distribution, in [0, 1]."""
    if seq.n == 0:
        raise EmptySequence("min_entropy needs at least one bit")
    return _min_entropy(seq.count_ones() / seq.n)


def shannon_entropy(seq: BitSequence) -> float:
    """Empirical Shannon entropy in bits, with 0*log(0) := 0."""
    if seq.n == 0:
        raise EmptySequence("shannon_entropy needs at least one bit")
    return _shannon_entropy(seq.count_ones() / seq.n)


@dataclass(frozen=True)
class EntropySeries:
    """Time-ordered per-sample entropies for one source."""

    source_id: str
    sample_indices: tuple[int, ...]
    timestamps: tuple
    min_entropies: tuple[float, ...]
    shannon_entropies: tuple[float, ...]

    def __len__(self):
        return len(self.sample_indices)


def entropy_series(sample_set: SampleSet) -> EntropySeries:
    """One (min-entropy, Shannon-entropy) point per sample, in order."""
    if len(sample_set) == 0:
        raise EmptySet("cannot compute an entropy series for an empty sample set")
    n = sample_set.declared_length
    ones = np.bitwise_count(sample_set.packed).sum(axis=1, dtype=np.int64).tolist()
    p1 = [k / n for k in ones]
    return EntropySeries(
        source_id=sample_set.source_id,
        sample_indices=sample_set.sample_indices,
        timestamps=sample_set.timestamps,
        min_entropies=tuple(map(_min_entropy, p1)),
        shannon_entropies=tuple(map(_shannon_entropy, p1)),
    )


def proportion_band_for_length(n: int, alpha: float = TestParams.alpha) -> tuple[float, float]:
    """Acceptable proportion of ones for an n-bit sequence at level alpha.

    Inverts the frequency test: a proportion p passes iff
    erfc(sqrt(n) * |2p - 1| / sqrt(2)) >= alpha, i.e.
    |p - 1/2| <= sqrt(2) * erfc_inv(alpha) / (2 * sqrt(n)).
    Membership in the open band is exactly "frequency-test p-value > alpha".
    """
    check_int("sequence length", n, 1)
    check_real("alpha", alpha, 0, 1, "()")
    halfwidth = math.sqrt(2.0) * erfc_inv(alpha) / (2.0 * math.sqrt(n))
    return 0.5 - halfwidth, 0.5 + halfwidth


def ones_band(sample_set: SampleSet, alpha: float) -> dict:
    """The source's ``band.json`` row: its proportion of ones against
    :func:`proportion_band_for_length` for its total length, all samples joined.

    Keys ``n``, ``proportion_of_ones``, ``band_lower``, ``band_upper`` and
    ``inside``, which is membership in the open band.
    """
    if len(sample_set) == 0:
        raise EmptySet("cannot compute the ones band of an empty sample set")
    n = sample_set.total_bits()
    lower, upper = proportion_band_for_length(n, alpha)
    proportion = int(np.bitwise_count(sample_set.packed).sum(dtype=np.int64)) / n
    return {"n": n, "proportion_of_ones": proportion, "band_lower": lower,
            "band_upper": upper, "inside": lower < proportion < upper}


def write_band_json(rows, alpha: float, path) -> None:
    """``band.json``: ``rows`` maps each source id to its :func:`ones_band` row at ``alpha``."""
    write_json(path, {"alpha": alpha, "sources": dict(rows),
                      "band_convention": "derived by inverting the frequency test: "
                                         "|p - 1/2| <= sqrt(2)*erfc_inv(alpha)/(2*sqrt(n))"})


@dataclass(frozen=True)
class DeviationSeries:
    """(#ones in the first i bits) - i/2, sampled every ``stride`` bits."""

    source_id: str
    bit_indices: np.ndarray
    deviations: np.ndarray

    def __len__(self):
        return len(self.bit_indices)


def deviation_series(seq: BitSequence, stride: int = 8192) -> DeviationSeries:
    """Deviation of the running ones-count from the ideal i/2 line.

    Points are emitted at i = stride, 2*stride, ..., and always at i = n,
    so the terminal value equals n * (proportion_of_ones - 1/2) exactly.
    """
    if seq.n == 0:
        raise EmptySequence("deviation_series needs at least one bit")
    check_int("stride", stride, 1)
    idx = np.arange(stride, seq.n + 1, stride, dtype=np.int64)
    if idx.size == 0 or idx[-1] != seq.n:
        idx = np.concatenate([idx, [seq.n]])
    ones = ones_before(seq.packed[None, :], idx)[0]
    dev = ones.astype(np.float64) - idx / 2.0
    return DeviationSeries(source_id=seq.source_id, bit_indices=idx, deviations=dev)


def write_entropy_csv(series: EntropySeries, path) -> None:
    """Columns: sample_index, timestamp (ISO 8601 or empty), min_entropy, shannon_entropy.

    The lines are what ``csv.writer`` would write: no field needs quoting,
    and rows end in ``\\r\\n``.
    """
    lines = ["sample_index,timestamp,min_entropy,shannon_entropy\r\n"]
    lines += [f"{i},{ts.isoformat() if ts else ''},{h_min!r},{h_sh!r}\r\n"
              for i, ts, h_min, h_sh in zip(series.sample_indices, series.timestamps,
                                            series.min_entropies, series.shannon_entropies)]
    atomic_write(path, "".join(lines))


def write_deviation_csv(series: DeviationSeries, path) -> None:
    """Columns: bit_index, deviation (written as ``csv.writer`` would)."""
    lines = ["bit_index,deviation\r\n"]
    lines += [f"{i},{d!r}\r\n" for i, d in zip(series.bit_indices.tolist(),
                                                series.deviations.tolist())]
    atomic_write(path, "".join(lines))
