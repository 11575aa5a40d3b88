"""The battery's one independent reference, straight from NIST SP 800-22 Rev. 1a, Section 2.

Every function takes unpacked bits, a ``(rows, n)`` array of 0s and 1s
(``dft_direct`` and ``apen_phi`` take one sequence), and computes each
test's per-row values as the standard defines them: in integers or in
float64, with no byte tables, no chunking, no single precision and no guard
band.  The tests compare the package's fast kernels with these values.
"""

import math

import mpmath as mp
import numpy as np

# Longest-run parameters by minimum length (Section 2.4.4): block size M,
# block count N, and the run lengths that the lowest and the highest class
# take "or less" and "or more".
LONGEST_RUN_CLASSES = ((750000, 10000, 75, 10, 16), (6272, 128, 49, 4, 9), (128, 8, 16, 1, 4))


def ones_before(bits):
    """The count of ones among each row's first k bits, for k = 0..n."""
    bits = np.asarray(bits, dtype=np.int64)
    return np.concatenate([np.zeros((len(bits), 1), np.int64), np.cumsum(bits, axis=1)], axis=1)


def partial_sums(bits):
    """Each row's +/-1 partial sums S_0 = 0, S_1, ..., S_n (Section 2.13)."""
    steps = 2 * np.asarray(bits, dtype=np.int64) - 1
    return np.concatenate([np.zeros((len(steps), 1), np.int64), np.cumsum(steps, axis=1)], axis=1)


def cusum_z(bits, mode):
    """Each row's largest |S_k| over its partial sums, of its first bits
    (``forward``) or of its last bits (``backward``)."""
    bits = np.asarray(bits)
    return np.abs(partial_sums(bits if mode == "forward" else bits[:, ::-1])).max(axis=1)


def runs(bits):
    """Each row's number of runs V_n(obs): one plus its bit changes (Section 2.3)."""
    return np.count_nonzero(np.diff(np.asarray(bits, dtype=np.int64), axis=1), axis=1) + 1


def block_squares(bits, block):
    """Each row's sum over its n // block whole blocks of (ones - block/2)^2 (Section 2.2)."""
    bits = np.asarray(bits, dtype=np.int64)
    blocks = bits.shape[1] // block
    ones = bits[:, :blocks * block].reshape(len(bits), blocks, block).sum(axis=2)
    return ((ones - block / 2) ** 2).sum(axis=1)


def longest_runs(blocks):
    """Longest run of ones in each row of a 2-D 0/1 array, from run edges."""
    num_blocks, m = blocks.shape
    padded = np.zeros((num_blocks, m + 1), dtype=np.int8)
    padded[:, :m] = blocks
    edges = np.diff(padded.reshape(-1), prepend=0)
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1)
    out = np.zeros(num_blocks, dtype=np.int64)
    np.maximum.at(out, starts // (m + 1), ends - starts)
    return out


def longest_run_class_counts(bits):
    """Each row's counts of its first N blocks of M bits by longest-run class
    (Section 2.4), M and N chosen by the row length n >= 128."""
    bits = np.asarray(bits)
    rows, n = bits.shape
    _, m, num_blocks, lowest, highest = next(c for c in LONGEST_RUN_CLASSES if n >= c[0])
    longest = longest_runs(bits[:, :num_blocks * m].reshape(-1, m)).reshape(rows, num_blocks)
    classes = np.clip(longest, lowest, highest) - lowest
    return np.stack([np.bincount(row, minlength=highest - lowest + 1) for row in classes])


def dft_threshold(n):
    """The 95 % peak-height threshold T = sqrt(n ln(1/0.05)) (Section 2.6)."""
    return math.sqrt(n * math.log(1 / 0.05))


def dft_moduli(bits):
    """Each row's moduli |S_k|, k = 0..floor(n/2)-1, of the DFT of its +/-1
    sequence X = 2 bits - 1 (Section 2.6), by numpy's float64 real FFT."""
    bits = np.asarray(bits)
    return np.abs(np.fft.rfft(2.0 * bits - 1.0, axis=1)[:, :bits.shape[1] // 2])


def dft_n_obs(bits):
    """Each row's count N_1 of moduli below the threshold T."""
    return np.count_nonzero(dft_moduli(bits) < dft_threshold(np.shape(bits)[1]), axis=1)


def dft_direct(bit_values):
    """O(n^2) direct-summation DFT of one sequence; returns (moduli, n_obs, p)."""
    x = np.asarray(bit_values, dtype=np.float64) * 2 - 1
    n = x.size
    k = np.arange(n)
    j = np.arange(n // 2)
    weights = np.exp(-2j * np.pi * np.outer(j, k) / n)
    moduli = np.abs(weights @ x)
    n_obs = int(np.count_nonzero(moduli < dft_threshold(n)))
    d = (0.95 * n / 2 - n_obs) / math.sqrt(n * 0.95 * 0.05 / 4)
    return moduli, n_obs, float(mp.erfc(abs(d) / mp.sqrt(2)))


def pattern_counts(bits, m):
    """Counts of each row's n cyclic (m+1)-bit windows, built bit by bit."""
    bits = np.asarray(bits)
    n = bits.shape[1]
    ext = np.concatenate([bits, bits[:, :m]], axis=1).astype(np.int64)
    codes = sum(ext[:, j:j + n] << (m - j) for j in range(m + 1))
    return np.stack([np.bincount(row, minlength=2 ** (m + 1)) for row in codes])


def phi(counts, n):
    """Each row's sum of (count/n) ln(count/n) over its observed patterns (Section 2.12)."""
    freq = np.asarray(counts, dtype=np.float64) / n
    terms = freq * np.log(np.where(freq > 0, freq, 1.0))
    return np.array([math.fsum(row) for row in terms])


def apen_phi(bit_values, block_len):
    """Brute-force overlapping-window pattern counting of one sequence: phi."""
    n = len(bit_values)
    ext = list(bit_values) + list(bit_values[:block_len - 1])
    counts = {}
    for i in range(n):
        key = tuple(ext[i:i + block_len])
        counts[key] = counts.get(key, 0) + 1
    return sum((c / n) * math.log(c / n) for c in counts.values())
