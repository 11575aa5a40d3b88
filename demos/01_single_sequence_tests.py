"""
Testing a single bit sequence
=============================

Every statistical test in the battery maps one bit sequence to an observed
statistic and a p-value: the probability that an ideal unbiased, independent
source would produce a sample at least as extreme.  A sequence passes a test
when its p-value reaches the significance level (0.01 by default).

This script walks the classic ten-bit teaching sequences through each test.
Sequences this short are far below the minimum meaningful lengths, so we
switch enforcement off; the point here is to see the machinery, not to make
statistical claims.
"""

import randsuite as rs

relaxed = rs.TestParams(enforce_min_length=False)


def show(label, outcome):
    print(f"{label:24s} statistic={outcome.statistic:>10.6f}  "
          f"p={outcome.p_value:.6f}  {'pass' if outcome.passed else 'FAIL'}")


# A slightly zero-heavy sequence: 4 ones in 10 bits.
seq = rs.parse_bits("1001100010", "ascii01")
print(f"sequence: 1001100010  (n={seq.n}, ones={seq.count_ones()})\n")

show("frequency", rs.run_test("frequency", seq, relaxed))

# Blocks of three bits: 100 | 110 | 001, trailing 0 discarded.
show("block frequency (M=3)", rs.run_test(
    "block_frequency", seq, rs.TestParams(enforce_min_length=False, block_size_m=3)))

# A different sequence with five ones, so the runs prerequisite holds.
runs_seq = rs.parse_bits("1010110001", "ascii01")
show("runs", rs.run_test("runs", runs_seq, relaxed))

# The walk test: how far the running +/-1 sum strays from zero.
walk_seq = rs.parse_bits("1011010010", "ascii01")
show("cusum forward", rs.run_test("cusum_forward", walk_seq, relaxed))
show("cusum backward", rs.run_test("cusum_backward", walk_seq, relaxed))

# Pattern statistics: 3-bit vs 4-bit overlapping pattern frequencies.
show("approx entropy (m=3)", rs.run_test(
    "approx_entropy", walk_seq, rs.TestParams(enforce_min_length=False, pattern_len_m=3)))

# The spectral test needs the full story: its params record keeps the
# threshold and peak counts so the verdict can be audited.
dft_seq = rs.parse_bits("1001010011", "ascii01")
out = rs.run_test("dft", dft_seq, relaxed)
show("dft", out)
print(f"{'':24s} threshold={out.params['threshold']:.4f}  "
      f"N_ideal={out.params['n_ideal']}  N_obs={out.params['n_obs']}")

# The longest-run test needs at least 128 bits (the smallest block shape).
long_seq = rs.BitSequence([1, 1, 0, 0, 0, 1, 0, 0] * 16)
out = rs.run_test("longest_run", long_seq, relaxed)
show("longest run (M=8)", out)
print(f"{'':24s} class_counts={out.params['class_counts']}")

print("""
Note the runs test's prerequisite: when the overall proportion of ones is
too far from 1/2, the p-value is 0 by definition rather than computed:""")
show("runs on all-ones", rs.run_test("runs", rs.BitSequence([1] * 100)))
