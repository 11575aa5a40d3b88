"""
Entropy series and stability analytics
======================================

Whole-sequence statistics hide time structure.  Two views expose it:

* the per-sample min-entropy series, -log2(max empirical bit probability),
  one point per 8192-bit sample — drops mark windows where the source
  leaned toward one outcome;
* the deviation series, (#ones in the first i bits) - i/2 along the
  chronologically joined sequence — its slope is the bias and its kinks
  are drift events.

A simulated qubit with a mid-run anomaly (the state bias briefly drops to
0.3) makes both signatures obvious.  CSV exports land in demos/output/ for
external plotting.
"""

from pathlib import Path

import numpy as np

import randsuite as rs

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

plan = rs.biased_demo_plan(num_qubits=1, samples_per_qubit=200,
                           shots_per_sample=8192, master_seed=404,
                           anomaly_qubit=0)
model = plan.qubit_models[0]
anomaly = model.anomaly
print(f"model: p_eff={rs.effective_bias(model, 0):.4f}, anomaly on samples "
      f"[{anomaly.start_sample}, {anomaly.stop_sample}) with p1={anomaly.p1_override}\n")

sample_set = rs.generate_experiment(plan)[0]

# --- min-entropy series ---------------------------------------------------
series = rs.entropy_series(sample_set)
values = np.array(series.min_entropies)
window = values[anomaly.start_sample:anomaly.stop_sample]
outside = np.concatenate([values[:anomaly.start_sample],
                          values[anomaly.stop_sample:]])
print("min-entropy: normal median "
      f"{np.median(outside):.4f}, anomaly-window median {np.median(window):.4f}")
print(f"global 5th percentile: {np.percentile(values, 5):.4f} "
      "(the window sits below it)\n")

rs.write_entropy_csv(series, out_dir / f"entropy_{series.source_id}.csv")
print(f"wrote {out_dir / f'entropy_{series.source_id}.csv'}")

# --- deviation of the ones-count from the ideal line ----------------------
joined = rs.concat_chronological(sample_set)
dev = rs.deviation_series(joined, stride=8192)
rs.write_deviation_csv(dev, out_dir / f"deviation_{dev.source_id}.csv")
print(f"wrote {out_dir / f'deviation_{dev.source_id}.csv'}")
print(f"terminal deviation after {joined.n} bits: {dev.deviations[-1]:+.1f} "
      f"(a fair source stays near 0)\n")

# --- acceptable proportion of ones for this length ------------------------
band = rs.ones_band(sample_set, alpha=0.01)
print(f"proportion of ones: {band['proportion_of_ones']:.6f}; acceptable band for "
      f"n={band['n']}: ({band['band_lower']:.6f}, {band['band_upper']:.6f}) -> "
      f"{'inside' if band['inside'] else 'OUTSIDE'}")
print("""
The min-entropy never exceeds the Shannon entropy; both are 1 exactly for a
perfectly balanced sample, but min-entropy falls off faster near uniformity,
which is what makes it the better health indicator:""")
for ones_frac in (0.5, 0.49, 0.45, 0.3):
    n = 10000
    seq = rs.BitSequence([1] * int(ones_frac * n) + [0] * (n - int(ones_frac * n)))
    print(f"  p1={ones_frac:.2f}: min={rs.min_entropy(seq):.4f} "
          f"shannon={rs.shannon_entropy(seq):.4f}")
