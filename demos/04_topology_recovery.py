"""End-to-end topology recovery on the 12-node benchmark at 200 samples.

One instance of the flagship experiment: draw a 25-edge model, simulate a
short trajectory, estimate both causal filters by least squares, test every
candidate edge, and compare the decided graph to the truth.

Run with: python3 demos/04_topology_recovery.py
"""

import numpy as np

from lrdnet import (
    GeneratorConfig,
    compare_graphs,
    decide_graph,
    estimate_filters,
    exact_filters,
    random_model,
    simulate,
    support_graph,
    true_graph,
)
from lrdnet.topology import edge_test_table

cfg = GeneratorConfig(
    m=8,
    l=4,
    degree_ml=2,
    degree_l=2,
    support_ml=18,
    support_l=7,
    coeff_min=0.5,
    coeff_max=0.9,
    max_rejections=500,
    rng_seed=2024,
    pure_noise=(4,),
)
model = random_model(cfg)
truth = true_graph(model)
print(f"target: {len(truth.edges)} directed edges among {truth.num_nodes} nodes")

# Population sanity check first: supports of the exact filters reproduce the
# graph with no data at all.
pop = support_graph(exact_filters(model), m=model.m)
print("population (exact-filter) decision matches truth:", pop == truth)

# Now the statistical route on a short sample.
ts = simulate(model, num_samples=200, burn_in=500, seed=99)
h_est, s_est = estimate_filters(ts, order=2)  # one lagged design, one SVD
print(f"fit orders: {h_est.order}; residual RMS of determined block "
      f"{np.sqrt(np.mean(h_est.residuals**2)):.2e} (deterministic relation)")

decided = decide_graph(h_est, s_est, alpha=0.01, correction="bonferroni")
metrics = compare_graphs(decided, truth)
print(f"decided {len(decided.edges)} edges: precision={metrics.precision:.3f} "
      f"recall={metrics.recall:.3f} exact_match={metrics.exact_match}")

# The internal-block tests with their statistics, strongest first.
table = edge_test_table(h_est, s_est, alpha=0.01, correction="bonferroni")
internal = [r for r in table if r.target > model.m]
internal.sort(key=lambda r: r.p_value)
print("\ninternal-block edge tests (source -> target, F, p, decision):")
for r in internal[:8]:
    print(f"  {r.source:2d} -> {r.target:2d}   F={r.statistic:9.2f}  p={r.p_value:.2e}  {r.decision}")
print("  ...")

noise_node = model.m + 4
in_edges = [e for e in decided.edges if e[0] == noise_node]
print(f"\npure-noise node {noise_node}: decided in-edges = {in_edges} (expected none)")
