"""Learning the null distribution from noise symmetry.

The max statistic of a contaminated field mixes null and signal pixels,
so its histogram cannot calibrate a test directly.  But for symmetric
noise and odd similarity scores, the sign-flipped minimum statistic is an
uncontaminated stand-in for the null upper tail.  Pooling both and
splitting at the pooled median yields the null median, the null fraction
and a step-function null CDF, with no distributional model anywhere.

Run:  python demos/02_learning_the_null.py
"""

import numpy as np

from shiftdetect import (NoiseSpec, SimConfig, SimilarityKind, build_lss,
                         compute_field, empirical_pvalues, fit_null,
                         gaussian_line_reference, generate)

reference = gaussian_line_reference(30, 15, 5.0)
dictionary = build_lss(reference, 15, 7.0)

# 2500 pixels of heavy-tailed noise, 19% of them carrying a weak line of
# random amplitude in [0.1, 3]
config = SimConfig(n_y=50, n_x=50, noise=NoiseSpec("student", nu=5.0),
                   dictionary=dictionary, pi0=0.81,
                   amplitude_range=(0.1, 3.0), seed=2, signal_atom=7)
cube, truth = generate(config)
field = compute_field(cube, dictionary, SimilarityKind.SPECTRAL_ANGLE)
model = fit_null(field)

print(f"true null fraction 0.81, estimated pi0_hat = {model.pi0_hat:.3f} "
      "(biased up, by design: contamination can only push it toward 1)")
print(f"estimated null median mu0_hat = {model.mu0_hat:.4f}")

# compare the learned null CDF with a big Monte-Carlo of the true null
rng = np.random.default_rng(0)
draws = rng.standard_t(5.0, size=(10 ** 5, 30))
scores = draws @ dictionary.atoms.T / np.linalg.norm(draws, axis=1)[:, None]
t_null = np.sort(scores.max(axis=1))

print("\nquantiles of the learned null vs 1e5-run Monte-Carlo truth:")
for p in (0.05, 0.25, 0.5, 0.75, 0.95, 0.99):
    learned = float(np.quantile(model.pooled, p))
    truth_q = float(np.quantile(t_null, p))
    print(f"  p={p:4.2f}: learned {learned:+.4f}   truth {truth_q:+.4f}")

# p-values saturate the [0, 1] range and are exact count ratios
p = empirical_pvalues(model, field)
print(f"\np-values: min {p.min():.2e}, max {p.max():.3f}; "
      f"F0_hat(mu0_hat) = "
      f"{1 - empirical_pvalues(model, [model.mu0_hat])[0]:.3f}")
print(f"fraction of truly-null pixels with p < 0.05: "
      f"{np.mean(p[~truth.h1_mask.ravel()] < 0.05):.4f} (should sit near "
      "0.05 for a well-calibrated null)")
