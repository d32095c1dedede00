"""Why learn the null from the data instead of calibrating offline?

A 1-sparse GLR detector with Monte-Carlo calibration under Gaussian noise
is a strong baseline - and exactly as good as its noise model.  This
script runs both detectors on the same cubes twice: once with Gaussian
noise (the model is right) and once with Student-t(4) noise (heavier
tails).  The empirical-null max test re-learns its null each time and
keeps its promised error rate; the pre-calibrated baseline blows straight
through it when the tails are wrong.

Run:  python demos/04_calibration_robustness.py     (about a minute)
"""

from shiftdetect import (NoiseSpec, build_lss, gaussian_line_reference,
                         glr_contrast)

reference = gaussian_line_reference(30, 15, 5.0)
dictionary = build_lss(reference, 15, 7.0)
q_list = (0.05, 0.1, 0.2)
runs = 60  # the acceptance suite uses 200

for label, noise in (("gaussian noise (calibration model is correct)",
                      NoiseSpec("gaussian")),
                     ("student-t(4) noise (tails heavier than calibrated)",
                      NoiseSpec("student", nu=4.0))):
    _, agg = glr_contrast(dictionary, noise, q_list, runs=runs, seed=13)
    print(f"\n{label}")
    print(f"{'nominal q':>10} {'max test':>10} {'GLR':>10}")
    for q in q_list:
        print(f"{q:>10} {agg[('maxtest', q)]['fdr']:>10.3f} "
              f"{agg[('glr', q)]['fdr']:>10.3f}")

print("""
Under the correct model both columns track the nominal level.  Under the
heavy-tailed noise the calibrated baseline's realized error rate is a
multiple of what was promised (its Gaussian calibration underestimates
exactly the tail quantiles that stringent thresholds live in), while the
empirical-null test barely moves.
""")
