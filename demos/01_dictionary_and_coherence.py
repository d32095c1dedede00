"""Shift dictionaries for a single emission-line profile.

A weak line whose exact spectral position is uncertain is matched against
shifted copies of one reference profile.  This script builds dictionaries
of growing size over a fixed shift interval and looks at what redundancy
buys and costs: coherence rises toward one, while the expected peak
response to a randomly shifted signal saturates at the signal amplitude.

Run:  python demos/01_dictionary_and_coherence.py
"""

import numpy as np

from shiftdetect import (autocorrelation, build_lss, expected_max_gain,
                         gaussian_line_reference)

# a Gaussian line: 30 bands, centered on band 15, FWHM 5 bands,
# truncated 6 bands either side of the peak
reference = gaussian_line_reference(30, 15, fwhm=5.0, trunc_halfwidth=6.0)

print("overlap of the line with its own shifted copy:")
for u in (0.0, 1.0, 2.0, 4.0, 8.0):
    print(f"  shift {u:4.1f} bands -> {autocorrelation(reference, u):.4f}")

print("\ndictionaries over [-8, +8] bands:")
print(f"{'m':>4} {'grid step':>10} {'coherence':>10} {'gain (a=2.7)':>13}")
for m in (2, 3, 5, 9, 15, 20):
    d = build_lss(reference, m, 8.0)
    step = 16.0 / (m - 1)
    gain = expected_max_gain(reference, m, 8.0, amplitude=2.7)
    print(f"{m:>4} {step:>10.2f} {d.coherence:>10.3f} {gain:>13.3f}")

print("""
The grid step shrinks as atoms are added, so consecutive atoms overlap
more and the dictionary becomes highly coherent.  The expected max-test
response under a signal of amplitude 2.7 climbs toward 2.7 and has mostly
saturated near m = 10: beyond that, extra atoms buy little signal, while
(see demo 05) the false-alarm threshold keeps creeping up much more slowly
than it would for orthogonal atoms.
""")

# the instrument-resolution case: whole-band shifts only
whole_band = build_lss(reference, 15, 7.0)
print(f"whole-band dictionary: m=15, tau=7, coherence "
      f"{whole_band.coherence:.3f}, shifts {whole_band.shifts[:4]} ...")
