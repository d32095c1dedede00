"""The full workflow on a cube with an injected extended source.

Starting from a raw cube (here synthetic: a bright compact core plus a
weak extended halo on a noisy background), the pipeline standardizes the
data, estimates the reference line from the brightest pixels, builds the
shift dictionary, learns the null on the extended neighborhood, and emits
p-value / q-value / decision maps for the test window.

Run:  python demos/06_end_to_end_detection.py [outdir]
"""

import sys

import numpy as np

from shiftdetect import (Cube, NoiseSpec, RegionSpec, SimConfig, build_lss,
                         disk_mask, gaussian_line_reference, generate,
                         run_detection, write_maps)

reference = gaussian_line_reference(30, 15, 5.0)
dictionary = build_lss(reference, 15, 7.0)

# background: 240x240x30 unit Gaussian noise
background, _ = generate(SimConfig(n_y=240, n_x=240,
                                   noise=NoiseSpec("gaussian"),
                                   dictionary=dictionary, pi0=1.0, seed=8))
data = background.data.copy()

# a compact core (strong) surrounded by a 150-pixel halo (weak), all on
# the central line profile
line = dictionary.atoms[7]
halo = disk_mask((240, 240), (120, 120), 150)
core = disk_mask((240, 240), (120, 120), 9)
data[halo] += 2.2 * line
data[core] += 6.0 * line
cube = Cube(data=data)

region = RegionSpec(center_y=120, center_x=120, center_band=15,
                    half_width=25, half_bands=15, fit_half_width=100)
output = run_detection(cube, region, q=0.2)

det = output.maps["detected"]
support = (halo | core)[95:145, 95:145]
hits = det & support
false = det & ~support
print(f"estimated pi0_hat = {output.model.pi0_hat:.3f} on the 200x200 "
      "fit window")
print(f"decision map at q=0.2: {det.sum()} detections, "
      f"{hits.sum()}/{support.sum()} inside the injected source, "
      f"{false.sum()} outside")
for level in (0.05, 0.1, 0.2, 0.4):
    print(f"  q={level:<5} -> {output.maps[f'detected_q{level:g}'].sum():>4}"
          " pixels")

print("\nbest-matching shift inside the detected region (bands):")
shifts = output.maps["best_shift"][det]
print(f"  mean {np.nanmean(shifts):+.2f}, spread {np.nanstd(shifts):.2f} "
      "(the source was injected at shift 0)")

if len(sys.argv) > 1:
    write_maps(output, sys.argv[1], prefix="demo")
    print(f"\nwrote CSV grids and PGM previews to {sys.argv[1]}")
else:
    print("\npass an output directory to write the CSV/PGM maps")
