"""Detection of weak, spectrally shifting line signatures in data cubes.

The method scores every pixel against a coherent dictionary of shifted
copies of one reference line profile, learns the null distribution of the
resulting max statistic from noise symmetry (no parametric noise model),
and controls the false discovery rate of the decision map.
"""

from .dictionary import (Dictionary, GaussianLineModel, ReferenceAtom,
                         autocorrelation, build_lss, expected_max_gain,
                         gaussian_line_reference)
from .errors import DataError, NumericError
from .fdr import DetectionResult, bh_reject, detect, qvalues, storey_pi0
from .nullmodel import NullModel, empirical_pvalues, fit_null
from .pfabound import (normal_cdf_2d, normal_cdf_3d, pfa_bound,
                       pfa_exact_orthogonal, threshold_for_pfa)
from .pipeline import (Cube, DetectionOutput, DictionaryParams, FsfKernel,
                       RegionSpec, estimate_reference, extract, gaussian_fsf,
                       load_cube, load_cube_csvdir, preprocess,
                       run_detection, save_cube, save_cube_csvdir,
                       write_maps, write_pgm)
from .similarity import SimilarityKind
from .simulate import (GroundTruth, Metrics, NoiseSpec, SimConfig,
                       calibrate_glr_null, disk_mask, fdr_snr_sweep,
                       generate, glr_contrast, glr_field, glr_pvalues,
                       score)
from .teststat import TestField, compute_field

__version__ = "0.1.0"

__all__ = [
    "Cube", "DataError", "GaussianLineModel", "DetectionOutput",
    "DetectionResult", "Dictionary",
    "DictionaryParams", "FsfKernel", "GroundTruth",
    "Metrics", "NoiseSpec", "NullModel", "NumericError", "ReferenceAtom",
    "RegionSpec", "SimConfig", "SimilarityKind", "TestField",
    "autocorrelation", "bh_reject", "build_lss", "calibrate_glr_null",
    "compute_field", "detect", "disk_mask", "empirical_pvalues",
    "estimate_reference", "expected_max_gain", "extract", "fdr_snr_sweep",
    "fit_null", "gaussian_fsf",
    "gaussian_line_reference", "generate", "glr_contrast", "glr_field",
    "glr_pvalues", "load_cube", "load_cube_csvdir",
    "normal_cdf_2d", "normal_cdf_3d",
    "pfa_bound", "pfa_exact_orthogonal", "preprocess", "qvalues",
    "run_detection", "save_cube", "save_cube_csvdir", "score",
    "storey_pi0", "threshold_for_pfa", "write_maps", "write_pgm",
]
