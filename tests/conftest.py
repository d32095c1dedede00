import numpy as np
import pytest

from shiftdetect.dictionary import build_lss, gaussian_line_reference


@pytest.fixture(scope="session")
def gauss_reference():
    """The standard idealized reference: 30 bands, line at band 15,
    FWHM 5, truncated at +-6."""
    return gaussian_line_reference(30, 15, 5.0, 6.0)


@pytest.fixture(scope="session")
def line_dictionary(gauss_reference):
    """The application default dictionary: 15 whole-band shifts over +-7."""
    return build_lss(gauss_reference, 15, 7.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
