"""Shift dictionaries built from a single reference line profile.

A dictionary holds m unit-norm copies of one reference atom, displaced on a
linearly spaced grid of spectral shifts covering [-tau, tau].  The grid
decides how an atom is made: a whole-band shift rolls the samples, a
fractional shift resamples the reference's line profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DataError, read_text

NORM_TOL = 1e-12

_INT_SHIFT_TOL = 1e-9


@dataclass(frozen=True)
class GaussianLineModel:
    """Truncated Gaussian line profile as a continuous model of band
    offset: f(0) = 1 and f(u) = 0 beyond the truncation half width.
    A picklable callable, so dictionaries carrying it can cross process
    boundaries in Monte-Carlo harnesses."""

    sigma: float
    trunc_halfwidth: float

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        out = np.exp(-0.5 * (u / self.sigma) ** 2)
        return np.where(np.abs(u) <= self.trunc_halfwidth, out, 0.0)


def gaussian_line_reference(length: int, center_band: int, fwhm: float,
                            trunc_halfwidth: float = 6.0) -> "ReferenceAtom":
    """Reference atom sampled from a truncated Gaussian line profile of the
    given full width at half maximum: sigma = fwhm / (2 sqrt(2 ln 2))."""
    if not 0 < fwhm < math.inf:     # written so that NaN fails too
        raise DataError(f"fwhm must be positive and finite: {fwhm}")
    sigma = fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    model = GaussianLineModel(sigma=sigma, trunc_halfwidth=trunc_halfwidth)
    values = model(np.arange(length, dtype=float) - center_band)
    return ReferenceAtom(values, center_band, model=model)


@dataclass(frozen=True)
class ReferenceAtom:
    """A single target line signature, stored with unit l2 norm.

    Parameters
    ----------
    values : array, shape (l,)
        Sampled profile; normalized on construction.  Negative samples are
        allowed; `build_lss` checks that the shifted atoms still have
        non-negative inner products.
    center_band : int
        Band index of the line center within `values`.
    model : callable, optional
        Continuous profile f(u) of the band offset u from the line center,
        with values[j] = f(j - center_band), resampled at fractional
        shifts.  When absent the profile is the piecewise-linear
        interpolant of the samples, zero outside the sampled support.
    """

    values: np.ndarray
    center_band: int
    model: Optional[Callable] = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise DataError("reference must be a 1-d vector of length >= 2")
        if not np.all(np.isfinite(values)):
            raise DataError("reference contains non-finite values")
        norm = np.linalg.norm(values)
        if norm <= 0:
            raise DataError("reference has zero norm")
        object.__setattr__(self, "values", values / norm)
        if not (0 <= self.center_band < values.size):
            raise DataError("center_band outside the sampled support")

    @property
    def length(self) -> int:
        return self.values.size

    def unit_shift(self, shift: float) -> Optional[np.ndarray]:
        """`sampled_shift` at unit norm; None if it leaves no support."""
        vec = self.sampled_shift(shift)
        norm = np.linalg.norm(vec)
        return vec / norm if norm > NORM_TOL else None

    def sampled_shift(self, shift: float) -> np.ndarray:
        """Zero-padded shifted copy of the profile (not renormalized).

        Whole-band shifts are exact index rolls of the stored samples;
        fractional shifts resample the line profile (see `model`).
        """
        l = self.length
        nearest = round(float(shift))
        if abs(shift - nearest) <= _INT_SHIFT_TOL:
            s = int(nearest)
            out = np.zeros(l)
            if abs(s) < l:
                if s >= 0:
                    out[s:] = self.values[:l - s]
                else:
                    out[:l + s] = self.values[-s:]
            return out
        grid = np.arange(l, dtype=float) - self.center_band
        profile = self.model if self.model is not None else (
            lambda u: np.interp(u, grid, self.values, left=0.0, right=0.0))
        # rescale so the profile agrees with the stored unit-norm samples
        base_norm = np.linalg.norm(np.asarray(profile(grid), dtype=float))
        if base_norm <= 0:
            raise DataError("line profile vanishes on the support")
        return np.asarray(profile(grid - float(shift)), dtype=float) \
            / base_norm


@dataclass(frozen=True)
class Dictionary:
    """m unit-norm shifted atoms plus their shift grid."""

    atoms: np.ndarray            # (m, l), rows unit norm
    shifts: np.ndarray           # (m,)
    tau: float
    reference: Optional[ReferenceAtom] = field(default=None, repr=False)

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        shifts = np.asarray(self.shifts, dtype=float)
        if atoms.ndim != 2:
            raise DataError("atoms must be a (m, l) matrix")
        if shifts.shape != (atoms.shape[0],):
            raise DataError("shifts must have one entry per atom")
        if not np.all(np.isfinite(shifts)):
            raise DataError("shifts must be finite")
        # written so that a NaN norm fails it too
        if not np.all(np.abs(np.linalg.norm(atoms, axis=1) - 1.0)
                      <= NORM_TOL):
            raise DataError("atoms must have unit l2 norm within 1e-12")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "shifts", shifts)

    @property
    def m(self) -> int:
        return self.atoms.shape[0]

    @property
    def length(self) -> int:
        return self.atoms.shape[1]

    @property
    def coherence(self) -> float:
        """Max over distinct atom pairs of |<d_i, d_j>|; 0 for one atom."""
        if self.m < 2:
            return 0.0
        g = np.abs(self.gram())
        np.fill_diagonal(g, 0.0)
        return float(g.max())

    def gram(self) -> np.ndarray:
        return self.atoms @ self.atoms.T

    def save_csv(self, path) -> None:
        """Write shifts (header row) and atoms (one row per atom) at 17
        significant digits so the matrix round-trips bit-exactly; rows end
        in CRLF, as `csv.writer` ends them."""
        row = ",".join(["%.17g"] * self.length) + "\r\n"
        with open(path, "w", newline="") as fh:
            fh.write(",".join("%.17g" % v for v in self.shifts) + "\r\n")
            fh.write(row * self.m % tuple(self.atoms.ravel().tolist()))

    @classmethod
    def load_csv(cls, path) -> "Dictionary":
        header, *rows = read_text(path).split("\n")
        try:
            shifts = np.array(header.split(","), dtype=float)
            atoms = np.array([row.split(",") for row in rows if row.strip()],
                             dtype=float)
        except ValueError as exc:
            raise DataError(f"{path}: malformed number ({exc})") from None
        if atoms.shape[0] != shifts.size:
            raise DataError(f"{path}: header/atom row count mismatch")
        tau = float(np.max(np.abs(shifts))) if shifts.size else 0.0
        return cls(atoms=atoms, shifts=shifts, tau=tau)


def build_lss(reference: ReferenceAtom, m: int, tau: float, *,
              gram_tol: float = NORM_TOL) -> Dictionary:
    """Build the linearly-spaced-shift dictionary of size m over [-tau, tau].

    Atom k is `reference.unit_shift` at -tau + 2*tau*k/(m-1) (size 1 is
    the reference itself, with tau = 0): whole-band shifts roll the
    samples, fractional ones resample the line profile.  Atoms pushed
    partially off the sampled support are truncated and renormalized; an
    atom entirely off support raises ``DataError("atom vanished")``.

    For a reference with negative entries the pairwise inner products of
    the shifted atoms must stay above -gram_tol.  The strict default suits
    idealized profiles; references estimated from noisy data need a slack
    of the order of their noise floor (far-apart shifts overlap only in
    noise).
    """
    if m < 1:
        raise DataError("m must be >= 1")
    if not (math.isfinite(tau) and tau >= 0):
        raise DataError("tau must be finite and >= 0")
    if m == 1:
        if tau > 0:
            raise DataError("shift grid undefined for m = 1 with tau > 0")
        return Dictionary(atoms=reference.values[None, :].copy(),
                          shifts=np.zeros(1), tau=0.0, reference=reference)

    shifts = -tau + 2.0 * tau * np.arange(m, dtype=float) / (m - 1)
    atoms = np.empty((m, reference.length))
    for i, s in enumerate(shifts):
        atom = reference.unit_shift(s)
        if atom is None:
            raise DataError(f"atom vanished: shift {s:g} leaves no support")
        atoms[i] = atom

    if np.any(reference.values < 0):
        gram = np.vstack([atoms, reference.values[None, :]])
        gram = gram @ gram.T
        if np.any(gram < -gram_tol):
            raise DataError("relaxed non-negativity violated: some shifted "
                            "atoms have negative inner products")

    return Dictionary(atoms=atoms, shifts=shifts, tau=float(tau),
                      reference=reference)


def autocorrelation(reference: ReferenceAtom, shift: float) -> float:
    """Overlap <d, shift_u(d)> between the unit reference and its shifted,
    renormalized copy.  Out-of-support shifts return 0."""
    atom = reference.unit_shift(shift)
    return 0.0 if atom is None else float(reference.values @ atom)


def expected_max_gain(reference: ReferenceAtom, m: int, tau: float,
                      amplitude: float) -> float:
    """Expected peak response to a signal of the given amplitude whose shift
    is uniform on the grid: amplitude * E[Gamma(e)], e ~ U([0, tau/(m-1)]).

    The miss distance e is the gap between the signal's true shift and the
    nearest atom; the expectation is evaluated by adaptive quadrature
    (the overlap curve of a truncated profile has kinks, which defeat a
    single fixed rule).
    """
    # imported on first use: the import is slow and nothing else needs it
    from scipy.integrate import quad as quadrature

    if m < 2:
        raise DataError("expected_max_gain requires m >= 2")
    half = tau / (m - 1)
    if half == 0.0:
        return amplitude * autocorrelation(reference, 0.0)
    val, _ = quadrature(lambda u: autocorrelation(reference, u), 0.0, half,
                        epsabs=1e-10, epsrel=1e-10, limit=200)
    return amplitude * val / half
