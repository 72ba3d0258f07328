"""Simulated probing: noisy frequency response, rational fit, reconstruction.

The probing experiment samples Xi(i w_j) with additive complex Gaussian
noise, fits a rational function by iteratively reweighted linear least
squares, and hands the fit to the realization stage to recover physical
parameters. Randomness comes from numpy's default PCG64 generator seeded
explicitly, so every dataset is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import DimensionMismatch, InsufficientData, NotHurwitz
from .model import PassiveSystem, require_grid, transfer_at
from .ratfunc import RationalTF, make_rational_tf, require_finite, require_real, require_whole
from .realization import CanonicalParams, companion_realization, reconstruct_passive

MAX_SK_ITERATIONS = 6
SK_COEFF_TOL = 1e-10
NOISE_TOL_FACTOR = 100.0


@dataclass(frozen=True, eq=False)
class ProbeDataset:
    """Sampled frequency response, one square matrix per frequency (else DimensionMismatch).

    ``responses[j]`` is the measured m x m matrix at ``freqs[j]`` (rad/s);
    ``noise_sigma`` is the per-component Gaussian standard deviation used
    to generate it. Both arrays must be ndarrays, else ValueError naming the
    field: :func:`sample_response` and the file reader convert their input.
    """

    freqs: np.ndarray
    responses: np.ndarray
    noise_sigma: float
    seed: int | None = None

    def __post_init__(self):
        for name, a in (("freqs", self.freqs), ("responses", self.responses)):
            if not isinstance(a, np.ndarray):
                raise ValueError(f"{name} must be an ndarray, got {type(a).__name__}")
        size, shape = np.size(self.freqs), np.shape(self.responses)
        if len(shape) != 3 or shape[0] != size or shape[1] != shape[2]:
            raise DimensionMismatch(f"responses must be {size} square matrices, not {shape}")

    @property
    def m(self) -> int:
        return self.responses.shape[1]


@dataclass(frozen=True, eq=False)
class FitResult:
    """Fitted rational function with its root-mean-square residual.

    ``converged`` says whether the last of the ``iterations`` passes met
    the coefficient change test; it is False for a fit stopped at the cap.
    """

    tf: RationalTF
    rms_residual: float
    iterations: int
    converged: bool


def sample_response(
    sys: PassiveSystem,
    freqs,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> ProbeDataset:
    """Sample Xi(i w) on a frequency grid with additive Gaussian noise.

    Noise is i.i.d. complex Gaussian per matrix entry, with ``noise_sigma``
    the standard deviation of each real component. Identical seeds give
    identical datasets.

    Raises
    ------
    NotHurwitz
        the fields reach fewer eigen-directions of omega than modes, by the rule
        of :func:`~qsysid.model.eigenspaces`: as in :func:`~qsysid.analysis.structure_report`,
        a passive system is Hurwitz exactly when minimal, whatever the abscissa's rounding.
    NonMonotoneGrid, ValueError
        per :func:`~qsysid.model.require_grid`: freqs empty, not finite numbers,
        or not strictly increasing.
    ValueError
        noise_sigma not a finite real number >= 0, per
        :func:`~qsysid.ratfunc.require_real`, or seed not a whole number
        >= 0, per :func:`~qsysid.ratfunc.require_whole`.
    """
    noise_sigma = require_real(noise_sigma, "noise_sigma", 0.0)
    seed = require_whole(seed, "seed", 0)
    freqs = require_grid(freqs)
    rank = sys.reached.lam.size
    if rank < sys.n:
        raise NotHurwitz(f"fields reach {rank} of {sys.n} modes; "
                         "an unreached mode has a pole on the imaginary axis")
    responses = np.empty((freqs.size, sys.m, sys.m), dtype=complex)
    for j, s in enumerate((1j * freqs).tolist()):
        responses[j] = transfer_at(sys, s)
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        shape = responses.shape
        responses = responses + noise_sigma * (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        )
    return ProbeDataset(freqs, responses, noise_sigma, seed)


def fit_rational(data: ProbeDataset, degree: int) -> FitResult:
    """Fit a degree-n rational function with Xi(inf) = 1 to single-port samples.

    Iteratively reweighted linear least squares (Sanathanan-Koerner): num
    and den are monic, as for every passive Xi, and each pass solves for
    their 2n lower coefficients minimizing

        sum_j w_j |num(i w_j) - response_j * den(i w_j)|^2

    with weights 1 / |den_prev(i w_j)|^2, starting from the prior
    denominator (s / wref + 1)^n. The frequencies are rescaled by their
    geometric mean wref before building the design matrix, which keeps the
    powers balanced; coefficients are scaled back afterwards. Each pass
    solves the column-equilibrated weighted design by one least-squares
    call, whose rank says how many of the 2n coefficients the samples
    determine. Iteration stops when the relative coefficient change drops
    below 1e-10 (``converged``) or after 6 passes. Coefficients stay
    complex; no conjugate symmetry is imposed. ``rms_residual`` is that of
    the returned function.

    Raises
    ------
    DimensionMismatch
        more than one port.
    NonMonotoneGrid, ValueError
        freqs not strictly increasing, or not finite.
    InsufficientData
        fewer than 2 (2 degree + 1) samples, or a design of rank below
        2 degree: the samples do not determine every coefficient.
    ValueError
        degree not an integer >= 1 (a bool is refused), or a response
        sample not finite.
    """
    if data.m != 1:
        raise DimensionMismatch(f"fit requires single-port data, got m = {data.m}")
    freqs = require_grid(data.freqs)
    require_finite(data.responses, "responses")
    n = require_whole(degree, "degree", 1)
    if freqs.size < 2 * (2 * n + 1):
        raise InsufficientData(f"{freqs.size} samples for degree {n}; "
                               f"need at least {2 * (2 * n + 1)}")
    resp = data.responses[:, 0, 0]
    wref = np.exp(np.mean(np.log(np.abs(freqs[freqs != 0.0]))))
    z = 1j * freqs / wref
    powers = z[:, None] ** np.arange(n)[None, :]
    design = np.hstack([powers, -resp[:, None] * powers])
    rhs = (resp - 1.0) * z**n
    coeffs = np.zeros(2 * n, dtype=complex)
    weights = 1.0 / np.abs(z + 1.0) ** n
    for iterations in range(1, MAX_SK_ITERATIONS + 1):
        wdesign = weights[:, None] * design
        colnorm = np.linalg.norm(wdesign, axis=0)
        colnorm[colnorm == 0.0] = 1.0
        wdesign = wdesign / colnorm[None, :]
        solution, _, rank, _ = np.linalg.lstsq(wdesign, weights * rhs, rcond=None)
        if rank < 2 * n:
            raise InsufficientData(f"the samples determine {rank} of the {2 * n} coefficients")
        solution = solution / colnorm
        change = np.linalg.norm(solution - coeffs)
        scale = max(np.linalg.norm(solution), 1e-300)
        coeffs = solution
        den_scaled = np.append(coeffs[n:], 1.0)
        weights = 1.0 / np.maximum(np.abs(polyval(z, den_scaled)), 1e-300)
        converged = bool(change <= SK_COEFF_TOL * scale)
        if converged:
            break
    unscale = wref ** (n - np.arange(n + 1))
    num = np.append(coeffs[:n], 1.0) * unscale
    den = np.append(coeffs[n:], 1.0) * unscale
    tf = make_rational_tf(num, den)
    fitted = tf.eval(1j * freqs)[:, 0, 0]
    rms = float(np.sqrt(np.mean(np.abs(fitted - resp) ** 2)))
    return FitResult(tf=tf, rms_residual=rms, iterations=iterations, converged=converged)


def identify_pipeline(
    data: ProbeDataset, degree: int
) -> tuple[PassiveSystem, CanonicalParams, FitResult]:
    """Full identification chain: fit, then reconstruct from the measure.

    Runs :func:`fit_rational`, builds the companion realization of the fit
    and calls :func:`~qsysid.realization.reconstruct_passive` once: the
    fitted den gives the poles, each held to the mirror of the nearest zero
    of the fitted num, and the cascade of those poles gives both the
    diagonal passive system and the canonical parameters. The fit holds
    Xi(inf) = 1; the one passivity tolerance is loosened in proportion to
    the fit residual, since a noisy estimate is only approximately passive.

    Raises errors from any stage unchanged, including NotHurwitz for an
    unstable fitted pole and NotPassiveTF when the fitted num is not the
    mirror of den at the loosened tolerance.
    """
    fit = fit_rational(data, degree)
    tol = max(1e-7, NOISE_TOL_FACTOR * fit.rms_residual)
    sys, params = reconstruct_passive(companion_realization(fit.tf), passivity_tol=tol)
    return sys, params, fit
