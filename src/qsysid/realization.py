"""Reconstruction of system matrices from a rational transfer function.

Xi is the Cayley transform (1 - G/2) / (1 + G/2) of the reactance
G(s) = c (sI + i omega)^{-1} c† = sum_k w_k / (s + i lam_k). For a passive
Xi the poles of G, where Xi = -1, lie on the imaginary axis with positive
weights (Foster's reactance theorem). For one port, :func:`_measure` reads
this spectral measure off the companion realization by one eigenvalue
problem; (diag(lam), sqrt(w)) realizes Xi, and one Householder reflection
gives the canonical parameters (theta, omega11, lambda_i, |E'_i|).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    NegativeResidue,
    NotHurwitz,
    NotPassiveTF,
    RankDeficientCoupling,
    SolverSingular,
)
from .model import PassiveSystem, new_system
from .ratfunc import RationalTF, require_monic, require_tol

LYAPUNOV_RTOL = 1e-10
PASSIVITY_RTOL = 1e-8
POLE_SEP_RTOL = 1e-7


@dataclass(frozen=True)
class ClassicalRealization:
    """Companion-form state-space triple with Xi(s) = 1 + c0 (sI - a0)^{-1} b0."""

    a0: np.ndarray
    b0: np.ndarray
    c0: np.ndarray


@dataclass(frozen=True)
class CanonicalParams:
    """Identifiable parameters of a single-port system with one accessible node.

    The 2n real numbers (theta, omega11, lambdas, e_abs) pin down the
    equivalence class completely; the phases of the off-block couplings are
    pure gauge and cannot be recovered.
    """

    theta: float
    omega11: float
    lambdas: np.ndarray
    e_abs: np.ndarray

    @property
    def n(self) -> int:
        return len(self.lambdas) + 1


def _vanishing_difference(tf: RationalTF, tol: float) -> np.ndarray:
    """Coefficients of den I - num below s^n, shape (m, m, n), ascending.

    Raises NotPassiveTF when the s^n coefficient exceeds ``tol`` times the
    largest coefficient of den I - num or den: then I - Xi does not vanish
    at large |s|, so no passive system (whose direct term is I) realizes Xi,
    and ValueError unless ``tol`` is finite and positive.
    """
    tol = require_tol(tol)
    n = tf.degree
    diff = tf.den * np.eye(tf.m)[:, :, None] - tf.num
    lead = np.abs(diff[:, :, n]).max()
    threshold = tol * max(np.abs(diff).max(), np.abs(tf.den).max())
    if lead > threshold:
        raise NotPassiveTF(
            f"I - Xi does not vanish at large |s|: leading coefficient "
            f"{lead:.3e} exceeds {threshold:.3e}"
        )
    return diff[:, :, :n]


def companion_realization(
    tf: RationalTF, tol: float = PASSIVITY_RTOL
) -> ClassicalRealization:
    """Companion realization of a single-port rational function.

    A0 carries the denominator coefficients in its last row, B0 = e_n, and
    C0 holds the coefficients of Xi(s) - 1 over the common denominator.
    ``tol`` is the relative tolerance on the unit value of Xi at large |s|.

    Raises
    ------
    DimensionMismatch
        more than one port.
    NonMonic
    NotPassiveTF, ValueError
        per :func:`_vanishing_difference`.
    """
    if tf.m != 1:
        raise DimensionMismatch(f"operation requires m = 1, got m = {tf.m}")
    require_monic(tf.den)
    n = tf.degree
    c0 = -_vanishing_difference(tf, tol)[0, 0].reshape(1, n)
    a0 = np.zeros((n, n), dtype=complex)
    if n > 1:
        a0[: n - 1, 1:] = np.eye(n - 1)
    a0[n - 1, :] = -tf.den[:n]
    b0 = np.zeros((n, 1), dtype=complex)
    b0[n - 1, 0] = 1.0
    return ClassicalRealization(a0=a0, b0=b0, c0=c0)


def solve_lyapunov(a0: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve P a0 + a0† P + q = 0 for Hermitian P.

    With a companion a0 of a passive function and q = c0† c0, P = T†T for
    the similarity T onto a passive system: the classical construction.
    No library path calls it; it is the one user of SciPy.

    Raises
    ------
    NotHurwitz
        eigenvalue of a0 with nonnegative real part.
    SolverSingular
        residual above 1e-10 * max|q|.
    """
    a0 = np.asarray(a0, dtype=complex)
    q = np.asarray(q, dtype=complex)
    if a0.shape != q.shape or a0.shape[0] != a0.shape[1]:
        raise DimensionMismatch(f"shapes {a0.shape} and {q.shape} are incompatible")
    abscissa = float(np.linalg.eigvals(a0).real.max())
    if abscissa >= 0.0:
        raise NotHurwitz(f"spectral abscissa {abscissa:.3e} is not negative")
    from scipy.linalg import solve_continuous_lyapunov  # slow; only this route needs it
    q = 0.5 * (q + q.conj().T)
    p = solve_continuous_lyapunov(a0.conj().T, -q)
    p = 0.5 * (p + p.conj().T)
    residual = np.abs(p @ a0 + a0.conj().T @ p + q).max()
    qscale = max(np.abs(q).max(), 1e-300)
    if residual > LYAPUNOV_RTOL * qscale:
        raise SolverSingular(f"Lyapunov residual {residual:.3e} exceeds tolerance")
    return p


def _measure(real: ClassicalRealization, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Spectral measure (lam ascending, w) of G = 2 (1 - Xi) / (1 + Xi).

    The poles s_k = -i lam_k of G, where Xi = -1, are the eigenvalues of
    F = a0 - b0 c0 / 2, the companion of the monic p = (den + num) / 2.
    Its eigenvectors are the Vandermonde columns (1, s_k, ..., s_k^{n-1}),
    so G(s) = -c0 (sI - F)^{-1} b0 has the residues
    w_k = -c0(s_k) / p'(s_k), which sum to theta = -c0 b0.

    Each root is held to tol * sqrt(|w_k| theta), the geometric mean of
    tol * |w_k|, the width of resonance k, and tol * theta: a bound on the
    whole spectrum's scale would let a weak mode's root, and its lam_k,
    drift off the axis by as much as its own width. The bound is floored
    at n eps max(|s_k|, theta), the rounding of the eigenvalues themselves.

    Raises
    ------
    ValueError
        tol is not finite and positive.
    DegenerateSpectrum
        two s_k are closer than 1e-7 * max(|s_k|, |theta|).
    NotPassiveTF
        some i s_k lies off the real axis by more than its bound.
    NegativeResidue
        some w_k is not finite, or not real within, and above, tol * max |w|.
    """
    tol = require_tol(tol)
    f = real.a0 - 0.5 * (real.b0 @ real.c0)
    s = np.linalg.eigvals(f)
    order = np.argsort((1j * s).real)
    s, lam = s[order], (1j * s[order]).real
    theta = abs((real.c0 @ real.b0)[0, 0])
    scale = max(np.abs(s).max(), theta)
    close = np.argwhere(np.triu(np.abs(s[:, None] - s) < POLE_SEP_RTOL * scale, k=1))
    if close.size:
        i, j = close[0]  # row-major order: the pair of lowest lam the scan meets
        raise DegenerateSpectrum(
            f"roots lam = {lam[i]:.6g} and {lam[j]:.6g} "
            f"of den + num are numerically coincident"
        )
    n = len(s)
    dp = np.arange(1, n + 1) * np.append(-f[-1, 1:], 1.0)  # p' ascending
    vander = np.vander(s, n, increasing=True)
    with np.errstate(all="ignore"):  # an overflow leaves a non-finite weight, refused below
        w = -(vander @ real.c0[0]) / (vander @ dp)
    bound = np.maximum(tol * np.sqrt(np.abs(w) * theta), n * np.finfo(float).eps * scale)
    off = np.abs(s.real) > bound
    if off.any():
        k = int(np.argmax(off))
        raise NotPassiveTF(
            f"Xi = -1 at s = {s[k]:.6g}, off the imaginary axis by "
            f"{abs(s[k].real):.3e} > {bound[k]:.3e}"
        )
    bad = ~np.isfinite(w)  # a NaN weight passes both comparisons below
    if not bad.any():
        bound = tol * np.abs(w).max()
        bad = (w.real <= bound) | (np.abs(w.imag) > bound)
    if bad.any():
        k = int(np.argmax(bad))
        raise NegativeResidue(
            f"weight {w[k]:.6g} at lam = {lam[k]:.6g} is not positive real"
        )
    return lam, w.real


def _canonical(lam: np.ndarray, w: np.ndarray) -> CanonicalParams:
    """Canonical parameters of the measure (lam, w).

    The Householder reflection H that maps u = sqrt(w / theta) to -e1
    turns (diag(lam), sqrt(w)) into the single-node form with
    omega = H diag(lam) H and c = -sqrt(theta) e1; its trailing block
    holds the interior spectrum and its first row the couplings.
    """
    theta = w.sum()
    v = np.sqrt(w / theta)
    v[0] += 1.0  # v = u + e1: no cancellation, since u_1 > 0
    h = np.eye(len(v)) - np.outer(v, v) * (2.0 / (v @ v))
    reflected = h @ (lam[:, None] * h)
    lambdas, y = np.linalg.eigh(reflected[1:, 1:])
    e_abs = np.abs(reflected[0, 1:] @ y)
    return CanonicalParams(float(theta), float(reflected[0, 0]), lambdas, e_abs)


def reconstruct_passive(
    real: ClassicalRealization, passivity_tol: float = PASSIVITY_RTOL
) -> tuple[PassiveSystem, CanonicalParams]:
    """Recover (omega, c) and the canonical parameters from a classical
    realization of a passive single-port transfer function.

    The spectral measure (lam, w) of :func:`_measure` gives the diagonal
    representative omega = diag(lam), lam ascending, with positive
    couplings c = sqrt(w); every other realization in its equivalence
    class is :func:`~qsysid.identifiability.gauge_transform` of it.
    ``passivity_tol`` is the relative tolerance of the passivity checks;
    loosen it for fitted functions.

    Raises
    ------
    ValueError, DegenerateSpectrum, NotPassiveTF, NegativeResidue
        per :func:`_measure`.
    """
    lam, w = _measure(real, passivity_tol)
    return new_system(np.diag(lam), np.sqrt(w)[None, :]), _canonical(lam, w)


def direct_reconstruction(tf: RationalTF) -> CanonicalParams:
    """Identifiable parameters (theta, omega11, lambda_i, |E'_i|) of Xi:
    :func:`_canonical` of :func:`_measure` of :func:`companion_realization`,
    all three at the relative tolerance 1e-8, and the same parameters
    :func:`reconstruct_passive` returns."""
    return _canonical(*_measure(companion_realization(tf), PASSIVITY_RTOL))


def eigenvalues_from_canonical(params: CanonicalParams) -> np.ndarray:
    """Eigenvalues of the Hamiltonian matrix, from the arrowhead assembly.

    The matrix [[omega11, |E'|], [|E'|^T, diag(lambdas)]] is unitarily
    equivalent to the full Hamiltonian; the discarded phases never enter.
    """
    k = len(params.lambdas)
    arrow = np.zeros((k + 1, k + 1))
    arrow[0, 0] = params.omega11
    arrow[0, 1:] = params.e_abs
    arrow[1:, 0] = params.e_abs
    arrow[np.arange(1, k + 1), np.arange(1, k + 1)] = params.lambdas
    return np.sort(np.linalg.eigvalsh(arrow))


def mimo_coupling_gram(tf: RationalTF) -> tuple[np.ndarray, np.ndarray]:
    """Leading moments of a multiport transfer function.

    Returns the positive square root C0 of the coupling Gram matrix
    lim s (I - Xi(s)) = C C†, and the accessible Hamiltonian block rotated
    by the unrecoverable right unitary of the coupling. Both follow
    algebraically from the first two coefficients of the expansion of
    I - Xi at large |s|.

    Raises
    ------
    NotPassiveTF
        I - Xi does not vanish at large |s|, within 1e-8 relative.
    RankDeficientCoupling
        the smallest Gram eigenvalue is not above 1e-8 times the largest
        (coupling not of full row rank).
    """
    n = tf.degree
    m = tf.m
    den = tf.den
    diff = _vanishing_difference(tf, PASSIVITY_RTOL)
    moment0 = diff[:, :, n - 1]
    moment1 = (diff[:, :, n - 2] if n >= 2 else np.zeros((m, m))) - den[n - 1] * moment0
    gram = 0.5 * (moment0 + moment0.conj().T)
    lam, u = np.linalg.eigh(gram)
    if lam[0] <= PASSIVITY_RTOL * max(lam[-1], 0.0) or lam[-1] <= 0.0:
        raise RankDeficientCoupling(f"gram eigenvalues {lam} are not all positive")
    c0 = (u * np.sqrt(lam)) @ u.conj().T
    c0_inv = (u / np.sqrt(lam)) @ u.conj().T
    block = 1j * (c0_inv @ moment1 @ c0_inv) + 0.5j * gram
    block = 0.5 * (block + block.conj().T)
    return c0, block
