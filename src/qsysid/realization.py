"""Reconstruction of system matrices from a rational transfer function.

Two routes are provided. The classical route builds a companion realization
(A0, B0, C0) of a single-port function, solves the observability-type
Lyapunov equation P A0 + A0† P + C0† C0 = 0 for P = T†T, factors
P = U0 Lambda U0†, and lands in the quantum gauge T = U sqrt(Lambda) U0†.
The direct route reads the identifiable parameters (theta, omega11,
lambda_i, |E'_i|) straight off the polynomial coefficients, with every
"limit at infinite s" evaluated algebraically as a leading-coefficient
ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_continuous_lyapunov

from .errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    NegativeResidue,
    NotPassiveTF,
    NotSISO,
    RankDeficientCoupling,
    SolverSingular,
)
from .model import PassiveSystem, new_system, require_hurwitz, require_unitary
from .ratfunc import RationalTF, poly_roots, polyval_asc, require_monic

LYAPUNOV_RTOL = 1e-10
PASSIVITY_RTOL = 1e-8
POLE_SEP_RTOL = 1e-7
RESIDUE_RTOL = 1e-8


@dataclass(frozen=True)
class ClassicalRealization:
    """Companion-form state-space triple with Xi(s) = 1 + c0 (sI - a0)^{-1} b0."""

    a0: np.ndarray
    b0: np.ndarray
    c0: np.ndarray


@dataclass(frozen=True)
class GaugeFactorization:
    """Factorization of the Lyapunov solution P = T†T.

    ``p = u0 diag(lam) u0†`` with ``lam`` positive descending, and
    ``t0 = sqrt(diag(lam)) u0†`` is the gauge representative with U = I.
    """

    p: np.ndarray
    lam: np.ndarray
    u0: np.ndarray
    t0: np.ndarray


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


def _require_siso(tf: RationalTF) -> None:
    if tf.m != 1:
        raise NotSISO(f"operation requires m = 1, got m = {tf.m}")


def _vanishing_difference(tf: RationalTF, tol: float) -> np.ndarray:
    """Coefficients of den I - num below s^n, shape (m, m, n), ascending.

    Raises NotPassiveTF when the s^n coefficient exceeds ``tol`` times the
    largest coefficient of den I - num or den: then I - Xi does not vanish
    at large |s|, so no passive system (whose direct term is I) realizes Xi.
    """
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

    Parameters
    ----------
    tol : float
        Relative tolerance on the required unit value of Xi at large |s|;
        loosen for fitted transfer functions.

    Raises
    ------
    NotSISO, NonMonic
    NotPassiveTF
        if Xi does not approach 1 at large |s| (numerator not monic), so
        no realization with unit direct term exists.
    """
    _require_siso(tf)
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

    Parameters
    ----------
    a0 : (n, n) ndarray
        Must be Hurwitz, otherwise the solution is not unique.
    q : (n, n) ndarray
        Hermitian right-hand side (typically c0† c0).

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
    require_hurwitz(a0)
    q = 0.5 * (q + q.conj().T)
    p = solve_continuous_lyapunov(a0.conj().T, -q)
    p = 0.5 * (p + p.conj().T)
    residual = np.abs(p @ a0 + a0.conj().T @ p + q).max()
    qscale = max(np.abs(q).max(), 1e-300)
    if residual > LYAPUNOV_RTOL * qscale:
        raise SolverSingular(f"Lyapunov residual {residual:.3e} exceeds tolerance")
    return p


def _ordered_eigh(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition with eigenvalues descending and phase-fixed vectors.

    The largest-magnitude component of each eigenvector is rotated to the
    positive real axis, making the factorization deterministic.
    """
    lam, u = np.linalg.eigh(0.5 * (p + p.conj().T))
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    u = u[:, order]
    for j in range(u.shape[1]):
        k = int(np.argmax(np.abs(u[:, j])))
        phase = u[k, j] / abs(u[k, j])
        u[:, j] = u[:, j] / phase
    return lam, u


def reconstruct_passive(
    real: ClassicalRealization,
    u: np.ndarray | None = None,
    passivity_tol: float = PASSIVITY_RTOL,
) -> tuple[PassiveSystem, GaugeFactorization]:
    """Recover (omega, c) from a classical realization of a passive transfer function.

    Solves the Lyapunov equation for P = T†T, checks the passivity
    consistency condition P B0 = -C0†, and assembles

        omega0 = (i/2) [sqrt(L) U0† A0 U0 sqrt(L)^{-1}
                        - sqrt(L)^{-1} U0† A0† U0 sqrt(L)],
        c      = C0 U0 sqrt(L)^{-1},

    then rotates by the free unitary ``u`` (identity by default):
    omega = u omega0 u†, c -> c u†.

    Parameters
    ----------
    passivity_tol : float
        Relative tolerance on max |P B0 + C0†|; loosen for transfer
        functions estimated from noisy data.

    Raises
    ------
    NotHurwitz
    NotPassiveTF
        consistency condition fails, so the function is not realizable by
        a passive quantum system.
    SolverSingular
        Lyapunov solution not positive definite (realization not minimal).
    NotUnitary
        supplied ``u`` is not unitary.
    """
    a0, b0, c0 = real.a0, real.b0, real.c0
    n = a0.shape[0]
    p = solve_lyapunov(a0, c0.conj().T @ c0)
    dev = np.abs(p @ b0 + c0.conj().T).max()
    scale = max(np.abs(c0).max(), np.abs(p @ b0).max(), 1e-300)
    if dev > passivity_tol * scale:
        raise NotPassiveTF(
            f"max |P B0 + C0†| = {dev:.3e} exceeds {passivity_tol:.1e} * {scale:.3e}"
        )
    lam, u0 = _ordered_eigh(p)
    if lam[-1] <= 1e-12 * lam[0]:
        raise SolverSingular("Lyapunov solution is numerically singular")
    sqrt_lam = np.sqrt(lam)
    left = (sqrt_lam[:, None] * u0.conj().T) @ a0 @ (u0 / sqrt_lam[None, :])
    omega0 = 0.5j * (left - left.conj().T)
    c_row = (c0 @ u0) / sqrt_lam[None, :]
    u = np.eye(n, dtype=complex) if u is None else require_unitary(u, n)
    omega = u @ omega0 @ u.conj().T
    omega = 0.5 * (omega + omega.conj().T)
    sys = new_system(omega, c_row @ u.conj().T)
    gauge = GaugeFactorization(
        p=p, lam=lam, u0=u0, t0=sqrt_lam[:, None] * u0.conj().T
    )
    return sys, gauge


def direct_reconstruction(tf: RationalTF, tol: float = RESIDUE_RTOL) -> CanonicalParams:
    """Identifiable parameters straight from the coefficients of Xi.

    theta is the leading-coefficient ratio of s (1 - Xi(s)); omega11
    follows from the next order; the interior spectrum lambda_i and
    coupling magnitudes |E'_i| come from the simple poles and residues of
    XiTilde(s) = theta / (1 - Xi(s)) - s - i omega11 - theta / 2.

    Parameters
    ----------
    tol : float
        Relative tolerance for structural checks (relative degree,
        positivity of theta and of the residues). Loosen for fitted
        transfer functions.

    Raises
    ------
    NotSISO, NonMonic
    NotPassiveTF
        wrong relative degree or theta not positive.
    DegenerateSpectrum
        poles of XiTilde closer than 1e-7 times the spectral scale.
    NegativeResidue
        a residue with negative or non-real value where |E'_i|^2 >= 0 is
        required.
    """
    _require_siso(tf)
    require_monic(tf.den)
    n = tf.degree
    num = tf.num[0, 0]
    den = tf.den
    diff = _vanishing_difference(tf, tol)[0, 0]
    theta_c = diff[n - 1]
    if theta_c.real <= 0 or abs(theta_c.imag) > max(tol * abs(theta_c), 1e-300):
        raise NotPassiveTF(f"leading moment theta = {theta_c} is not positive real")
    theta = float(theta_c.real)

    total = num + den
    second = (num - den)[n - 2] if n >= 2 else 0.0
    omega11_c = -(1j * theta * total[n - 1] + 2j * second) / (2.0 * theta)
    omega11 = float(omega11_c.real)

    if n == 1:
        return CanonicalParams(
            theta=theta,
            omega11=omega11,
            lambdas=np.zeros(0),
            e_abs=np.zeros(0),
        )

    # XiTilde = [theta * den - (s + i omega11 + theta/2) * diff] / diff
    shifted = np.zeros(n + 1, dtype=complex)
    shifted[1:] = diff
    numt = theta * den - shifted
    numt[:n] -= (1j * omega11 + 0.5 * theta) * diff
    poles = poly_roots(diff)
    pole_scale = np.abs(poles).max()
    if pole_scale == 0.0:
        pole_scale = 1.0
    for i in range(len(poles)):
        for j in range(i + 1, len(poles)):
            if abs(poles[i] - poles[j]) < POLE_SEP_RTOL * pole_scale:
                raise DegenerateSpectrum(
                    f"poles {poles[i]} and {poles[j]} are numerically coincident"
                )
    dprime = np.polynomial.polynomial.polyder(diff)
    lambdas = np.empty(n - 1)
    e_abs = np.empty(n - 1)
    for i, pole in enumerate(poles):
        res = polyval_asc(numt, pole) / polyval_asc(dprime, pole)
        if res.real <= 0 or abs(res.imag) > max(tol * abs(res), 1e-300):
            raise NegativeResidue(f"residue {res} at pole {pole} is not positive real")
        lambdas[i] = (1j * pole).real
        e_abs[i] = np.sqrt(res.real)
    order = np.argsort(lambdas)
    return CanonicalParams(
        theta=theta,
        omega11=omega11,
        lambdas=lambdas[order],
        e_abs=e_abs[order],
    )


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


def mimo_coupling_gram(
    tf: RationalTF, tol: float = PASSIVITY_RTOL
) -> tuple[np.ndarray, np.ndarray]:
    """Leading moments of a multiport transfer function.

    Returns the positive square root C0 of the coupling Gram matrix
    lim s (I - Xi(s)) = C C†, and the accessible Hamiltonian block rotated
    by the unrecoverable right unitary of the coupling. Both follow
    algebraically from the first two coefficients of the expansion of
    I - Xi at large |s|.

    Raises
    ------
    NotPassiveTF
        I - Xi does not vanish at large |s|.
    RankDeficientCoupling
        the Gram matrix is singular (coupling not of full row rank).
    """
    n = tf.degree
    m = tf.m
    den = tf.den
    diff = _vanishing_difference(tf, tol)
    moment0 = diff[:, :, n - 1]
    moment1 = (diff[:, :, n - 2] if n >= 2 else np.zeros((m, m))) - den[n - 1] * moment0
    gram = 0.5 * (moment0 + moment0.conj().T)
    lam, u = np.linalg.eigh(gram)
    if lam[0] <= tol * max(lam[-1], 0.0) or lam[-1] <= 0.0:
        raise RankDeficientCoupling(f"gram eigenvalues {lam} are not all positive")
    c0 = (u * np.sqrt(lam)) @ u.conj().T
    c0_inv = (u / np.sqrt(lam)) @ u.conj().T
    block = 1j * (c0_inv @ moment1 @ c0_inv) + 0.5j * gram
    block = 0.5 * (block + block.conj().T)
    return c0, block
