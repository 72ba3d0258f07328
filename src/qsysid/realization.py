"""Reconstruction of system matrices from a rational transfer function.

A single-port passive Xi(s) = prod_k (s + conj p_k) / (s - p_k) is the
series product (cascade) of one-mode cavities, one per pole. :func:`_measure`
reads the spectral measure (lam, w) of the cascade's Hamiltonian off one
``eigh``, unless Xi carries it (:func:`~qsysid.model.transfer_rational`);
(diag(lam), sqrt(w)) realizes Xi, and the zeros of the measure's Stieltjes
function give the canonical parameters (theta, omega11, lambda_i, |E'_i|).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import (
    DimensionMismatch,
    NotHurwitz,
    NotPassiveTF,
    RankDeficientCoupling,
    SolverSingular,
)
from . import model
from .ratfunc import RationalTF, read_only, require_finite, require_real

LYAPUNOV_RTOL = 1e-10
PASSIVITY_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class ClassicalRealization:
    """Companion pair, Xi(s) = 1 + c0 (sI - a0)^{-1} B0 with the constant B0 = e_n,
    and the function it realizes, whose carried measure, if any, the
    reconstruction takes."""

    a0: np.ndarray
    c0: np.ndarray
    tf: RationalTF


@dataclass(frozen=True, eq=False)
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


def _vanishing_difference(tf: RationalTF) -> np.ndarray:
    """Coefficients of den - num below s^n, ascending, for a single-port ``tf``.

    Raises NotPassiveTF when the s^n coefficient exceeds 1e-8 times the
    largest coefficient of den - num or den: 1 - Xi does not vanish at
    large |s|, so no passive system (whose direct term is 1) realizes Xi.
    """
    n = tf.degree
    diff = tf.den - tf.num[0, 0]
    lead = abs(diff[n])
    threshold = PASSIVITY_RTOL * max(np.abs(diff).max(), np.abs(tf.den).max())
    if lead > threshold:
        raise NotPassiveTF(f"I - Xi does not vanish at large |s|: leading coefficient "
                           f"{lead:.3e} exceeds {threshold:.3e}")
    return diff[:n]


def companion_realization(tf: RationalTF) -> ClassicalRealization:
    """Companion realization of a single-port rational function.

    A0 carries the denominator coefficients in its last row, B0 = e_n, and
    C0 holds the coefficients of Xi(s) - 1 over the common denominator.
    ``tf`` is carried on, so that :func:`reconstruct_passive` can take its
    measure when it carries one. Xi(inf) must be 1, the direct term
    of every passive system, within 1e-8 relative.

    Raises
    ------
    DimensionMismatch
        more than one port.
    NotPassiveTF
        per :func:`_vanishing_difference`.
    """
    if tf.m != 1:
        raise DimensionMismatch(f"operation requires m = 1, got m = {tf.m}")
    n = tf.degree
    c0 = -_vanishing_difference(tf).reshape(1, n)
    a0 = np.eye(n, k=1, dtype=complex)
    a0[n - 1, :] = -tf.den[:n]
    return ClassicalRealization(a0=a0, c0=c0, tf=tf)


def solve_lyapunov(a0: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve P a0 + a0† P + q = 0 for Hermitian P.

    With a companion a0 of a passive function and q = c0† c0, P = T†T for
    the similarity T onto a passive system: the classical construction.
    No library path calls it; it is the one user of SciPy.

    Raises
    ------
    ValueError
        a0 or q is not finite numbers, per :func:`~qsysid.ratfunc.require_finite`.
    NotHurwitz
        some Re eig(a0) is not below -n eps max(1, max|eig|), the eigenvalues' rounding.
    SolverSingular
        residual above 1e-10 * max|q|.
    """
    a0 = np.asarray(require_finite(a0, "a0"), dtype=complex)
    q = np.asarray(require_finite(q, "q"), dtype=complex)
    if a0.shape != q.shape or a0.shape[0] != a0.shape[1]:
        raise DimensionMismatch(f"shapes {a0.shape} and {q.shape} are incompatible")
    _require_hurwitz(np.linalg.eigvals(a0))
    from scipy.linalg import solve_continuous_lyapunov  # slow; only this route needs it
    q = 0.5 * (q + q.conj().T)
    p = solve_continuous_lyapunov(a0.conj().T, -q)
    p = 0.5 * (p + p.conj().T)
    residual = np.abs(p @ a0 + a0.conj().T @ p + q).max()
    qscale = max(np.abs(q).max(), 1e-300)
    if residual > LYAPUNOV_RTOL * qscale:
        raise SolverSingular(f"Lyapunov residual {residual:.3e} exceeds tolerance")
    return p


def _require_hurwitz(p: np.ndarray) -> None:
    """Raise NotHurwitz unless every Re p_k < -n eps max(1, max|p|), the poles' rounding."""
    floor = len(p) * np.finfo(float).eps * max(1.0, np.abs(p).max())
    k = int(np.argmax(p.real))
    if not p[k].real < -floor:
        raise NotHurwitz(f"pole {p[k]:.6g} has a real part not below -{floor:.3e}")


def _mirror_gap(real: ClassicalRealization, p: np.ndarray) -> np.ndarray:
    """g_k = num(-conj p_k) / prod_{j != k} (conj p_j - conj p_k): one Newton
    step from -conj p_k to the nearest zero of num, 0 for a passive Xi. A gap
    that overflows comes out inf or NaN, which no bound admits."""
    q = p.conj()
    diff = q - q[:, None]
    np.fill_diagonal(diff, 1.0)
    with np.errstate(all="ignore"):
        return polyval(-q, np.append(real.c0[0] - real.a0[-1], 1.0)) / diff.prod(axis=1)


def _cascade(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Measure (lam ascending, w) of the cascade of the stable poles p: with
    C_k = sqrt(-2 Re p_k) and T upper triangular, T_kk = p_k and
    T_jk = -C_j C_k (j < k), Omega' = i (T + C C^T / 2) and C realize
    prod_k (s + conj p_k) / (s - p_k), so ``eigh(Omega') = V diag(lam) V†``
    gives w = |C V|^2."""
    c = np.sqrt(-2.0 * p.real)
    lam, v = np.linalg.eigh(np.diag(-p.imag) + 0.5j * np.tril(np.outer(c, c), -1))
    return lam, np.abs(c @ v) ** 2


def _measure(real: ClassicalRealization, tol: float) -> tuple:
    """Spectral measure (lam ascending, w) of Xi and its CanonicalParams, all read-only.

    A measure (lam, cv) carried by ``real.tf`` gives lam and w = |cv|². Otherwise the poles
    are ``eigvals(a0)``, held to the mirror gap g_k of :func:`_mirror_gap`,
    and move by conj(g_k) / 2 before :func:`_cascade`; the root of den + num
    near the mode j nearest -Im p_k lies Re g_k / 2 off the imaginary axis,
    which is held to ``tol``. Either measure must reach as many eigenspaces
    as the degree by the rule of :func:`~qsysid.model.eigenspaces`, ||c||_F² = sum(w).

    Raises
    ------
    ValueError
        tol is not finite and positive.
    NotHurwitz
        the poles fail :func:`_require_hurwitz`, or the measure reaches too few eigenspaces.
    NotPassiveTF
        some |g_k| not within -Re p_k, or some |Re g_k| above 2 tol sqrt(w_j theta).
    """
    tol = require_real(tol, "tol", 0.0, strict=True)
    if real.tf.measure is not None:
        lam, w = real.tf.measure[0], read_only(np.abs(real.tf.measure[1][0]) ** 2)
    else:
        p = np.linalg.eigvals(real.a0)
        _require_hurwitz(p)
        g = _mirror_gap(real, p)
        k = int(np.argmax(np.abs(g) + p.real))
        if not abs(g[k]) <= -p[k].real:
            raise NotPassiveTF(f"zero of num {abs(g[k]):.3e} from the mirrored pole "
                               f"{-p[k].conj():.6g}, beyond its width {-p[k].real:.3e}")
        p = p + 0.5 * g.conj()
        lam, w = map(read_only, _cascade(p))
        j = np.abs(lam + p.imag[:, None]).argmin(axis=1)
        offset = 0.5 * np.abs(g.real)
        bound = tol * np.sqrt(w[j]) * np.sqrt(w.sum())
        k = int(np.argmax(offset - bound))
        if offset[k] > bound[k]:
            raise NotPassiveTF(f"Xi = -1 near lam = {lam[j[k]]:.6g}, off the imaginary axis by "
                               f"{offset[k]:.3e} > {bound[k]:.3e}")
    cluster, err, _, _ = model.eigenspaces(lam, w.sum())
    reach = np.count_nonzero(np.bincount(cluster, w) > (model.SPECTRAL_RTOL + err) ** 2 * w.sum())
    if reach < real.tf.degree:
        raise NotHurwitz(f"fields reach {reach} of {real.tf.degree} modes; "
                         "an unreached mode has a pole on the imaginary axis")
    return lam, w, _canonical(lam, w)


def _canonical(lam: np.ndarray, w: np.ndarray) -> CanonicalParams:
    """Canonical parameters of the measure (lam, w), with read-only arrays.

    With u² = w / theta and F(x) = sum_k u_k² / (x - lam_k), the arrowhead [[omega11, |E'|],
    [|E'|^T, diag(lambdas)]] has the measure (lam, u²) at e1 for omega11 = sum_k u_k² lam_k, the
    lambda_i the zeros of F and |E'_i| = |F'(lambda_i)|^(-1/2). Each zero, from eigvalsh of P
    diag(lam) P (P = I - u u^T), is held as its offset tau from the nearer pole and refined by
    Newton steps on tau F, so each gap lambda_i - lam_k and |E'_i| keep their relative accuracy.
    """
    theta = w.sum()
    u2 = w / theta
    u, omega11 = np.sqrt(u2), u2 @ lam
    span = lam[-1] - lam[0] or 1.0  # the unit of every offset
    proj = np.diag(lam) - np.outer(u, lam * u) - np.outer(lam * u, u)  # u's own eigenvalue is 0
    start = np.linalg.eigvalsh(proj + (omega11 + lam[-1] + span) * np.outer(u, u))[:-1]  # moved up
    origin = np.arange(lam.size - 1) + (2 * start > lam[:-1] + lam[1:])  # the nearer pole
    pole = (lam - lam[origin, None]) / span
    tau = (start - lam[origin]) / span
    tau[tau == 0] = np.finfo(float).eps  # tau F is smooth across 0, but is formed as tau * F
    for _ in range(50):
        gap = tau[:, None] - pole  # x - lam_k, in units of span
        t1 = u2 / gap
        step = tau * t1.sum(1) / -(t1 / gap * pole).sum(1)  # tau F over its slope
        tau = tau - step
        if (step * step <= 4 * np.finfo(float).eps * tau * tau).all():  # the next is at rounding
            break
    gap = tau[:, None] - pole
    lambdas, e_abs = lam[origin] + tau * span, span / np.sqrt((u2 / gap ** 2).sum(1))
    return CanonicalParams(float(theta), float(omega11), *map(read_only, (lambdas, e_abs)))


def reconstruct_passive(
    real: ClassicalRealization, passivity_tol: float = PASSIVITY_RTOL
) -> tuple[model.PassiveSystem, CanonicalParams]:
    """Recover (omega, c) and the canonical parameters from a classical
    realization of a passive single-port transfer function.

    The measure (lam, w) of Xi (:func:`_measure`), the one the function
    carries or else that of the cascade of its poles, minimal by the rule of
    :func:`~qsysid.model.eigenspaces`, gives omega = diag(lam), lam ascending,
    and c = sqrt(w) > 0; the rest of the class is
    :func:`~qsysid.identifiability.gauge_transform` of it. Poles from
    coefficients are held to the mirror of num at the relative tolerance
    ``passivity_tol``; loosen it for fitted functions.

    Raises
    ------
    ValueError, NotHurwitz, NotPassiveTF
        per :func:`_measure`.
    """
    lam, w, params = _measure(real, passivity_tol)
    return model.new_system(np.diag(lam), np.sqrt(w)[None, :]), params


def direct_reconstruction(tf: RationalTF) -> CanonicalParams:
    """Identifiable parameters (theta, omega11, lambda_i, |E'_i|) of Xi, as
    :func:`reconstruct_passive` returns them from :func:`companion_realization`
    of ``tf`` at the relative tolerance 1e-8."""
    return _measure(companion_realization(tf), PASSIVITY_RTOL)[2]


def eigenvalues_from_canonical(params: CanonicalParams) -> np.ndarray:
    """Eigenvalues of the Hamiltonian matrix, from the arrowhead assembly.

    The matrix [[omega11, |E'|], [|E'|^T, diag(lambdas)]] is unitarily
    equivalent to the full Hamiltonian; the discarded phases never enter.
    """
    arrow = np.diag(np.concatenate([[params.omega11], params.lambdas]))
    arrow[0, 1:] = arrow[1:, 0] = params.e_abs
    return np.sort(np.linalg.eigvalsh(arrow))


def mimo_coupling_gram(tf: RationalTF) -> tuple[np.ndarray, np.ndarray]:
    """Leading moments of a transfer function, from its spectral measure (lam, cv).

    Returns the positive square root C0 of the coupling Gram matrix
    lim s (I - Xi(s)) = C C† = cv cv†, and the accessible Hamiltonian block
    C0^-1 (cv diag(lam) cv†) C0^-1, rotated by the unrecoverable right unitary
    of the coupling. A single-port function that carries no measure (a fit or
    a file) takes the one :func:`reconstruct_passive` rebuilds from its
    coefficients at the relative tolerance 1e-8.

    Raises
    ------
    NotPassiveTF, NotHurwitz
        a function without a measure, per :func:`companion_realization` and
        :func:`_measure`.
    RankDeficientCoupling
        the smallest Gram eigenvalue is not above 1e-8 times the largest
        (coupling not of full row rank).
    """
    if tf.measure is None:
        lam, w, _ = _measure(companion_realization(tf), PASSIVITY_RTOL)
        cv = np.sqrt(w)[None, :]
    else:
        lam, cv = tf.measure
    gram = cv @ cv.conj().T
    ev, u = np.linalg.eigh(gram)
    if ev[0] <= PASSIVITY_RTOL * max(ev[-1], 0.0) or ev[-1] <= 0.0:
        raise RankDeficientCoupling(f"gram eigenvalues {ev} are not all positive")
    c0 = (u * np.sqrt(ev)) @ u.conj().T
    c0_inv = (u / np.sqrt(ev)) @ u.conj().T
    block = c0_inv @ ((cv * lam) @ cv.conj().T) @ c0_inv
    return c0, 0.5 * (block + block.conj().T)
