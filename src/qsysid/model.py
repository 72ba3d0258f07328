"""Passive linear quantum systems: model definition and input-output maps.

A system of n bosonic modes is specified by a Hermitian Hamiltonian matrix
``omega`` (n x n) and a coupling matrix ``c`` (m x n, m <= n) to m input
fields. The effective drift is A = -i*omega - c†c/2, mean dynamics follow

    d<a>/dt  = A <a> - c† beta(t),
    <b_out>  = c <a> + beta(t),

and the frequency-domain input-output map is Xi(s) = I - c (sI - A)^{-1} c†.
Xi(i*w) is unitary for every real w.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    NonMonotoneGrid,
    NotHermitian,
    NotUnitary,
    SingularResolvent,
)
from .ratfunc import RationalTF, cayley, poly_from_roots, read_only, require_finite

HERMIT_RTOL = 1e-12
HERMIT_ATOL = 1e-14
RESOLVENT_TOL = 1e-10
SPECTRAL_RTOL = 1e-10
UNITARY_TOL = 1e-10


class Reached(NamedTuple):
    """Read-only value of :attr:`PassiveSystem.reached`, by the rule of :func:`eigenspaces`."""

    lam: np.ndarray
    v: np.ndarray
    cv: np.ndarray
    cluster: np.ndarray
    err: np.ndarray
    scale: float
    eps_omega: float


@dataclass(frozen=True, eq=False)
class PassiveSystem:
    """Immutable pair (omega, c) defining a passive linear quantum system.

    Construct through :func:`new_system`, which validates shapes and
    Hermiticity. Instances are safe to share between threads, and compare
    and hash by identity. Each cached property below is computed on first
    use and kept, read-only, on the instance.
    """

    omega: np.ndarray
    c: np.ndarray

    @property
    def n(self) -> int:
        """Mode count."""
        return self.omega.shape[0]

    @property
    def m(self) -> int:
        """Field (port) count."""
        return self.c.shape[0]

    @cached_property
    def drift(self) -> np.ndarray:
        """Drift matrix A = -i*omega - c†c/2. Satisfies A + A† + c†c = 0."""
        return read_only(-1j * self.omega - 0.5 * (self.c.conj().T @ self.c))

    @cached_property
    def poles(self) -> np.ndarray:
        """Eigenvalues of the drift matrix: the poles of Xi(s). With every mode reached, no
        eigenspace shared and n >= 32 for one port, 64 for more, the roots of det(I + G(s)/2) = 0,
        G(s) = sum_k (c v_k)(c v_k)† / (s + i lam_k) over ``reached`` (Golub, SIAM Rev. 1973), by
        :func:`_secular_roots` in order of lam_k; else, or unsettled, ``eigvals(drift)``."""
        # tools/poles.py, one BLAS thread: eigvals wins on dense at n = 24 for m = 1, 48 for m = 4
        if self.n >= (32 if self.m == 1 else 64) and (r := self.reached).lam.size == self.n \
                and r.cluster[-1] + 1 == self.n:
            roots, _ = _secular_roots(r.lam, r.cv)
            if roots is not None:
                return read_only(roots)
        return read_only(np.linalg.eigvals(self.drift))

    @cached_property
    def zeros(self) -> np.ndarray:
        """The poles mirrored, -conj(p_k): the zeros of det Xi(s)."""
        return read_only(-self.poles.conj())

    @cached_property
    def abscissa(self) -> float:
        """Spectral abscissa max_k Re p_k of the drift matrix."""
        return float(self.poles.real.max())

    @cached_property
    def reached(self) -> Reached:
        """Eigen-directions ``(lam, v, cv)`` of the one ``eigh(omega)`` the fields reach, by
        :func:`eigenspaces`, with its ``cluster``, ``scale``, ``eps_omega`` and ``err`` (per
        direction); one of several in an eigenspace is turned onto the right singular vectors
        of its c V block. Xi is the Cayley form of this measure (:func:`~qsysid.ratfunc.cayley`)."""
        lam, v = np.linalg.eigh(self.omega)
        cv = self.c @ v
        cluster, err, scale, eps_omega = eigenspaces(lam, np.linalg.norm(self.c) ** 2)
        for k in np.flatnonzero(np.bincount(cluster) > 1):
            block = cluster == k
            wh = np.linalg.svd(cv[:, block])[2].conj().T
            v[:, block], cv[:, block] = v[:, block] @ wh, cv[:, block] @ wh
        keep = np.linalg.norm(cv, axis=0) > (SPECTRAL_RTOL + err[cluster]) * np.linalg.norm(self.c)
        lam, v, cv, cluster = (a[..., keep] for a in (lam, v, cv, cluster))
        return Reached(*map(read_only, (lam, v, cv, cluster, err[cluster])), scale, eps_omega)


def eigenspaces(lam: np.ndarray, norm2: float) -> tuple[np.ndarray, np.ndarray, float, float]:
    """The one minimality rule, on ascending eigenvalues ``lam`` of omega (none
    for an empty measure) and ``norm2`` = ||c||_F²: ``(cluster, err, scale,
    eps_omega)``. ``scale`` is the larger of the spread of lam about its mean
    and norm2, which a uniform detuning leaves alone; ``eps_omega`` = eps
    ||omega||, the unit of eigh's rounding. Eigenvalues within 1e-10 scale or
    100 eps_omega (eigh splits a multiple eigenvalue by about 30 eps ||omega||
    at n = 256) form one eigenspace, labelled by ``cluster``. Its ``err`` =
    10 eps_omega / gap, gap the distance to the nearest other, bounds eigh's
    turn of its eigenvectors and so the coupling they leak into an unreached
    direction, relative to ||c||_F. The fields reach a direction whose coupling
    exceeds (1e-10 + err) ||c||_F, in a system (:attr:`PassiveSystem.reached`)
    and a rebuilt measure (:func:`~qsysid.realization.reconstruct_passive`) alike."""
    scale = float(np.abs(lam - lam.sum() / max(lam.size, 1)).max(initial=norm2))
    eps_omega = float(np.finfo(float).eps * np.abs(lam).max(initial=0.0))
    step = np.diff(lam, prepend=lam[:1])  # 0, then the gaps
    split = step > max(SPECTRAL_RTOL * scale, 100 * eps_omega)
    sides = np.concatenate([[np.inf], step[split], [np.inf]])
    err = 10 * eps_omega / np.minimum(sides[:-1], sides[1:])
    return np.cumsum(split), err, scale, eps_omega


def _secular_roots(lam: np.ndarray, cv: np.ndarray) -> tuple[np.ndarray | None, int]:
    """Roots of p(s) = det M(s) prod_k (s + i lam_k), M = I + sum_k (c v_k)(c v_k)† d_k / 2,
    d_k = 1 / (s + i lam_k), for strictly increasing lam and couplings cv = c V (m x n), with
    the sweeps taken; None for roots unsettled after n + 50 sweeps. A sweep takes each root
    left one Aberth step (Math. Comp. 1973), Newton step 1 / (tr(M^-1 M') + sum_k d_k); one
    port steps f / (df + f (...)), f = M. Root k starts at -i lam_k - min(w_k, gap to the
    nearest lam_j) (1 + i/4) / 2, w_k = ||c v_k||²: a weak mode's first-order shift, capped for
    strong coupling, tilted as a symmetric start stalls on damped chains. It settles at a step
    within 4 eps of |s| or of (1 + sum_k w_k |d_k| / 2) ||M^-1|| / |tr(M^-1 M')|."""
    m, n = cv.shape
    w = (np.abs(cv) ** 2).sum(axis=0)
    k = (cv.T[:, :, None] * cv.T[:, None, :].conj()).reshape(n, m * m)  # rows (c v_k)(c v_k)†
    gaps = np.diff(lam, prepend=-np.inf, append=np.inf)
    s = -1j * lam - np.minimum(w, np.minimum(gaps[:-1], gaps[1:])) * (0.5 + 0.125j)
    live = np.arange(n)
    for sweep in range(1, n + 51):
        x = s[live]
        d = 1.0 / (x[:, None] + 1j * lam)
        others = x[:, None] - s
        others[np.arange(x.size), live] = np.inf
        aberth = d.sum(axis=1) - (1.0 / others).sum(axis=1)
        mm = np.eye(m) + 0.5 * (d @ k).reshape(-1, m, m)
        dm = -0.5 * ((d * d) @ k).reshape(-1, m, m)
        if m == 1:  # f / (df + f (...)), 0 where f = 0: 1.45-2.1 times as fast as the block step
            f, df = mm[:, 0, 0], dm[:, 0, 0]
            step, gain = f / (df + f * aberth), 1.0 / np.abs(df)
        else:
            singular = np.linalg.det(mm) == 0.0  # p(s) = 0: that root has settled
            inv = np.linalg.inv(np.where(singular[:, None, None], np.eye(m), mm))
            t = np.where(singular, np.inf, np.einsum("lij,lji->l", inv, dm))
            step, gain = 1.0 / (t + aberth), np.linalg.norm(inv, axis=(1, 2)) / np.abs(t)
        s[live] = x - step
        tol = np.maximum(np.abs(x), (1.0 + 0.5 * (np.abs(d) @ w)) * gain)
        live = live[~(np.abs(step) <= 4 * np.finfo(float).eps * tol)]  # NaN stays live
        if not live.size:
            return s, sweep
    return None, n + 50


def new_system(omega, c) -> PassiveSystem:
    """Validate matrices and build a :class:`PassiveSystem`.

    Parameters
    ----------
    omega : (n, n) array_like
        Hermitian Hamiltonian matrix, units of angular frequency.
    c : (m, n) array_like
        Coupling matrix, units of sqrt(angular frequency).

    Raises
    ------
    DimensionMismatch
        omega not square, column counts differ, or more rows in c than
        modes (m > n).
    NotHermitian
        omega deviates from omega† beyond 1e-12 relative (1e-14 absolute
        floor) in max norm.
    ValueError
        omega or c is not finite numbers, per :func:`~qsysid.ratfunc.require_finite`.
    """
    omega = np.atleast_2d(np.asarray(require_finite(omega, "omega"), dtype=complex))
    c = np.atleast_2d(np.asarray(require_finite(c, "c"), dtype=complex))
    if omega.ndim != 2 or omega.shape[0] != omega.shape[1]:
        raise DimensionMismatch(f"omega must be square, got shape {omega.shape}")
    n = omega.shape[0]
    if n < 1:
        raise DimensionMismatch("system needs at least one mode")
    if c.ndim != 2 or c.shape[1] != n:
        raise DimensionMismatch(f"c must have {n} columns, got shape {c.shape}")
    m = c.shape[0]
    if m < 1:
        raise DimensionMismatch("system needs at least one field")
    if m > n:
        raise DimensionMismatch(f"m={m} fields exceed n={n} modes")
    scale = np.abs(omega).max()
    tol = max(HERMIT_RTOL * scale, HERMIT_ATOL)
    dev = np.abs(omega - omega.conj().T).max()
    if dev > tol:
        raise NotHermitian(f"max |omega - omega†| = {dev:.3e} exceeds {tol:.3e}")
    return PassiveSystem(omega=read_only(omega.copy()), c=read_only(c.copy()))


def require_grid(values) -> np.ndarray:
    """Return values as a flat float array: the one check of every frequency
    grid, named ``freqs`` in its refusals.

    Raises
    ------
    ValueError
        the values are not finite numbers, per :func:`~qsysid.ratfunc.require_finite`,
        or are complex, even with zero imaginary parts.
    NonMonotoneGrid
        no points, or the values are not strictly increasing.
    """
    grid = require_finite(values, "freqs")
    if np.iscomplexobj(grid):
        raise ValueError("freqs must be real, got complex values")
    grid = np.asarray(grid, dtype=float).ravel()
    if not grid.size:
        raise NonMonotoneGrid("freqs has 0 points, needs at least 1")
    if np.any(np.diff(grid) <= 0):
        raise NonMonotoneGrid("freqs must be strictly increasing")
    return grid


def require_unitary(u, n: int) -> np.ndarray:
    """Return u as an n x n complex array, checked to be unitary.

    Raises
    ------
    ValueError
        u is not finite numbers, per :func:`~qsysid.ratfunc.require_finite`.
    DimensionMismatch
        u is not n x n.
    NotUnitary
        max |U U† - I| exceeds 1e-10.
    """
    u = np.asarray(require_finite(u, "gauge"), dtype=complex)
    if u.shape != (n, n):
        raise DimensionMismatch(f"gauge must be {n} x {n}, got {u.shape}")
    dev = np.abs(u @ u.conj().T - np.eye(n)).max()
    if dev > UNITARY_TOL:
        raise NotUnitary(f"max |U U† - I| = {dev:.3e} exceeds {UNITARY_TOL:.0e}")
    return u


def transfer_at(sys: PassiveSystem, s: complex) -> np.ndarray:
    """Transfer function Xi(s) = I - c (sI - A)^{-1} c† at one point.

    For one port Xi(s) = prod_k (s - z_k) / (s - p_k) over the poles p_k
    (``sys.poles``) and the zeros z_k = -conj(p_k) (``sys.zeros``), by the
    matrix determinant lemma and A + A† = -c†c, as in
    :func:`transfer_rational`; on the imaginary axis each factor has
    modulus 1 up to rounding. For m > 1 it is the Cayley form of ``sys.reached``.

    The distance to the nearest pole is scanned only where a pole can lie
    within the bound below: for Re s >= 0 the computed Re(s - p_k) is at
    least -``sys.abscissa``, and |s - p_k| is no smaller than that, so a
    point of the right half-plane whose bound is at most -``sys.abscissa``
    cannot raise and skips the scan.

    Raises
    ------
    ValueError
        s is not finite, or is a bool.
    SingularResolvent
        if s lies within 1e-10 * (1 + |s|) of an eigenvalue of A.
    """
    # the type test first: a complex point, as sample_response passes, skips the bool test
    if type(s) is not complex and isinstance(s, (bool, np.bool_)) or not cmath.isfinite(s):
        raise ValueError(f"s must be finite and not a bool, got {s!r}")
    d = s - sys.poles
    bound = RESOLVENT_TOL * (1.0 + abs(s))
    if s.real < 0.0 or bound > -sys.abscissa:
        gap = np.abs(d).min()
        if gap < bound:
            raise SingularResolvent(f"s={s} is within {gap:.3e} of an eigenvalue of A")
    if sys.m == 1:
        q = s - sys.zeros
        q /= d
        return np.multiply.reduce(q, keepdims=True).reshape(1, 1)
    return cayley(sys.reached.lam, sys.reached.cv, np.array([s]))[0]


def transfer_rational(sys: PassiveSystem) -> RationalTF:
    """Rational form of the transfer function, carrying the measure ``(lam, cv)`` of
    ``sys.reached``, by whose Cayley form :meth:`~qsysid.ratfunc.RationalTF.eval` is exact.

    The common denominator is the characteristic polynomial of A, multiplied out from
    ``sys.poles``. For one port the numerator is det(sI + A†), since det Xi(s) = det(sI +
    A†) / det(sI - A) by the matrix determinant lemma and A + A† = -c†c: its roots are the
    poles mirrored, -conj(p_k), so its coefficients are (-1)^(n-k) conj(den_k). For m > 1
    the function is its denominator and measure, with no numerator. ValueError when a
    coefficient overflows.
    """
    poles, r, num = sys.poles, sys.reached, None
    with np.errstate(all="ignore"):  # an overflow gives inf or NaN, which RationalTF refuses
        den = poly_from_roots(poles)
        if sys.m == 1:
            num = (den.conj() * (-1.0) ** (sys.n - np.arange(sys.n + 1)))[None, None, :]
    return RationalTF(num, den, (r.lam, r.cv))
