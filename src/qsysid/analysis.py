"""Minimality and stability from the spectral decomposition of omega.

For a passive system the drift A = -i omega - c†c/2 differs from -i omega
by a term whose range lies in that of c†, so the controllable subspace and
the orthogonal complement of the unobservable one both equal span{c†,
omega c†, omega² c†, ...}: controllability and observability are one
condition. By the PBH (Popov-Belevitch-Hautus) test per eigenspace E of
omega, the dimension of that space is the sum of the ranks of c V_E, read
off the one cached ``eigh(omega)`` (:attr:`~qsysid.model.PassiveSystem.spectrum`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PassiveSystem

SPECTRAL_RTOL = 1e-10


@dataclass(frozen=True)
class StructureReport:
    """Rank and stability summary of one system.

    ``minimal`` is controllable AND observable; for passive systems the two
    ranks always agree. ``hurwitz`` equals ``minimal``: on each unit
    eigenvector x of A, Re lambda = -|c x|² / 2, which is negative exactly
    when the PBH test passes. ``spectral_abscissa`` is read off the poles.
    """

    controllable: bool
    observable: bool
    minimal: bool
    hurwitz: bool
    ctrb_rank: int
    obsv_rank: int
    spectral_abscissa: float


def _spectral_scales(sys: PassiveSystem) -> tuple[float, float]:
    """``(scale, eps_omega)``: the larger of the spread of omega's eigenvalues
    about their mean and ||c||_F², which a uniform detuning leaves alone, and
    eps ||omega||, the unit of eigh's rounding of the whole omega."""
    lam = sys.spectrum[0]
    mean = lam.mean()
    scale = max(lam[-1] - mean, mean - lam[0], np.linalg.norm(sys.c) ** 2)
    return float(scale), float(np.finfo(float).eps * max(-lam[0], lam[-1]))


def _reachable(sys: PassiveSystem) -> tuple[np.ndarray, ...]:
    """Eigen-directions of omega that the fields reach: ``(lam, V, cV, cluster, err)``.

    Eigenvalues within 1e-10 max(spread about the mean, ||c||_F²), or within
    100 eps ||omega|| (eigh splits a multiple eigenvalue by about 30 eps
    ||omega|| at n = 256), form one eigenspace, labelled by ``cluster``; one
    of several eigenvalues is rotated onto the right singular vectors of its
    block of c V. ``err`` = 10 eps ||omega|| / gap, gap the distance to the
    nearest other eigenspace, bounds eigh's turn of each eigenvector and so
    the coupling it leaks into an unreached direction, relative to ||c||_F.
    A direction is kept when its column of c V exceeds (1e-10 + err) ||c||_F.
    """
    lam, v, cv = sys.spectrum
    c_norm = np.linalg.norm(sys.c)
    scale, eps_omega = _spectral_scales(sys)
    gaps = np.diff(lam)
    split = gaps > max(SPECTRAL_RTOL * scale, 100 * eps_omega)
    cluster = np.concatenate([[0], np.cumsum(split)])
    sides = np.concatenate([[np.inf], gaps[split], [np.inf]])
    err = 10 * eps_omega / np.minimum(sides[:-1], sides[1:])[cluster]
    if not split.all():
        v, cv = v.copy(), cv.copy()
    for k in np.flatnonzero(np.bincount(cluster) > 1):
        block = cluster == k
        wh = np.linalg.svd(cv[:, block])[2].conj().T
        v[:, block], cv[:, block] = v[:, block] @ wh, cv[:, block] @ wh
    keep = np.linalg.norm(cv, axis=0) > (SPECTRAL_RTOL + err) * c_norm
    if keep.all():
        return lam, v, cv, cluster, err
    return lam[keep], v[:, keep], cv[:, keep], cluster[keep], err[keep]


def observability_matrix(sys: PassiveSystem) -> np.ndarray:
    """Vertical stack [c; cA; ...; cA^n], shape ((n+1) m, n).

    Reference construction only: tests compare the rank of
    :func:`structure_report` with the SVD rank of this stack, and the ring
    determinant formula is stated for it. No library path calls it: the
    powers of A lose the rank of a uniform chain in rounding by n = 30.
    """
    blocks = [sys.c]
    for _ in range(sys.n):
        blocks.append(blocks[-1] @ sys.drift)
    return np.vstack(blocks)


def structure_report(sys: PassiveSystem) -> StructureReport:
    """Assemble the :class:`StructureReport` for one system.

    Both ranks are the number of eigen-directions of omega the fields reach;
    the system is Hurwitz exactly when it is minimal, whatever the rounding
    of the abscissa, which is near 0 for a decoupled mode.
    """
    rank = _reachable(sys)[0].size
    minimal = rank == sys.n
    return StructureReport(
        controllable=minimal, observable=minimal, minimal=minimal, hurwitz=minimal,
        ctrb_rank=rank, obsv_rank=rank, spectral_abscissa=float(sys.poles.real.max()),
    )
