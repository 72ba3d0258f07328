"""Minimality and stability from the spectral decomposition of omega.

For a passive system the drift A = -i omega - c†c/2 differs from -i omega
by a term whose range lies in that of c†, so the controllable subspace and
the orthogonal complement of the unobservable one both equal span{c†,
omega c†, omega² c†, ...}: controllability and observability are one
condition. By the PBH (Popov-Belevitch-Hautus) test per eigenspace E of
omega, the dimension of that space is the sum of the ranks of c V_E: the
number of eigen-directions in :attr:`~qsysid.model.PassiveSystem.reached`,
computed once per system from its one cached ``eigh(omega)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PassiveSystem


@dataclass(frozen=True)
class StructureReport:
    """Rank and stability summary of one system.

    ``minimal`` is controllable AND observable; for passive systems the two
    ranks always agree. ``hurwitz`` equals ``minimal``: on each unit
    eigenvector x of A, Re lambda = -|c x|² / 2, which is negative exactly
    when the PBH test passes. ``spectral_abscissa`` is the system's cached
    :attr:`~qsysid.model.PassiveSystem.abscissa`, max Re p_k over the poles.
    """

    controllable: bool
    observable: bool
    minimal: bool
    hurwitz: bool
    ctrb_rank: int
    obsv_rank: int
    spectral_abscissa: float


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
    of the abscissa, which is near 0 for a decoupled mode. The abscissa is
    ``sys.abscissa``, the one value :func:`~qsysid.model.transfer_at` also
    reads.
    """
    rank = sys.reached.lam.size
    minimal = rank == sys.n
    return StructureReport(
        controllable=minimal, observable=minimal, minimal=minimal, hurwitz=minimal,
        ctrb_rank=rank, obsv_rank=rank, spectral_abscissa=sys.abscissa,
    )
