"""Minimality and stability through one orthonormal Krylov basis.

For a passive system the drift A = -i omega - c†c/2 differs from -i omega
by a term whose range lies in that of c†, so the controllable subspace
span{c†, A c†, A² c†, ...} equals the Krylov space span{c†, omega c†,
omega² c†, ...}, and so does the orthogonal complement of the unobservable
subspace (A† = i omega - c†c/2). Controllability and observability are
therefore one condition, decided by the width of one orthonormal basis of
that space (:func:`krylov_basis`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PassiveSystem, drift_matrix, spectral_abscissa

KRYLOV_RTOL = 1e-10


@dataclass(frozen=True)
class StructureReport:
    """Rank and stability summary of one system.

    ``minimal`` is controllable AND observable; for passive systems the two
    ranks always agree, and minimality implies ``hurwitz``.
    """

    controllable: bool
    observable: bool
    minimal: bool
    hurwitz: bool
    ctrb_rank: int
    obsv_rank: int
    spectral_abscissa: float


def krylov_basis(sys: PassiveSystem) -> np.ndarray:
    """Orthonormal basis of span{c†, omega c†, omega² c†, ...}, shape (n, rank).

    Block Lanczos with full reorthogonalization: the columns of c†, then
    omega' times each accepted basis vector, are taken in turn and
    orthogonalized against the basis by classical Gram-Schmidt applied
    twice, where omega' = omega - (tr omega / n) I spans the same space as
    omega but drops a uniform detuning. A vector is kept when its remainder
    exceeds 1e-10 times the Frobenius norm of c (for the columns of c†) or
    of omega' (for the products). Every step commutes with a change of mode
    basis, so the basis of (T omega T†, c T†) is T times that of (omega, c).
    """
    n, m = sys.n, sys.m
    omega = sys.omega - (np.trace(sys.omega).real / n) * np.eye(n)
    c_norm, omega_norm = np.linalg.norm(sys.c), np.linalg.norm(omega)
    basis = np.empty((n, n), dtype=complex)
    adjoint = np.empty((n, n), dtype=complex)  # row k: conjugate of column k
    width = 0
    # a work queue: each accepted vector appends its product with omega'
    candidates = list(sys.c.conj())
    for k, vec in enumerate(candidates):
        if width == n:
            break
        for _ in range(2):
            vec = vec - basis[:, :width] @ (adjoint[:width] @ vec)
        norm = np.sqrt(np.vdot(vec, vec).real)
        if norm > KRYLOV_RTOL * (c_norm if k < m else omega_norm):
            basis[:, width] = vec = vec / norm
            adjoint[width] = vec.conj()
            candidates.append(omega @ vec)
            width += 1
    return basis[:, :width]


def observability_matrix(sys: PassiveSystem) -> np.ndarray:
    """Vertical stack [c; cA; ...; cA^n], shape ((n+1) m, n).

    Reference construction only: tests compare the width of
    :func:`krylov_basis` with the SVD rank of this stack, and the ring
    determinant formula is stated for it. No library path calls it: the
    powers of A lose the rank of a uniform chain in rounding by n = 30.
    """
    a = drift_matrix(sys)
    block = sys.c
    blocks = [block]
    for _ in range(sys.n):
        block = block @ a
        blocks.append(block)
    return np.vstack(blocks)


def structure_report(sys: PassiveSystem) -> StructureReport:
    """Assemble the :class:`StructureReport` for one system.

    Both ranks are the width of :func:`krylov_basis`.
    """
    rank = krylov_basis(sys).shape[1]
    minimal = rank == sys.n
    abscissa = spectral_abscissa(drift_matrix(sys))
    return StructureReport(
        controllable=minimal,
        observable=minimal,
        minimal=minimal,
        hurwitz=abscissa < 0.0,
        ctrb_rank=rank,
        obsv_rank=rank,
        spectral_abscissa=abscissa,
    )
