"""Indistinguishability tests and gauge recovery.

Two minimal systems share a transfer function exactly when a unitary change
of mode basis T maps one onto the other: omega2 = T omega1 T†, c2 = c1 T†.
:func:`find_gauge` reads T off the two orthonormal Krylov bases of
:func:`~qsysid.analysis.krylov_basis` and certifies it by checking both
relations. The moment sequence c omega^k c† gives the practical
identifiability test for parametrized families.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import krylov_basis
from .errors import DimensionMismatch, NotMinimal
from .model import PassiveSystem, new_system, require_unitary

EQUIV_RTOL = 1e-8


@dataclass(frozen=True)
class MarkovSequence:
    """Moment matrices params[k] = c omega^k c†, each Hermitian m x m."""

    params: np.ndarray
    kmax: int


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Outcome of a transfer-function equivalence test.

    ``gauge`` holds the recovered unitary T when ``equivalent`` is true;
    ``residual`` is the largest deviation across all checked relations
    (unitarity of T and the two matrix relations). Systems of different
    mode counts admit no T; their residual is the largest deviation
    between the moments c omega^k c†, k <= 2 max(n1, n2).
    """

    equivalent: bool
    gauge: np.ndarray | None
    residual: float


def markov_sequence(sys: PassiveSystem, kmax: int) -> MarkovSequence:
    """Moments c omega^k c† for k = 0..kmax, by iterated multiplication."""
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    cdag = sys.c.conj().T
    params = np.empty((kmax + 1, sys.m, sys.m), dtype=complex)
    row = sys.c
    for k in range(kmax + 1):
        params[k] = row @ cdag
        row = row @ sys.omega
    return MarkovSequence(params=params, kmax=kmax)


def _moment_gap(sys1: PassiveSystem, sys2: PassiveSystem, kmax: int) -> tuple[float, float]:
    """Largest moment deviation and largest moment magnitude, k <= kmax."""
    seq1 = markov_sequence(sys1, kmax).params
    seq2 = markov_sequence(sys2, kmax).params
    dev = np.abs(seq1 - seq2).max()
    scale = max(np.abs(seq1).max(), np.abs(seq2).max())
    return float(dev), float(scale)


def markov_distinguishable(
    sys1: PassiveSystem,
    sys2: PassiveSystem,
    kmax: int | None = None,
    tol: float | None = None,
) -> bool:
    """True when some moment c omega^k c† differs between the systems.

    A False return at the default kmax = 2 max(n1, n2) certifies, for
    minimal systems, that the two transfer functions coincide.

    Parameters
    ----------
    tol : float, optional
        Absolute entry tolerance; defaults to 1e-8 times the largest
        moment magnitude across both sequences.
    """
    if sys1.m != sys2.m:
        raise DimensionMismatch(f"port counts differ: {sys1.m} vs {sys2.m}")
    if kmax is None:
        kmax = 2 * max(sys1.n, sys2.n)
    dev, scale = _moment_gap(sys1, sys2, kmax)
    if tol is None:
        tol = EQUIV_RTOL * scale
    return dev > tol


def gauge_transform(sys: PassiveSystem, t: np.ndarray) -> PassiveSystem:
    """Change of mode basis: (omega, c) -> (T omega T†, c T†).

    Raises
    ------
    DimensionMismatch, NotUnitary
        per :func:`~qsysid.model.require_unitary`.
    """
    t = require_unitary(t, sys.n)
    return new_system(t @ sys.omega @ t.conj().T, sys.c @ t.conj().T)


def find_gauge(
    sys1: PassiveSystem,
    sys2: PassiveSystem,
    tol: float | None = None,
) -> EquivalenceVerdict:
    """Decide equivalence of two minimal systems and recover the gauge.

    The orthonormal Krylov bases Q1, Q2 of :func:`~qsysid.analysis.krylov_basis`
    are square exactly when the systems are minimal. Their construction
    commutes with a change of mode basis, and equal transfer functions give
    equal Gram-Schmidt coefficients, so if the systems are equivalent then
    Q2 = T Q1 and T = Q2 Q1†. That T is then checked for unitarity and
    against both defining relations; passing the check certifies equal
    transfer functions, so it is the whole test.

    Parameters
    ----------
    tol : float, optional
        Relative tolerance for every comparison; default 1e-8.

    Raises
    ------
    NotMinimal
        if either system is not minimal (the equivalence theorem's
        hypothesis).
    """
    if sys1.m != sys2.m:
        raise DimensionMismatch(f"port counts differ: {sys1.m} vs {sys2.m}")
    rtol = EQUIV_RTOL if tol is None else tol
    bases = []
    for name, sys in (("first", sys1), ("second", sys2)):
        basis = krylov_basis(sys)
        if basis.shape[1] < sys.n:
            raise NotMinimal(
                f"{name} system has Krylov rank {basis.shape[1]} below n = {sys.n}"
            )
        bases.append(basis)
    if sys1.n != sys2.n:
        dev, _ = _moment_gap(sys1, sys2, 2 * max(sys1.n, sys2.n))
        return EquivalenceVerdict(equivalent=False, gauge=None, residual=dev)
    t = bases[1] @ bases[0].conj().T
    dev_u = np.abs(t @ t.conj().T - np.eye(sys1.n)).max()
    dev_omega = np.abs(t @ sys1.omega @ t.conj().T - sys2.omega).max()
    dev_c = np.abs(sys1.c @ t.conj().T - sys2.c).max()
    scale_omega = max(np.abs(sys1.omega).max(), np.abs(sys2.omega).max(), 1e-300)
    scale_c = max(np.abs(sys1.c).max(), np.abs(sys2.c).max(), 1e-300)
    ok = (
        dev_u <= rtol
        and dev_omega <= rtol * scale_omega
        and dev_c <= rtol * scale_c
    )
    residual = float(max(dev_u, dev_omega, dev_c))
    return EquivalenceVerdict(equivalent=bool(ok), gauge=t if ok else None, residual=residual)
