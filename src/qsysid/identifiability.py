"""Indistinguishability tests and gauge recovery.

Two minimal systems share a transfer function exactly when a unitary change
of mode basis T maps one onto the other: omega2 = T omega1 T†, c2 = c1 T†.
So the Krylov basis Q of :func:`~qsysid.analysis.krylov_basis` is a
canonical coordinate system, in which the chain form [c Q; Q† omega Q] of a
transfer function is unique. :func:`markov_distinguishable` compares chain
forms; :func:`find_gauge` certifies T = Q2 Q1† by both relations.
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
    mode counts admit no T; their residual is the largest entry deviation
    between their chain forms [c Q; Q† omega Q], the narrower padded with
    zeros.
    """

    equivalent: bool
    gauge: np.ndarray | None
    residual: float


def markov_sequence(sys: PassiveSystem, kmax: int) -> MarkovSequence:
    """Moments c omega^k c† for k = 0..kmax, by iterated multiplication.

    The paper's definition, kept for reference: no library path uses it,
    because the powers of omega overflow and drown small moments."""
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    cdag = sys.c.conj().T
    params = np.empty((kmax + 1, sys.m, sys.m), dtype=complex)
    row = sys.c
    for k in range(kmax + 1):
        params[k] = row @ cdag
        row = row @ sys.omega
    return MarkovSequence(params=params, kmax=kmax)


def _chain_form(sys: PassiveSystem, q: np.ndarray) -> np.ndarray:
    """Chain form [c Q; Q† omega Q] on the Krylov basis Q, shape (m + r, r).

    Every entry is a combination of the moments c omega^k c†, so equal
    transfer functions give equal chain forms.
    """
    return np.vstack([sys.c @ q, q.conj().T @ sys.omega @ q])


def _chain_gap(form1: np.ndarray, form2: np.ndarray) -> tuple[float, float]:
    """Largest entry deviation between two chain forms, the narrower padded
    with zeros, and the largest entry of either form."""
    r = max(form1.shape[1], form2.shape[1])
    pads = np.zeros((2, form1.shape[0] - form1.shape[1] + r, r), dtype=complex)
    for pad, form in zip(pads, (form1, form2)):
        pad[: form.shape[0], : form.shape[1]] = form
    dev = np.abs(pads[0] - pads[1]).max(initial=0.0)
    return float(dev), float(np.abs(pads).max(initial=0.0))


def markov_distinguishable(sys1: PassiveSystem, sys2: PassiveSystem) -> bool:
    """True when the two systems have different transfer functions.

    Compares the chain forms [c Q; Q† omega Q] on the Krylov bases Q of
    :func:`~qsysid.analysis.krylov_basis`, the minimal parts of the systems
    in canonical coordinates: True when the forms differ in width, or in an
    entry by more than 1e-8 times the largest entry of either form.
    """
    if sys1.m != sys2.m:
        raise DimensionMismatch(f"port counts differ: {sys1.m} vs {sys2.m}")
    form1, form2 = (_chain_form(sys, krylov_basis(sys)) for sys in (sys1, sys2))
    dev, scale = _chain_gap(form1, form2)
    return form1.shape != form2.shape or dev > EQUIV_RTOL * scale


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
    transfer functions, so it is the whole test. Minimal systems of
    different n are never equivalent; their residual is the chain-form gap
    of :func:`markov_distinguishable`.

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
        dev, _ = _chain_gap(_chain_form(sys1, bases[0]), _chain_form(sys2, bases[1]))
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
