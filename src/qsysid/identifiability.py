"""Indistinguishability tests and gauge recovery.

Two minimal systems share a transfer function exactly when a unitary change
of mode basis T maps one onto the other: omega2 = T omega1 T†, c2 = c1 T†.
Xi depends on a system only through the spectral measure of omega seen
from c†: one eigenvalue lam and one weight W = sum_k (c v_k)(c v_k)† per
eigenspace of omega that the fields reach. :func:`markov_distinguishable`
compares the sums of the weights, c c†, and then these measures;
:func:`find_gauge` maps the eigenvectors of one system onto the other's,
T = V2 U V1†, and certifies T by both relations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotMinimal
from .model import PassiveSystem, new_system, require_unitary
from .ratfunc import read_only, require_real, require_whole

EQUIV_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class EquivalenceVerdict:
    """Outcome of a transfer-function equivalence test.

    ``gauge`` holds the recovered unitary T when ``equivalent`` is true;
    ``residual`` is the largest deviation across all checked relations
    (unitarity of T and the two matrix relations). Systems of different
    mode counts admit no T; their residual is the largest entry deviation
    between their reached spectral measures, the shorter padded with zeros.
    """

    equivalent: bool
    gauge: np.ndarray | None
    residual: float


def markov_sequence(sys: PassiveSystem, kmax: int) -> np.ndarray:
    """Moments c omega^k c† for k = 0..kmax, by iterated multiplication: a
    read-only ``(kmax + 1, m, m)`` array, each entry Hermitian m x m.

    The paper's definition, kept for reference: no library path uses it,
    because the powers of omega overflow and drown small moments."""
    kmax = require_whole(kmax, "kmax", 0)
    cdag = sys.c.conj().T
    params = np.empty((kmax + 1, sys.m, sys.m), dtype=complex)
    row = sys.c
    for k in range(kmax + 1):
        params[k] = row @ cdag
        row = row @ sys.omega
    return read_only(params)


def _measure(sys: PassiveSystem) -> tuple[np.ndarray, ...]:
    """Reached spectral measure of omega seen from c†, per reached eigenspace:
    mean eigenvalue, weight W = sum (c v)(c v)†, bound on eigh's rounding of W."""
    r = sys.reached
    _, starts, size = np.unique(r.cluster, return_index=True, return_counts=True)
    weights = np.einsum("ik,jk->kij", r.cv, r.cv.conj())
    noise = 2 * np.linalg.norm(sys.c) ** 2 * r.err[starts]
    return np.add.reduceat(r.lam, starts) / size, np.add.reduceat(weights, starts), noise


def _measure_gaps(sys1: PassiveSystem, sys2: PassiveSystem) -> list[tuple[float, float]]:
    """Largest entry deviation beyond eigh's rounding, and its scale, for the
    eigenvalues and then the weights of the two reached measures, the
    shorter padded with zeros. The eigenvalues' scale is the ``scale`` of
    :attr:`~qsysid.model.PassiveSystem.reached`, which a uniform detuning
    leaves alone; their rounding, 100 eps ||omega|| per system, grows with it."""
    padded = []
    for part1, part2 in zip(_measure(sys1), _measure(sys2)):
        pads = np.zeros((2, max(len(part1), len(part2))) + part1.shape[1:], dtype=part1.dtype)
        pads[0, : len(part1)], pads[1, : len(part2)] = part1, part2
        padded.append(pads)
    lam, w, noise = padded
    dev_w = np.abs(w[0] - w[1]).max(axis=(1, 2), initial=0.0) - noise.sum(axis=0)
    scale_w = np.abs(w).max(initial=0.0)
    r1, r2 = sys1.reached, sys2.reached
    dev_lam = np.abs(lam[0] - lam[1]).max(initial=0.0) - 100 * (r1.eps_omega + r2.eps_omega)
    return [
        (float(dev_lam), max(r1.scale, r2.scale)),
        (float(dev_w.max(initial=0.0)), float(scale_w)),
    ]


def markov_distinguishable(sys1: PassiveSystem, sys2: PassiveSystem) -> bool:
    """True when the two systems have different transfer functions.

    First the leading moment c c† = lim s (I - Xi(s)), s -> inf, exact to
    rounding and free of any eigensolve: when an entry of the two differs by
    more than max(n1, n2) 1e-8 times the largest entry of either, the answer
    is True. That is the largest gap the measure test below can still call
    equal, since c c† is the sum of the weights, of which there are at most
    max(n1, n2), and no entry of a weight exceeds the largest of c c†.
    Otherwise, the reached spectral measures (one mean eigenvalue and one
    weight W = sum (c v)(c v)† per reached eigenspace of omega, the shorter
    padded with zero weights) are compared: True when they differ in an
    eigenvalue or a weight entry by more than 1e-8 times the largest of its
    kind: for eigenvalues, the spread of either whole spectrum about its
    mean or ||c||_F², so that a uniform detuning hides no difference. Each
    deviation counts only beyond eigh's rounding: 100 eps ||omega|| per
    system for an eigenvalue, its rounding bound on the two weights for a
    weight.
    """
    if sys1.m != sys2.m:
        raise DimensionMismatch(f"port counts differ: {sys1.m} vs {sys2.m}")
    m0_1, m0_2 = (sys.c @ sys.c.conj().T for sys in (sys1, sys2))
    largest = max(np.abs(m0_1).max(), np.abs(m0_2).max())
    if np.abs(m0_1 - m0_2).max() > max(sys1.n, sys2.n) * EQUIV_RTOL * largest:
        return True
    return any(dev > EQUIV_RTOL * scale for dev, scale in _measure_gaps(sys1, sys2))


def gauge_transform(sys: PassiveSystem, t: np.ndarray) -> PassiveSystem:
    """Change of mode basis: (omega, c) -> (T omega T†, c T†).

    Raises
    ------
    ValueError, DimensionMismatch, NotUnitary
        per :func:`~qsysid.model.require_unitary`.
    """
    t = require_unitary(t, sys.n)
    return new_system(t @ sys.omega @ t.conj().T, sys.c @ t.conj().T)


def find_gauge(
    sys1: PassiveSystem, sys2: PassiveSystem, tol: float = EQUIV_RTOL
) -> EquivalenceVerdict:
    """Decide equivalence of two minimal systems and recover the gauge.

    T maps each eigenspace of omega1 onto the same eigenspace of omega2, so
    T = V2 U V1† with U block diagonal: the polar factor of (c2 V2)† (c1 V1)
    on each eigenspace and on each run of at most m eigenvalues closer than
    1e3 eps ||omega|| / tol, where eigh turns eigenvectors by more than tol
    allows; a phase on any other eigenvalue. A longer run (m = 1: any such
    pair) can fail the check although the systems are equivalent. T is
    checked for unitarity and against both defining relations; passing
    certifies equal transfer functions, so the check is the whole test.
    The omega relation is held to ``tol`` times the spread of either
    spectrum about its mean or ||c||_F², floored at eigh's rounding of the
    two omegas, 100 eps ||omega|| each: a uniform detuning sets no scale.
    Minimal systems of different n are never equivalent; their residual is
    the measure gap of :func:`markov_distinguishable`.

    Parameters
    ----------
    tol : float, optional
        Relative tolerance for every comparison; default 1e-8.

    Raises
    ------
    ValueError
        tol is not a finite positive number, per
        :func:`~qsysid.ratfunc.require_real`.
    NotMinimal
        if either system is not minimal (the equivalence theorem's
        hypothesis).
    """
    if sys1.m != sys2.m:
        raise DimensionMismatch(f"port counts differ: {sys1.m} vs {sys2.m}")
    rtol = require_real(tol, "tol", 0.0, strict=True)
    for name, sys in (("first", sys1), ("second", sys2)):
        rank = sys.reached.lam.size
        if rank < sys.n:
            raise NotMinimal(f"{name} system reaches {rank} of its {sys.n} eigen-directions")
    if sys1.n != sys2.n:
        residual = max(dev for dev, _ in _measure_gaps(sys1, sys2))
        return EquivalenceVerdict(equivalent=False, gauge=None, residual=residual)
    r1, r2 = sys1.reached, sys2.reached
    v2u = r2.v * np.exp(1j * np.angle(np.einsum("ik,ik->k", r2.cv.conj(), r1.cv)))
    close = 1e3 * np.finfo(float).eps * np.abs(r1.lam).max()
    near = np.concatenate([[0], np.cumsum(np.diff(r1.lam) * rtol > close)])
    for labels in (r1.cluster, near):
        sizes = np.bincount(labels)
        for k in np.flatnonzero((sizes > 1) & (sizes <= sys1.m)):
            block = labels == k
            x, _, yh = np.linalg.svd(r2.cv[:, block].conj().T @ r1.cv[:, block])
            v2u[:, block] = r2.v[:, block] @ (x @ yh)
    t = v2u @ r1.v.conj().T
    eye = np.eye(sys1.n)
    dev_u = np.abs(t @ t.conj().T - eye).max()
    shift = r1.lam.mean() * eye  # one detuning off both, so T's rounding does not scale with it
    dev_omega = np.abs(t @ (sys1.omega - shift) @ t.conj().T - (sys2.omega - shift)).max()
    dev_c = np.abs(sys1.c @ t.conj().T - sys2.c).max()
    bound_omega = max(rtol * max(r1.scale, r2.scale), 100 * (r1.eps_omega + r2.eps_omega))
    scale_c = max(np.abs(sys1.c).max(), np.abs(sys2.c).max(), 1e-300)
    ok = dev_u <= rtol and dev_omega <= bound_omega and dev_c <= rtol * scale_c
    residual = float(max(dev_u, dev_omega, dev_c))
    return EquivalenceVerdict(equivalent=bool(ok), gauge=t if ok else None, residual=residual)
