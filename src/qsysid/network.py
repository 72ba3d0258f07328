"""Graph-structured Hamiltonians and the infection identifiability test.

The Hamiltonian of a network is assembled from real edge weights,
omega = sum w_ij (e_i e_j^T + e_j e_i^T), with the field coupled through a
known set of accessible vertices. If the accessible set infects the whole
graph (an infected vertex with exactly one uninfected neighbour infects
it) and the system is minimal, the edge weights are identifiable. The
converse does not hold, so a failed test asserts nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidNetwork
from .model import PassiveSystem, new_system
from .ratfunc import read_only, require_finite, require_whole


@dataclass(frozen=True, eq=False)
class NetworkModel:
    """Undirected weighted graph with an accessible vertex subset; instances
    compare and hash by identity.

    ``edges`` maps canonical pairs (i, j), i < j, to real weights; a weight
    of zero keeps the edge structural. ``coupling`` is the m x n field
    coupling whose support lies inside ``accessible``. Optional
    ``detunings`` add real diagonal Hamiltonian terms (an extension of the
    strictly off-diagonal edge form, flagged in serialized output).
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]
    accessible: tuple[int, ...]
    coupling: np.ndarray
    detunings: np.ndarray | None = None

    @cached_property
    def _system(self) -> PassiveSystem:
        omega = np.zeros((self.n, self.n))
        for i, j, w in self.edges:
            omega[i, j] += w
            omega[j, i] += w
        if self.detunings is not None:
            omega[np.arange(self.n), np.arange(self.n)] += self.detunings
        return new_system(omega, self.coupling)


def new_network(n, edges, accessible, coupling=None, detunings=None) -> NetworkModel:
    """Validate and build a :class:`NetworkModel` (0-based vertex indices).

    ``coupling`` defaults to one unit row per accessible vertex. ``n`` and
    every vertex index pass :func:`~qsysid.ratfunc.require_whole`, and the
    weights, coupling and detunings :func:`~qsysid.ratfunc.require_finite`:
    each raises ValueError naming the field ("n", "edge index", "accessible
    vertex", "edge weights", "coupling" or "detunings") for a value that is
    not a finite number, or not whole, as do complex detunings. Raises
    InvalidNetwork for a complex weight (outside the infection theorem), fewer
    than one vertex, an index out of range, and coupling or detunings that do
    not match n.
    """
    n = require_whole(n, "n", -np.inf)
    if n < 1:
        raise InvalidNetwork("need at least one vertex")
    canon = {}
    for i, j, w in edges:  # plain ints in range, the common case, need no number check
        if not (type(i) is type(j) is int and 0 <= i < n and 0 <= j < n):
            i, j = require_whole(i, "edge index", -np.inf), require_whole(j, "edge index", -np.inf)
        if not (0 <= i < n and 0 <= j < n):
            raise InvalidNetwork(f"edge ({i}, {j}) out of range for n={n}")
        if i == j:
            raise InvalidNetwork(f"self-loop at vertex {i}")
        key = (min(i, j), max(i, j))
        if key in canon:
            raise InvalidNetwork(f"duplicate edge {key}")
        canon[key] = w
    weights = require_finite(list(canon.values()), "edge weights")
    if np.iscomplexobj(weights) and weights.imag.any():
        key, w = list(canon.items())[np.flatnonzero(weights.imag)[0]]
        raise InvalidNetwork(f"edge {key} has complex weight {w}")
    accessible = tuple(sorted({require_whole(v, "accessible vertex", -np.inf) for v in accessible}))
    if not accessible:
        raise InvalidNetwork("accessible set is empty")
    if accessible[0] < 0 or accessible[-1] >= n:
        raise InvalidNetwork(f"accessible vertices {accessible} out of range")
    if coupling is None:
        coupling = np.eye(n, dtype=complex)[list(accessible)]
    else:
        coupling = np.atleast_2d(np.asarray(require_finite(coupling, "coupling"), dtype=complex))
        if coupling.shape[1] != n:
            raise InvalidNetwork(f"coupling must have {n} columns, got {coupling.shape}")
        outside = [v for v in range(n) if v not in accessible and coupling[:, v].any()]
        if outside:
            raise InvalidNetwork(f"coupling supported outside accessible set: {outside}")
    sub = coupling[:, accessible].conj().T @ coupling[:, accessible]
    eigs = np.linalg.eigvalsh(0.5 * (sub + sub.conj().T))
    if eigs.min() <= 1e-12 * max(eigs.max(), 1e-300):
        raise InvalidNetwork("c†c restricted to the accessible set is not positive")
    if detunings is not None:
        detunings = require_finite(detunings, "detunings")
        if np.iscomplexobj(detunings) and detunings.imag.any():
            raise ValueError("detunings must be real, got complex values")
        detunings = read_only(np.array(detunings.real, dtype=float).ravel())
        if detunings.size != n:
            raise InvalidNetwork(f"detunings must have {n} entries, got {detunings.size}")
    return NetworkModel(
        n=n,
        edges=tuple(sorted((i, j, w) for (i, j), w in zip(canon, weights.real.tolist()))),
        accessible=accessible,
        coupling=read_only(coupling.copy()),
        detunings=detunings,
    )


@dataclass(frozen=True)
class InfectionTrace:
    """Witness of one infection run.

    ``steps`` lists (newly infected vertex, infecting neighbour) in the
    order taken; at each step the infecting neighbour had exactly one
    uninfected neighbour. ``residual`` holds the never-infected vertices.
    """

    infecting: bool
    steps: tuple[tuple[int, int], ...]
    residual: tuple[int, ...]


@dataclass(frozen=True)
class InfectionVerdict:
    """Result of the sufficient identifiability test.

    ``reason`` is None when identifiable, otherwise "NotInfecting" or
    "NotMinimal". A non-identifiable verdict is never issued: the test is
    one-directional.
    """

    identifiable_by_infection: bool
    reason: str | None


def omega_from_network(net: NetworkModel) -> PassiveSystem:
    """Assemble the real symmetric Hamiltonian and pair it with the coupling.

    The system is built on the first call and kept on ``net``: every call
    returns the same read-only system, so its cached ``eigh(omega)`` serves
    :func:`infection_identifiability_verdict` and any other caller alike.
    """
    return net._system


def infection_closure(net: NetworkModel) -> InfectionTrace:
    """Run the infection iteration to its fixed point.

    Infected vertices are scanned in ascending index order, infecting
    whenever a scanned vertex has exactly one uninfected neighbour, until a
    full pass makes no progress. The final verdict is scan-order
    independent (any other order is the ascending scan of the relabelled
    network); the trace records the order actually taken. A pass scans
    only the infection front, the vertices infected before it that still
    have an uninfected neighbour: the others never gain one, so skipping
    them changes no step.
    """
    adj: list[set[int]] = [set() for _ in range(net.n)]
    for i, j, _ in net.edges:
        adj[i].add(j)
        adj[j].add(i)
    infected = set(net.accessible)
    front = set(infected)
    steps: list[tuple[int, int]] = []
    progress = True
    while progress:
        progress = False
        front = {v for v in front if not adj[v] <= infected}
        for v in sorted(front):
            open_nbrs = adj[v] - infected
            if len(open_nbrs) == 1:
                u = open_nbrs.pop()
                infected.add(u)
                front.add(u)
                steps.append((u, v))
                progress = True
    residual = tuple(v for v in range(net.n) if v not in infected)
    return InfectionTrace(
        infecting=not residual, steps=tuple(steps), residual=residual
    )


def infection_identifiability_verdict(net: NetworkModel) -> InfectionVerdict:
    """Sufficient test: infecting accessible set plus minimality.

    Returns the positive verdict only when both conditions hold; otherwise
    names the failed condition without claiming non-identifiability (the
    tree counterexample is identifiable yet not infecting). Minimality is
    the PBH rank of :func:`~qsysid.analysis.structure_report`, from one
    ``eigh(omega)``; no eigenvalue of the drift is needed.
    """
    if not infection_closure(net).infecting:
        return InfectionVerdict(identifiable_by_infection=False, reason="NotInfecting")
    if omega_from_network(net).reached.lam.size < net.n:
        return InfectionVerdict(identifiable_by_infection=False, reason="NotMinimal")
    return InfectionVerdict(identifiable_by_infection=True, reason=None)
