"""Shared builders for the worked network examples and random systems."""

from __future__ import annotations

import numpy as np
import pytest

from qsysid import PassiveSystem, gauge_transform, new_system


def chain_system(kappa: float = 0.5, th1: float = 0.6, th2: float = 0.8) -> PassiveSystem:
    """Three-node chain, field on node 1: omega tridiagonal, c = [sqrt(2 kappa), 0, 0]."""
    omega = np.array(
        [[0.0, th1, 0.0], [th1, 0.0, th2], [0.0, th2, 0.0]], dtype=complex
    )
    c = np.array([[np.sqrt(2.0 * kappa), 0.0, 0.0]], dtype=complex)
    return new_system(omega, c)


def tree_system(
    kappa: float = 0.5, th1: float = 0.6, th2: float = 0.8, delta: float = 0.3
) -> PassiveSystem:
    """Node 1 coupled to nodes 2 and 3, detuning delta on node 2."""
    omega = np.array(
        [[0.0, th1, th2], [th1, delta, 0.0], [th2, 0.0, 0.0]], dtype=complex
    )
    c = np.array([[np.sqrt(2.0 * kappa), 0.0, 0.0]], dtype=complex)
    return new_system(omega, c)


def ring_system(
    kappa: float, th1: float, th2: float, th3: float, th4: float
) -> PassiveSystem:
    """Four-node ring 1-2-4-3-1, field on node 1."""
    omega = np.array(
        [
            [0.0, th1, th2, 0.0],
            [th1, 0.0, 0.0, th3],
            [th2, 0.0, 0.0, th4],
            [0.0, th3, th4, 0.0],
        ],
        dtype=complex,
    )
    c = np.zeros((1, 4), dtype=complex)
    c[0, 0] = np.sqrt(2.0 * kappa)
    return new_system(omega, c)


def uniform_chain(n: int, cut: int | None = None) -> PassiveSystem:
    """n-node chain with unit edge weights and unit coupling on node 0.

    ``cut`` zeroes the edge between nodes cut - 1 and cut, which leaves the
    nodes from ``cut`` on unreachable.
    """
    omega = np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    if cut is not None:
        omega[cut - 1, cut] = omega[cut, cut - 1] = 0.0
    c = np.zeros((1, n))
    c[0, 0] = 1.0
    return new_system(omega, c)


def one_mode_system(kappa: float, omega: float = 0.0) -> PassiveSystem:
    return new_system([[omega]], [[np.sqrt(kappa)]])


def random_passive(rng: np.random.Generator, n: int, m: int) -> PassiveSystem:
    """Random Hermitian Hamiltonian and dense complex coupling."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    omega = 0.5 * (g + g.conj().T)
    c = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return new_system(omega, c)


def planted_rank_system(
    rng: np.random.Generator, n: int, m: int, rank: int
) -> PassiveSystem:
    """Random system whose reachable space generically has dimension ``rank``:
    omega block diagonal with blocks rank and n - rank, c supported on the
    first block, then the whole rotated by a random unitary."""
    sys = random_passive(rng, n, m)
    omega = sys.omega.copy()
    omega[:rank, rank:] = 0.0
    omega[rank:, :rank] = 0.0
    c = sys.c.copy()
    c[:, rank:] = 0.0
    return gauge_transform(new_system(omega, c), random_unitary(rng, n))


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :]


def coupling_fixing_unitary(
    rng: np.random.Generator, c: np.ndarray
) -> np.ndarray:
    """Random unitary T with c T† = c: identity on the row space of c,
    arbitrary unitary on its orthogonal complement."""
    n = c.shape[1]
    _, sv, vh = np.linalg.svd(c)
    rank = int(np.sum(sv > sv[0] * 1e-12))
    v = vh.conj().T
    q = random_unitary(rng, n - rank)
    inner = np.eye(n, dtype=complex)
    inner[rank:, rank:] = q.conj().T
    return v @ inner @ v.conj().T


def random_single_node_siso(
    rng: np.random.Generator, n: int, min_gap: float = 0.05
) -> PassiveSystem:
    """Random system with c = (sqrt(theta), 0, ..., 0) and a well-separated
    interior spectrum, redrawing until the separation holds."""
    while True:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        omega = 0.5 * (g + g.conj().T)
        theta = rng.uniform(0.5, 2.0)
        c = np.zeros((1, n), dtype=complex)
        c[0, 0] = np.sqrt(theta)
        if n > 1:
            interior = np.linalg.eigvalsh(omega[1:, 1:])
            if n > 2 and np.diff(interior).min() < min_gap:
                continue
            # couplings to every interior eigenvector must stay away from zero
            _, vecs = np.linalg.eigh(omega[1:, 1:])
            if np.abs(omega[0, 1:] @ vecs).min() < min_gap:
                continue
        return new_system(omega, c)


def assert_params_equal(a, b) -> None:
    """The canonical parameters a and b are equal, bit for bit."""
    assert (a.theta, a.omega11) == (b.theta, b.omega11)
    assert a.lambdas.tobytes() == b.lambdas.tobytes() and a.e_abs.tobytes() == b.e_abs.tobytes()


# Values that are no real scalar, each of which would read as 1 if converted:
# every scalar argument refuses them, naming itself in the message.
NOT_REAL = [True, 1j, np.complex128(1), "1", None, np.array([1.0])]


def real_refusal(name: str, bound: str, value) -> str:
    """Pattern of the message that refuses value for the real argument name."""
    if isinstance(value, bool):
        return f"^{name} must be a number, not a bool, got True$"
    return f"^{name} must be finite and {bound}, got "


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
