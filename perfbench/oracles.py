"""Ground-truth checks for every benchmark op (NumPy only).

Each check compares a library answer with truth the benchmark built in:
the eigenvalues of the Hamiltonian it drew, the gauge it applied, the
coupling Gram c c† it chose, and minimality that holds by construction
(generic dense systems, end-coupled chains). A check returns "" when the
answer is right and a short reason when it is not; it never calls qsysid.
"""

from __future__ import annotations

import numpy as np


def arrowhead_eigs(omega11: float, lambdas, e_abs) -> np.ndarray:
    """Eigenvalues of [[omega11, |E'|], [|E'|^T, diag(lambdas)]], ascending."""
    lambdas = np.asarray(lambdas, dtype=float).ravel()
    e_abs = np.asarray(e_abs, dtype=float).ravel()
    k = lambdas.size
    arrow = np.zeros((k + 1, k + 1))
    arrow[0, 0] = omega11
    arrow[0, 1:] = e_abs
    arrow[1:, 0] = e_abs
    arrow[np.arange(1, k + 1), np.arange(1, k + 1)] = lambdas
    return np.linalg.eigvalsh(arrow)


def check_eigs(found, truth: np.ndarray, tol: float, what: str) -> str:
    found = np.sort(np.real(np.asarray(found, dtype=complex)).ravel())
    if found.shape != truth.shape:
        return f"{what}: {found.size} eigenvalues, expected {truth.size}"
    if not np.all(np.isfinite(found)):
        return f"{what}: non-finite eigenvalue"
    err = float(np.abs(found - truth).max())
    if err > tol:
        return f"{what}: eigenvalue error {err:.3e} > {tol:.3e}"
    return ""


def check_hamiltonian(omega, truth: np.ndarray, tol: float, what: str) -> str:
    """Eigenvalues of a recovered Hamiltonian against the true spectrum."""
    omega = np.asarray(omega, dtype=complex)
    if omega.shape != (truth.size, truth.size) or not np.all(np.isfinite(omega)):
        return f"{what}: bad Hamiltonian of shape {omega.shape}"
    return check_eigs(np.linalg.eigvalsh(0.5 * (omega + omega.conj().T)), truth, tol, what)


def check_gram(c_found, gram: np.ndarray, rtol: float, what: str) -> str:
    """c_found c_found† against the true coupling Gram c c†."""
    c_found = np.atleast_2d(np.asarray(c_found, dtype=complex))
    if c_found.shape[0] != gram.shape[0]:
        return f"{what}: coupling has {c_found.shape[0]} rows, expected {gram.shape[0]}"
    err = float(np.abs(c_found @ c_found.conj().T - gram).max())
    bound = rtol * float(np.abs(gram).max())
    if not np.isfinite(err) or err > bound:
        return f"{what}: coupling Gram error {err:.3e} > {bound:.3e}"
    return ""


def check_canonical(theta, omega11, lambdas, e_abs, truth: dict, tol: float) -> str:
    """Canonical parameters: theta = c c† and the arrowhead spectrum = true spectrum."""
    if not np.isfinite(theta) or abs(theta - truth["theta"]) > tol:
        return f"canonical: theta {theta!r} vs {truth['theta']!r}"
    return check_eigs(arrowhead_eigs(omega11, lambdas, e_abs), truth["eigs"], tol, "canonical")


def check_identify(truth: dict, omega, c, theta, omega11, lambdas, e_abs) -> str:
    """Pipeline answer: rebuilt (omega, c) and canonical parameters within tol."""
    tol = truth["tol"]
    return (
        check_hamiltonian(omega, truth["eigs"], tol, "system")
        or check_gram(c, np.array([[truth["theta"]]]), tol / truth["theta"], "system")
        or check_canonical(theta, omega11, lambdas, e_abs, truth, tol)
    )


def check_minimal(minimal, rank, n: int) -> str:
    if minimal is not True or rank != n:
        return f"minimal={minimal!r} rank={rank!r}, expected minimal with rank {n}"
    return ""


def check_gauge(equivalent, gauge, applied: np.ndarray, tol: float) -> str:
    """Recovered gauge against the unitary the benchmark applied."""
    if equivalent is not True or gauge is None:
        return f"equivalent={equivalent!r}, expected the applied gauge"
    gauge = np.asarray(gauge, dtype=complex)
    if gauge.shape != applied.shape:
        return f"gauge shape {gauge.shape}, expected {applied.shape}"
    err = float(np.abs(gauge - applied).max())
    if not np.isfinite(err) or err > tol:
        return f"gauge error {err:.3e} > {tol:.3e}"
    return ""


def check_true(value, what: str) -> str:
    return "" if value is True else f"{what}={value!r}, expected True"


def check_responses(freqs, responses, truth: dict) -> str:
    """Probe output: the truth's grid, every sample within the noise bound."""
    freqs = np.asarray(freqs, dtype=float)
    if freqs.shape != truth["freqs"].shape or not np.allclose(freqs, truth["freqs"], rtol=1e-12):
        return "probe: frequency grid differs"
    responses = np.asarray(responses, dtype=complex).reshape(truth["exact"].shape)
    err = float(np.abs(responses - truth["exact"]).max())
    if not np.isfinite(err) or err > truth["bound"]:
        return f"probe: response error {err:.3e} > {truth['bound']:.3e}"
    return ""
