"""Acceptance suite: one test per criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every tolerance is pinned here; nothing is calibrated at runtime.
"""

import numpy as np
import pytest

from qsysid import (
    NotPassiveTF,
    companion_realization,
    direct_reconstruction,
    eigenvalues_from_canonical,
    find_gauge,
    gauge_transform,
    identify_pipeline,
    infection_closure,
    infection_identifiability_verdict,
    make_rational_tf,
    markov_sequence,
    observability_matrix,
    reconstruct_passive,
    sample_response,
    solve_lyapunov,
    structure_report,
    transfer_at,
    transfer_rational,
)

from conftest import (
    chain_system,
    coupling_fixing_unitary,
    random_passive,
    random_single_node_siso,
    ring_system,
)
from test_network import (
    chain_network,
    descending_closure,
    random_network,
    ring_network,
    tree_network,
)


def verdict(num: int, name: str, ok: bool) -> None:
    print(f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_criterion_01_markov_oracle():
    kappa, th1, th2 = 0.5, 0.6, 0.8
    seq = markov_sequence(chain_system(kappa, th1, th2), 4)[:, 0, 0]
    expected = np.array(
        [
            2 * kappa,
            0.0,
            2 * kappa * th1**2,
            0.0,
            2 * kappa * th1**2 * (th1**2 + th2**2),
        ]
    )
    ok = np.abs(seq - expected).max() <= 1e-12
    verdict(1, "chain moment sequence", ok)


def cancel_common_roots(num, den, tol=1e-8):
    """Remove matched root pairs; returns reduced ascending coefficients."""
    rnum = list(np.roots(num[::-1]))
    rden = list(np.roots(den[::-1]))
    for rn in list(rnum):
        for rd in list(rden):
            if abs(rn - rd) < tol * max(1.0, abs(rn)):
                rnum.remove(rn)
                rden.remove(rd)
                break
    return (
        np.atleast_1d(np.poly(rnum))[::-1],
        np.atleast_1d(np.poly(rden))[::-1],
    )


def test_criterion_02_transfer_oracle():
    kappa, th1, th2 = 0.5, 0.6, 0.8
    tf = transfer_rational(chain_system(kappa, th1, th2))
    den_expected = np.array([kappa * th2**2, th1**2 + th2**2, kappa, 1.0])
    num_expected = np.array([-kappa * th2**2, th1**2 + th2**2, -kappa, 1.0])
    ok = (
        np.abs(tf.den - den_expected).max() <= 1e-10
        and np.abs(tf.num[0, 0] - num_expected).max() <= 1e-10
    )
    # decoupled case collapses to one mode after pole-zero cancellation
    tf0 = transfer_rational(chain_system(kappa, 0.0, th2))
    num_red, den_red = cancel_common_roots(tf0.num[0, 0], tf0.den)
    ok = (
        ok
        and len(den_red) == 2
        and np.abs(den_red - np.array([kappa, 1.0])).max() <= 1e-8
        and np.abs(num_red - np.array([-kappa, 1.0])).max() <= 1e-8
    )
    verdict(2, "chain transfer coefficients", ok)


def test_criterion_03_ring_determinant():
    # the closed form is stated for Hamiltonian moments; the drift-based
    # square stack picks up exactly one factor of -1
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(50):
        kappa, t1, t2, t3, t4 = rng.uniform(0.3, 1.5, size=5)
        det = np.linalg.det(observability_matrix(ring_system(kappa, t1, t2, t3, t4))[:4, :])
        formula = 4 * kappa**2 * (t1 * t3 + t2 * t4) ** 2 * (t2 * t3 - t1 * t4)
        ok = ok and abs(det - (-formula)) <= 1e-8 * abs(formula)
    verdict(3, "ring observability determinant", ok)


def _criterion_4_5_sample():
    rng = np.random.default_rng(45)
    systems = []
    for _ in range(500):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, n + 1))
        systems.append(structure_report(random_passive(rng, n, m)))
    return systems


def test_criterion_04_duality_property():
    reports = _criterion_4_5_sample()
    ok = all(rep.controllable == rep.observable for rep in reports)
    verdict(4, "controllable iff observable, 500 draws", ok)


def test_criterion_05_stability_property():
    reports = _criterion_4_5_sample()
    minimal = [rep for rep in reports if rep.minimal]
    ok = bool(minimal) and all(rep.spectral_abscissa < 0 for rep in minimal)
    verdict(5, "minimal implies Hurwitz", ok)


def test_criterion_06_unitarity_property():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, n + 1))
        sys = random_passive(rng, n, m)
        for w in rng.uniform(-8.0, 8.0, size=20):
            xi = transfer_at(sys, 1j * w)
            worst = max(worst, np.abs(xi @ xi.conj().T - np.eye(m)).max())
    verdict(6, f"response unitary on the axis (worst {worst:.2e})", worst <= 1e-10)


def test_criterion_07_equivalence_roundtrip():
    rng = np.random.default_rng(7)
    ok = True
    done = 0
    while done < 200:
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n))
        sys1 = random_passive(rng, n, m)
        if not structure_report(sys1).minimal:
            continue
        t0 = coupling_fixing_unitary(rng, sys1.c)
        sys2 = gauge_transform(sys1, t0)
        res = find_gauge(sys1, sys2)
        scale_omega = max(np.abs(sys1.omega).max(), np.abs(sys2.omega).max())
        scale_c = max(np.abs(sys1.c).max(), np.abs(sys2.c).max())
        ok = ok and res.equivalent and res.gauge is not None
        if res.gauge is not None:
            unitary_dev = np.abs(res.gauge @ res.gauge.conj().T - np.eye(n)).max()
            dev_omega = np.abs(
                res.gauge @ sys1.omega @ res.gauge.conj().T - sys2.omega
            ).max()
            dev_c = np.abs(sys1.c @ res.gauge.conj().T - sys2.c).max()
            ok = (
                ok
                and unitary_dev <= 1e-8
                and dev_omega <= 1e-8 * scale_omega
                and dev_c <= 1e-8 * scale_c
            )
        done += 1
    done = 0
    while done < 200:
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n + 1))
        sys1 = random_passive(rng, n, m)
        sys2 = random_passive(rng, n, m)
        if not (structure_report(sys1).minimal and structure_report(sys2).minimal):
            continue
        ok = ok and not find_gauge(sys1, sys2).equivalent
        done += 1
    verdict(7, "gauge recovery, 200 + 200 draws", ok)


def test_criterion_08_worked_two_node_example():
    a0, a1, c1 = 2.0, 0.3, -0.6
    tf = make_rational_tf([a0, a1 + c1, 1.0], [a0, a1, 1.0])
    real = companion_realization(tf)
    p = solve_lyapunov(real.a0, real.c0.conj().T @ real.c0)
    p_expected = (c1**2 / (2 * a1)) * np.diag([a0, 1.0])
    ok = np.abs(p - p_expected).max() <= 1e-10
    sys, _ = reconstruct_passive(real)
    eig = np.sort(np.linalg.eigvalsh(sys.omega))
    ok = ok and np.abs(eig - np.array([-np.sqrt(2.0), np.sqrt(2.0)])).max() <= 1e-10
    ok = ok and abs(np.linalg.norm(sys.c) - np.sqrt(0.6)) <= 1e-10
    tf_bad = make_rational_tf([a0, a1 - 0.59, 1.0], [a0, a1, 1.0])
    try:
        reconstruct_passive(companion_realization(tf_bad))
        ok = False
    except NotPassiveTF:
        pass
    verdict(8, "two-node worked example", ok)


def test_criterion_09_direct_reconstruction_roundtrip():
    rng = np.random.default_rng(9)
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 7))
        sys = random_single_node_siso(rng, n)
        params = direct_reconstruction(transfer_rational(sys))
        theta_true = float(abs(sys.c[0, 0]) ** 2)
        ok = ok and abs(params.theta - theta_true) <= 1e-9
        if n > 1:
            lam_true = np.sort(np.linalg.eigvalsh(np.asarray(sys.omega)[1:, 1:]))
            ok = ok and np.abs(params.lambdas - lam_true).max() <= 1e-8
        eig_true = np.sort(np.linalg.eigvalsh(sys.omega))
        ok = ok and np.abs(eigenvalues_from_canonical(params) - eig_true).max() <= 1e-7
    verdict(9, "direct reconstruction, 100 draws", ok)


def test_criterion_10_infection_oracles():
    chain_verdict = infection_identifiability_verdict(chain_network(0.5, 0.6, 0.8))
    ok = infection_closure(chain_network()).infecting
    ok = ok and chain_verdict.identifiable_by_infection
    ok = ok and not infection_closure(tree_network()).infecting
    ok = ok and not infection_closure(ring_network()).infecting
    rng = np.random.default_rng(10)
    for _ in range(200):
        net = random_network(rng, int(rng.integers(2, 10)))
        fwd = infection_closure(net)
        rev = descending_closure(net)
        ok = ok and fwd.infecting == rev.infecting and fwd.residual == rev.residual
    verdict(10, "infection closure oracles", ok)


def test_criterion_11_probing_pipeline():
    kappa = 0.5
    sys = chain_system(kappa, 0.6, 0.8)
    freqs = np.geomspace(0.01, 100.0, 200)
    eig_true = np.array([-1.0, 0.0, 1.0])

    data = sample_response(sys, freqs)
    rebuilt, params, _ = identify_pipeline(data, 3)
    ok = abs(params.theta - 2 * kappa) <= 1e-6
    ok = ok and np.abs(eigenvalues_from_canonical(params) - eig_true).max() <= 1e-6
    ok = ok and np.abs(np.sort(np.linalg.eigvalsh(rebuilt.omega)) - eig_true).max() <= 1e-6

    errors = []
    for seed in range(20):
        noisy = sample_response(sys, freqs, noise_sigma=1e-4, seed=seed)
        _, params_n, _ = identify_pipeline(noisy, 3)
        errors.append(np.abs(eigenvalues_from_canonical(params_n) - eig_true).max())
    median = float(np.median(errors))
    ok = ok and median < 1e-2
    verdict(11, f"probe/fit/reconstruct pipeline (median {median:.1e})", ok)
