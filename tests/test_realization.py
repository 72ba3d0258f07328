"""Companion forms, Lyapunov gauge, direct parameter extraction."""

import numpy as np
import pytest

from qsysid import (
    DegenerateSpectrum,
    NegativeResidue,
    NonMonic,
    NotHurwitz,
    NotPassiveTF,
    NotSISO,
    companion_realization,
    direct_reconstruction,
    eigenvalues_from_canonical,
    gauge_transform,
    make_rational_tf,
    mimo_coupling_gram,
    new_system,
    reconstruct_passive,
    solve_lyapunov,
    transfer_at,
    transfer_rational,
)
from qsysid.realization import CanonicalParams

from conftest import (
    chain_system,
    one_mode_system,
    random_single_node_siso,
    random_unitary,
)


# the NotPassiveTF message names the measured leading coefficient and the threshold
NOT_VANISHING = r"leading coefficient 1\.000e\+00 exceeds \d"


def two_node_tf(a0, a1, c1):
    """Xi(s) = 1 + c1 s / (s^2 + a1 s + a0)."""
    return make_rational_tf([a0, a1 + c1, 1.0], [a0, a1, 1.0])


def eval_realization(real, s):
    n = real.a0.shape[0]
    return 1.0 + (real.c0 @ np.linalg.solve(s * np.eye(n) - real.a0, real.b0))[0, 0]


class TestCompanionRealization:
    def test_two_node_shape(self):
        a0, a1, c1 = 2.0, 0.3, -0.6
        real = companion_realization(two_node_tf(a0, a1, c1))
        np.testing.assert_allclose(real.a0, [[0.0, 1.0], [-a0, -a1]], atol=1e-14)
        np.testing.assert_allclose(real.b0, [[0.0], [1.0]], atol=1e-14)
        np.testing.assert_allclose(real.c0, [[0.0, c1]], atol=1e-14)

    def test_degree_one(self):
        a0, c0 = 0.4, -0.8
        real = companion_realization(make_rational_tf([a0 + c0, 1.0], [a0, 1.0]))
        np.testing.assert_allclose(real.a0, [[-a0]])
        np.testing.assert_allclose(real.b0, [[1.0]])
        np.testing.assert_allclose(real.c0, [[c0]])

    def test_reproduces_chain_transfer(self, rng):
        sys = chain_system(0.5, 0.6, 0.8)
        real = companion_realization(transfer_rational(sys))
        for _ in range(10):
            s = complex(rng.uniform(0.2, 2.0), rng.uniform(-2.0, 2.0))
            expected = transfer_at(sys, s)[0, 0]
            assert eval_realization(real, s) == pytest.approx(expected, abs=1e-8)

    def test_not_siso(self, rng):
        num = np.zeros((2, 2, 2), dtype=complex)
        num[0, 0] = num[1, 1] = [1.0, 1.0]
        with pytest.raises(NotSISO):
            companion_realization(make_rational_tf(num, [1.0, 1.0]))

    def test_non_monic(self):
        with pytest.raises(NonMonic):
            make_rational_tf([1.0, 2.0], [1.0, 2.0000001])

    def test_not_vanishing_at_infinity(self):
        # Xi -> 2 at large |s|: no realization with direct term 1
        with pytest.raises(NotPassiveTF, match=NOT_VANISHING):
            companion_realization(make_rational_tf([0.5, 2.0], [1.0, 1.0]))


class TestSolveLyapunov:
    def test_worked_two_node_closed_form(self):
        a0, a1, c1 = 2.0, 0.3, -0.6
        real = companion_realization(two_node_tf(a0, a1, c1))
        p = solve_lyapunov(real.a0, real.c0.conj().T @ real.c0)
        expected = (c1**2 / (2 * a1)) * np.diag([a0, 1.0])
        np.testing.assert_allclose(p, expected, atol=1e-10)

    def test_scalar(self):
        p = solve_lyapunov(np.array([[-1.0]]), np.array([[2.0]]))
        np.testing.assert_allclose(p, [[1.0]], atol=1e-14)

    def test_random_residual(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 8))
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = g - (np.abs(np.linalg.eigvals(g)).max() + 0.5) * np.eye(n)
            w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            q = w.conj().T @ w
            p = solve_lyapunov(a, q)
            resid = np.abs(p @ a + a.conj().T @ p + q).max()
            assert resid <= 1e-10 * np.abs(q).max()
            assert np.linalg.eigvalsh(p).min() > 0

    def test_not_hurwitz(self):
        with pytest.raises(NotHurwitz):
            solve_lyapunov(np.array([[1.0]]), np.array([[1.0]]))


class TestReconstructPassive:
    def test_worked_two_node_default_gauge(self):
        a0, a1, c1 = 2.0, 0.3, -0.6
        real = companion_realization(two_node_tf(a0, a1, c1))
        sys, gauge = reconstruct_passive(real)
        np.testing.assert_allclose(
            sys.omega, [[0.0, 1j * np.sqrt(a0)], [-1j * np.sqrt(a0), 0.0]], atol=1e-10
        )
        np.testing.assert_allclose(sys.c, [[0.0, -np.sqrt(2 * a1)]], atol=1e-10)
        np.testing.assert_allclose(
            gauge.p, (c1**2 / (2 * a1)) * np.diag([a0, 1.0]), atol=1e-10
        )
        np.testing.assert_allclose(gauge.u0, np.eye(2), atol=1e-10)

    def test_worked_two_node_chain_gauge(self):
        a0, a1, c1 = 2.0, 0.3, -0.6
        real = companion_realization(two_node_tf(a0, a1, c1))
        u = np.array([[0.0, -1.0], [1j, 0.0]])
        sys, _ = reconstruct_passive(real, u=u)
        np.testing.assert_allclose(
            sys.omega, [[0.0, np.sqrt(a0)], [np.sqrt(a0), 0.0]], atol=1e-10
        )
        np.testing.assert_allclose(sys.c, [[np.sqrt(2 * a1), 0.0]], atol=1e-10)

    def test_one_mode_roundtrip(self):
        kappa = 0.9
        real = companion_realization(transfer_rational(one_mode_system(kappa)))
        sys, _ = reconstruct_passive(real)
        np.testing.assert_allclose(sys.omega, [[0.0]], atol=1e-12)
        assert abs(sys.c[0, 0]) == pytest.approx(np.sqrt(kappa), abs=1e-12)

    def test_non_passive_slope_rejected(self):
        with pytest.raises(NotPassiveTF):
            reconstruct_passive(companion_realization(two_node_tf(2.0, 0.3, -0.59)))

    def test_reproduces_transfer(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 7))
            sys = random_single_node_siso(rng, n)
            tf = transfer_rational(sys)
            rebuilt, _ = reconstruct_passive(companion_realization(tf))
            for _ in range(20):
                s = complex(rng.uniform(0.1, 3.0), rng.uniform(-3.0, 3.0))
                a = transfer_at(sys, s)[0, 0]
                b = transfer_at(rebuilt, s)[0, 0]
                assert abs(a - b) <= 1e-7 * max(1.0, abs(a))
            np.testing.assert_allclose(
                np.linalg.eigvalsh(rebuilt.omega),
                np.linalg.eigvalsh(sys.omega),
                atol=1e-7,
            )


class TestDirectReconstruction:
    def test_chain_parameters(self):
        # oracle: eigensolve of the interior block and couplings through its
        # eigenvectors, from the known system matrices
        kappa, th1, th2 = 0.5, 0.6, 0.8
        sys = chain_system(kappa, th1, th2)
        params = direct_reconstruction(transfer_rational(sys))
        assert params.theta == pytest.approx(2 * kappa, abs=1e-9)
        assert params.omega11 == pytest.approx(0.0, abs=1e-9)
        interior = np.asarray(sys.omega)[1:, 1:]
        lam_true, vec = np.linalg.eigh(interior)
        np.testing.assert_allclose(params.lambdas, lam_true, atol=1e-8)
        e_true = np.abs(np.asarray(sys.omega)[0, 1:] @ vec)
        np.testing.assert_allclose(params.e_abs, e_true, atol=1e-8)

    def test_one_mode(self):
        kappa = 0.7
        params = direct_reconstruction(transfer_rational(one_mode_system(kappa)))
        assert params.theta == pytest.approx(kappa, abs=1e-12)
        assert params.omega11 == pytest.approx(0.0, abs=1e-12)
        assert params.lambdas.size == 0 and params.e_abs.size == 0

    def test_two_node_interior(self):
        a0, a1 = 2.0, 0.3
        params = direct_reconstruction(two_node_tf(a0, a1, -2 * a1))
        assert params.theta == pytest.approx(2 * a1, abs=1e-10)
        assert params.omega11 == pytest.approx(0.0, abs=1e-10)
        np.testing.assert_allclose(params.lambdas, [0.0], atol=1e-10)
        np.testing.assert_allclose(params.e_abs, [np.sqrt(a0)], atol=1e-10)
        np.testing.assert_allclose(
            eigenvalues_from_canonical(params),
            [-np.sqrt(a0), np.sqrt(a0)],
            atol=1e-10,
        )

    def test_random_roundtrip(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 7))
            sys = random_single_node_siso(rng, n)
            params = direct_reconstruction(transfer_rational(sys))
            theta_true = abs(sys.c[0, 0]) ** 2
            assert params.theta == pytest.approx(theta_true, abs=1e-9 * theta_true)
            if n > 1:
                lam_true = np.linalg.eigvalsh(np.asarray(sys.omega)[1:, 1:])
                np.testing.assert_allclose(params.lambdas, lam_true, atol=1e-8)

    def test_not_vanishing_at_infinity(self):
        with pytest.raises(NotPassiveTF, match=NOT_VANISHING):
            direct_reconstruction(make_rational_tf([0.5, 0.3, 2.0], [1.0, 0.3, 1.0]))

    def test_degenerate_spectrum_rejected(self):
        # den - num = (s + i)^2 exactly: a double pole of the interior response
        den = np.array([-0.5, -1.0 + 1.0j, 0.5 + 2.0j, 1.0])
        num = den - np.array([-1.0, 2.0j, 1.0, 0.0])
        with pytest.raises(DegenerateSpectrum):
            direct_reconstruction(make_rational_tf(num, den))

    def test_merged_interior_mode_rejected(self):
        # equal couplings to two identical interior detunings: a mode
        # decouples, the cancelled pole doubles up in den - num, and the
        # operation refuses rather than approximates
        omega = np.array(
            [[0.0, 0.5, 0.5], [0.5, 1.0, 0.0], [0.5, 0.0, 1.0]], dtype=complex
        )
        sys = new_system(omega, [[1.0, 0.0, 0.0]])
        with pytest.raises((DegenerateSpectrum, NegativeResidue)):
            direct_reconstruction(transfer_rational(sys))

    def test_negative_residue_rejected(self):
        # chain-like function with the interior response sign flipped:
        # den = (s + theta/2)(s^2 + t2^2) - t1^2 s, num = den - theta (s^2 + t2^2)
        theta, t1, t2 = 1.0, 0.6, 0.8
        den = [0.5 * theta * t2**2, t2**2 - t1**2, 0.5 * theta, 1.0]
        num = [-0.5 * theta * t2**2, t2**2 - t1**2, -0.5 * theta, 1.0]
        with pytest.raises(NegativeResidue):
            direct_reconstruction(make_rational_tf(num, den))


class TestEigenvaluesFromCanonical:
    def test_decoupled_block_diagonal(self):
        params = CanonicalParams(
            theta=1.0,
            omega11=0.5,
            lambdas=np.array([-1.0, 2.0]),
            e_abs=np.array([0.0, 0.0]),
        )
        np.testing.assert_allclose(
            eigenvalues_from_canonical(params), [-1.0, 0.5, 2.0], atol=1e-14
        )

    def test_matches_direct_eigensolve(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            sys = random_single_node_siso(rng, n)
            params = direct_reconstruction(transfer_rational(sys))
            np.testing.assert_allclose(
                eigenvalues_from_canonical(params),
                np.linalg.eigvalsh(sys.omega),
                atol=1e-8,
            )


class TestMimoCouplingGram:
    def test_siso_consistency(self):
        sys = chain_system(0.5, 0.6, 0.8)
        tf = transfer_rational(sys)
        c0, block = mimo_coupling_gram(tf)
        params = direct_reconstruction(tf)
        assert (c0[0, 0] ** 2).real == pytest.approx(params.theta, abs=1e-10)
        assert block[0, 0].real == pytest.approx(params.omega11, abs=1e-10)

    def test_two_port_diagonal(self):
        k1, k2 = 0.6, 1.1
        sys = new_system(
            np.zeros((2, 2)), np.diag([np.sqrt(k1), np.sqrt(k2)]).astype(complex)
        )
        c0, block = mimo_coupling_gram(transfer_rational(sys))
        np.testing.assert_allclose(c0 @ c0.conj().T, np.diag([k1, k2]), atol=1e-10)
        np.testing.assert_allclose(block, np.zeros((2, 2)), atol=1e-10)

    def test_gram_gauge_invariant(self, rng):
        n, m = 4, 2
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        omega = 0.5 * (g + g.conj().T)
        ct = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        c = np.hstack([ct, np.zeros((m, n - m))])
        sys = new_system(omega, c)
        w = random_unitary(rng, m)
        t = np.eye(n, dtype=complex)
        t[:m, :m] = w.conj().T
        sys2 = gauge_transform(sys, t)
        c0_1, _ = mimo_coupling_gram(transfer_rational(sys))
        c0_2, _ = mimo_coupling_gram(transfer_rational(sys2))
        np.testing.assert_allclose(c0_1, c0_2, atol=1e-9)
        np.testing.assert_allclose(c0_1 @ c0_1.conj().T, c @ c.conj().T, atol=1e-9)

    def test_not_vanishing_at_infinity(self):
        # Xi_22 -> 2 at large |s|, so I - Xi keeps a constant entry
        num = np.zeros((2, 2, 2), dtype=complex)
        num[0, 0] = [0.5, 1.0]
        num[1, 1] = [1.0, 2.0]
        with pytest.raises(NotPassiveTF, match=NOT_VANISHING):
            mimo_coupling_gram(make_rational_tf(num, [1.0, 1.0]))

    def test_rank_deficient_coupling_rejected(self, rng):
        # two ports driving the same mode combination: singular gram
        from qsysid import RankDeficientCoupling

        n = 3
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        omega = 0.5 * (g + g.conj().T)
        row = np.array([[1.0, 0.4, 0.0]], dtype=complex)
        sys = new_system(omega, np.vstack([row, 0.5 * row]))
        with pytest.raises(RankDeficientCoupling):
            mimo_coupling_gram(transfer_rational(sys))

    def test_oracle_block_match(self, rng):
        # oracle: rotate the true accessible block by the recovered right unitary
        n, m = 5, 2
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        omega = 0.5 * (g + g.conj().T)
        ct = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        c = np.hstack([ct, np.zeros((m, n - m))])
        sys = new_system(omega, c)
        c0, block = mimo_coupling_gram(transfer_rational(sys))
        ut = np.linalg.solve(c0, ct)
        np.testing.assert_allclose(ut @ ut.conj().T, np.eye(m), atol=1e-9)
        np.testing.assert_allclose(block, ut @ omega[:m, :m] @ ut.conj().T, atol=1e-8)
