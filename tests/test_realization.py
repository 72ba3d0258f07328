"""Companion forms, the Lyapunov solve, reconstruction from the spectral measure."""

import decimal
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsysid import (
    DimensionMismatch,
    NonMonic,
    NotHurwitz,
    NotMinimal,
    NotPassiveTF,
    RationalTF,
    companion_realization,
    direct_reconstruction,
    eigenvalues_from_canonical,
    find_gauge,
    gauge_transform,
    make_rational_tf,
    mimo_coupling_gram,
    new_system,
    reconstruct_passive,
    sample_response,
    solve_lyapunov,
    structure_report,
    transfer_at,
    transfer_rational,
)
from qsysid import realization
from qsysid.model import SPECTRAL_RTOL
from qsysid.realization import PASSIVITY_RTOL, CanonicalParams, _measure

from conftest import (
    NOT_REAL,
    assert_params_equal,
    chain_system,
    one_mode_system,
    planted_rank_system,
    random_passive,
    random_single_node_siso,
    random_unitary,
    real_refusal,
    uniform_chain,
)


# the NotPassiveTF message names the measured leading coefficient and the threshold
NOT_VANISHING = r"leading coefficient 1\.000e\+00 exceeds \d"


def two_node_tf(a0, a1, c1):
    """Xi(s) = 1 + c1 s / (s^2 + a1 s + a0)."""
    return make_rational_tf([a0, a1 + c1, 1.0], [a0, a1, 1.0])


def gauged_measure(real, u):
    """Reference (u diag(lam) u†, sqrt(w) u†) of the measure (lam, w), with
    omega symmetrized: the realization in gauge u, by the explicit formula."""
    lam, w, _ = _measure(real, PASSIVITY_RTOL)
    omega = (u * lam) @ u.conj().T
    return 0.5 * (omega + omega.conj().T), np.sqrt(w)[None, :] @ u.conj().T


def chain_of(n, kappa):
    """Uniform n-node chain with coupling sqrt(kappa) on its end node."""
    chain = uniform_chain(n)
    return new_system(chain.omega, np.sqrt(kappa) * chain.c)


def assert_round_trip(sys, tf):
    """The rebuild from tf has the eigenvalues and theta of sys, within 1e-9."""
    rebuilt, params = reconstruct_passive(companion_realization(tf))
    eigs = np.linalg.eigvalsh(sys.omega)
    atol = 1e-9 * np.abs(eigs).max()
    np.testing.assert_allclose(np.linalg.eigvalsh(rebuilt.omega), eigs, atol=atol)
    np.testing.assert_allclose(eigenvalues_from_canonical(params), eigs, atol=atol)
    assert params.theta == pytest.approx(np.vdot(sys.c, sys.c).real, rel=1e-9)


def eval_realization(real, s):
    n = real.a0.shape[0]
    return 1.0 + (real.c0 @ np.linalg.solve(s * np.eye(n) - real.a0, np.eye(n)[:, -1]))[0]


class TestCompanionRealization:
    def test_two_node_shape(self):
        a0, a1, c1 = 2.0, 0.3, -0.6
        real = companion_realization(two_node_tf(a0, a1, c1))
        np.testing.assert_allclose(real.a0, [[0.0, 1.0], [-a0, -a1]], atol=1e-14)
        np.testing.assert_allclose(real.c0, [[0.0, c1]], atol=1e-14)

    def test_degree_one(self):
        a0, c0 = 0.4, -0.8
        real = companion_realization(make_rational_tf([a0 + c0, 1.0], [a0, 1.0]))
        np.testing.assert_allclose(real.a0, [[-a0]])
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
        with pytest.raises(DimensionMismatch):
            companion_realization(make_rational_tf(num, [1.0, 1.0]))

    def test_non_monic(self):
        with pytest.raises(NonMonic):
            make_rational_tf([1.0, 2.0], [1.0, 2.0000001])

    def test_short_numerator_refused_before_the_realization(self):
        # a hand-built function whose numerator is shorter than its denominator
        with pytest.raises(DimensionMismatch, match=r"^numerator shape \(1, 1, 2\)"):
            companion_realization(RationalTF(num=np.array([[[1, 1]]]), den=np.array([1, 2, 1])))

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

    def test_mismatched_shapes_rejected(self):
        match = r"^shapes \(2, 2\) and \(3, 3\) are incompatible$"
        with pytest.raises(DimensionMismatch, match=match):
            solve_lyapunov(-np.eye(2), np.eye(3))

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

    @pytest.mark.parametrize("n", [16, 24, 32])
    def test_companion_of_passive_function_residual(self, rng, n):
        # P = T†T is not tested for definiteness: from n ≈ 16 its condition exceeds 1/eps
        for _ in range(3):
            real = companion_realization(transfer_rational(random_passive(rng, n, 1)))
            q = real.c0.conj().T @ real.c0
            p = solve_lyapunov(real.a0, q)
            assert np.abs(p @ real.a0 + real.a0.conj().T @ p + q).max() <= 1e-10 * np.abs(q).max()

    @pytest.mark.parametrize("num, den", [([1.0, -2.0, 1.0], [1.0, 2.0, 1.0]),
                                          ([-1.0, 3.0, -3.0, 1.0], [1.0, 3.0, 3.0, 1.0])])
    def test_defective_companion(self, num, den):
        # Xi = ((s - 1) / (s + 1))^k: a0 is one Jordan block at -1
        real = companion_realization(make_rational_tf(num, den))
        q = real.c0.conj().T @ real.c0
        p = solve_lyapunov(real.a0, q)
        assert np.abs(p @ real.a0 + real.a0.conj().T @ p + q).max() <= 1e-10 * np.abs(q).max()

    @pytest.mark.parametrize("route", ["lyapunov", "coefficients"])
    def test_pole_within_rounding_refused_by_both(self, route):
        # Xi = (s - 1e-17) / (s + 1e-17): its pole -1e-17 is negative by sign
        # alone, within the rounding of a computed pole, so neither the
        # Lyapunov solve nor the reconstruction takes it as Hurwitz
        real = companion_realization(make_rational_tf([-1e-17, 1.0], [1e-17, 1.0]))
        assert np.linalg.eigvals(real.a0).real.max() < 0.0
        with pytest.raises(NotHurwitz, match="real part not below"):
            if route == "lyapunov":
                solve_lyapunov(real.a0, real.c0.conj().T @ real.c0)
            else:
                reconstruct_passive(real)


class TestReconstructPassive:
    def test_worked_two_node_default_gauge(self):
        # den + num = 2 (s^2 + a0) and G = 2 (den - num) / (den + num)
        # = -c1 s / (s^2 + a0): weight -c1 / 2 = 0.3 at lam = -sqrt(a0) and sqrt(a0)
        a0, a1, c1 = 2.0, 0.3, -0.6
        sys, _ = reconstruct_passive(companion_realization(two_node_tf(a0, a1, c1)))
        np.testing.assert_allclose(
            sys.omega, np.diag([-np.sqrt(a0), np.sqrt(a0)]), atol=1e-10
        )
        np.testing.assert_allclose(sys.c, [[np.sqrt(0.3), np.sqrt(0.3)]], atol=1e-10)

    def test_worked_two_node_chain_gauge(self):
        a0, a1, c1 = 2.0, 0.3, -0.6
        real = companion_realization(two_node_tf(a0, a1, c1))
        u = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
        sys = gauge_transform(reconstruct_passive(real)[0], u)
        np.testing.assert_allclose(
            sys.omega, [[0.0, np.sqrt(a0)], [np.sqrt(a0), 0.0]], atol=1e-10
        )
        np.testing.assert_allclose(sys.c, [[np.sqrt(2 * a1), 0.0]], atol=1e-10)

    def test_gauge_transform_of_diagonal_matches_formula(self, rng):
        # the README's worked U on the two-node function, then random draws
        readme_u = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
        cases = [(two_node_tf(2.0, 0.3, -0.6), readme_u)]
        for _ in range(40):
            n = int(rng.integers(1, 9))
            sys = gauge_transform(random_single_node_siso(rng, n), random_unitary(rng, n))
            cases.append((transfer_rational(sys), random_unitary(rng, n)))
        for tf, u in cases:
            real = companion_realization(tf)
            omega, c = gauged_measure(real, u)
            rebuilt = gauge_transform(reconstruct_passive(real)[0], u)
            np.testing.assert_allclose(rebuilt.omega, omega, rtol=0, atol=1e-12)
            np.testing.assert_allclose(rebuilt.c, c, rtol=0, atol=1e-12)

    def test_one_mode_roundtrip(self):
        kappa = 0.9
        real = companion_realization(transfer_rational(one_mode_system(kappa)))
        sys, _ = reconstruct_passive(real)
        np.testing.assert_allclose(sys.omega, [[0.0]], atol=1e-12)
        assert abs(sys.c[0, 0]) == pytest.approx(np.sqrt(kappa), abs=1e-12)

    def test_non_passive_slope_rejected(self):
        with pytest.raises(NotPassiveTF):
            reconstruct_passive(companion_realization(two_node_tf(2.0, 0.3, -0.59)))

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-8] + NOT_REAL)
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # a NaN tolerance would turn every passivity check off
        tf_bad = two_node_tf(2.0, 0.3, -0.59)
        with pytest.raises(ValueError, match=real_refusal("tol", "> 0", tol)):
            reconstruct_passive(companion_realization(tf_bad), passivity_tol=tol)

    @pytest.mark.parametrize("tol", [np.float32(1e-8), np.int64(1)], ids=repr)
    def test_numpy_scalar_tolerance_accepted(self, tol):
        real = companion_realization(transfer_rational(chain_system()))
        assert_params_equal(reconstruct_passive(real, tol)[1], reconstruct_passive(real)[1])

    def test_bool_tolerance_refused(self):
        real = companion_realization(transfer_rational(chain_system()))
        with pytest.raises(ValueError, match="tol must be a number, not a bool"):
            reconstruct_passive(real, passivity_tol=True)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_measure_round_trip_property(self, n, seed):
        rng = np.random.default_rng(seed)
        sys = gauge_transform(random_single_node_siso(rng, n), random_unitary(rng, n))
        tf = transfer_rational(sys)
        rebuilt, params = reconstruct_passive(companion_realization(tf))
        assert find_gauge(rebuilt, sys).equivalent
        assert_params_equal(direct_reconstruction(tf), params)

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

    @pytest.mark.parametrize("n", [10, 16])
    def test_dense_round_trip(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            sys = random_passive(rng, n, 1)
            assert_round_trip(sys, transfer_rational(sys))

    @pytest.mark.parametrize("kind", ["dense", "chain"])
    def test_coefficient_route_frontier(self, kind):
        # from monomial coefficients alone (a reconstruct file, a fit) the
        # poles come from eigvals of the companion and are held to the
        # mirror of num: the round trip must hold at n = 16
        rng = np.random.default_rng(16)
        draws = [random_passive(rng, 16, 1) for _ in range(5)]
        if kind == "chain":
            draws = [chain_of(16, kappa) for kappa in (0.25, 0.5, 1.0, 2.0, 4.0)]
        for sys in draws:
            tf = transfer_rational(sys)
            assert_round_trip(sys, make_rational_tf(tf.num, tf.den))

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["dense", "chain"]),
        n=st.integers(1, 128),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_exact_rebuild_equivalent_property(self, kind, n, seed):
        # transfer_rational carries the source's reached measure, so the
        # rebuild is that measure, bit for bit, and certified equivalent to
        # the source up to n = 128
        rng = np.random.default_rng(seed)
        if kind == "dense":
            sys = random_passive(rng, n, 1)
        else:
            sys = chain_of(n, rng.uniform(0.2, 2.0))
        tf = transfer_rational(sys)
        rebuilt, params = reconstruct_passive(companion_realization(tf))
        assert find_gauge(rebuilt, sys).equivalent
        assert rebuilt.omega.tobytes() == np.diag(sys.reached.lam).astype(complex).tobytes()
        c = np.sqrt(np.abs(sys.reached.cv) ** 2)
        assert rebuilt.c.tobytes() == c.astype(complex).tobytes()
        assert_params_equal(direct_reconstruction(tf), params)


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

    def test_double_pole_on_the_axis_rejected(self):
        # den has the double root -i on the imaginary axis; eigvals splits it
        # by about sqrt(eps), so one of the pair is never below the threshold
        den = np.array([-0.5, -1.0 + 1.0j, 0.5 + 2.0j, 1.0])
        num = den - np.array([-1.0, 2.0j, 1.0, 0.0])
        with pytest.raises(NotHurwitz):
            direct_reconstruction(make_rational_tf(num, den))

    def test_coincident_pairs_rejected(self):
        # den + num = 2 (s + i)^2 (s + 3i)^2: Xi = -1 twice at lam = 1 and
        # twice at lam = 3, so num is far from the mirror of den's poles
        den = np.poly([-0.5, -1.5, -2.5, -3.5])[::-1]
        num = 2.0 * np.poly([-1j, -1j, -3j, -3j])[::-1] - den
        with pytest.raises(NotPassiveTF, match="beyond its width"):
            direct_reconstruction(make_rational_tf(num, den))

    def test_merged_interior_mode_rejected(self):
        # equal couplings to two identical interior detunings: a mode
        # decouples, its pole sits on the imaginary axis, and the operation
        # refuses rather than approximates, from the exact measure (by the
        # PBH rank) and from coefficients alike; so too for one unreached
        # mode planted among 40. A mode of weight 1e-18, which reached keeps,
        # is rebuilt from its measure by the same rule and certified, while
        # its pole decays by 5e-19, within the coefficients' pole rounding
        omega = np.array(
            [[0.0, 0.5, 0.5], [0.5, 1.0, 0.0], [0.5, 0.0, 1.0]], dtype=complex
        )
        merged = new_system(omega, [[1.0, 0.0, 0.0]])
        planted = planted_rank_system(np.random.default_rng(40), 40, 1, 39)
        for sys, reached in ((merged, 2), (planted, 39)):
            tf = transfer_rational(sys)
            with pytest.raises(NotHurwitz, match=f"^fields reach {reached} of {sys.n} modes; "):
                direct_reconstruction(tf)
            with pytest.raises((NotHurwitz, NotPassiveTF)):
                direct_reconstruction(make_rational_tf(tf.num, tf.den))
        weak = new_system(np.diag([0.0, 1.0]), [[1.0, 1e-9]])
        assert weak.reached.lam.size == 2
        tf = transfer_rational(weak)
        assert find_gauge(reconstruct_passive(companion_realization(tf))[0], weak).equivalent
        with pytest.raises(NotHurwitz, match=r"real part not below -4\.441e-16"):
            direct_reconstruction(make_rational_tf(tf.num, tf.den))

    def test_sign_flipped_chain_rejected(self):
        # chain-like function with the interior response sign flipped:
        # den = (s + theta/2)(s^2 + t2^2) - t1^2 s, num = den - theta (s^2 + t2^2);
        # den + num = 2 s (s^3 + d s), d = t2^2 - t1^2, has negative weights,
        # and den itself fails Routh-Hurwitz: 0.5 * 0.28 < 0.32
        theta, t1, t2 = 1.0, 0.6, 0.8
        den = [0.5 * theta * t2**2, t2**2 - t1**2, 0.5 * theta, 1.0]
        num = [-0.5 * theta * t2**2, t2**2 - t1**2, -0.5 * theta, 1.0]
        with pytest.raises(NotHurwitz):
            direct_reconstruction(make_rational_tf(num, den))

    @pytest.mark.parametrize("route", ["exact", "coefficients"])
    def test_near_pair_refused_by_scale_threshold(self, route):
        # modes 0.3 and 0.3 + gap with weights 0.5 each; reached splits them
        # above 1e-10, the scale threshold. At 3e-11 both routes refuse the
        # pair: from the exact measure as one eigenspace with one direction
        # unreached, from coefficients as a dark pole within the poles'
        # rounding n eps max(1, |p|) = 4.4e-16. At 3e-10 the exact measure is
        # rebuilt and certified, while its dark pole, decaying at 4.5e-20,
        # is still within that rounding. At 1e-5 both rebuild it
        def xi(gap):
            sys = new_system(np.diag([0.3, 0.3 + gap]), np.sqrt([[0.5, 0.5]]))
            tf = transfer_rational(sys)
            return sys, (tf if route == "exact" else make_rational_tf(tf.num, tf.den))

        pole_rounding = r"real part not below -4\.441e-16"
        refused = {"exact": r"^fields reach 1 of 2 modes; an unreached mode has a pole on the",
                   "coefficients": pole_rounding}[route]
        with pytest.raises(NotHurwitz, match=refused):
            direct_reconstruction(xi(3e-11)[1])
        sys, tf = xi(3e-10)
        if route == "exact":
            assert find_gauge(reconstruct_passive(companion_realization(tf))[0], sys).equivalent
        else:
            with pytest.raises(NotHurwitz, match=pole_rounding):
                direct_reconstruction(tf)
        sys, tf = xi(1e-5)
        assert find_gauge(reconstruct_passive(companion_realization(tf))[0], sys).equivalent

    @pytest.mark.parametrize("weights", [(0.5, 0.5), (1e-3, 1.0)])
    def test_near_pair_verdicts_agree(self, weights):
        # modes 0.3 and 0.3 + gap, gap 1e-11 to 1e-5 in half decades, the
        # upper mode also one ulp down and one up: every reader of reached's
        # rule, the exact reconstruction included, gives one verdict, even
        # where one ulp flips it (the 1e-10 pair sits 8e-18 above the scale
        # threshold). From coefficients the poles' rounding refuses more
        # pairs, so that route may rebuild only what the rule calls minimal
        def succeeds(call, errors):
            try:
                call()
            except errors:
                return False
            return True

        verdicts = []
        for gap in 10.0 ** np.arange(-11, -4.75, 0.5):
            for upper in (np.nextafter(0.3 + gap, 0), 0.3 + gap, np.nextafter(0.3 + gap, 1)):
                sys = new_system(np.diag([0.3, upper]), np.sqrt([weights]))
                tf = transfer_rational(sys)
                minimal = structure_report(sys).minimal
                assert succeeds(lambda: sample_response(sys, [1.0]), NotHurwitz) == minimal
                assert succeeds(lambda: find_gauge(sys, sys), NotMinimal) == minimal
                assert succeeds(lambda: direct_reconstruction(tf), NotHurwitz) == minimal
                coefficients = make_rational_tf(tf.num, tf.den)
                assert minimal or not succeeds(lambda: direct_reconstruction(coefficients),
                                               (NotHurwitz, NotPassiveTF))
                verdicts.append(minimal)
        assert not any(verdicts[:6]) and all(verdicts[-6:])


class TestMeasure:
    @pytest.mark.parametrize("coefficients", [False, True])
    def test_weights_match_source_measure(self, rng, coefficients):
        # oracle: the source system's own measure, eigh(omega) = V diag(lam) V†
        # with weights |c v_k|^2
        for _ in range(60):
            n = int(rng.integers(1, 17))
            sys = random_passive(rng, n, 1)
            tf = transfer_rational(sys)
            if coefficients:
                tf = make_rational_tf(tf.num, tf.den)
            lam, w, _ = _measure(companion_realization(tf), 1e-8)
            lam_true, v = np.linalg.eigh(sys.omega)
            w_true = np.abs(sys.c[0] @ v) ** 2
            scale = np.abs(lam_true).max() + w_true.sum()
            rtol = 1e-10 if coefficients else 1e-12
            assert np.abs(lam - lam_true).max() <= rtol * scale
            assert np.abs(w - w_true).max() <= rtol * w_true.sum()

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 40),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        pair=st.sampled_from([None, 0.3, 3.0]),
        weak=st.one_of(st.none(), st.floats(-22.0, -18.0)),
    )
    def test_hand_built_measure_rebuilt_iff_minimal_property(self, n, seed, scale, pair, weak):
        # a carried measure (lam, sqrt(w)) is rebuilt exactly when structure_report
        # calls (diag(lam), sqrt(w)) minimal: one rule decides both, for a
        # pair planted 0.3 or 3 times the scale threshold apart and for a
        # weight of 1e-22 to 1e-18 of the total, about the reach threshold
        rng = np.random.default_rng(seed)
        lam = np.sort(rng.standard_normal(n)) * scale
        w = rng.uniform(1e-3, 1.0, n)
        if pair is not None:
            k = int(rng.integers(n - 1))
            lam[k + 1] = lam[k]
            lam[k + 1] += pair * SPECTRAL_RTOL * max(np.abs(lam - lam.mean()).max(), w.sum())
        if weak is not None:
            w[rng.integers(n)] = 10.0**weak * w.sum()
        sys = new_system(np.diag(lam), np.sqrt(w)[None])
        tf = transfer_rational(sys)
        measured = RationalTF(tf.num, tf.den, (lam, np.sqrt(w)[None]))
        if structure_report(sys).minimal:
            direct_reconstruction(measured)
        else:
            with pytest.raises(NotHurwitz, match="^fields reach"):
                direct_reconstruction(measured)

    def test_no_eigenvectors_and_no_solve(self, monkeypatch):
        # functions exact and from coefficients, each built afresh
        def exact():
            return transfer_rational(chain_system())

        def coefficients():
            tf = exact()
            return make_rational_tf(tf.num, tf.den)

        expected = [_measure(companion_realization(f()), 1e-8) for f in (exact, coefficients)]

        def refuse(*args, **kwargs):
            raise AssertionError("_measure needs eigh only, no eig or solve")

        monkeypatch.setattr(np.linalg, "eig", refuse)
        monkeypatch.setattr(np.linalg, "solve", refuse)
        for f, (lam0, w0, params0) in zip((exact, coefficients), expected):
            lam, w, params = _measure(companion_realization(f()), 1e-8)
            np.testing.assert_array_equal(lam, lam0)
            np.testing.assert_array_equal(w, w0)
            np.testing.assert_array_equal(params.lambdas, params0.lambdas)

    def test_exact_measure_takes_no_cascade(self, monkeypatch):
        # a carried measure (lam, cv) is taken as it is, with w = |cv|²: no
        # poles, no mirror gap and no cascade, only the canonical form of it
        tf = transfer_rational(chain_system())

        def refuse(*args, **kwargs):
            raise AssertionError("an exact measure needs no poles")

        for module, name in ((realization, "_mirror_gap"), (realization, "_cascade"),
                             (np.linalg, "eigvals")):
            monkeypatch.setattr(module, name, refuse)
        lam, w, _ = _measure(companion_realization(tf), 1e-8)
        assert lam is tf.measure[0] and not w.flags.writeable
        assert w.tobytes() == (np.abs(tf.measure[1][0]) ** 2).tobytes()
        with pytest.raises(AssertionError, match="no poles"):
            _measure(companion_realization(make_rational_tf(tf.num, tf.den)), 1e-8)

    def test_huge_scale_rebuilt_without_warning(self):
        # G = 1e155 s / (s^2 + 1e308) is a passive reactance: the two-node
        # chain with omega = [[0, 1e154], [1e154, 0]] and theta = 1e155; the
        # squares of its poles (about 4.8e154) overflow, so only a route
        # that never forms them rebuilds it
        tf = make_rational_tf([1e308, -5e154, 1.0], [1e308, 5e154, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sys, params = reconstruct_passive(companion_realization(tf))
        np.testing.assert_allclose(np.diag(sys.omega).real, [-1e154, 1e154], rtol=1e-12)
        np.testing.assert_allclose(np.abs(sys.c[0]) ** 2, [5e154, 5e154], rtol=1e-12)
        assert params.theta == pytest.approx(1e155, rel=1e-12)
        assert abs(params.omega11) <= 1e-12 * 1e154
        np.testing.assert_allclose(params.e_abs, [1e154], rtol=1e-12)


class TestSharedReconstruction:
    """Both routes give one result, bit for bit."""

    @pytest.mark.parametrize("coefficients", [False, True])
    def test_eigh_calls(self, rng, monkeypatch, coefficients):
        # per reconstruction, one canonical eigvalsh, and from coefficients one
        # cascade eigh before it; the carried measure needs no eigh at all
        tf = transfer_rational(random_single_node_siso(rng, 8))
        if coefficients:
            tf = make_rational_tf(tf.num, tf.den)
        count = {"eigh": 0, "eigvalsh": 0}
        for name, solver in [(name, getattr(np.linalg, name)) for name in count]:
            def counting(*args, _name=name, _solver=solver, **kwargs):
                count[_name] += 1
                return _solver(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        for _ in range(2):
            reconstruct_passive(companion_realization(tf))
            direct_reconstruction(tf)
        assert count == {"eigh": 4 if coefficients else 0, "eigvalsh": 4}

    @pytest.mark.parametrize("coefficients", [False, True])
    def test_routes_agree_read_only(self, rng, coefficients):
        tf = transfer_rational(random_single_node_siso(rng, 6))
        if coefficients:
            tf = make_rational_tf(tf.num, tf.den)
        _, params = reconstruct_passive(companion_realization(tf))
        direct = direct_reconstruction(tf)
        assert (params.theta, params.omega11) == (direct.theta, direct.omega11)
        for a, b in ((params.lambdas, direct.lambdas), (params.e_abs, direct.e_abs)):
            np.testing.assert_array_equal(a, b)
            assert not a.flags.writeable and not b.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_tolerance_applies_to_every_call(self):
        # Xi = -1 lies 2.5e-5 off the axis: each call's own tolerance decides
        tf = two_node_tf(2.0, 0.3, -0.6 + 1e-4)
        refused = r"off the imaginary axis by 2\.500e-05 > 4\.242e-09"
        with pytest.raises(NotPassiveTF, match=refused):
            reconstruct_passive(companion_realization(tf))
        sys, params = reconstruct_passive(companion_realization(tf), passivity_tol=1e-3)
        lam, w, again = _measure(companion_realization(tf), 1e-3)
        assert_params_equal(again, params)
        np.testing.assert_array_equal(sys.omega, np.diag(lam))
        np.testing.assert_array_equal(sys.c, np.sqrt(w)[None, :])
        for route in (lambda: reconstruct_passive(companion_realization(tf)),
                      lambda: direct_reconstruction(tf)):
            with pytest.raises(NotPassiveTF, match=refused):
                route()


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

    @staticmethod
    def weak_measure(seed, n):
        """Sorted lam, scaled and maybe offset, and weights of which some lie
        between 1e-20 of the total (the reach threshold) and 1e-10."""
        rng = np.random.default_rng(seed)
        lam = (np.sort(rng.uniform(-1.0, 1.0, n)) + rng.choice([0.0, 3.0])) * 10.0 ** rng.uniform(-3, 3)
        w = rng.uniform(0.5, 2.0, n) * 10.0 ** rng.uniform(-3, 3)
        weak = rng.choice(n, rng.integers(0, n), replace=False)
        w[weak] = 10.0 ** rng.uniform(-20, -10, weak.size) * w.sum()
        return lam, w

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 128), seed=st.integers(0, 2**32 - 1))
    def test_arrowhead_rebuilds_the_measure(self, n, seed):
        # the arrowhead (omega11, lambdas, |E'|) has the measure's spectrum and,
        # seen from e1, its weights, to eigh's rounding eps scale / gap
        lam, w = self.weak_measure(seed, n)
        params = realization._canonical(lam, w)
        assert np.all(lam[:-1] <= params.lambdas) and np.all(params.lambdas <= lam[1:])
        arrow = np.diag(np.concatenate([[params.omega11], params.lambdas]))
        arrow[0, 1:] = arrow[1:, 0] = params.e_abs
        mu, vec = np.linalg.eigh(arrow)
        scale = np.abs(lam).max()
        assert np.abs(mu - lam).max() <= 1e-12 * scale
        gap = np.minimum(np.diff(lam, prepend=-np.inf), np.diff(lam, append=np.inf))
        assert np.all(np.abs(np.abs(vec[0]) - np.sqrt(w / w.sum())) <= 1e-13 * scale / gap)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 10), seed=st.integers(0, 2**32 - 1))
    def test_couplings_match_a_decimal_reference(self, n, seed):
        # each zero of F(x) = sum_k u_k² / (x - lam_k) by 80-digit bisection, and
        # |E'_i| = F'(lambda_i)^(-1/2) there: every coupling keeps its relative
        # accuracy, also beside a mode of weight 1e-20, where eigvalsh resolves the
        # gap lambda_i - lam_k to no digit and eigenvectors give |E'| to none
        lam, w = self.weak_measure(seed, n)
        params = realization._canonical(lam, w)
        with decimal.localcontext() as context:
            context.prec = 80
            poles = [decimal.Decimal(x) for x in lam]
            u2 = [decimal.Decimal(x) / sum(map(decimal.Decimal, w)) for x in w]
            for i, (lo, hi) in enumerate(zip(poles[:-1], poles[1:])):
                for _ in range(300):
                    x = (lo + hi) / 2
                    lo, hi = (x, hi) if sum(u / (x - p) for u, p in zip(u2, poles)) > 0 else (lo, x)
                e_abs = sum(u / (x - p) ** 2 for u, p in zip(u2, poles)).sqrt() ** -1
                assert abs(params.lambdas[i] - float(x)) <= 1e-15 * np.abs(lam).max()
                assert abs(params.e_abs[i] - float(e_abs)) <= 1e-11 * float(e_abs)


class TestMimoCouplingGram:
    def test_siso_consistency(self):
        sys = chain_system(0.5, 0.6, 0.8)
        tf = transfer_rational(sys)
        c0, block = mimo_coupling_gram(tf)
        params = direct_reconstruction(tf)
        assert (c0[0, 0] ** 2).real == pytest.approx(params.theta, abs=1e-10)
        assert block[0, 0].real == pytest.approx(params.omega11, abs=1e-10)
        # coefficients alone, as a fit or a file gives them: the measure is rebuilt
        c0, block = mimo_coupling_gram(make_rational_tf(tf.num, tf.den))
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
        # Xi -> 2 at large |s|: no measure of a passive system gives these coefficients
        with pytest.raises(NotPassiveTF, match=NOT_VANISHING):
            mimo_coupling_gram(make_rational_tf([1.0, 2.0], [1.0, 1.0]))

    def test_den_with_a_multiport_measure_refused(self, rng):
        # a two-port function is its measure alone: a den beside it, even one port's
        # monic den of the same degree, is refused before any moment
        one, two = (transfer_rational(random_passive(rng, 3, m)) for m in (1, 2))
        with pytest.raises(DimensionMismatch, match=r"^num and den are given exactly when "
                           r"m = 1, got den for m = 2$"):
            mimo_coupling_gram(RationalTF(num=None, den=one.den, measure=two.measure))

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

    @settings(max_examples=40, deadline=None)
    @given(m=st.sampled_from([2, 4]), n=st.integers(5, 128), unreached=st.booleans(),
           scale=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1))
    @example(m=2, n=128, unreached=True, scale=3.0, seed=0)
    def test_gram_and_block_from_the_measure_property(self, m, n, unreached, scale, seed):
        # c = [ct, 0] couples to the first m modes; with ``unreached`` the last mode is
        # cut off from the rest, and the measure drops it. At 10^scale = 1e3 the spectrum
        # spans about +-2e3, where a characteristic polynomial overflows from n = 112. The
        # block error stays within 11 eps cond(ct)^2 max(1, max|omega|) over 300 draws,
        # a third of them at scale 3 and n >= 100
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        omega = 0.5 * (g + g.conj().T) / np.sqrt(n) * 10.0**scale
        if unreached:
            omega[-1, :-1] = omega[:-1, -1] = 0.0
        ct = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        c = np.hstack([ct, np.zeros((m, n - m))])
        tf = transfer_rational(new_system(omega, c))
        assert tf.measure[0].size == n - unreached
        c0, block = mimo_coupling_gram(tf)
        gram = c @ c.conj().T
        assert np.abs(c0 @ c0.conj().T - gram).max() <= 1e-12 * np.abs(gram).max()
        ut = np.linalg.solve(c0, ct)
        oracle = ut @ omega[:m, :m] @ ut.conj().T
        bound = 1e-13 * np.linalg.cond(ct) ** 2 * max(1.0, np.abs(omega).max())
        assert np.abs(block - oracle).max() <= bound
