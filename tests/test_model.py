"""Model construction, drift matrix, transfer evaluation."""

import copy
import dataclasses
import inspect
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsysid
from qsysid import (
    DimensionMismatch,
    NonMonic,
    NonMonotoneGrid,
    NotHermitian,
    SingularResolvent,
    fit_rational,
    gauge_transform,
    make_rational_tf,
    new_network,
    new_system,
    sample_response,
    solve_lyapunov,
    serialize,
    structure_report,
    transfer_at,
    transfer_rational,
)
from qsysid import model
from qsysid.probe import ProbeDataset
from qsysid.ratfunc import cayley, poly_from_roots, require_real

from conftest import (
    assert_params_equal,
    chain_system,
    one_mode_system,
    planted_rank_system,
    random_passive,
    random_unitary,
    uniform_chain,
)

EPS = np.finfo(float).eps
GRID = np.geomspace(0.1, 10.0, 40)


def resolvent_transfer(sys, s):
    """Reference Xi(s) = I - c (sI - A)^{-1} c† by one dense solve."""
    res = np.linalg.solve(s * np.eye(sys.n) - sys.drift, sys.c.conj().T)
    return np.eye(sys.m) - sys.c @ res


class TestNewSystem:
    def test_smallest_legal_system(self):
        sys = new_system([[0.0]], [[1.0]])
        assert sys.n == 1 and sys.m == 1

    def test_chain_example(self):
        sys = chain_system(kappa=0.5, th1=0.6, th2=0.8)
        assert sys.n == 3 and sys.m == 1
        np.testing.assert_allclose(sys.c[0, 0], 1.0)

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitian):
            new_system([[0.0, 1.0], [0.0, 0.0]], [[1.0, 0.0]])

    def test_shape_errors(self):
        with pytest.raises(DimensionMismatch):
            new_system([[0.0, 0.0]], [[1.0, 0.0]])
        with pytest.raises(DimensionMismatch):
            new_system([[0.0]], [[1.0, 0.0]])
        with pytest.raises(DimensionMismatch):
            new_system([[0.0]], [[1.0], [2.0]])

    def test_matrices_frozen(self):
        sys = new_system([[0.0]], [[1.0]])
        with pytest.raises(ValueError):
            sys.omega[0, 0] = 5.0

    @pytest.mark.parametrize(
        "omega, c, message",
        [
            (np.zeros((0, 0)), np.zeros((1, 0)), "system needs at least one mode"),
            ([[0.0]], np.zeros((0, 1)), "system needs at least one field"),
        ],
    )
    def test_empty_system_rejected(self, omega, c, message):
        with pytest.raises(DimensionMismatch, match=f"^{message}$"):
            new_system(omega, c)

    @pytest.mark.parametrize(
        "omega, c, name", [([[np.nan]], [[1.0]], "omega"), ([[0.0]], [[np.inf]], "c")]
    )
    def test_non_finite_rejected(self, omega, c, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            new_system(omega, c)


class TestCompare:
    def test_systems_compare_by_identity(self):
        # a generated __eq__ would compare the array fields and raise for n > 1
        sys, other = (new_system([[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0]]) for _ in range(2))
        assert (sys == other) is False
        assert (sys == sys) is True
        assert sys not in [other]
        assert sys in [other, sys]
        assert len({sys, other}) == 2

    @pytest.mark.parametrize(
        "name, make",
        [
            ("RationalTF", lambda: transfer_rational(chain_system())),
            (
                "ClassicalRealization",
                lambda: qsysid.companion_realization(transfer_rational(chain_system())),
            ),
            (
                "CanonicalParams",
                lambda: qsysid.direct_reconstruction(transfer_rational(chain_system())),
            ),
            ("FitResult", lambda: qsysid.fit_rational(sample_response(chain_system(), GRID), 3)),
            ("ProbeDataset", lambda: sample_response(chain_system(), GRID)),
            ("EquivalenceVerdict", lambda: qsysid.find_gauge(chain_system(), chain_system())),
        ],
    )
    def test_results_compare_and_hash_by_identity(self, name, make):
        # each holds array fields, which a generated __eq__ would compare and
        # a generated __hash__ would refuse
        result, other = make(), make()
        assert type(result).__name__ == name
        assert (result == other) is False
        assert (result == result) is True
        assert result not in [other]
        assert result in [other, result]
        assert len({result, other, result}) == 2


class TestDriftMatrix:
    def test_drift_and_poles_read_only(self):
        sys = chain_system()
        with pytest.raises(ValueError):
            sys.drift[0, 0] = 1.0
        with pytest.raises(ValueError):
            sys.poles[0] = 1.0

    def test_reached_is_one_cached_eigh(self, rng):
        # a minimal system with distinct eigenvalues reaches every direction of
        # its one eigh(omega), as eigh gives it; the system keeps no other copy
        sys = random_passive(rng, 5, 2)
        lam, v = np.linalg.eigh(sys.omega)
        reached = sys.reached
        assert reached.lam.tobytes() == lam.tobytes() and reached.v.tobytes() == v.tobytes()
        assert reached.cv.tobytes() == (sys.c @ v).tobytes()
        np.testing.assert_allclose(sys.omega @ reached.v, reached.v * reached.lam, atol=1e-12)
        np.testing.assert_allclose(reached.v.conj().T @ reached.v, np.eye(5), atol=1e-12)
        assert np.all(np.diff(reached.lam) > 0)
        for part in (reached.lam, reached.v, reached.cv):
            with pytest.raises(ValueError):
                part[0] = 1.0
        assert sys.reached is reached and not hasattr(sys, "spectrum")
        assert sys.drift is sys.drift and sys.poles is sys.poles

    def test_abscissa_cached_and_read_only(self, rng):
        sys = random_passive(rng, 5, 2)
        assert sys.abscissa is sys.abscissa
        assert sys.abscissa == sys.poles.real.max() and type(sys.abscissa) is float
        with pytest.raises(dataclasses.FrozenInstanceError):
            sys.abscissa = 0.0
        assert structure_report(sys).spectral_abscissa == sys.abscissa
        # the one-port factors (s + conj p_k) / (s - p_k) are those over the zeros -conj(p_k), bit for bit
        one = random_passive(rng, 5, 1)
        z = -one.poles.conj()
        for s in (0.7j, -0.2 + 1.3j, 2.0 + 0j):
            expected = np.multiply.reduce((s - z) / (s - one.poles))
            assert transfer_at(one, s)[0, 0].tobytes() == expected.tobytes()

    def test_poles_are_drift_eigenvalues(self, rng):
        # every system off the secular route: below the crossover at n = 32 for
        # one port and n = 64 for more, two ports sharing an eigenspace of omega,
        # and a single port whose last ten modes the field never reaches
        lam = np.arange(64.0)
        lam[1] = lam[0]
        shared = new_system(np.diag(lam), rng.standard_normal((2, 64)))
        cases = [random_passive(rng, 5, 2), random_passive(rng, 63, 4), random_passive(rng, 63, 2),
                 random_passive(rng, 31, 1), shared, uniform_chain(70, cut=60)]
        assert shared.reached.lam.size == 64 and shared.reached.cluster[-1] == 62
        assert cases[-1].reached.lam.size < 70
        for sys in cases:
            np.testing.assert_array_equal(sys.poles, np.linalg.eigvals(sys.drift))
        # a single port at the crossover takes the sweeps
        sys = random_passive(rng, 32, 1)
        np.testing.assert_array_equal(sys.poles, model._secular_roots(sys.reached.lam, sys.reached.cv)[0])

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([64, 96, 128]),
        m=st.sampled_from([1, 2, 4]),
        family=st.sampled_from(["dense", "chain", "single_node", "detuned"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_secular_poles_match_drift_eigenvalues(self, n, m, family, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        omega = (g + g.conj().T) / (2 * np.sqrt(n))
        c = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(n)
        if family == "chain":  # fed at its ends
            omega = rng.uniform(0.5, 1.5) * (np.eye(n, k=1) + np.eye(n, k=-1))
            c = np.sqrt(rng.uniform(0.5, 2.0)) * np.eye(n)[[0, n - 1, 1, n - 2][:m]]
        elif family == "single_node":  # a few coupled nodes
            c = np.sqrt(rng.uniform(0.5, 2.0, (m, 1))) * np.eye(m, n)
        elif family == "detuned":
            omega = omega + 80.04 * np.eye(n)
        sys = new_system(omega, c)
        r = sys.reached
        assert r.lam.size == n and r.cluster[-1] == n - 1
        # the secular route, settled: its roots are the poles, bit for bit
        roots, _ = model._secular_roots(r.lam, r.cv)
        np.testing.assert_array_equal(sys.poles, roots)
        p, q = sys.poles, np.linalg.eigvals(sys.drift)
        dist = np.abs(p[:, None] - q[None, :])
        assert max(dist.min(axis=0).max(), dist.min(axis=1).max()) <= 1e-12 * np.abs(q).max()
        assert sys.abscissa < 0
        if m == 1:  # the pole product over the zeros -conj(p_k), bit for bit
            expected = np.multiply.reduce((0.5j - (-sys.poles.conj())) / (0.5j - sys.poles))
            assert transfer_at(sys, 0.5j)[0, 0].tobytes() == expected.tobytes()

    def test_unsettled_sweeps_fall_back_to_eigvals(self, rng, monkeypatch):
        monkeypatch.setattr(model, "_secular_roots", lambda lam, cv: (None, lam.size + 50))
        for m in (1, 4):
            sys = random_passive(rng, 64, m)
            assert sys.reached.lam.size == 64
            np.testing.assert_array_equal(sys.poles, np.linalg.eigvals(sys.drift))

    def test_singular_block_settles(self):
        # two decoupled modes, one port each: the sweeps land on the poles -1/2
        # and -1/2 - i exactly, where M(s) = I + G(s)/2 is exactly singular
        roots, _ = model._secular_roots(np.array([0.0, 1.0]), np.eye(2, dtype=complex))
        np.testing.assert_array_equal(roots, [-0.5, -0.5 - 1j])

    def test_one_mode_zero_hamiltonian(self):
        kappa = 0.7
        a = one_mode_system(kappa).drift
        np.testing.assert_allclose(a, [[-kappa / 2]], atol=1e-15)

    def test_one_mode_scalar_formula(self):
        # independent scalar arithmetic: A = -i w - kappa / 2
        w, kappa = 1.3, 0.7
        a = one_mode_system(kappa, omega=w).drift
        assert a[0, 0] == pytest.approx(-1j * w - kappa / 2)

    def test_chain_entries(self):
        # brute-force assembly oracle
        kappa, th1, th2 = 0.5, 0.6, 0.8
        sys = chain_system(kappa, th1, th2)
        expected = -1j * np.array(sys.omega) - 0.5 * sys.c.conj().T @ sys.c
        a = sys.drift
        np.testing.assert_allclose(a, expected, atol=1e-15)
        assert a[0, 0] == pytest.approx(-0.5)
        assert a[0, 1] == pytest.approx(-0.6j)
        assert a[1, 2] == pytest.approx(-0.8j)
        assert a[1, 1] == pytest.approx(0.0)
        assert a[2, 2] == pytest.approx(0.0)

    def test_dissipation_identity(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, n + 1))
            sys = random_passive(rng, n, m)
            a = sys.drift
            resid = a + a.conj().T + sys.c.conj().T @ sys.c
            scale = max(1.0, np.abs(a).max())
            assert np.abs(resid).max() <= 1e-14 * scale


class TestTransferAt:
    def test_one_mode_scalar_algebra(self):
        kappa = 0.9
        sys = one_mode_system(kappa)
        for s in [0.5, 1.0 + 2.0j, -0.2 + 0.1j]:
            expected = (s - kappa / 2) / (s + kappa / 2)
            assert transfer_at(sys, s)[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_decoupled_chain_reduces_to_one_mode(self):
        kappa = 0.5
        sys = chain_system(kappa, th1=0.0, th2=0.8)
        for s in [0.7, 1.0 + 1.0j, 3.0 - 0.4j]:
            expected = (s - kappa) / (s + kappa)
            assert transfer_at(sys, s)[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_unitary_on_imaginary_axis(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, n + 1))
            sys = random_passive(rng, n, m)
            for w in rng.uniform(-5.0, 5.0, size=5):
                xi = transfer_at(sys, 1j * w)
                dev = np.abs(xi @ xi.conj().T - np.eye(m)).max()
                assert dev <= 1e-10

    def test_singular_resolvent(self):
        sys = one_mode_system(1.0)
        with pytest.raises(SingularResolvent):
            transfer_at(sys, -0.5)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("s", [np.nan, np.inf, complex(0.0, np.inf)])
    def test_non_finite_point_rejected(self, rng, m, s):
        sys = random_passive(rng, 3, m)
        with pytest.raises(ValueError, match="^s must be finite"):
            transfer_at(sys, s)

    @pytest.mark.parametrize("s", [True, False, np.True_])
    def test_bool_point_refused(self, s):
        # a bool is not the point 1 or 0
        with pytest.raises(ValueError, match="^s must be finite and not a bool, got "):
            transfer_at(one_mode_system(0.5), s)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
        detuning=st.floats(-100.0, 100.0),
    )
    def test_single_port_pole_product_matches_resolvent(self, n, seed, detuning):
        # the product is exactly unitary on the axis; it departs from the
        # solve by the poles' rounding, eps max|p|, over the distance to the
        # nearest pole (at most 43 eps max|p| / gap over 9000 draws, resonances
        # of weakly coupled modes included)
        rng = np.random.default_rng(seed)
        base = random_passive(rng, n, 1)
        sys = new_system(base.omega + detuning * np.eye(n), base.c)
        lam = np.linalg.eigvalsh(sys.omega)
        w = rng.uniform(-3.0, 3.0, 8) - detuning
        w = np.concatenate([w, -lam - 1e-6, -lam + 1e-6])
        rho = np.abs(sys.poles).max()
        for s in 1j * w:
            xi = transfer_at(sys, s)[0, 0]
            gap = np.abs(s - sys.poles).min()
            assert abs(xi - resolvent_transfer(sys, s)[0, 0]) <= 100 * EPS * rho / gap
            assert abs(abs(xi) - 1.0) <= 1e-14

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 6),
        m=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
        coupling_exp=st.floats(-7.0, 0.0),
        near=st.booleans(),
        offset_exp=st.floats(-14.0, -6.0),
        angle=st.floats(0.0, 2 * np.pi),
        x=st.floats(-4.0, 4.0),
        y=st.floats(-4.0, 4.0),
    )
    def test_value_and_refusal_match_the_full_scan(
        self, n, m, seed, coupling_exp, near, offset_exp, angle, x, y
    ):
        # the gap scan is skipped only where it cannot fire: the value is the
        # plain pole product (or the solve) bit for bit, and the refusal
        # happens exactly where the nearest pole lies within the bound, in
        # either half-plane, for weak couplings whose poles hug the axis too
        rng = np.random.default_rng(seed)
        base = random_passive(rng, max(n, m), m)
        sys = new_system(base.omega, base.c * 10.0**coupling_exp)
        p = sys.poles[rng.integers(sys.n)]
        s = complex(p + 10.0**offset_exp * np.exp(1j * angle)) if near else complex(x, y)
        singular = np.abs(s - sys.poles).min() < 1e-10 * (1.0 + abs(s))
        if singular:
            with pytest.raises(SingularResolvent):
                transfer_at(sys, s)
            return
        xi = transfer_at(sys, s)
        if sys.m == 1:
            expected = ((s + sys.poles.conj()) / (s - sys.poles)).prod().reshape(1, 1)
        else:
            expected = cayley(sys.reached.lam, sys.reached.cv, np.array([s]))[0]
            # both forms err by eps times their conditioning, which grows as |Xi| / gap
            # near a pole: at most 9.7 eps max(1, |Xi|) rho / gap over 40000 draws
            rho = max(1.0, np.abs(sys.poles).max(), abs(s))
            gap = np.abs(s - sys.poles).min()
            bound = 100 * EPS * max(1.0, np.abs(xi).max()) * rho / gap
            assert np.abs(xi - resolvent_transfer(sys, s)).max() <= bound
        assert xi.tobytes() == expected.tobytes()

    def test_weakly_coupled_mode_still_refused_on_the_axis(self):
        # the pole sits 5e-13 left of the axis, inside the bound at s = 2i, so
        # the right half-plane alone does not skip the scan
        sys = new_system([[-2.0]], [[1e-6]])
        assert sys.abscissa == pytest.approx(-5e-13)
        with pytest.raises(SingularResolvent):
            transfer_at(sys, 2.0j)

    def test_multi_port_is_the_cayley_form(self, rng):
        # the helper's value at the one point, bit for bit; within 3.9e-14 of
        # the dense resolvent solve on these draws
        for _ in range(10):
            n = int(rng.integers(2, 9))
            sys = random_passive(rng, n, int(rng.integers(2, n + 1)))
            for s in [1j * rng.uniform(-5.0, 5.0), complex(*rng.uniform(-3.0, 3.0, 2))]:
                xi = transfer_at(sys, s)
                expected = cayley(sys.reached.lam, sys.reached.cv, np.array([s]))[0]
                assert xi.tobytes() == expected.tobytes()
                assert np.abs(xi - resolvent_transfer(sys, s)).max() <= 1e-13

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.sampled_from([2, 4]),
        extra=st.integers(1, 60),
        kind=st.sampled_from(["dense", "unreached", "shared"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_multi_port_matches_resolvent_on_the_grid(self, m, extra, kind, seed):
        # on the axis the Cayley form of the reached measure departs from the
        # solve by the solve's own rounding, eps rho / gap (at most 4.2 times
        # that over 1500 draws); an unreached mode (a planted block) and an
        # eigenspace shared by up to m + 1 directions, which reached turns
        # onto its couplings' singular vectors, change nothing
        rng = np.random.default_rng(seed)
        n = m + extra
        if kind == "dense":
            sys = random_passive(rng, n, m)
        elif kind == "unreached":
            sys = planted_rank_system(rng, n, m, n - 1)
        else:
            lam = rng.standard_normal(n)
            lam[1 : int(rng.integers(2, m + 2))] = lam[0]
            u = random_unitary(rng, n)
            c = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            sys = new_system(u @ np.diag(lam) @ u.conj().T, c)
        for s in 1j * GRID:
            gap = np.abs(s - sys.poles).min()
            bound = 100 * EPS * max(1.0, np.abs(sys.poles).max(), abs(s)) / gap
            assert np.abs(transfer_at(sys, s) - resolvent_transfer(sys, s)).max() <= bound

    def test_multi_port_beside_a_pole_of_g(self):
        # G has a pole at s = -i lam_k, where Xi has none: the odd chain's
        # middle mode has lam = 0, which eigh gives to about 1e-17, and a plain
        # m x m solve there errs by eps |c v_k|² / |s + i lam_k|, up to 0.3 at
        # these points
        omega = np.diag([0.6, 0.8], 1) + np.diag([0.6, 0.8], -1)
        sys = new_system(omega, [[1.0, 0.0, 0.0], [0.0, 0.0, 0.7]])
        for s in [0.0, 1e-17j, -1e-17j, 1e-12j, 1e-8 + 1e-8j, 1e-6j]:
            np.testing.assert_allclose(transfer_at(sys, s), resolvent_transfer(sys, s),
                                       rtol=0, atol=1e-15)
        shared = new_system(np.diag([1.0, 1.0, 2.0]), [[1.0, 0.5, 0.2], [0.3, -1.0, 0.4]])
        for s in [-1j, -1j + 1e-15j, -2j, -2j + 1e-12]:
            np.testing.assert_allclose(transfer_at(shared, s), resolvent_transfer(shared, s),
                                       rtol=0, atol=1e-15)


class TestTransferRational:
    def test_chain_coefficients(self):
        kappa, th1, th2 = 0.5, 0.6, 0.8
        tf = transfer_rational(chain_system(kappa, th1, th2))
        np.testing.assert_allclose(
            tf.den, [kappa * th2**2, th1**2 + th2**2, kappa, 1.0], atol=1e-10
        )
        np.testing.assert_allclose(
            tf.num[0, 0], [-kappa * th2**2, th1**2 + th2**2, -kappa, 1.0], atol=1e-10
        )

    def test_one_mode(self):
        kappa = 0.8
        tf = transfer_rational(one_mode_system(kappa))
        np.testing.assert_allclose(tf.den, [kappa / 2, 1.0], atol=1e-12)
        np.testing.assert_allclose(tf.num[0, 0], [-kappa / 2, 1.0], atol=1e-12)

    def test_two_node_chain_numerator_slope(self):
        # coupling coefficient of s must equal -2 a1 for this family
        kappa, th = 0.4, 1.1
        sys = new_system(
            [[0.0, th], [th, 0.0]], [[np.sqrt(2 * kappa), 0.0]]
        )
        tf = transfer_rational(sys)
        cpoly = tf.num[0, 0] - tf.den
        a1 = tf.den[1]
        np.testing.assert_allclose(cpoly, [0.0, -2.0 * a1, 0.0], atol=1e-12)

    def test_matches_pointwise_evaluation(self, rng):
        for _ in range(5):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, n + 1))
            sys = random_passive(rng, n, m)
            tf = transfer_rational(sys)
            for _ in range(20):
                s = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                try:
                    direct = transfer_at(sys, s)
                except SingularResolvent:
                    continue
                dev = np.abs(tf.eval(s) - direct).max()
                assert dev <= 1e-8 * max(1.0, np.abs(direct).max())

    def test_two_port_matches_pointwise_evaluation_at_n_12(self, rng):
        # a multiport function is its measure and evaluates by its Cayley form
        for _ in range(10):
            sys = random_passive(rng, 12, 2)
            tf = transfer_rational(sys)
            for w in np.linspace(-3.0, 3.0, 13):
                direct = transfer_at(sys, 1j * w)
                dev = np.abs(tf.eval(1j * w) - direct).max()
                assert dev <= 1e-8 * max(1.0, np.abs(direct).max())

    @pytest.mark.parametrize("m", [1, 4])
    def test_evaluation_is_exact_at_n_128(self, m):
        # dense draws scaled as the benchmark's dense_system: on the axis the
        # carried measure stays within 1e-12 max(1, |Xi|) of transfer_at
        # (3.1e-14 for m = 1 and 0 for m = 4 on these draws), where the one-port
        # monomial coefficients err by 2.0
        rng = np.random.default_rng(128)
        for _ in range(3):
            base = random_passive(rng, 128, m)
            sys = new_system(base.omega / np.sqrt(128), base.c / np.sqrt(128))
            tf = transfer_rational(sys)
            w = np.linspace(-3.0, 3.0, 13)
            for s, xi in zip(1j * w, tf.eval(1j * w)):
                direct = transfer_at(sys, s)
                assert np.abs(xi - direct).max() <= 1e-12 * max(1.0, np.abs(direct).max())

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.sampled_from([1, 2, 4]),
        extra=st.integers(0, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_evaluation_matches_transfer_at_property(self, m, extra, seed):
        # on and off the axis the Cayley form of the carried measure departs
        # from transfer_at (the pole product for one port, the same form for
        # more) by eps max(1, |Xi|) rho / gap times at most 13 over 3000 draws
        rng = np.random.default_rng(seed)
        sys = random_passive(rng, m + extra, m)
        tf = transfer_rational(sys)
        points = [*1j * rng.uniform(-5.0, 5.0, 4), *rng.uniform(-3.0, 3.0, (4, 2)) @ [1, 1j]]
        for s in points:
            try:
                direct = transfer_at(sys, s)
            except SingularResolvent:
                continue
            rho = max(1.0, np.abs(sys.poles).max(), abs(s))
            gap = np.abs(s - sys.poles).min()
            bound = 100 * EPS * max(1.0, np.abs(direct).max()) * rho / gap
            assert np.abs(tf.eval(s) - direct).max() <= bound

    def test_overflowing_coefficients_refused(self):
        # poles up to 1e3 at n = 128: den overflows past 1e308 while it is multiplied
        # out, and the function refuses its inf and NaN coefficients with no warning
        lam = np.sort(np.random.default_rng(0).uniform(-1e3, 1e3, 128))
        sys = new_system(np.diag(lam), np.ones((1, 128)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^num must be finite$"):
                transfer_rational(sys)

    def test_two_port_function_at_n_128_builds(self):
        # max|p| is about 140 and den stays finite; a two-port function carries no
        # numerator, whose monomial coefficients would overflow here
        sys = random_passive(np.random.default_rng(1), 128, 2)
        tf = transfer_rational(sys)
        assert tf.num is None and tf.m == 2 and tf.degree == 128
        points = 1j * np.linspace(-20.0, 20.0, 41)
        for s, xi in zip(points, tf.eval(points)):
            direct = transfer_at(sys, s)
            assert np.abs(xi - direct).max() <= 1e-10 * max(1.0, np.abs(direct).max())

    def test_two_port_function_with_an_overflowing_den_builds(self):
        # poles up to 1e3 at n = 128: a den would overflow past 1e308, but a two-port
        # function is its measure alone; eval and the Gram read that measure
        lam = np.sort(np.random.default_rng(0).uniform(-1e3, 1e3, 128))
        c = np.vstack([np.ones(128), np.random.default_rng(1).standard_normal(128)])
        sys = new_system(np.diag(lam), c)
        tf = transfer_rational(sys)
        points = 1j * np.concatenate([np.linspace(-1.1e3, 1.1e3, 45), -lam[::8], [5.0]])
        for s, xi in zip(points, tf.eval(points)):
            direct = transfer_at(sys, s)
            assert np.abs(xi - direct).max() <= 1e-10 * max(1.0, np.abs(direct).max())
        c0, _ = qsysid.mimo_coupling_gram(tf)
        gram = c @ c.conj().T
        assert np.abs(c0 @ c0.conj().T - gram).max() <= 1e-12 * np.abs(gram).max()

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_poles_formed_for_one_port_only(self, rng, m):
        # one port multiplies den out from the poles; more ports form none, and the
        # degree is the measure's length, one short of n with an unreached mode
        for sys, k in ((random_passive(rng, 8, m), 8), (planted_rank_system(rng, 8, m, 7), 7)):
            tf = transfer_rational(sys)
            assert ("poles" in sys.__dict__) == (m == 1)
            assert (tf.num is None) == (tf.den is None) == (m > 1)
            assert tf.measure[0].size == k and tf.degree == (8 if m == 1 else k)

    def test_repeat_is_bit_identical(self, rng):
        for m in (1, 2):
            sys = random_passive(rng, 6, m)
            first, second = transfer_rational(sys), transfer_rational(sys)
            if m == 1:
                np.testing.assert_array_equal(first.den, poly_from_roots(sys.poles))
            assert (first.num is None) == (first.den is None) == (m > 1)
            for a, b in zip((first.num, first.den, *first.measure),
                            (second.num, second.den, *second.measure)):
                assert a is b is None or a.tobytes() == b.tobytes()


class TestRationalTF:
    def test_eval_batches_points(self, rng):
        tf = transfer_rational(random_passive(rng, 4, 2))
        s = 1j * np.geomspace(0.1, 10.0, 6).reshape(2, 3) + 0.2
        batch = tf.eval(s)
        assert batch.shape == (2, 3, 2, 2)
        assert tf.eval(0.5j).shape == (2, 2)
        for idx in np.ndindex(2, 3):
            np.testing.assert_allclose(batch[idx], tf.eval(s[idx]), rtol=1e-13)

    def test_non_finite_coefficient_rejected(self):
        with pytest.raises(ValueError, match="^num must be finite"):
            make_rational_tf([1.0, np.nan], [0.5, 1.0])

    def test_port_count_is_the_measures(self, rng):
        # coefficients are one port's; a multiport function is its measure alone
        assert "m" not in {f.name for f in dataclasses.fields(qsysid.RationalTF)}
        assert list(inspect.signature(make_rational_tf).parameters) == ["num", "den"]
        one, two = (transfer_rational(random_passive(rng, 3, m)) for m in (1, 2))
        assert one.m == one.measure[1].shape[0] == 1 and one.num.shape == (1, 1, 4)
        assert two.m == two.measure[1].shape[0] == 2 and two.num is None and two.den is None
        assert make_rational_tf(one.num, one.den).m == 1
        with pytest.raises(DimensionMismatch, match=r"^numerator array has shape \(2, 2, 4\), "):
            make_rational_tf(np.ones((2, 2, 4)), one.den)

    def test_non_square_numerator_rejected(self):
        with pytest.raises(DimensionMismatch, match=r"^numerator array has shape \(1, 2, 2\), "
                           r"not that of one port$"):
            make_rational_tf(np.ones((1, 2, 2)), [0.5, 1.0])

    @pytest.mark.parametrize(
        "error, match, num, den, measure",
        [
            pytest.param(NonMonic, r"^denominator array\(\[\[1., 1.\]\]\) is not monic of degree",
                         np.ones((1, 1, 2)), np.ones((1, 2)), None, id="den-2d"),
            pytest.param(NonMonic, r"^denominator array\(\[1.\]\) is not monic of degree >= 1$",
                         np.ones((1, 1, 1)), np.ones(1), None, id="den-degree-0"),
            pytest.param(NonMonic, "is not monic", np.ones((1, 1, 2)),
                         np.array([1.0, 1.0 + 2.0**-52]), None, id="den-lead-one-ulp-off"),
            pytest.param(DimensionMismatch, r"^numerator shape \(1, 1, 2\) is not \(1, 1, 3\)$",
                         np.ones((1, 1, 2)), np.array([1.0, 2.0, 1.0]), None, id="num-short"),
            pytest.param(DimensionMismatch, r"^numerator shape \(1, 2, 2\) is not \(1, 1, 2\)$",
                         np.ones((1, 2, 2)), np.array([1.0, 1.0]), None, id="num-not-square"),
            pytest.param(DimensionMismatch, r"^numerator shape \(2,\) is not \(1, 1, 2\)$",
                         np.ones(2), np.array([1.0, 1.0]), None, id="num-1d"),
            pytest.param(DimensionMismatch, r"^numerator shape \(2, 2, 3\) is not \(1, 1, 3\)$",
                         np.ones((2, 2, 3)), np.array([1.0, 2.0, 1.0]), None, id="num-two-port"),
            pytest.param(DimensionMismatch, r"^num and den are given exactly when m = 1, got den "
                         r"for m = 1$", None, np.array([1.0, 2.0, 1.0]), None, id="num-missing"),
            pytest.param(DimensionMismatch, r"^num and den are given exactly when m = 1, got den "
                         r"for m = 1$", None, np.array([1.0, 2.0, 1.0]),
                         (np.zeros(2), np.ones((1, 2))), id="num-missing-one-port-measure"),
            pytest.param(DimensionMismatch, r"^num and den are given exactly when m = 1, got num "
                         r"for m = 1$", np.ones((1, 1, 3)), None, (np.zeros(2), np.ones((1, 2))),
                         id="den-missing"),
            pytest.param(DimensionMismatch, r"^num and den are given exactly when m = 1, got "
                         r"neither for m = 1$", None, None, None, id="coefficients-missing"),
            pytest.param(DimensionMismatch, r"^measure shapes \[\(2,\), \(1, 1\)\] are not \(k,\) "
                         r"and \(m, k\), k <= 2$", np.ones((1, 1, 3)), np.array([1.0, 2.0, 1.0]),
                         (np.zeros(2), np.ones((1, 1))), id="measure-unequal"),
            pytest.param(DimensionMismatch, r"^measure shapes \[\(0,\), \(0, 0\)\] are not",
                         None, np.array([1.0, 2.0, 1.0]), (np.zeros(0), np.ones((0, 0))),
                         id="measure-no-ports"),
            pytest.param(DimensionMismatch, r"^measure shapes \[\(3,\), \(1, 3\)\] are not",
                         np.ones((1, 1, 3)), np.array([1.0, 2.0, 1.0]),
                         (np.zeros(3), np.ones((1, 3))), id="measure-long"),
            pytest.param(DimensionMismatch, r"^num and den are given exactly when m = 1, got num "
                         r"and den for m = 2$", np.ones((1, 1, 3)), np.array([1.0, 2.0, 1.0]),
                         (np.zeros(2), np.ones((2, 2))), id="measure-ports"),
            pytest.param(DimensionMismatch, r"^num and den are given exactly when m = 1, got num "
                         r"for m = 2$", np.ones((1, 1, 3)), None, (np.zeros(2), np.ones((2, 2))),
                         id="measure-ports-num"),
            pytest.param(DimensionMismatch, r"^measure shapes \[\] are not",
                         np.ones((1, 1, 3)), np.array([1.0, 2.0, 1.0]), (), id="measure-empty"),
            *(pytest.param(ValueError, r"^measure must be finite$", np.ones((1, 1, 3)),
                           np.array([1.0, 2.0, 1.0]), measure, id=f"measure-{name}")
              for name, measure in [
                ("not-finite", (np.array([0.0, np.inf]), np.ones((1, 2)))),
                ("weight-nan", (np.array([0.0, 1.0]), np.array([[1.0, np.nan]]))),
            ]),
            *(pytest.param(ValueError, r"^measure must be real lam ascending and cv with no "
                           r"column 0, got \(", np.ones((1, 1, 3)), np.array([1.0, 2.0, 1.0]),
                           measure, id=f"measure-{name}") for name, measure in [
                ("complex", (np.array([0.0, 1.0 + 0j]), np.ones((1, 2)))),
                ("descending", (np.array([1.0, 0.0]), np.ones((1, 2)))),
                ("weight-zero", (np.array([0.0, 1.0]), np.array([[1.0, 0.0]]))),
            ]),
            *(pytest.param(ValueError, f"^{name} must be finite$", *fields, None,
                           id=f"{name}-not-finite") for name, fields in [
                ("num", (np.full((1, 1, 2), np.nan), np.array([1.0, 1.0]))),
                ("den", (np.ones((1, 1, 2)), np.array([np.inf, 1.0]))),
            ]),
        ],
    )
    def test_constructor_refuses_broken_invariants(self, error, match, num, den, measure):
        with pytest.raises(error, match=match):
            qsysid.RationalTF(num=num, den=den, measure=measure)

    @pytest.mark.parametrize(
        "name, fields",
        [
            ("num", dict(num=[[[1, 1, 1]]], den=np.array([1.0, 2.0, 1.0]))),
            ("den", dict(num=np.ones((1, 1, 3)), den=[1, 2, 1])),
            ("measure", dict(num=np.ones((1, 1, 3)), den=np.array([1.0, 2.0, 1.0]),
                             measure=([-1.0], np.ones((1, 1))))),
        ],
        ids=["num-list", "den-list", "measure-list"],
    )
    def test_constructor_refuses_what_is_not_an_ndarray(self, name, fields):
        # only make_rational_tf converts input; a list was an AttributeError
        with pytest.raises(ValueError, match=f"^{name} must be an ndarray, got list$"):
            qsysid.RationalTF(**fields)

    def test_short_numerator_padded_and_trailing_zeros_dropped(self):
        padded = make_rational_tf([0.5], [0.5, 0.2, 1.0])
        np.testing.assert_array_equal(padded.num, [[[0.5, 0.0, 0.0]]])
        cut = make_rational_tf([0.5, -0.2, 1.0, 0.0, 0.0], [0.5, 0.2, 1.0])
        np.testing.assert_array_equal(cut.num, [[[0.5, -0.2, 1.0]]])
        with pytest.raises(DimensionMismatch, match="^numerator degree exceeds denominator"):
            make_rational_tf([0.5, -0.2, 1.0, 0.0, 1e-300], [0.5, 0.2, 1.0])

    def test_coefficients_copied_read_only(self):
        # a function is immutable: changing the caller's arrays leaves it as it was
        num = np.array([-0.4, 1.0], dtype=complex)
        den = np.array([0.4, 1.0], dtype=complex)
        tf = make_rational_tf(num, den)
        before = qsysid.direct_reconstruction(tf)
        num[0], den[0] = 7.0, 7.0
        assert tf.num[0, 0, 0] == -0.4 and tf.den[0] == 0.4
        exact = transfer_rational(chain_system())
        replaced = dataclasses.replace(exact, measure=tuple(a.copy() for a in exact.measure))
        for array in (tf.num, tf.den, exact.num, exact.den, *replaced.measure):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 7.0
        assert_params_equal(qsysid.direct_reconstruction(tf), before)


class TestPolyFromRoots:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 16, 64, 128])
    def test_matches_np_poly(self, rng, n):
        # both multiply out one factor per root; they round differently, each
        # coefficient within n eps of the same coefficient of prod (s + |r_k|)
        for _ in range(5):
            roots = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            expected = np.atleast_1d(np.poly(roots))[::-1]
            bound = n * EPS * np.abs(np.atleast_1d(np.poly(-np.abs(roots)))[::-1])
            found = poly_from_roots(roots)
            assert found.dtype == complex and found.shape == (n + 1,)
            assert found[-1] == 1.0
            assert np.all(np.abs(found - expected) <= bound)

    def test_conjugate_closed_roots_give_real_coefficients(self, rng):
        half = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        real = [0.3, -1.2]
        roots = rng.permutation(np.concatenate([half, half.conj(), real]))
        assert np.abs(poly_from_roots(roots).imag).max() == 0.0
        unpaired = np.concatenate([half, half[1:].conj(), real])
        assert np.abs(poly_from_roots(unpaired).imag).max() > 0.0


def _dataset_obj(freqs):
    one = [[{"re": 1.0, "im": 0.0}]]
    return {"freqs": list(freqs), "responses": [one] * len(freqs), "noise_sigma": 0.0}


def _dataset(freqs):
    return ProbeDataset(np.asarray(freqs), np.ones((len(freqs), 1, 1), dtype=complex), 0.0)


class TestOneGridCheck:
    """sample_response, dataset_from_obj and fit_rational refuse a bad
    grid with the same class and a message naming the argument."""

    @pytest.mark.parametrize(
        "grid, cls",
        [
            ([], NonMonotoneGrid),
            ([0.0, np.nan, 1.0], ValueError),
            ([0.0, 1.0, 1.0], NonMonotoneGrid),
            ([1.0, 0.5, 0.0], NonMonotoneGrid),
        ],
    )
    def test_bad_grid(self, grid, cls):
        sys = one_mode_system(1.0)
        for call in (
            lambda: sample_response(sys, grid),
            lambda: serialize.dataset_from_obj(_dataset_obj(grid)),
            lambda: fit_rational(_dataset(grid), 1),
        ):
            with pytest.raises(cls, match="^freqs ") as info:
                call()
            assert type(info.value) is cls

    @pytest.mark.parametrize(
        "call",
        [sample_response, lambda sys, grid: fit_rational(_dataset(grid), 1)],
        ids=["sample_response", "fit_rational"],
    )
    @pytest.mark.parametrize("grid", [[1.0 + 1.0j, 2.0], np.array([0.5, 1.0], dtype=complex)])
    def test_complex_grid_refused(self, call, grid):
        # casting to float would drop the imaginary parts with only a warning
        with pytest.raises(ValueError, match="^freqs must be real"):
            call(one_mode_system(1.0), grid)

    def test_one_point(self):
        # one frequency is a dataset
        sys = one_mode_system(1.0)
        assert sample_response(sys, [0.5]).freqs.size == 1
        assert serialize.dataset_from_obj(_dataset_obj([0.5])).freqs.size == 1


TWO_MODES = new_system(np.diag([0.0, 1.0]), [[1, 1]])
TWELVE = np.linspace(0.1, 1.2, 12)


def _fit_twelve(responses):
    return fit_rational(ProbeDataset(TWELVE, responses, 0.0), 2)


class TestOneNumberRule:
    """Every constructor checks the array its caller passed, before any cast:
    an entry that is not a number, at any depth, is refused naming the argument."""

    @pytest.mark.parametrize(
        "error, name, call",
        [
            pytest.param(ValueError, "omega", lambda: new_system(
                [["0", "0.5"], ["0.5", True]], [[True, "0"]]), id="omega str and bool"),
            pytest.param(ValueError, "omega", lambda: new_system([[0, 1], [1]], [[1, 0]]),
                         id="omega ragged"),
            pytest.param(ValueError, "omega", lambda: new_system(
                [np.zeros((2, 2)), np.zeros((2, 3))], [[1, 0]]), id="omega too ragged for NumPy"),
            pytest.param(NonMonic, "denominator", lambda: make_rational_tf([1.0], [1.0]),
                         id="den of degree 0"),
            pytest.param(ValueError, "num", lambda: make_rational_tf([True, 1.0], [1.0, 1.0]),
                         id="num bool"),
            pytest.param(ValueError, "num", lambda: make_rational_tf(["1", 1.0], [1.0, 1.0]),
                         id="num str"),
            pytest.param(ValueError, "gauge", lambda: gauge_transform(
                TWO_MODES, [[True, False], [False, True]]), id="gauge bool"),
            pytest.param(ValueError, "gauge", lambda: gauge_transform(
                TWO_MODES, [["1", "0"], ["0", "1"]]), id="gauge str"),
            pytest.param(ValueError, "coupling", lambda: new_network(
                2, [(0, 1, 1.0)], [0], coupling=[["1", "0"]]), id="coupling str"),
            pytest.param(ValueError, "detunings", lambda: new_network(
                2, [(0, 1, 1.0)], [0], detunings=[[True], [0.0]]), id="detunings nested bool"),
            pytest.param(ValueError, "freqs", lambda: sample_response(TWO_MODES, (0.5, True)),
                         id="freqs tuple bool"),
            pytest.param(ValueError, "freqs", lambda: sample_response(TWO_MODES, [[0.1], [True]]),
                         id="freqs nested bool"),
            pytest.param(ValueError, "s", lambda: make_rational_tf([1.0, 1.0], [1.0, 1.0]).eval(
                ["1", True]), id="s str and bool"),
            pytest.param(ValueError, "a0", lambda: solve_lyapunov([["-1"]], [["1"]]),
                         id="a0 str"),
            pytest.param(ValueError, "a0", lambda: solve_lyapunov([[np.nan]], [[1.0]]),
                         id="a0 nan"),
            pytest.param(DimensionMismatch, "responses", lambda: _fit_twelve(np.ones((5, 1, 1))),
                         id="5 responses for 12 freqs"),
            pytest.param(DimensionMismatch, "responses", lambda: _fit_twelve(np.ones((12, 1))),
                         id="responses of rank 2"),
            pytest.param(DimensionMismatch, "responses", lambda: _fit_twelve(np.ones((12, 1, 2))),
                         id="responses not square"),
        ],
    )
    def test_refusal_names_the_argument(self, error, name, call):
        with pytest.raises(error, match=f"^{re.escape(name)} ") as info:
            call()
        assert type(info.value) is error

    def test_int_beyond_64_bits_is_a_number(self):
        # NumPy holds 10**20 as an object, but it is well inside the float range
        data = sample_response(TWO_MODES, [1, 10**20])
        assert data.freqs.tolist() == [1.0, require_real(10**20, "w", 0.0)] == [1.0, 1e20]


FINITE = st.floats(-8.0, 8.0, allow_nan=False)
NOT_NUMBER = st.sampled_from([True, "1", None])


@st.composite
def nested_argument(draw):
    """(name, nested list of floats, call building from it): one argument of a
    constructor, the others fixed arrays."""
    name = draw(st.sampled_from(["omega", "c", "num", "den", "gauge", "freqs"]))
    n = draw(st.integers(1, 3))
    if name == "omega":
        a = draw(st.lists(st.lists(FINITE, min_size=n, max_size=n), min_size=n, max_size=n))
        value = [[a[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        return name, value, lambda v: new_system(v, np.ones((1, n)))
    if name == "c":
        row = draw(st.lists(FINITE, min_size=n, max_size=n))
        value = draw(st.sampled_from([row, [row]]))
        return name, value, lambda v: new_system(np.diag(np.arange(n, dtype=float)), v)
    if name == "num":  # one port: coefficients, or the (1, 1, n) array of them
        flat = draw(st.lists(FINITE, min_size=n, max_size=n))
        value = draw(st.sampled_from([flat, [[flat]]]))
        return name, value, lambda v: make_rational_tf(v, np.array([0.5, 0.25, 0.125, 1.0]))
    if name == "den":
        value = draw(st.lists(FINITE, min_size=n, max_size=n)) + [1.0]
        return name, value, lambda v: make_rational_tf(np.array([1.0]), v)
    if name == "gauge":
        t = draw(st.floats(-math.pi, math.pi))
        value = [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]
        return name, value, lambda v: gauge_transform(TWO_MODES, v)
    grid = sorted(draw(st.lists(st.floats(0.01, 100.0), min_size=n, max_size=n, unique=True)))
    value = draw(st.sampled_from([grid, [[w] for w in grid]]))
    return name, value, lambda v: sample_response(TWO_MODES, v)


def _bits(result) -> list:
    arrays = [v for v in vars(result).values() if isinstance(v, np.ndarray)]
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


class TestNestedListsAreArrays:
    @settings(max_examples=80, deadline=None)
    @given(nested_argument())
    def test_same_bits_as_the_array(self, case):
        _, value, call = case
        assert _bits(call(value)) == _bits(call(np.array(value)))

    @settings(max_examples=80, deadline=None)
    @given(nested_argument(), st.data())
    def test_any_entry_not_a_number_refused(self, case, data):
        name, value, call = case
        value = copy.deepcopy(value)
        target = value
        while isinstance(target[0], list):
            target = target[data.draw(st.integers(0, len(target) - 1))]
        target[data.draw(st.integers(0, len(target) - 1))] = data.draw(NOT_NUMBER)
        with pytest.raises(ValueError, match=f"^{name} must be finite numbers, got "):
            call(value)
