"""Frequency-response sampling, rational fitting, end-to-end pipeline."""

import numpy as np
import pytest

from qsysid import (
    DimensionMismatch,
    InsufficientData,
    NonMonotoneGrid,
    NotHurwitz,
    NotPassiveTF,
    QsysidError,
    companion_realization,
    eigenvalues_from_canonical,
    fit_rational,
    gauge_transform,
    identify_pipeline,
    make_rational_tf,
    new_system,
    reconstruct_passive,
    sample_response,
    transfer_at,
    transfer_rational,
)
from qsysid.probe import ProbeDataset

from conftest import (
    NOT_REAL,
    chain_system,
    coupling_fixing_unitary,
    one_mode_system,
    random_single_node_siso,
    random_unitary,
    real_refusal,
)


def dataset_from_tf(tf, freqs, noise_sigma=0.0, seed=0):
    """Sample an arbitrary rational function, not necessarily passive."""
    responses = np.array([tf.eval(1j * w) for w in freqs])
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        responses = responses + noise_sigma * (
            rng.standard_normal(responses.shape)
            + 1j * rng.standard_normal(responses.shape)
        )
    return ProbeDataset(
        freqs=np.asarray(freqs, dtype=float),
        responses=responses,
        noise_sigma=noise_sigma,
        seed=seed,
    )


class TestSampleResponse:
    def test_noiseless_equals_transfer(self):
        sys = chain_system()
        freqs = np.geomspace(0.01, 100.0, 25)
        data = sample_response(sys, freqs)
        for w, resp in zip(data.freqs, data.responses):
            np.testing.assert_allclose(resp, transfer_at(sys, 1j * w), atol=1e-14)

    def test_noiseless_unit_singular_values(self, rng):
        sys = chain_system()
        data = sample_response(sys, np.geomspace(0.05, 50.0, 20))
        for resp in data.responses:
            sv = np.linalg.svd(resp, compute_uv=False)
            np.testing.assert_allclose(sv, np.ones_like(sv), atol=1e-10)

    def test_seed_determinism(self):
        sys = chain_system()
        freqs = np.geomspace(0.1, 10.0, 30)
        d1 = sample_response(sys, freqs, noise_sigma=1e-3, seed=42)
        d2 = sample_response(sys, freqs, noise_sigma=1e-3, seed=42)
        np.testing.assert_array_equal(d1.responses, d2.responses)
        d3 = sample_response(sys, freqs, noise_sigma=1e-3, seed=43)
        assert np.abs(d1.responses - d3.responses).max() > 0

    def test_unstable_rejected(self):
        sys = new_system(np.zeros((2, 2)), [[1.0, 0.0]])
        with pytest.raises(NotHurwitz):
            sample_response(sys, [0.1, 1.0])

    def test_non_minimal_rejected_in_every_gauge(self):
        # the decoupled pair rounds its abscissa to either sign; the PBH rank
        # sees it whatever the gauge
        rng = np.random.default_rng(0)
        sys = new_system([[0.5, 0, 0], [0, 0.3, 0.8], [0, 0.8, 0.1]], [[1.0, 0, 0]])
        for _ in range(200):
            moved = gauge_transform(sys, random_unitary(rng, 3))
            with pytest.raises(NotHurwitz, match="reach 1 of 3 modes"):
                sample_response(moved, [0.1, 1.0])

    def test_non_finite_sigma_rejected(self):
        with pytest.raises(ValueError, match="^noise_sigma must be finite"):
            sample_response(chain_system(), [0.1, 1.0], noise_sigma=np.nan)

    @pytest.mark.parametrize("sigma", NOT_REAL + [-0.1, 10**400], ids=repr)
    def test_sigma_must_be_a_real_scalar(self, sigma):
        with pytest.raises(ValueError, match=real_refusal("noise_sigma", ">= 0", sigma)):
            sample_response(chain_system(), [0.1, 1.0], noise_sigma=sigma)

    @pytest.mark.parametrize("sigma", [np.float32(1e-3), np.int64(0)], ids=repr)
    def test_numpy_scalar_sigma_accepted(self, sigma):
        data = sample_response(chain_system(), [0.1, 1.0], noise_sigma=sigma, seed=4)
        assert type(data.noise_sigma) is float and data.noise_sigma == sigma
        same = sample_response(chain_system(), [0.1, 1.0], noise_sigma=float(sigma), seed=4)
        np.testing.assert_array_equal(data.responses, same.responses)

    @pytest.mark.parametrize("seed", NOT_REAL + [2.7, -1, 10**400], ids=repr)
    def test_seed_must_be_a_whole_number(self, seed):
        # without noise the seed draws nothing, yet the dataset keeps and writes it
        with pytest.raises(ValueError, match="^seed must be an integer >= 0, got "):
            sample_response(chain_system(), [0.1, 1.0], seed=seed)

    def test_numpy_integer_seed_kept_as_int(self):
        data = sample_response(chain_system(), [0.1, 1.0], noise_sigma=1e-3, seed=np.int64(4))
        assert data.seed == 4 and type(data.seed) is int
        same = sample_response(chain_system(), [0.1, 1.0], noise_sigma=1e-3, seed=4)
        np.testing.assert_array_equal(data.responses, same.responses)

    @pytest.mark.parametrize("seed", [2**60 + 1, np.uint64(2**64 - 1)], ids=repr)
    def test_big_integer_seed_kept_exactly(self, seed):
        # a seed beyond 2^53 is not rounded through its float onto a neighbour's data
        data = sample_response(chain_system(), [0.1, 1.0], noise_sigma=1e-3, seed=seed)
        assert data.seed == int(seed) and type(data.seed) is int
        near = sample_response(chain_system(), [0.1, 1.0], noise_sigma=1e-3, seed=int(seed) - 1)
        assert not np.array_equal(data.responses, near.responses)

    def test_non_finite_frequency_rejected(self):
        with pytest.raises(ValueError, match="^freqs must be finite"):
            sample_response(chain_system(), [0.1, np.nan, 1.0])

    @pytest.mark.parametrize("sigma", [True, False, np.True_])
    def test_bool_sigma_rejected(self, sigma):
        # float(True) is 1.0: a flag passed by mistake must not become the noise
        with pytest.raises(ValueError, match="^noise_sigma must be a number, not a bool"):
            sample_response(chain_system(), [0.1, 1.0], noise_sigma=sigma)

    def test_one_eigendecomposition_per_system(self, monkeypatch):
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a) or eigvals(a))
        sample_response(chain_system(), np.geomspace(0.01, 100.0, 200))
        assert len(calls) == 1


class TestFitRational:
    def test_multiport_data_rejected(self):
        freqs = np.geomspace(0.1, 10.0, 20)
        data = ProbeDataset(freqs=freqs, responses=np.ones((20, 2, 2), complex), noise_sigma=0.0)
        with pytest.raises(DimensionMismatch, match="^fit requires single-port data, got m = 2$"):
            fit_rational(data, 1)

    @pytest.mark.parametrize("field", ["freqs", "responses"])
    def test_dataset_of_lists_refused(self, field):
        # only sample_response and the file reader convert input: a nested
        # list of responses made .m, and so the fit, raise AttributeError
        data = sample_response(chain_system(), np.geomspace(0.01, 100.0, 40))
        fields = dict(freqs=data.freqs, responses=data.responses, noise_sigma=0.0)
        fields[field] = fields[field].tolist()
        with pytest.raises(ValueError, match=f"^{field} must be an ndarray, got list$"):
            ProbeDataset(**fields)

    def test_non_finite_response_rejected(self):
        data = sample_response(chain_system(), np.geomspace(0.01, 100.0, 40))
        responses = data.responses.copy()
        responses[3, 0, 0] = np.nan
        bad = ProbeDataset(freqs=data.freqs, responses=responses, noise_sigma=0.0)
        with pytest.raises(ValueError, match="^responses must be finite"):
            fit_rational(bad, 3)

    def test_non_finite_frequency_rejected(self):
        data = sample_response(chain_system(), np.geomspace(0.01, 100.0, 40))
        freqs = data.freqs.copy()
        freqs[3] = np.nan
        bad = ProbeDataset(freqs=freqs, responses=data.responses, noise_sigma=0.0)
        with pytest.raises(ValueError, match="^freqs must be finite"):
            fit_rational(bad, 3)

    @pytest.mark.parametrize(
        "reorder",
        [lambda f: f[::-1], lambda f: np.repeat(f[::2], 2)],
        ids=["decreasing", "repeated"],
    )
    def test_non_increasing_grid_rejected(self, reorder):
        data = sample_response(chain_system(), np.geomspace(0.01, 100.0, 40))
        bad = ProbeDataset(
            freqs=reorder(data.freqs), responses=data.responses, noise_sigma=0.0
        )
        with pytest.raises(NonMonotoneGrid):
            fit_rational(bad, 3)

    @pytest.mark.parametrize("sigma", [0.0, 1e-4])
    def test_numerator_monic_by_construction(self, sigma):
        # Xi(inf) = 1 for every passive system, so the fit does not estimate it
        data = sample_response(chain_system(), np.geomspace(0.01, 100.0, 200), sigma, seed=3)
        fit = fit_rational(data, 3)
        assert fit.tf.num[0, 0, -1] == 1.0
        assert fit.tf.den[-1] == 1.0

    def test_noiseless_chain_recovers_coefficients(self):
        kappa, th1, th2 = 0.5, 0.6, 0.8
        sys = chain_system(kappa, th1, th2)
        data = sample_response(sys, np.geomspace(0.01, 100.0, 50))
        fit = fit_rational(data, 3)
        truth = transfer_rational(sys)
        np.testing.assert_allclose(fit.tf.den, truth.den, atol=1e-6)
        np.testing.assert_allclose(fit.tf.num[0, 0], truth.num[0, 0], atol=1e-6)
        assert fit.rms_residual < 1e-8
        assert fit.converged is True and fit.iterations < 6

    def test_noiseless_one_mode_exact(self):
        kappa = 0.8
        sys = one_mode_system(kappa)
        data = sample_response(sys, np.geomspace(0.01, 100.0, 20))
        fit = fit_rational(data, 1)
        np.testing.assert_allclose(fit.tf.den, [kappa / 2, 1.0], atol=1e-9)
        np.testing.assert_allclose(fit.tf.num[0, 0], [-kappa / 2, 1.0], atol=1e-9)

    def test_noisy_median_coefficient_error(self):
        # empirical target, median over 20 seeds
        sys = chain_system(0.5, 0.6, 0.8)
        freqs = np.geomspace(0.01, 100.0, 200)
        truth = transfer_rational(sys)
        errors = []
        for seed in range(20):
            data = sample_response(sys, freqs, noise_sigma=1e-4, seed=seed)
            fit = fit_rational(data, 3)
            errors.append(
                max(
                    np.abs(fit.tf.den - truth.den).max(),
                    np.abs(fit.tf.num[0, 0] - truth.num[0, 0]).max(),
                )
            )
        assert np.median(errors) < 1e-2

    @pytest.mark.parametrize(
        "draw, iterations, converged",
        # draw 0 stops at the cap without meeting the change test; draw 5
        # meets it on the last pass, so only the flag tells the two apart
        [(0, 6, False), (5, 6, True)],
    )
    def test_converged_flag_at_the_cap(self, draw, iterations, converged):
        sys = random_single_node_siso(np.random.default_rng(draw), 4)
        data = sample_response(sys, np.geomspace(0.01, 100.0, 200), 1e-4, seed=draw)
        fit = fit_rational(data, 4)
        assert (fit.iterations, fit.converged) == (iterations, converged)

    def test_insufficient_data(self):
        sys = chain_system()
        data = sample_response(sys, np.geomspace(0.1, 10.0, 10))
        with pytest.raises(InsufficientData):
            fit_rational(data, 3)

    def test_clustered_grid_insufficient_data(self):
        # 20 samples within 1e-6 of each other pin down only 3 coefficients
        sys = chain_system()
        data = sample_response(sys, np.linspace(1.0, 1.0 + 1e-6, 20))
        with pytest.raises(InsufficientData, match="determine 3 of the 6"):
            fit_rational(data, 3)

    @pytest.mark.parametrize("degree", [2.5, True, 0, -1, np.nan] + NOT_REAL[1:])
    def test_bad_degree_rejected(self, degree):
        data = sample_response(chain_system(), np.geomspace(0.01, 100.0, 40))
        with pytest.raises(ValueError, match="^degree must be an integer >= 1"):
            fit_rational(data, degree)
        with pytest.raises(ValueError, match="^degree must be an integer >= 1"):
            identify_pipeline(data, degree)

    @pytest.mark.parametrize("degree", [np.int64(3), np.float32(3.0)], ids=repr)
    def test_numpy_scalar_degree_accepted(self, degree):
        data = sample_response(chain_system(), np.geomspace(0.01, 100.0, 40))
        fit = fit_rational(data, degree)
        np.testing.assert_array_equal(fit.tf.num, fit_rational(data, 3).tf.num)


class TestIdentifyPipeline:
    def test_noiseless_chain(self):
        kappa = 0.5
        sys = chain_system(kappa, 0.6, 0.8)
        data = sample_response(sys, np.geomspace(0.01, 100.0, 60))
        rebuilt, params, fit = identify_pipeline(data, 3)
        assert params.theta == pytest.approx(2 * kappa, abs=1e-6)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(rebuilt.omega), [-1.0, 0.0, 1.0], atol=1e-6
        )

    def test_noiseless_two_node(self):
        a0, a1 = 2.0, 0.3
        sys = new_system(
            [[0.0, np.sqrt(a0)], [np.sqrt(a0), 0.0]],
            [[np.sqrt(2 * a1), 0.0]],
        )
        data = sample_response(sys, np.geomspace(0.01, 100.0, 40))
        rebuilt, params, _ = identify_pipeline(data, 2)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(rebuilt.omega),
            [-np.sqrt(a0), np.sqrt(a0)],
            atol=1e-6,
        )
        assert np.linalg.norm(rebuilt.c) == pytest.approx(np.sqrt(2 * a1), abs=1e-6)
        assert params.theta == pytest.approx(2 * a1, abs=1e-6)

    def test_non_passive_function_rejected(self):
        # c1 != -2 a1 cannot come from a passive system
        a0, a1, c1 = 2.0, 0.3, -0.45
        tf = make_rational_tf([a0, a1 + c1, 1.0], [a0, a1, 1.0])
        data = dataset_from_tf(tf, np.geomspace(0.01, 100.0, 40))
        with pytest.raises(NotPassiveTF):
            identify_pipeline(data, 2)

    def test_noisy_fit_root_off_axis_by_its_own_width_rejected(self):
        # a fit that left num's leading coefficient free gave this degree-4 fit
        # of the draw below at sigma = 1e-4, with that coefficient
        # 1 - 6e-6 + 2e-4j; it is set to 1 here, and the realization never
        # reads it. A zero of num lies 5.6e-2 from the mirror of its pole,
        # beyond that mode's width 4.1e-2, though inside tol times the
        # spectral scale; accepted, such a fit gave eigenvalues off by 1.3,
        # far outside the noise
        num = [
            1.865189581343622 - 0.8363811868416955j,
            -1.1581211793215307 - 0.25667439038203366j,
            4.468521877033311 - 0.5882372894552849j,
            -0.9045578054919309 - 0.1758285767132553j,
            1.0,
        ]
        den = [
            1.9403389311012778 + 0.643467088705297j,
            1.3942152972003057 - 0.2824607711983715j,
            4.545644764573164 + 0.47820667219895896j,
            0.9913226499102473 - 0.17605777604673273j,
            1.0,
        ]
        tol = 0.018622321642699988  # max(1e-7, 100 rms) of that fit
        with pytest.raises(NotPassiveTF, match="beyond its width 4.093e-02"):
            reconstruct_passive(companion_realization(make_rational_tf(num, den)), tol)
        # the monic fit of the same data is refused too
        sys = random_single_node_siso(np.random.default_rng(4), 4)
        rho = np.abs(sys.poles).max()
        freqs = np.geomspace(0.01 * rho, 100.0 * rho, 60)
        data = sample_response(sys, freqs, noise_sigma=1e-4, seed=4)
        with pytest.raises(NotPassiveTF):
            identify_pipeline(data, 4)

    @pytest.mark.parametrize("sigma", [0.0, 1e-4])
    @pytest.mark.parametrize(
        "num",
        [[2.0, -0.3, v] for v in (2.0, 1.1, 1.01, 0.5)] + [[1.8, -0.27, 0.9]],
        ids=["xi_inf_2", "xi_inf_1.1", "xi_inf_1.01", "xi_inf_0.5", "scaled_0.9"],
    )
    def test_direct_term_not_one_rejected(self, num, sigma):
        # the passive two-node function has num = [2, -0.3, 1] over this den;
        # a fit that holds Xi(inf) = 1 must not turn these into passive ones
        tf = make_rational_tf(num, [2.0, 0.3, 1.0])
        data = dataset_from_tf(tf, np.geomspace(0.01, 100.0, 40), sigma, seed=0)
        with pytest.raises(QsysidError):
            identify_pipeline(data, 2)

    def test_noisy_chain_near_the_axis_bound_recovered(self):
        # the paper's chain at sigma = 1e-4 with this noise stream: a fit of
        # num's leading coefficient put Xi = -1 6.3e-3 off the imaginary axis,
        # beyond the bound 5.9e-3, and was refused; the monic fit recovers the
        # spectrum within the 100 sigma tolerance
        sys = chain_system()
        data = sample_response(sys, np.geomspace(0.01, 100.0, 200), 1e-4, seed=606842042)
        rebuilt, params, _ = identify_pipeline(data, 3)
        truth = [-1.0, 0.0, 1.0]
        np.testing.assert_allclose(np.linalg.eigvalsh(rebuilt.omega), truth, atol=1e-2)
        np.testing.assert_allclose(eigenvalues_from_canonical(params), truth, atol=1e-2)
        assert params.theta == pytest.approx(1.0, abs=1e-2)

    @pytest.mark.parametrize("seed, n", [(65, 5), (66, 6)])
    def test_noiseless_random_systems_recovered_on_positive_grid(self, seed, n):
        # a well-determined design of large condition number is fitted, not
        # refused: every eigenvalue comes back on the positive-only grid
        rng = np.random.default_rng(seed)
        for _ in range(10):
            sys = random_single_node_siso(rng, n)
            rho = np.abs(sys.poles).max()
            data = sample_response(sys, np.geomspace(0.01 * rho, 100.0 * rho, 200))
            rebuilt, _, _ = identify_pipeline(data, n)
            err = np.abs(
                np.linalg.eigvalsh(rebuilt.omega) - np.linalg.eigvalsh(sys.omega)
            ).max()
            assert err <= 1e-6 * rho

    def test_noiseless_random_systems_consistent(self, rng):
        # complex Hamiltonians put resonances at both signs of omega, so the
        # informative grid is two-sided
        for _ in range(8):
            n = int(rng.integers(1, 6))
            sys = random_single_node_siso(rng, n)
            rho = np.abs(np.linalg.eigvals(sys.drift)).max()
            half = np.geomspace(0.02 * rho, 8.0 * rho, 15 * n + 15)
            data = sample_response(sys, np.concatenate([-half[::-1], half]))
            rebuilt, _, _ = identify_pipeline(data, n)
            held_out = rho * np.geomspace(0.05, 5.0, 17)
            for w in np.concatenate([-held_out, held_out]):
                a = transfer_at(sys, 1j * w)[0, 0]
                b = transfer_at(rebuilt, 1j * w)[0, 0]
                assert abs(a - b) <= 1e-6

    def test_monotone_noise_degradation(self):
        sys = chain_system(0.5, 0.6, 0.8)
        freqs = np.geomspace(0.01, 100.0, 200)
        truth = transfer_rational(sys)
        medians = []
        for sigma in [0.0, 1e-5, 1e-4, 1e-3]:
            errors = []
            for seed in range(20):
                data = sample_response(sys, freqs, noise_sigma=sigma, seed=seed)
                fit = fit_rational(data, 3)
                errors.append(np.abs(fit.tf.den - truth.den).max())
            medians.append(np.median(errors))
        assert all(a <= b * (1 + 1e-9) for a, b in zip(medians, medians[1:]))

    def test_gauge_blind_estimation(self, rng):
        sys = random_single_node_siso(rng, 3)
        t = coupling_fixing_unitary(rng, sys.c)
        moved = gauge_transform(sys, t)
        freqs = np.geomspace(0.01, 100.0, 80)
        fit1 = fit_rational(sample_response(sys, freqs, 1e-4, seed=7), 3)
        fit2 = fit_rational(sample_response(moved, freqs, 1e-4, seed=7), 3)
        # same transfer function and same noise stream: fits agree to the
        # floating-point noise of the gauge rotation
        np.testing.assert_allclose(fit1.tf.den, fit2.tf.den, atol=1e-9)
        np.testing.assert_allclose(fit1.tf.num, fit2.tf.num, atol=1e-9)
        assert fit1.iterations == fit2.iterations
