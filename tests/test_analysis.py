"""Reachable eigen-directions, ranks, minimality, stability."""

from functools import cached_property

import numpy as np
import pytest

from qsysid import (
    PassiveSystem,
    find_gauge,
    gauge_transform,
    markov_distinguishable,
    new_system,
    observability_matrix,
    structure_report,
)

from conftest import (
    chain_system,
    one_mode_system,
    planted_rank_system,
    random_passive,
    random_unitary,
    ring_system,
    uniform_chain,
)


def svd_rank(mat, rel=1e-10):
    sv = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(sv > sv[0] * rel)) if sv.size and sv[0] > 0 else 0


def reference_rank(sys):
    """SVD rank of the observability stack at sigma_max * max(shape) * 1e-12."""
    obs = observability_matrix(sys)
    return svd_rank(obs, max(obs.shape) * 1e-12)


class TestKrylovBasis:
    """The reachable space span{c†, omega c†, omega² c†, ...}, seen through
    the rank of :func:`structure_report` and the eigen-directions of
    ``sys.reached`` that span it."""

    def test_chain_full_rank(self):
        assert structure_report(chain_system(0.5, 0.6, 0.8)).ctrb_rank == 3

    def test_decoupled_chain_rank_one(self):
        # modes 2 and 3 unreachable once the 1-2 coupling vanishes
        assert structure_report(chain_system(0.5, 0.0, 0.8)).ctrb_rank == 1

    def test_one_mode(self):
        assert structure_report(one_mode_system(0.9)).ctrb_rank == 1

    def test_basis_spans_power_stack(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, n + 1))
            sys = planted_rank_system(rng, n, m, int(rng.integers(1, n + 1)))
            _, basis, cv, *_ = sys.reached
            np.testing.assert_allclose(
                basis.conj().T @ basis, np.eye(basis.shape[1]), atol=1e-12
            )
            np.testing.assert_allclose(cv, sys.c @ basis, atol=1e-12)
            # every block -A^k c† of the controllability stack lies in the span
            a = sys.drift
            block = sys.c.conj().T
            for _ in range(n + 1):
                outside = block - basis @ (basis.conj().T @ block)
                assert np.abs(outside).max() <= 1e-9 * max(np.abs(block).max(), 1.0)
                block = a @ block

    def test_rank_matches_observability_svd(self, rng):
        checked = 0
        for _ in range(600):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, n + 1))
            if rng.random() < 0.5:
                sys = random_passive(rng, n, m)
            else:
                sys = planted_rank_system(rng, n, m, int(rng.integers(1, n + 1)))
            assert structure_report(sys).ctrb_rank == reference_rank(sys)
            checked += 1
        assert checked >= 500

    @pytest.mark.parametrize(
        "sys",
        [
            chain_system(0.5, 0.0, 0.8),
            ring_system(0.5, 1.0, 1.0, 1.0, 1.0),
            new_system(np.zeros((2, 2)), [[1.0, 0.0]]),
        ],
        ids=["decoupled_chain", "symmetric_ring", "zero_column"],
    )
    def test_rank_matches_observability_svd_on_deficient_fixtures(self, sys):
        rank = structure_report(sys).ctrb_rank
        assert rank == reference_rank(sys)
        assert rank < sys.n

    def test_uniform_detuning_keeps_rank(self):
        # the eigenspace gap must not grow with a detuning the space ignores
        chain = uniform_chain(30)
        detuned = new_system(chain.omega + 1e11 * np.eye(30), chain.c)
        assert structure_report(detuned).ctrb_rank == 30

    def test_gauge_covariant(self, rng):
        # the directions of (T omega T†, c T†) are T times those of (omega, c),
        # each up to a phase, and their couplings c v move with the same phase
        for _ in range(10):
            n = int(rng.integers(2, 7))
            sys = random_passive(rng, n, int(rng.integers(1, n + 1)))
            t = random_unitary(rng, n)
            lam, v, cv, *_ = sys.reached
            lam2, v2, cv2, *_ = gauge_transform(sys, t).reached
            np.testing.assert_allclose(lam2, lam, atol=1e-10)
            phase = np.einsum("ik,ik->k", v2.conj(), t @ v)
            np.testing.assert_allclose(np.abs(phase), 1.0, atol=1e-10)
            np.testing.assert_allclose(v2 * phase, t @ v, atol=1e-10)
            np.testing.assert_allclose(cv2 * phase, cv, atol=1e-10)


class TestReached:
    """``sys.reached``: the PBH reduction, once per system and read-only."""

    def test_computed_once_per_system(self, rng, monkeypatch):
        # the analysis stages of one certify op: the system and its gauge copy
        # each reduce once, however many verdicts read them; the other system
        # is told apart by its c c† alone and is never reduced
        computed = []
        reduce = PassiveSystem.reached.func
        counting = cached_property(lambda sys: computed.append(sys) or reduce(sys))
        counting.__set_name__(PassiveSystem, "reached")
        monkeypatch.setattr(PassiveSystem, "reached", counting)
        sys, other = random_passive(rng, 8, 1), random_passive(rng, 8, 1)
        gauged = gauge_transform(sys, random_unitary(rng, 8))
        assert structure_report(sys).minimal
        assert find_gauge(sys, gauged).equivalent
        assert markov_distinguishable(sys, other)
        assert structure_report(gauged).minimal and not markov_distinguishable(sys, gauged)
        assert computed == [sys, gauged]

    def test_read_only_including_rotated_copies(self, rng):
        # a double eigenvalue reached by two fields is rotated onto the right
        # singular vectors of its block of c V, in the arrays of the system's
        # one eigh, which no other cached value shares; all are then read-only
        sys = new_system(np.diag([1.0, 1.0, 2.0]), rng.standard_normal((2, 3)))
        lam, v = np.linalg.eigh(sys.omega)
        reached = sys.reached
        assert reached.cluster.tolist() == [0, 0, 1]
        assert reached.lam.tobytes() == lam.tobytes()
        assert not np.allclose(reached.v, v)
        np.testing.assert_allclose(reached.v.conj().T @ reached.v, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(reached.cv, sys.c @ reached.v, atol=1e-15)
        gram = reached.cv[:, :2].conj().T @ reached.cv[:, :2]  # the rotated pair's couplings
        assert abs(gram[0, 1]) <= 1e-15 * abs(gram).max()
        for name in ("lam", "v", "cv", "cluster", "err"):
            array = getattr(reached, name)
            assert not array.flags.writeable, name
            with pytest.raises(ValueError):
                array[0] = 0
        assert sys.reached is reached and not hasattr(sys, "spectrum")


class TestObservabilityMatrix:
    def test_ring_determinant_formula(self, rng):
        # paper-family determinant: the square substack determinant magnitude
        # equals |4 kappa^2 (t1 t3 + t2 t4)^2 (t2 t3 - t1 t4)|
        for _ in range(20):
            kappa, t1, t2, t3, t4 = rng.uniform(0.3, 1.4, size=5)
            sys = ring_system(kappa, t1, t2, t3, t4)
            obs = observability_matrix(sys)
            det = np.linalg.det(obs[:4, :])
            formula = 4 * kappa**2 * (t1 * t3 + t2 * t4) ** 2 * (t2 * t3 - t1 * t4)
            assert abs(abs(det) - abs(formula)) <= 1e-8 * abs(formula)
        assert svd_rank(observability_matrix(ring_system(0.5, 0.6, 0.8, 0.7, 0.9))) == 4

    def test_ring_symmetric_weights_rank_deficient(self):
        # t2 t3 - t1 t4 = 0 kills the determinant
        sys = ring_system(0.5, 1.0, 1.0, 1.0, 1.0)
        assert svd_rank(observability_matrix(sys)) < 4

    def test_one_mode(self):
        mat = observability_matrix(one_mode_system(0.9))
        assert mat.shape == (2, 1)
        assert svd_rank(mat) == 1


class TestStructureReport:
    def test_chain_minimal_and_stable(self):
        rep = structure_report(chain_system(0.5, 0.6, 0.8))
        assert rep.minimal and rep.hurwitz
        assert rep.ctrb_rank == rep.obsv_rank == 3
        assert rep.spectral_abscissa < 0

    def test_decoupled_chain_not_minimal(self):
        rep = structure_report(chain_system(0.5, 0.0, 0.8))
        assert not rep.minimal
        assert rep.minimal == (rep.controllable and rep.observable)

    def test_controllable_iff_observable(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, n + 1))
            rep = structure_report(random_passive(rng, n, m))
            assert rep.controllable == rep.observable

    def test_minimal_implies_hurwitz(self, rng):
        seen_minimal = 0
        for _ in range(100):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, n + 1))
            rep = structure_report(random_passive(rng, n, m))
            if rep.minimal:
                seen_minimal += 1
                assert rep.spectral_abscissa < 0
        assert seen_minimal > 50

    def test_rank_gauge_invariant(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, n + 1))
            sys = random_passive(rng, n, m)
            t = random_unitary(rng, n)
            rep1 = structure_report(sys)
            rep2 = structure_report(gauge_transform(sys, t))
            assert (rep1.ctrb_rank, rep1.obsv_rank) == (rep2.ctrb_rank, rep2.obsv_rank)
            assert rep1.minimal == rep2.minimal

    def test_zero_coupling_column_not_observable(self):
        sys = new_system(np.zeros((2, 2)), [[1.0, 0.0]])
        rep = structure_report(sys)
        assert not rep.observable and not rep.minimal
        assert not rep.hurwitz

    def test_hurwitz_is_minimal(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 7))
            rep = structure_report(random_passive(rng, n, int(rng.integers(1, n + 1))))
            assert rep.hurwitz == rep.minimal

    def test_decoupled_mode_never_hurwitz_under_gauge(self, rng):
        # the mode orthogonal to the coupled one has a pole on the imaginary
        # axis; its computed abscissa is +-2e-16, so its sign is rounding
        omega = np.array([[0.5, 0.0, 0.0], [0.0, 0.3, 0.8], [0.0, 0.8, 0.1]])
        sys = new_system(omega, [[1.0, 0.0, 0.0]])
        for _ in range(200):
            rep = structure_report(gauge_transform(sys, random_unitary(rng, 3)))
            assert not rep.minimal and not rep.hurwitz
            assert abs(rep.spectral_abscissa) < 1e-12

    @pytest.mark.parametrize("n", [30, 100, 300])
    def test_uniform_chain_minimal(self, n):
        rep = structure_report(uniform_chain(n))
        assert rep.minimal
        assert rep.ctrb_rank == rep.obsv_rank == n

    def test_cut_chain_not_minimal(self):
        rep = structure_report(uniform_chain(100, cut=50))
        assert rep.ctrb_rank == rep.obsv_rank == 50
        assert not rep.minimal
