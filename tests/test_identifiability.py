"""Moment sequences, distinguishability, gauge recovery."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsysid import (
    DimensionMismatch,
    NotMinimal,
    NotUnitary,
    SingularResolvent,
    find_gauge,
    gauge_transform,
    markov_distinguishable,
    markov_sequence,
    new_system,
    structure_report,
    transfer_at,
)
from qsysid.identifiability import EQUIV_RTOL, _measure_gaps
from qsysid.serialize import verdict_to_obj

from conftest import (
    NOT_REAL,
    chain_system,
    coupling_fixing_unitary,
    planted_rank_system,
    random_passive,
    random_unitary,
    real_refusal,
    ring_system,
    tree_system,
    uniform_chain,
)


class TestMarkovSequence:
    @pytest.mark.parametrize("kmax", NOT_REAL + [2.5, -1, float("nan"), 10**400], ids=repr)
    def test_kmax_must_be_a_whole_number(self, kmax):
        with pytest.raises(ValueError, match=r"^kmax must be an integer >= 0, got "):
            markov_sequence(chain_system(), kmax)

    def test_numpy_integer_kmax_accepted(self):
        seq = markov_sequence(chain_system(), np.int64(2))
        assert seq.shape == (3, 1, 1)
        np.testing.assert_array_equal(seq, markov_sequence(chain_system(), 2))

    def test_moments_read_only(self):
        seq = markov_sequence(chain_system(), 2)
        with pytest.raises(ValueError):
            seq[0, 0, 0] = 1.0

    def test_chain_closed_forms(self):
        kappa, th1, th2 = 0.5, 0.6, 0.8
        seq = markov_sequence(chain_system(kappa, th1, th2), 4)[:, 0, 0]
        expected = [
            2 * kappa,
            0.0,
            2 * kappa * th1**2,
            0.0,
            2 * kappa * th1**2 * (th1**2 + th2**2),
        ]
        np.testing.assert_allclose(seq, expected, atol=1e-13)

    def test_tree_closed_forms(self):
        # literal moments carry the 2 kappa prefactor of |c|^2
        kappa, th1, th2, delta = 0.5, 0.6, 0.8, 0.3
        seq = markov_sequence(tree_system(kappa, th1, th2, delta), 4)[:, 0, 0]
        ssum = th1**2 + th2**2
        expected = 2 * kappa * np.array(
            [1.0, 0.0, ssum, delta * th1**2, ssum**2 + th1**2 * delta**2]
        )
        np.testing.assert_allclose(seq, expected, atol=1e-13)

    def test_zero_hamiltonian(self, rng):
        sys = random_passive(rng, 4, 2)
        sys = new_system(np.zeros((4, 4)), sys.c)
        seq = markov_sequence(sys, 3)
        np.testing.assert_allclose(seq[0], sys.c @ sys.c.conj().T, atol=1e-14)
        assert np.abs(seq[1:]).max() == 0.0

    def test_entries_hermitian(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, n + 1))
            seq = markov_sequence(random_passive(rng, n, m), 2 * n)
            for mk in seq:
                scale = max(np.abs(mk).max(), 1e-300)
                assert np.abs(mk - mk.conj().T).max() <= 1e-10 * scale


class TestMarkovDistinguishable:
    def test_sign_flip_indistinguishable(self):
        assert not markov_distinguishable(
            chain_system(0.5, 0.6, 0.8), chain_system(0.5, -0.6, 0.8)
        )

    def test_swapped_couplings_distinguishable(self):
        # k = 2 moment already differs: 2 kappa 0.36 vs 2 kappa 0.64
        assert markov_distinguishable(
            chain_system(0.5, 0.6, 0.8), chain_system(0.5, 0.8, 0.6)
        )

    def test_reflexive(self):
        sys = chain_system()
        assert not markov_distinguishable(sys, sys)

    def test_port_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            markov_distinguishable(random_passive(rng, 3, 1), random_passive(rng, 3, 2))

    @pytest.mark.parametrize("n", [32, 64])
    def test_last_edge_changed_distinguishable(self, n):
        # only the moments of order 2n - 2 and up see the last edge, where the
        # change is far below 1e-8 of the largest moment
        chain = uniform_chain(n)
        omega = chain.omega.copy()
        omega[n - 2, n - 1] = omega[n - 1, n - 2] = 1.5
        assert markov_distinguishable(chain, new_system(omega, chain.c))

    def test_unrelated_large_systems_distinguishable(self, rng):
        # the moments c omega^k c† up to k = 2n overflow at this size; the
        # first, c c†, already differs, so neither system is eigendecomposed
        sys, other = random_passive(rng, 128, 1), random_passive(rng, 128, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert markov_distinguishable(sys, other)
        assert "reached" not in sys.__dict__ and "reached" not in other.__dict__

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 12),
        m_frac=st.floats(0.0, 1.0),
        kind=st.sampled_from(["gauge", "nudged", "other"]),
        log_nudge=st.floats(-14.0, -2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_first_moment_exit_property(self, n, m_frac, kind, log_nudge, seed):
        # the c c† exit fires when no system was reduced: never for a gauge
        # copy, and only where the measure test finds a gap as well
        rng = np.random.default_rng(seed)
        m = 1 + int(m_frac * (min(n, 3) - 1))
        sys = random_passive(rng, n, m)
        if kind == "other":
            other = random_passive(rng, int(rng.integers(m, 13)), m)
        else:
            other = gauge_transform(sys, random_unitary(rng, n))
        if kind == "nudged":
            nudge = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            other = new_system(other.omega, other.c + 10**log_nudge * nudge)
        distinguishable = markov_distinguishable(sys, other)
        fired = "reached" not in sys.__dict__
        if kind == "gauge":
            assert not fired and not distinguishable
        if fired:
            assert distinguishable
            assert any(dev > EQUIV_RTOL * scale for dev, scale in _measure_gaps(sys, other))

    def test_cut_chain_compared_by_minimal_part(self):
        # the chain cut after node 50 has the transfer function of its first 50 nodes
        cut = uniform_chain(100, cut=50)
        assert not markov_distinguishable(cut, uniform_chain(50))
        assert markov_distinguishable(cut, uniform_chain(51))

    @pytest.mark.parametrize("lam", [[0.0, 5.0], [1e-6, 1e6]])
    def test_unreached_eigenvalue_sets_the_scale(self, rng, lam):
        # eigh errs on the reached eigenvalue by eps times the largest
        # eigenvalue of omega, reached or not
        sys = new_system(np.diag(lam), [[1.0, 0.0]])
        for _ in range(20):
            assert not markov_distinguishable(sys, gauge_transform(sys, random_unitary(rng, 2)))

    @pytest.mark.parametrize("detuning", [0.0, 1e6, 1e9])
    def test_uniform_detuning_hides_no_difference(self, detuning):
        # the eigenvalues 1 and 1.5 differ by half the spread, whatever the
        # common detuning: the tolerance must not scale with it
        shift = detuning * np.eye(2)
        sys1 = new_system(np.diag([0.0, 1.0]) + shift, [[1.0, 1.0]])
        sys2 = new_system(np.diag([0.0, 1.5]) + shift, [[1.0, 1.0]])
        assert markov_distinguishable(sys1, sys2)
        verdict = find_gauge(sys1, sys2)
        assert not verdict.equivalent and verdict.gauge is None
        assert verdict.residual == pytest.approx(0.5)

    @pytest.mark.parametrize("detuning", [0.0, 1e6])
    def test_detuned_gauge_copy_still_equivalent(self, rng, detuning):
        # the deviations are measured without the detuning, above eigh's rounding of it
        sys = new_system(np.diag([0.0, 1.0]) + detuning * np.eye(2), [[1.0, 1.0]])
        for _ in range(20):
            moved = gauge_transform(sys, random_unitary(rng, 2))
            assert not markov_distinguishable(sys, moved)
            assert find_gauge(sys, moved).equivalent

    def test_gauge_indistinguishable_at_n128(self, rng):
        sys = random_passive(rng, 128, 1)
        moved = gauge_transform(sys, random_unitary(rng, 128))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not markov_distinguishable(sys, moved)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 256),
        m_frac=st.floats(0.0, 1.0),
        rank_frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gauge_never_distinguishable_property(self, n, m_frac, rank_frac, seed):
        # non-minimal inputs too: the unreached eigen-directions drop out of both measures
        rng = np.random.default_rng(seed)
        m = 1 + int(m_frac * (min(n, 4) - 1))
        rank = 1 + int(rank_frac * (n - 1))
        sys = planted_rank_system(rng, n, m, rank)
        assert structure_report(sys).ctrb_rank == rank
        assert not markov_distinguishable(sys, gauge_transform(sys, random_unitary(rng, n)))

    def test_gauge_indistinguishable_planted_n64(self, rng):
        sys = planted_rank_system(rng, 64, 1, 32)
        assert not markov_distinguishable(sys, gauge_transform(sys, random_unitary(rng, 64)))


def pair_system(rng, n: int, m: int, gap: float, reached: bool):
    """Haar-rotated system with eigenvalues spread over [-1, 1], the two lowest
    ``gap`` apart; ``reached=False`` decouples the second of them."""
    lam = np.sort(rng.uniform(-1.0, 1.0, n))
    lam[1] = lam[0] + gap
    w = random_unitary(rng, n)
    c = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    if not reached:
        c[:, 1] = 0.0
    return new_system(w @ np.diag(lam) @ w.conj().T, c @ w.conj().T)


class TestNearDegeneratePair:
    # eigh turns the eigenvectors of a pair gap apart by about eps / gap
    GAPS = [1e-11, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5]

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("gap", GAPS)
    def test_unreached_partner_not_counted(self, rng, gap, m):
        for _ in range(5):
            sys = pair_system(rng, 16, m, gap, reached=False)
            moved = gauge_transform(sys, random_unitary(rng, 16))
            assert structure_report(sys).ctrb_rank == 15
            assert structure_report(moved).ctrb_rank == 15
            assert not markov_distinguishable(sys, moved)

    @pytest.mark.parametrize("gap", GAPS)
    def test_reached_pair_gauge_recovered_with_two_fields(self, rng, gap):
        for _ in range(5):
            sys = pair_system(rng, 16, 2, gap, reached=True)
            t = random_unitary(rng, 16)
            moved = gauge_transform(sys, t)
            assert structure_report(sys).minimal
            verdict = find_gauge(sys, moved)
            assert verdict.equivalent
            assert np.abs(verdict.gauge - t).max() <= 1e-8
            assert not markov_distinguishable(sys, moved)

    @pytest.mark.parametrize("gap", GAPS)
    def test_reached_pair_with_one_field(self, rng, gap):
        # ||c||² is about 32 here: a pair within about 3e-9 is one eigenspace,
        # which one field cannot fill; above that, up to about 1e-7, eigh turns
        # the pair too far for the certificate, which then refuses the gauge
        for _ in range(5):
            sys = pair_system(rng, 16, 1, gap, reached=True)
            t = random_unitary(rng, 16)
            moved = gauge_transform(sys, t)
            assert structure_report(sys).ctrb_rank == (15 if gap <= 1e-9 else 16)
            assert not markov_distinguishable(sys, moved)
            if gap <= 1e-9:
                continue
            verdict = find_gauge(sys, moved)
            assert verdict.equivalent or gap < 1e-7
            if verdict.equivalent:
                # the pair fixes T only to about eps / gap; the gauge is certified
                g = verdict.gauge
                dev_c = np.abs(sys.c @ g.conj().T - moved.c).max()
                assert dev_c <= 1e-8 * np.abs(moved.c).max()
                assert np.abs(g - t).max() <= (1e-8 if gap >= 1e-7 else 1e-6)


class TestGaugeTransform:
    def test_identity(self):
        sys = chain_system()
        out = gauge_transform(sys, np.eye(3))
        np.testing.assert_allclose(out.omega, sys.omega)
        np.testing.assert_allclose(out.c, sys.c)

    def test_diagonal_sign_flips_theta2(self):
        kappa, th1, th2 = 0.5, 0.6, 0.8
        out = gauge_transform(chain_system(kappa, th1, th2), np.diag([1.0, 1.0, -1.0]))
        np.testing.assert_allclose(out.omega, chain_system(kappa, th1, -th2).omega)
        np.testing.assert_allclose(out.c, chain_system(kappa, th1, -th2).c)

    def test_transfer_invariance(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, n + 1))
            sys = random_passive(rng, n, m)
            out = gauge_transform(sys, random_unitary(rng, n))
            for _ in range(10):
                s = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                try:
                    a, b = transfer_at(sys, s), transfer_at(out, s)
                except SingularResolvent:
                    continue
                assert np.abs(a - b).max() <= 1e-9 * max(1.0, np.abs(a).max())

    def test_not_unitary(self):
        with pytest.raises(NotUnitary):
            gauge_transform(chain_system(), np.diag([1.0, 2.0, 1.0]))

    def test_gauge_of_wrong_shape_rejected(self):
        with pytest.raises(DimensionMismatch, match=r"^gauge must be 3 x 3, got \(2, 2\)$"):
            gauge_transform(chain_system(), np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gauge_rejected(self, bad):
        # max |U U† - I| > tol is False for NaN, so finiteness is checked first
        u = np.eye(3, dtype=complex)
        u[1, 2] = bad
        with pytest.raises(ValueError, match="^gauge must be finite"):
            gauge_transform(chain_system(), u)


class TestFindGauge:
    def test_forward_construct_then_invert(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, n))
            sys1 = random_passive(rng, n, m)
            t0 = coupling_fixing_unitary(rng, sys1.c)
            sys2 = gauge_transform(sys1, t0)
            verdict = find_gauge(sys1, sys2)
            assert verdict.equivalent
            assert verdict.residual <= 1e-8 * max(1.0, np.abs(sys1.omega).max())
            # the gauge is unique for minimal systems
            np.testing.assert_allclose(verdict.gauge, t0, atol=1e-7)

    def test_chain_sign_equivalence(self):
        # flipping theta1 alone negates the couplings of modes 2 and 3:
        # Diag(1,-1,-1) sends (t1, t2) to (-t1, t2) and fixes c
        verdict = find_gauge(chain_system(0.5, 0.6, 0.8), chain_system(0.5, -0.6, 0.8))
        assert verdict.equivalent
        np.testing.assert_allclose(verdict.gauge, np.diag([1.0, -1.0, -1.0]), atol=1e-8)

    def test_chain_diagonal_sign_gauges(self):
        # each diagonal sign matrix fixes c and flips the matching couplings
        base = chain_system(0.5, 0.6, 0.8)
        cases = [
            (np.diag([1.0, -1.0, 1.0]), (-0.6, -0.8)),
            (np.diag([1.0, 1.0, -1.0]), (0.6, -0.8)),
            (np.diag([1.0, -1.0, -1.0]), (-0.6, 0.8)),
        ]
        for t, (t1, t2) in cases:
            verdict = find_gauge(base, chain_system(0.5, t1, t2))
            assert verdict.equivalent
            np.testing.assert_allclose(verdict.gauge, t, atol=1e-8)

    def test_ring_rotation_equivalence(self, rng):
        kappa, t1, t2, t3, t4 = 0.5, 0.6, 0.8, 0.7, 0.9
        angle = 0.4
        u = np.array(
            [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
        )
        t1p, t2p = u @ np.array([t1, t2])
        t3p, t4p = u @ np.array([t3, t4])
        verdict = find_gauge(
            ring_system(kappa, t1, t2, t3, t4), ring_system(kappa, t1p, t2p, t3p, t4p)
        )
        assert verdict.equivalent

    def test_distinct_systems_not_equivalent(self, rng):
        found = 0
        for _ in range(20):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, n + 1))
            sys1 = random_passive(rng, n, m)
            sys2 = random_passive(rng, n, m)
            verdict = find_gauge(sys1, sys2)
            assert not verdict.equivalent
            assert verdict.gauge is None
            found += 1
        assert found == 20

    def test_not_minimal_raises(self):
        with pytest.raises(NotMinimal):
            find_gauge(chain_system(0.5, 0.0, 0.8), chain_system(0.5, 0.6, 0.8))

    @pytest.mark.parametrize("m", [1, 4])
    def test_haar_gauge_recovered_at_n100(self, rng, m):
        sys = random_passive(rng, 100, m)
        t = random_unitary(rng, 100)
        verdict = find_gauge(sys, gauge_transform(sys, t))
        assert verdict.equivalent
        assert np.abs(verdict.gauge - t).max() <= 1e-8

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-8] + NOT_REAL)
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # a NaN tolerance would make every comparison False: not equivalent to itself
        sys = chain_system()
        with pytest.raises(ValueError, match=real_refusal("tol", "> 0", tol)):
            find_gauge(sys, sys, tol=tol)

    @pytest.mark.parametrize("tol", [np.float32(1e-6), np.int64(1)], ids=repr)
    def test_numpy_scalar_tolerance_accepted(self, tol):
        sys = chain_system()
        assert find_gauge(sys, gauge_transform(sys, np.diag([1, 1, -1])), tol).equivalent

    def test_different_port_counts_rejected(self, rng):
        with pytest.raises(DimensionMismatch, match="^port counts differ: 1 vs 2$"):
            find_gauge(random_passive(rng, 3, 1), random_passive(rng, 3, 2))

    def test_bool_tolerance_refused(self):
        # float(True) is a 100% tolerance: it would certify the paper's chain
        # (edges 0.6, 0.8) equivalent to the chain with edges 0.6, 0.85
        with pytest.raises(ValueError, match="tol must be a number, not a bool"):
            find_gauge(chain_system(), chain_system(th2=0.85), tol=True)

    def test_different_mode_counts_not_equivalent(self, rng):
        verdict = find_gauge(random_passive(rng, 3, 1), random_passive(rng, 4, 1))
        assert not verdict.equivalent
        assert verdict.gauge is None
        assert np.isfinite(verdict.residual) and verdict.residual > 0
        json.dumps(verdict_to_obj(verdict), allow_nan=False)

    @pytest.mark.parametrize(
        "lam, m",
        [([-1.0, 0.5, 0.5, 2.0], 2), ([0.7] * 5, 5)],
        ids=["double_eigenvalue", "scalar_omega"],
    )
    def test_degenerate_eigenspace_gauge_recovered(self, rng, lam, m):
        # a polar factor per eigenspace; the eigenvalues of omega = lam I split
        # in rounding unless the eigenspace gap has the ||c||² floor
        n = len(lam)
        w = random_unitary(rng, n)
        c = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        sys = new_system(w @ np.diag(lam) @ w.conj().T, c)
        for _ in range(5):
            t = random_unitary(rng, n)
            moved = gauge_transform(sys, t)
            verdict = find_gauge(sys, moved)
            assert verdict.equivalent
            assert np.abs(verdict.gauge - t).max() <= 1e-8
            assert not markov_distinguishable(sys, moved)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 6),
        m_frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gauge_round_trip_property(self, n, m_frac, seed):
        rng = np.random.default_rng(seed)
        sys = random_passive(rng, n, 1 + int(m_frac * (n - 1)))
        assume(structure_report(sys).minimal)
        t = random_unitary(rng, n)
        verdict = find_gauge(sys, gauge_transform(sys, t))
        assert verdict.equivalent
        np.testing.assert_allclose(verdict.gauge, t, atol=1e-7)


class TestMarkovTransferConsistency:
    def test_equal_moments_iff_equal_transfer(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            sys1 = random_passive(rng, n, 1)
            t0 = coupling_fixing_unitary(rng, sys1.c)
            sys2 = gauge_transform(sys1, t0)
            sys3 = random_passive(rng, n, 1)
            assert not markov_distinguishable(sys1, sys2)
            assert markov_distinguishable(sys1, sys3)
            for pair, equal in (((sys1, sys2), True), ((sys1, sys3), False)):
                agree = True
                for _ in range(20):
                    s = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                    try:
                        a = transfer_at(pair[0], s)
                        b = transfer_at(pair[1], s)
                    except SingularResolvent:
                        continue
                    if np.abs(a - b).max() > 1e-8 * max(1.0, np.abs(a).max()):
                        agree = False
                assert agree == equal
