"""Network Hamiltonians, infection closure, identifiability verdict."""

import re

import numpy as np
import pytest

from qsysid import (
    InfectionTrace,
    InvalidNetwork,
    find_gauge,
    gauge_transform,
    infection_closure,
    infection_identifiability_verdict,
    markov_distinguishable,
    new_network,
    omega_from_network,
    structure_report,
)

from conftest import chain_system, coupling_fixing_unitary, tree_system


def chain_network(kappa=0.5, th1=0.6, th2=0.8):
    return new_network(
        3,
        [(0, 1, th1), (1, 2, th2)],
        [0],
        coupling=[[np.sqrt(2 * kappa), 0.0, 0.0]],
    )


def tree_network(kappa=0.5, th1=0.6, th2=0.8, delta=0.3):
    return new_network(
        3,
        [(0, 1, th1), (0, 2, th2)],
        [0],
        coupling=[[np.sqrt(2 * kappa), 0.0, 0.0]],
        detunings=[0.0, delta, 0.0],
    )


def ring_network(kappa=0.5, th1=0.6, th2=0.8, th3=0.7, th4=0.9):
    return new_network(
        4,
        [(0, 1, th1), (0, 2, th2), (1, 3, th3), (2, 3, th4)],
        [0],
        coupling=[[np.sqrt(2 * kappa), 0.0, 0.0, 0.0]],
    )


def random_network(rng, n, p_edge=0.4, p_zero=0.0):
    """Random connected-ish graph with random weights and accessible set; an
    edge is kept structural, with weight zero, with probability ``p_zero``."""
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p_edge:
                w = float(rng.uniform(0.5, 2.0) * rng.choice([-1, 1]))
                if p_zero and rng.random() < p_zero:
                    w = 0.0
                edges.append((i, j, w))
    if not edges:
        edges.append((0, 1, 1.0))
    k = int(rng.integers(1, n))
    accessible = sorted(rng.choice(n, size=k, replace=False).tolist())
    return new_network(n, edges, accessible)


def descending_closure(net):
    """infection_closure with the descending scan: the ascending scan of the
    network relabelled v -> n - 1 - v visits the original vertices in
    exactly the descending order, so its trace, mapped back, is that scan's."""
    n = net.n
    mirror = new_network(
        n,
        [(n - 1 - i, n - 1 - j, w) for i, j, w in net.edges],
        [n - 1 - v for v in net.accessible],
        coupling=net.coupling[:, ::-1],
        detunings=None if net.detunings is None else net.detunings[::-1],
    )
    trace = infection_closure(mirror)
    return InfectionTrace(
        infecting=trace.infecting,
        steps=tuple((n - 1 - u, n - 1 - v) for u, v in trace.steps),
        residual=tuple(sorted(n - 1 - v for v in trace.residual)),
    )


def full_scan_closure(net, reverse_scan=False):
    """Oracle for infection_closure: each pass scans every infected vertex."""
    adj = [set() for _ in range(net.n)]
    for i, j, _ in net.edges:
        adj[i].add(j)
        adj[j].add(i)
    infected = set(net.accessible)
    steps = []
    progress = True
    while progress:
        progress = False
        for v in sorted(infected, reverse=reverse_scan):
            open_nbrs = [u for u in adj[v] if u not in infected]
            if len(open_nbrs) == 1:
                infected.add(open_nbrs[0])
                steps.append((open_nbrs[0], v))
                progress = True
    return tuple(steps), tuple(v for v in range(net.n) if v not in infected)


class TestOmegaFromNetwork:
    def test_chain_matches_example(self):
        sys = omega_from_network(chain_network())
        np.testing.assert_allclose(sys.omega, chain_system().omega, atol=1e-15)
        np.testing.assert_allclose(sys.c, chain_system().c, atol=1e-15)

    def test_tree_with_detuning(self):
        sys = omega_from_network(tree_network())
        np.testing.assert_allclose(sys.omega, tree_system().omega, atol=1e-15)

    def test_empty_edges(self):
        sys = omega_from_network(new_network(3, [], [0, 1, 2]))
        np.testing.assert_allclose(sys.omega, np.zeros((3, 3)))

    def test_always_real_symmetric(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            sys = omega_from_network(random_network(rng, n))
            assert np.abs(sys.omega.imag).max() == 0.0
            np.testing.assert_allclose(sys.omega, sys.omega.T)

    def test_invalid_networks_rejected(self):
        with pytest.raises(InvalidNetwork):
            new_network(3, [(0, 0, 1.0)], [0])
        with pytest.raises(InvalidNetwork):
            new_network(3, [(0, 1, 1.0)], [])
        with pytest.raises(InvalidNetwork):
            new_network(3, [(0, 1, 1.0 + 0.5j)], [0])
        with pytest.raises(InvalidNetwork):
            new_network(3, [(0, 1, 1.0)], [0], coupling=[[1.0, 0.5, 0.0]])

    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            ((0, [], [0]), {}, "need at least one vertex"),
            ((3, [(0, 3, 1.0)], [0]), {}, "edge (0, 3) out of range for n=3"),
            ((3, [(0, 1, 1.0), (1, 0, 2.0)], [0]), {}, "duplicate edge (0, 1)"),
            ((3, [(0, 1, 1.0)], [0, 3]), {}, "accessible vertices (0, 3) out of range"),
            (
                (3, [(0, 1, 1.0)], [0]),
                {"coupling": [[1.0, 0.0]]},
                "coupling must have 3 columns, got (1, 2)",
            ),
            (
                (3, [(0, 1, 1.0)], [0, 1]),
                {"coupling": [[1.0, 1.0, 0.0]]},
                "c†c restricted to the accessible set is not positive",
            ),
            ((-1, [], [0]), {}, "need at least one vertex"),
            ((3, [(-1, 1, 1.0)], [0]), {}, "edge (-1, 1) out of range for n=3"),
            ((3, [(0, 1, 1.0)], [-1]), {}, "accessible vertices (-1,) out of range"),
            ((2, [(1, 0, np.complex64(1 + 1j))], [0]), {}, "edge (0, 1) has complex weight (1+1j)"),
            # edges are refused in order, whatever fault a later edge has
            ((3, [(0, 5, 1.0), (1, 2.5, 1.0)], [0]), {}, "edge (0, 5) out of range for n=3"),
            ((3, [(0, 5, 1.0), (1, 2)], [0]), {}, "edge (0, 5) out of range for n=3"),
            ((3, [(1, 2**60 + 1, 1.0)], [0]), {},
             "edge (1, 1152921504606846977) out of range for n=3"),
        ],
    )
    def test_refusal_names_its_cause(self, args, kwargs, message):
        with pytest.raises(InvalidNetwork, match=f"^{re.escape(message)}$"):
            new_network(*args, **kwargs)

    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            ((3.9, [(0, 1, 1.0)], [0]), {}, "n must be an integer, got 3.9"),
            ((True, [], [0]), {}, "n must be an integer, got True"),
            ((3, [(0, 1.5, 1.0)], [0]), {}, "edge index must be an integer, got 1.5"),
            ((3, [("0", 1, 1.0)], [0]), {}, "edge index must be an integer, got '0'"),
            ((3, [(0, 1, "1.0")], [0]), {}, "edge weights must be finite numbers, got ['1.0']"),
            ((3, [(0, 1, 0.5), (1, 2, True)], [0]), {},
             "edge weights must be finite numbers, got [0.5, True]"),
            ((3, [(0, 1, 1.0)], [0.5]), {}, "accessible vertex must be an integer, got 0.5"),
            ((3, [(0, 1, 1.0)], [0]), {"detunings": ["0", 0, 0]},
             "detunings must be finite numbers, got ['0', 0, 0]"),
            ((3, [(0, 1, 1.0)], [0]), {"detunings": [True, False, False]},
             "detunings must be finite numbers, got [True, False, False]"),
            ((2, [(0, 1, 1.0)], [0]), {"detunings": [[True], [0.0]]},
             "detunings must be finite numbers, got [[True], [0.0]]"),
            ((2, [(0, 1, 1.0)], [0]), {"coupling": [["1", "0"]]},
             "coupling must be finite numbers, got [['1', '0']]"),
            ((2, [(0, 1, 1.0)], [0]), {"detunings": [1 + 2j, 0]},
             "detunings must be real, got complex values"),
        ],
        ids=repr,
    )
    def test_value_refusal_names_its_field(self, args, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            new_network(*args, **kwargs)

    def test_whole_numbers_of_any_real_type_accepted(self):
        net = new_network(np.int64(3), [(0.0, np.int32(1), 1), (1, 2, 0.8 + 0j)], [np.uint8(0)])
        assert net.n == 3 and type(net.n) is int
        assert net.edges == ((0, 1, 1.0), (1, 2, 0.8))
        assert [type(x) for edge in net.edges for x in edge] == [int, int, float] * 2
        assert net.accessible == (0,) and type(net.accessible[0]) is int
        net = new_network(2, [(0, 1, 1.0)], [0], detunings=np.array([0.5 + 0j, 0]))
        assert net.detunings.dtype == float and net.detunings.tolist() == [0.5, 0.0]

    def test_each_edge_read_once(self):
        # an edge may be a one-shot iterator; one that is not three values is
        # refused as unpacking refuses it, after the edges before it
        edges = [(0, 1, 0.5), (2, 1, 1.5)]
        assert new_network(3, (iter(e) for e in edges), [0]).edges == ((0, 1, 0.5), (1, 2, 1.5))
        with pytest.raises(ValueError, match=r"^not enough values to unpack \(expected 3, got 2\)$"):
            new_network(3, [iter((0, 1, 0.5)), iter((1, 2))], [0])
        with pytest.raises(InvalidNetwork, match=r"^duplicate edge \(0, 1\)$"):
            new_network(3, [(0, 1, 0.5), (1, 0, 0.5), 7], [0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_edge_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="^edge weights must be finite"):
            new_network(3, [(0, 1, 0.6), (1, 2, bad)], [0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coupling_rejected(self, bad):
        with pytest.raises(ValueError, match="^coupling must be finite"):
            new_network(3, [(0, 1, 0.6), (1, 2, 0.8)], [0], coupling=[[bad, 0.0, 0.0]])

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_detunings_rejected(self, bad):
        with pytest.raises(ValueError, match="^detunings must be finite"):
            new_network(3, [(0, 1, 0.6), (1, 2, 0.8)], [0], detunings=[0.0, bad, 0.0])

    def test_one_system_per_network(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
        net = chain_network()
        sys = omega_from_network(net)
        assert structure_report(sys).minimal
        assert infection_identifiability_verdict(net).identifiable_by_infection
        assert omega_from_network(net) is sys
        assert len(calls) == 1
        assert not sys.omega.flags.writeable

    def test_networks_compare_and_hash_by_identity(self):
        # a generated __eq__ and __hash__ would compare the coupling array,
        # raising ValueError for ==, in, and TypeError for hash
        net = new_network(3, [(0, 1, 0.6), (1, 2, 0.8)], [0, 1])
        other = new_network(3, [(0, 1, 0.6), (1, 2, 0.8)], [0, 1])
        assert (net == net) is True
        assert (net == other) is False
        assert net not in [other]
        assert net in [other, net]
        assert hash(net) == hash(net)
        assert len({net, other}) == 2

    @pytest.mark.parametrize("detunings", [[0.1, 0.2], [0.1, 0.2, 0.3, 0.4], 0.1])
    def test_detunings_of_wrong_length_rejected(self, detunings):
        size = np.size(detunings)
        with pytest.raises(InvalidNetwork, match=f"^detunings must have 3 entries, got {size}$"):
            new_network(3, [(0, 1, 0.6), (1, 2, 0.8)], [0], detunings=detunings)

    def test_detunings_copied_read_only(self):
        detunings = np.array([0.0, 0.3, 0.0])
        net = new_network(3, [(0, 1, 0.6), (0, 2, 0.8)], [0], detunings=detunings)
        detunings[1] = 5.0
        assert net.detunings[1] == 0.3
        assert not net.detunings.flags.writeable


class TestInfectionClosure:
    def test_chain_infecting(self):
        trace = infection_closure(chain_network())
        assert trace.infecting
        assert trace.steps == ((1, 0), (2, 1))
        assert trace.residual == ()

    def test_tree_not_infecting(self):
        # node 0 keeps two uninfected neighbours forever
        trace = infection_closure(tree_network())
        assert not trace.infecting
        assert set(trace.residual) == {1, 2}

    def test_ring_not_infecting(self):
        trace = infection_closure(ring_network())
        assert not trace.infecting
        assert set(trace.residual) == {1, 2, 3}

    def test_steps_respect_single_neighbour_rule(self, rng):
        for _ in range(50):
            net = random_network(rng, int(rng.integers(2, 9)))
            trace = infection_closure(net)
            adj = [set() for _ in range(net.n)]
            for i, j, _ in net.edges:
                adj[i].add(j)
                adj[j].add(i)
            infected = set(net.accessible)
            for newly, via in trace.steps:
                assert via in infected
                open_nbrs = [u for u in adj[via] if u not in infected]
                assert open_nbrs == [newly]
                infected.add(newly)
            assert trace.infecting == (len(infected) == net.n)

    def test_confluence_under_reversed_scan(self, rng):
        for _ in range(100):
            net = random_network(rng, int(rng.integers(2, 9)))
            fwd = infection_closure(net)
            rev = descending_closure(net)
            assert fwd.infecting == rev.infecting
            assert fwd.residual == rev.residual

    @pytest.mark.parametrize("reverse_scan", [False, True])
    def test_front_scan_matches_full_scan(self, rng, reverse_scan):
        infecting = 0
        for _ in range(300):
            net = random_network(rng, int(rng.integers(2, 16)), p_edge=float(rng.uniform(0.1, 0.5)))
            trace = descending_closure(net) if reverse_scan else infection_closure(net)
            assert (trace.steps, trace.residual) == full_scan_closure(net, reverse_scan)
            infecting += trace.infecting
        assert 30 <= infecting <= 270

    def test_long_chain_trace(self):
        n = 500
        trace = infection_closure(new_network(n, [(i, i + 1, 1.0) for i in range(n - 1)], [0]))
        assert trace.steps == tuple((i + 1, i) for i in range(n - 1))


class TestVerdict:
    def test_chain_identifiable(self):
        verdict = infection_identifiability_verdict(chain_network())
        assert verdict.identifiable_by_infection
        assert verdict.reason is None

    def test_tree_not_infecting_reason(self):
        verdict = infection_identifiability_verdict(tree_network())
        assert not verdict.identifiable_by_infection
        assert verdict.reason == "NotInfecting"

    def test_ring_not_infecting_reason(self):
        verdict = infection_identifiability_verdict(ring_network())
        assert not verdict.identifiable_by_infection
        assert verdict.reason == "NotInfecting"

    def test_decoupled_chain_not_minimal(self):
        verdict = infection_identifiability_verdict(chain_network(th1=0.0))
        assert not verdict.identifiable_by_infection
        assert verdict.reason == "NotMinimal"

    def test_not_minimal_exactly_when_structure_report_says_so(self, rng):
        reasons = {}
        nets = [chain_network(th1=0.0), chain_network(th2=0.0), chain_network()]
        nets += [random_network(rng, int(rng.integers(2, 9)), p_zero=0.3) for _ in range(300)]
        for net in nets:
            verdict = infection_identifiability_verdict(net)
            reasons[verdict.reason] = reasons.get(verdict.reason, 0) + 1
            if verdict.reason != "NotInfecting":
                minimal = structure_report(omega_from_network(net)).minimal
                assert (verdict.reason == "NotMinimal") == (not minimal)
                assert verdict.identifiable_by_infection == minimal
        assert min(reasons.get(r, 0) for r in (None, "NotMinimal", "NotInfecting")) >= 10

    def test_long_chain_identifiable(self):
        # a 64-node chain coupled at one end is minimal and infecting
        net = new_network(64, [(i, i + 1, 1.0) for i in range(63)], [0])
        verdict = infection_identifiability_verdict(net)
        assert verdict.identifiable_by_infection
        assert verdict.reason is None


class TestInfectionSoundness:
    def test_distinct_weights_distinguishable(self, rng):
        # identifiability instantiated: on an infecting minimal graph, any
        # two distinct weight draws give different moment sequences
        checked = 0
        while checked < 30:
            n = int(rng.integers(2, 7))
            edges = [(i, i + 1, float(rng.uniform(0.5, 2.0))) for i in range(n - 1)]
            net1 = new_network(n, edges, [0])
            if not infection_closure(net1).infecting:
                continue
            sys1 = omega_from_network(net1)
            if not structure_report(sys1).minimal:
                continue
            edges2 = [
                (i, j, w + float(rng.uniform(0.05, 0.3))) for i, j, w in edges
            ]
            sys2 = omega_from_network(new_network(n, edges2, [0]))
            assert markov_distinguishable(sys1, sys2)
            checked += 1

    def test_admissible_gauges_indistinguishable(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 7))
            edges = [(i, i + 1, float(rng.uniform(0.5, 2.0) * rng.choice([-1, 1])))
                     for i in range(n - 1)]
            net = new_network(n, edges, [0])
            sys = omega_from_network(net)
            if not structure_report(sys).minimal:
                continue
            t = coupling_fixing_unitary(rng, sys.c)
            moved = gauge_transform(sys, t)
            assert not markov_distinguishable(sys, moved)
            verdict = find_gauge(sys, moved)
            assert verdict.equivalent
