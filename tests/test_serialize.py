"""Round-trip fidelity of the JSON wire formats."""

import json

import numpy as np

from qsysid import serialize
from qsysid.probe import ProbeDataset

from conftest import chain_system, random_passive
from test_network import tree_network


class TestComplexEncoding:
    def test_full_precision_roundtrip(self, rng):
        for _ in range(100):
            z = complex(rng.standard_normal() * 10.0 ** rng.integers(-8, 9),
                        rng.standard_normal() * 10.0 ** rng.integers(-8, 9))
            blob = json.dumps(serialize.complex_to_obj(z))
            assert serialize.complex_from_obj(json.loads(blob)) == z

    def test_matrix_roundtrip(self, rng):
        mat = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        blob = json.dumps(serialize.matrix_to_obj(mat))
        np.testing.assert_array_equal(serialize.matrix_from_obj(json.loads(blob)), mat)


class TestSystemFormat:
    def test_roundtrip(self, rng):
        sys = random_passive(rng, 4, 2)
        blob = json.dumps(serialize.system_to_obj(sys))
        back = serialize.system_from_obj(json.loads(blob))
        np.testing.assert_array_equal(back.omega, sys.omega)
        np.testing.assert_array_equal(back.c, sys.c)

    def test_shape_keys(self):
        obj = serialize.system_to_obj(chain_system())
        assert obj["n"] == 3 and obj["m"] == 1
        assert len(obj["omega"]) == 3 and len(obj["omega"][0]) == 3
        assert len(obj["c"]) == 1 and len(obj["c"][0]) == 3
        assert set(obj["omega"][0][0]) == {"re", "im"}


class TestTfFormat:
    def test_roundtrip(self):
        from qsysid import transfer_rational

        tf = transfer_rational(chain_system())
        blob = json.dumps(serialize.tf_to_obj(tf))
        back = serialize.tf_from_obj(json.loads(blob))
        np.testing.assert_array_equal(back.den, tf.den)
        np.testing.assert_array_equal(back.num, tf.num)
        assert back.m == tf.m

    def test_entries_of_different_lengths_padded(self):
        one, zero = {"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.0}
        diag, off = [{"re": 0.5, "im": 0.0}, {"re": -0.2, "im": 0.1}, one], [zero]
        obj = {"m": 2, "den": [{"re": 0.5, "im": 0.0}, {"re": 0.2, "im": 0.0}, one]}
        ragged = serialize.tf_from_obj(dict(obj, num=[[diag, off], [off, diag]]))
        off = [zero, zero, zero]
        padded = serialize.tf_from_obj(dict(obj, num=[[diag, off], [off, diag]]))
        np.testing.assert_array_equal(ragged.num, padded.num)
        np.testing.assert_array_equal(ragged.den, padded.den)

    def test_entry_beyond_den_degree_rejected(self):
        import pytest

        from qsysid import DimensionMismatch

        one = {"re": 1.0, "im": 0.0}
        obj = {"m": 2, "den": [one, one], "num": [[[one], [one, one, one]], [[one], [one]]]}
        with pytest.raises(DimensionMismatch):
            serialize.tf_from_obj(obj)


class TestNetworkFormat:
    def test_roundtrip_with_detunings(self):
        net = tree_network()
        blob = json.dumps(serialize.network_to_obj(net))
        obj = json.loads(blob)
        assert obj["diagonal_extension"] is True
        back = serialize.network_from_obj(obj)
        assert back.edges == net.edges
        assert back.accessible == net.accessible
        np.testing.assert_array_equal(back.coupling, net.coupling)
        np.testing.assert_array_equal(back.detunings, net.detunings)


class TestDatasetFormat:
    def test_roundtrip(self, rng):
        freqs = np.geomspace(0.1, 10.0, 12)
        responses = rng.standard_normal((12, 1, 1)) + 1j * rng.standard_normal((12, 1, 1))
        data = ProbeDataset(freqs=freqs, responses=responses, noise_sigma=1e-4, seed=9)
        blob = json.dumps(serialize.dataset_to_obj(data))
        back = serialize.dataset_from_obj(json.loads(blob))
        np.testing.assert_array_equal(back.freqs, data.freqs)
        np.testing.assert_array_equal(back.responses, data.responses)
        assert back.noise_sigma == data.noise_sigma
        assert back.seed == 9

    def test_bool_noise_sigma_rejected(self):
        import pytest

        obj = {
            "freqs": [0.5, 1.0],
            "responses": [[[{"re": 1.0, "im": 0.0}]], [[{"re": 1.0, "im": 0.0}]]],
            "noise_sigma": True,
        }
        with pytest.raises(ValueError, match="^noise_sigma must be a number, not a bool"):
            serialize.dataset_from_obj(json.loads(json.dumps(obj)))

    def test_non_increasing_frequencies_rejected(self):
        import pytest

        from qsysid import NonMonotoneGrid

        obj = {
            "freqs": [1.0, 0.5],
            "responses": [[[{"re": 1.0, "im": 0.0}]], [[{"re": 1.0, "im": 0.0}]]],
            "noise_sigma": 0.0,
        }
        with pytest.raises(NonMonotoneGrid):
            serialize.dataset_from_obj(obj)
