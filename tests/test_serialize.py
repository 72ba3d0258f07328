"""Round-trip fidelity of the JSON wire formats."""

import json

import numpy as np
import pytest

from qsysid import DimensionMismatch, sample_response, serialize, transfer_rational
from qsysid.probe import ProbeDataset

from conftest import NOT_REAL, chain_system, random_passive, real_refusal
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

    @pytest.mark.parametrize("key", ["n", "m"])
    def test_declared_size_disagreeing_with_matrices_rejected(self, key):
        obj = dict(serialize.system_to_obj(chain_system()), **{key: 2})
        n, m = obj["n"], obj["m"]
        match = rf"^declared sizes \({n}, {m}\) do not match matrices$"
        with pytest.raises(DimensionMismatch, match=match):
            serialize.system_from_obj(obj)


class TestTfFormat:
    def test_roundtrip(self):
        from qsysid import transfer_rational

        tf = transfer_rational(chain_system())
        blob = json.dumps(serialize.tf_to_obj(tf))
        back = serialize.tf_from_obj(json.loads(blob))
        np.testing.assert_array_equal(back.den, tf.den)
        np.testing.assert_array_equal(back.num, tf.num)
        assert back.m == tf.m

    def test_declared_m_disagreeing_with_num_rejected(self):
        obj = dict(serialize.tf_to_obj(transfer_rational(chain_system())), m=2)
        with pytest.raises(DimensionMismatch, match="^declared m = 2 but the numerator is 1-port"):
            serialize.tf_from_obj(obj)

    def test_ragged_num_rows_rejected(self, rng):
        obj = serialize.tf_to_obj(transfer_rational(random_passive(rng, 3, 2)))
        obj["num"][1] = obj["num"][1][:1]
        with pytest.raises(DimensionMismatch, match="^num must be a square array of polynomials$"):
            serialize.tf_from_obj(obj)

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

    @pytest.mark.parametrize("sigma", NOT_REAL + [-1.0], ids=repr)
    def test_noise_sigma_must_be_a_real_scalar(self, sigma):
        obj = serialize.dataset_to_obj(sample_response(chain_system(), [0.5, 1.0]))
        with pytest.raises(ValueError, match=real_refusal("noise_sigma", ">= 0", sigma)):
            serialize.dataset_from_obj(dict(obj, noise_sigma=sigma))

    def test_numpy_scalar_noise_sigma_accepted(self):
        obj = serialize.dataset_to_obj(sample_response(chain_system(), [0.5, 1.0]))
        data = serialize.dataset_from_obj(dict(obj, noise_sigma=np.float32(1e-4)))
        assert type(data.noise_sigma) is float and data.noise_sigma == np.float32(1e-4)

    def test_misshapen_responses_rejected(self):
        obj = serialize.dataset_to_obj(sample_response(chain_system(), [0.5, 1.0]))
        obj["responses"] = obj["responses"][:1]
        match = r"^responses must be 2 square matrices, not \(1, 1, 1\)$"
        with pytest.raises(DimensionMismatch, match=match):
            serialize.dataset_from_obj(obj)

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
