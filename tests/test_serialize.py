"""Round-trip fidelity of the JSON wire formats."""

import copy
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qsysid import DimensionMismatch, sample_response, serialize, transfer_rational
from qsysid.probe import ProbeDataset

from conftest import NOT_REAL, chain_system, random_passive, real_refusal
from test_network import tree_network

NUMBERS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.7e308, -1.7e308]) | st.floats(
    allow_nan=False, allow_infinity=False
)


def edited(obj: dict, path: tuple, value) -> dict:
    """A deep copy of obj with the entry at path (keys and indices) set to value."""
    obj = copy.deepcopy(obj)
    *inner, last = path
    target = obj
    for key in inner:
        target = target[key]
    target[last] = value
    return obj


ENTRY_REFUSAL = "entries must be {\"re\": number, \"im\": number} within the float range"


class TestComplexEncoding:
    def test_full_precision_roundtrip(self, rng):
        for _ in range(100):
            z = complex(rng.standard_normal() * 10.0 ** rng.integers(-8, 9),
                        rng.standard_normal() * 10.0 ** rng.integers(-8, 9))
            blob = json.dumps(serialize.array_to_obj([z]))
            assert serialize.array_from_obj(json.loads(blob), 1, "z")[0] == z

    def test_matrix_roundtrip(self, rng):
        mat = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        blob = json.dumps(serialize.array_to_obj(mat))
        np.testing.assert_array_equal(serialize.array_from_obj(json.loads(blob), 2, "m"), mat)


class TestArrayCodec:
    @settings(max_examples=60, deadline=None)
    @given(
        hnp.arrays(
            complex,
            hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4),
            elements=st.builds(complex, NUMBERS, NUMBERS),
        )
    )
    def test_roundtrip_every_bit(self, a):
        back = serialize.array_from_obj(json.loads(json.dumps(serialize.array_to_obj(a))), a.ndim, "a")
        assert back.shape == a.shape
        np.testing.assert_array_equal(back.view(np.uint64), a.view(np.uint64))

    @pytest.mark.parametrize(
        "ndim, shape", [(1, (2, 2)), (2, (2,)), (2, (2, 2, 1)), (3, (2, 2))]
    )
    def test_other_rank_refused(self, ndim, shape):
        obj = serialize.array_to_obj(np.ones(shape))
        match = f"^a must be a rank-{ndim} array, got shape {re.escape(str(shape))}$"
        with pytest.raises(DimensionMismatch, match=match):
            serialize.array_from_obj(obj, ndim, "a")

    @pytest.mark.parametrize(
        "entry",
        [{"re": "1.5", "im": False}, {"re": 1.0, "im": True}, {"re": 10**400, "im": 0.0},
         {"re": None, "im": 0.0}, {"re": 1.0}, 1.0, "1.0"],
        ids=repr,
    )
    def test_entry_not_two_numbers_refused(self, entry):
        obj = serialize.array_to_obj(np.ones((2, 2)))
        obj[1][0] = entry
        with pytest.raises(ValueError, match=f"^a {re.escape(ENTRY_REFUSAL)}$"):
            serialize.array_from_obj(obj, 2, "a")

    def test_integer_entries_accepted(self):
        obj = [[{"re": 1, "im": -2}, {"re": 0.5, "im": 0}]]
        np.testing.assert_array_equal(serialize.array_from_obj(obj, 2, "a"), [[1 - 2j, 0.5]])


SYSTEM = serialize.system_to_obj(chain_system())
TF = serialize.tf_to_obj(transfer_rational(chain_system()))
DATASET = serialize.dataset_to_obj(sample_response(chain_system(), [0.5, 1.0], 1e-4, seed=3))


class TestReadersRefuseWhatTheRulesRefuse:
    """Each value below was truncated or cast by the readers' own casts, and
    each is refused by the rule of the constructor it now reaches."""

    @pytest.mark.parametrize(
        "path, value, error, message",
        [
            (("n",), 3.9, ValueError, "n must be an integer >= 0, got 3.9"),
            (("n",), "3", ValueError, "n must be an integer >= 0, got '3'"),
            (("m",), True, ValueError, "m must be an integer >= 0, got True"),
            (("n",), 10**400, ValueError, f"n must be an integer >= 0, got {10**400}"),
            (("omega", 0, 1), {"re": "0.6", "im": False}, ValueError, "omega " + ENTRY_REFUSAL),
            (("c", 0, 0), {"re": 10**400, "im": 0.0}, ValueError, "c " + ENTRY_REFUSAL),
            (("c",), SYSTEM["c"][0], DimensionMismatch, "c must be a rank-2 array, got shape (3,)"),
            (("omega",), [SYSTEM["omega"]], DimensionMismatch,
             "omega must be a rank-2 array, got shape (1, 3, 3)"),
        ],
        ids=repr,
    )
    def test_system(self, path, value, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            serialize.system_from_obj(edited(SYSTEM, path, value))

    @pytest.mark.parametrize(
        "path, value, error, message",
        [
            (("m",), 1.9, ValueError, "m must be an integer >= 0, got 1.9"),
            (("m",), "1", ValueError, "m must be an integer >= 0, got '1'"),
            (("den", 0), {"re": "1", "im": 0.0}, ValueError, "den " + ENTRY_REFUSAL),
            (("num", 0, 0, 0), {"re": 1.0, "im": True}, ValueError, "num " + ENTRY_REFUSAL),
            (("den",), [TF["den"]], DimensionMismatch, "den must be a rank-1 array, got shape (1, 4)"),
            (("num", 0, 0), TF["num"][0][0][0], DimensionMismatch,
             "num must be a rank-3 array, got shape (1, 1)"),
        ],
        ids=repr,
    )
    def test_tf(self, path, value, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            serialize.tf_from_obj(edited(TF, path, value))

    @pytest.mark.parametrize(
        "path, value, error, message",
        [
            (("n",), 3.7, ValueError, "n must be an integer, got 3.7"),
            (("n",), "3", ValueError, "n must be an integer, got '3'"),
            (("edges", 0), [0, 1.9, "0.5"], ValueError, "edge index must be an integer, got 1.9"),
            (("edges", 0), [0, True, 0.6], ValueError, "edge index must be an integer, got True"),
            (("edges", 0), [0, 1, "0.6"], ValueError, "edge weights must be finite numbers, got ['0.6', 0.8]"),
            (("edges", 0), [0, 1, True], ValueError, "edge weights must be finite numbers, got [True, 0.8]"),
            (("edges", 0), [0, 1, 10**400], ValueError, "edge weights must be finite numbers, got "),
            (("accessible",), [0.4], ValueError, "accessible vertex must be an integer, got 0.4"),
            (("accessible",), ["0"], ValueError, "accessible vertex must be an integer, got '0'"),
            (("detunings",), ["0.1", True, 0.0], ValueError,
             "detunings must be finite numbers, got ['0.1', True, 0.0]"),
            (("detunings",), [0.1, True, 0.0], ValueError,
             "detunings must be finite numbers, got [0.1, True, 0.0]"),
            (("detunings",), [[0.1], [True], [0.0]], ValueError,
             "detunings must be finite numbers, got [[0.1], [True], [0.0]]"),
            (("coupling", 0, 0), {"re": 1.0, "im": "0"}, ValueError, "coupling " + ENTRY_REFUSAL),
            (("coupling",), [{"re": 1.0, "im": 0.0}] * 3, DimensionMismatch,
             "coupling must be a rank-2 array, got shape (3,)"),
        ],
        ids=repr,
    )
    def test_network(self, path, value, error, message):
        obj = serialize.network_to_obj(tree_network())
        match = f"^{re.escape(message)}" + ("" if message.endswith("got ") else "$")
        with pytest.raises(error, match=match):
            serialize.network_from_obj(edited(obj, path, value))

    @pytest.mark.parametrize(
        "path, value, error, message",
        [
            (("seed",), 2.7, ValueError, "seed must be an integer >= 0, got 2.7"),
            (("seed",), True, ValueError, "seed must be an integer >= 0, got True"),
            (("seed",), -1, ValueError, "seed must be an integer >= 0, got -1"),
            (("freqs", 0), "0.5", ValueError, "freqs must be finite numbers, got ['0.5', 1.0]"),
            (("freqs", 0), True, ValueError, "freqs must be finite numbers, got [True, 1.0]"),
            (("freqs", 1), 10**400, ValueError, "freqs must be finite numbers, got [0.5, "),
            (("freqs",), [[0.5], [True]], ValueError, "freqs must be finite numbers, got [[0.5], [True]]"),
            (("responses", 1, 0, 0), {"re": 1.0, "im": "0"}, ValueError,
             "responses " + ENTRY_REFUSAL),
            (("responses",), DATASET["responses"][0], DimensionMismatch,
             "responses must be a rank-3 array, got shape (1, 1)"),
        ],
        ids=repr,
    )
    def test_dataset(self, path, value, error, message):
        match = f"^{re.escape(message)}" + ("" if message.endswith(", ") else "$")
        with pytest.raises(error, match=match):
            serialize.dataset_from_obj(edited(DATASET, path, value))


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
        # a file holds one port's coefficients; a multiport function is its measure
        for m in (0, 2):
            obj = dict(serialize.tf_to_obj(transfer_rational(chain_system())), m=m)
            with pytest.raises(DimensionMismatch,
                               match=f"^declared m = {m}, but a function file holds one port$"):
                serialize.tf_from_obj(obj)

    def test_multiport_function_not_written(self, rng):
        with pytest.raises(DimensionMismatch,
                           match="^a 2-port function has no coefficients to write$"):
            serialize.tf_to_obj(transfer_rational(random_passive(rng, 3, 2)))

    def test_ragged_num_rows_rejected(self):
        obj = dict(TF, num=[TF["num"][0], []])
        with pytest.raises(DimensionMismatch, match=r"^num must be a rank-3 array, got shape \(2,\)$"):
            serialize.tf_from_obj(obj)

    def test_entries_of_different_lengths_padded(self):
        # a numerator entry shorter than den reads as its padded form
        one, zero = {"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.0}
        obj = {"m": 1, "den": [{"re": 0.5, "im": 0.0}, {"re": 0.2, "im": 0.0}, one]}
        short = serialize.tf_from_obj(dict(obj, num=[[[{"re": 0.5, "im": 0.0}]]]))
        padded = serialize.tf_from_obj(dict(obj, num=[[[{"re": 0.5, "im": 0.0}, zero, zero]]]))
        np.testing.assert_array_equal(short.num, padded.num)
        np.testing.assert_array_equal(short.den, padded.den)

    def test_entry_beyond_den_degree_rejected(self):
        one = {"re": 1.0, "im": 0.0}
        obj = {"m": 1, "den": [one, one], "num": [[[one, one, one]]]}
        with pytest.raises(DimensionMismatch, match="^numerator degree exceeds denominator degree$"):
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

    def test_int_beyond_64_bits_is_a_frequency(self):
        obj = serialize.dataset_to_obj(sample_response(chain_system(), [0.5, 1e20]))
        obj["freqs"][1] = 10**20
        assert serialize.dataset_from_obj(obj).freqs.tolist() == [0.5, 1e20]

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
