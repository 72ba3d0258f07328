"""JSON encodings for every wire format the CLI reads and writes.

Complex numbers travel as {"re": float, "im": float}; matrices are
row-major nested lists. All floats round-trip at full double precision.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .analysis import StructureReport
from .errors import DimensionMismatch
from .identifiability import EquivalenceVerdict
from .model import PassiveSystem, new_system, require_grid
from .network import InfectionTrace, InfectionVerdict, NetworkModel, new_network
from .probe import FitResult, ProbeDataset
from .ratfunc import RationalTF, make_rational_tf, require_real
from .realization import CanonicalParams


def complex_to_obj(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def complex_from_obj(obj) -> complex:
    return complex(float(obj["re"]), float(obj["im"]))


def matrix_to_obj(mat: np.ndarray) -> list:
    return [[complex_to_obj(z) for z in row] for row in np.atleast_2d(mat)]


def matrix_from_obj(obj) -> np.ndarray:
    return np.array(
        [[complex_from_obj(z) for z in row] for row in obj], dtype=complex
    )


def vector_to_obj(vec: np.ndarray) -> list:
    return [complex_to_obj(z) for z in np.asarray(vec).ravel()]


def vector_from_obj(obj) -> np.ndarray:
    return np.array([complex_from_obj(z) for z in obj], dtype=complex)


def system_to_obj(sys: PassiveSystem) -> dict:
    return {
        "n": sys.n,
        "m": sys.m,
        "omega": matrix_to_obj(sys.omega),
        "c": matrix_to_obj(sys.c),
    }


def system_from_obj(obj) -> PassiveSystem:
    sys = new_system(matrix_from_obj(obj["omega"]), matrix_from_obj(obj["c"]))
    if sys.n != int(obj["n"]) or sys.m != int(obj["m"]):
        raise DimensionMismatch(
            f"declared sizes ({obj['n']}, {obj['m']}) do not match matrices"
        )
    return sys


def tf_to_obj(tf: RationalTF) -> dict:
    return {
        "m": tf.m,
        "den": vector_to_obj(tf.den),
        "num": [
            [vector_to_obj(tf.num[i, j]) for j in range(tf.m)] for i in range(tf.m)
        ],
    }


def tf_from_obj(obj) -> RationalTF:
    num = [[vector_from_obj(entry) for entry in row] for row in obj["num"]]
    if not num or any(len(row) != len(num) for row in num):
        raise DimensionMismatch("num must be a square array of polynomials")
    den = vector_from_obj(obj["den"])
    # pad ragged entries; make_rational_tf refuses nonzero terms beyond den's degree
    size = max(len(den), *(len(entry) for row in num for entry in row))
    num = [[np.pad(entry, (0, size - len(entry))) for entry in row] for row in num]
    tf = make_rational_tf(np.array(num), den)
    if tf.m != int(obj["m"]):
        raise DimensionMismatch(f"declared m = {obj['m']} but the numerator is {tf.m}-port")
    return tf


def network_to_obj(net: NetworkModel) -> dict:
    obj = {
        "n": net.n,
        "edges": [[i, j, w] for i, j, w in net.edges],
        "accessible": list(net.accessible),
        "coupling": matrix_to_obj(net.coupling),
    }
    if net.detunings is not None:
        obj["detunings"] = [float(d) for d in net.detunings]
        obj["diagonal_extension"] = True
    return obj


def network_from_obj(obj) -> NetworkModel:
    return new_network(
        int(obj["n"]),
        [(int(e[0]), int(e[1]), float(e[2])) for e in obj["edges"]],
        [int(v) for v in obj["accessible"]],
        coupling=matrix_from_obj(obj["coupling"]) if "coupling" in obj else None,
        detunings=obj.get("detunings"),
    )


def dataset_to_obj(data: ProbeDataset) -> dict:
    obj = {
        "freqs": [float(w) for w in data.freqs],
        "responses": [matrix_to_obj(r) for r in data.responses],
        "noise_sigma": data.noise_sigma,
    }
    if data.seed is not None:
        obj["seed"] = int(data.seed)
    return obj


def dataset_from_obj(obj) -> ProbeDataset:
    freqs = require_grid([float(w) for w in obj["freqs"]], "freqs", 1)
    responses = np.array([matrix_from_obj(r) for r in obj["responses"]], dtype=complex)
    shape = responses.shape
    if len(shape) != 3 or shape[0] != freqs.size or shape[1] != shape[2]:
        raise DimensionMismatch(f"responses must be {freqs.size} square matrices, not {shape}")
    return ProbeDataset(
        freqs=freqs,
        responses=responses,
        noise_sigma=require_real(obj.get("noise_sigma", 0.0), "noise_sigma", 0.0),
        seed=int(obj["seed"]) if "seed" in obj else None,
    )


def report_to_obj(report: StructureReport) -> dict:
    return dataclasses.asdict(report)


def verdict_to_obj(verdict: EquivalenceVerdict) -> dict:
    obj: dict = {"equivalent": verdict.equivalent, "residual": verdict.residual}
    obj["gauge"] = None if verdict.gauge is None else matrix_to_obj(verdict.gauge)
    return obj


def canonical_to_obj(params: CanonicalParams) -> dict:
    return {
        "theta": params.theta,
        "omega11": params.omega11,
        "lambdas": [float(v) for v in params.lambdas],
        "e_abs": [float(v) for v in params.e_abs],
    }


def trace_to_obj(trace: InfectionTrace) -> dict:
    return {
        "infecting": trace.infecting,
        "steps": [[v, via] for v, via in trace.steps],
        "residual": list(trace.residual),
    }


def infection_verdict_to_obj(verdict: InfectionVerdict) -> dict:
    if verdict.identifiable_by_infection:
        return {"verdict": "IdentifiableByInfection"}
    return {"verdict": "NotApplicable", "reason": verdict.reason}


def fit_to_obj(fit: FitResult) -> dict:
    return {
        "tf": tf_to_obj(fit.tf),
        "rms_residual": fit.rms_residual,
        "iterations": fit.iterations,
        "converged": fit.converged,
    }
