"""JSON encodings for every wire format the CLI reads and writes.

Complex numbers travel as {"re": float, "im": float}; arrays are row-major
nested lists. All floats round-trip at full double precision. Only the layout
lives here: every number read passes the rule of the constructor it reaches.
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
from .ratfunc import RationalTF, as_numbers, make_rational_tf, require_real, require_whole
from .realization import CanonicalParams

_ENTRY = np.frompyfunc(lambda z: {"re": z.real, "im": z.imag}, 1, 1)


def array_to_obj(a) -> list:
    """Complex array of any rank >= 1 as nested lists of {"re", "im"} objects."""
    return _ENTRY(np.asarray(a, dtype=complex)).tolist()


def array_from_obj(obj, ndim: int, name: str) -> np.ndarray:
    """Inverse of :func:`array_to_obj`. Raises DimensionMismatch naming ``name``
    unless obj has rank ``ndim``, and ValueError naming it unless every part is
    a real number by :func:`~qsysid.ratfunc.as_numbers` (no bool, str or int
    beyond the float range); finiteness is the constructors'."""
    entries = np.array(obj, dtype=object)
    if entries.ndim != ndim:
        raise DimensionMismatch(f"{name} must be a rank-{ndim} array, got shape {entries.shape}")
    flat = entries.ravel().tolist()
    try:  # an entry that is not a dict with both keys
        values = as_numbers([z["re"] for z in flat] + [z["im"] for z in flat], real=True)
    except (TypeError, KeyError):
        values = None
    if values is None:
        raise ValueError(
            f'{name} entries must be {{"re": number, "im": number}} within the float range'
        )
    out = np.empty(len(flat), dtype=complex)
    out.real, out.imag = values.reshape(2, -1)
    return out.reshape(entries.shape)


def system_to_obj(sys: PassiveSystem) -> dict:
    return {"n": sys.n, "m": sys.m, "omega": array_to_obj(sys.omega), "c": array_to_obj(sys.c)}


def system_from_obj(obj) -> PassiveSystem:
    sizes = require_whole(obj["n"], "n", 0), require_whole(obj["m"], "m", 0)
    sys = new_system(array_from_obj(obj["omega"], 2, "omega"), array_from_obj(obj["c"], 2, "c"))
    if (sys.n, sys.m) != sizes:
        raise DimensionMismatch(f"declared sizes {sizes} do not match matrices")
    return sys


def tf_to_obj(tf: RationalTF) -> dict:
    if tf.num is None:
        raise DimensionMismatch(f"a {tf.m}-port function has no coefficients to write")
    return {"m": tf.m, "den": array_to_obj(tf.den), "num": array_to_obj(tf.num)}


def tf_from_obj(obj) -> RationalTF:
    m = require_whole(obj["m"], "m", 0)
    if m != 1:
        raise DimensionMismatch(f"declared m = {m}, but a function file holds one port")
    num = array_from_obj(obj["num"], 3, "num")
    return make_rational_tf(num, array_from_obj(obj["den"], 1, "den"))


def network_to_obj(net: NetworkModel) -> dict:
    obj = {"n": net.n, "edges": [[i, j, w] for i, j, w in net.edges],
           "accessible": list(net.accessible), "coupling": array_to_obj(net.coupling)}
    if net.detunings is not None:
        obj["detunings"] = net.detunings.tolist()
        obj["diagonal_extension"] = True
    return obj


def network_from_obj(obj) -> NetworkModel:
    coupling = array_from_obj(obj["coupling"], 2, "coupling") if "coupling" in obj else None
    return new_network(obj["n"], obj["edges"], obj["accessible"], coupling, obj.get("detunings"))


def dataset_to_obj(data: ProbeDataset) -> dict:
    obj = {"freqs": data.freqs.tolist(), "responses": array_to_obj(data.responses),
           "noise_sigma": data.noise_sigma}
    if data.seed is not None:
        obj["seed"] = data.seed
    return obj


def dataset_from_obj(obj) -> ProbeDataset:
    return ProbeDataset(
        freqs=require_grid(obj["freqs"]),
        responses=array_from_obj(obj["responses"], 3, "responses"),
        noise_sigma=require_real(obj.get("noise_sigma", 0.0), "noise_sigma", 0.0),
        seed=require_whole(obj["seed"], "seed", 0) if "seed" in obj else None,
    )


def report_to_obj(report: StructureReport) -> dict:
    return dataclasses.asdict(report)


def verdict_to_obj(verdict: EquivalenceVerdict) -> dict:
    gauge = None if verdict.gauge is None else array_to_obj(verdict.gauge)
    return {"equivalent": verdict.equivalent, "residual": verdict.residual, "gauge": gauge}


def canonical_to_obj(params: CanonicalParams) -> dict:
    return {"theta": params.theta, "omega11": params.omega11,
            "lambdas": params.lambdas.tolist(), "e_abs": params.e_abs.tolist()}


def trace_to_obj(trace: InfectionTrace) -> dict:
    return {"infecting": trace.infecting, "steps": [[v, via] for v, via in trace.steps],
            "residual": list(trace.residual)}


def infection_verdict_to_obj(verdict: InfectionVerdict) -> dict:
    if verdict.identifiable_by_infection:
        return {"verdict": "IdentifiableByInfection"}
    return {"verdict": "NotApplicable", "reason": verdict.reason}


def fit_to_obj(fit: FitResult) -> dict:
    return {"tf": tf_to_obj(fit.tf), "rms_residual": fit.rms_residual,
            "iterations": fit.iterations, "converged": fit.converged}
