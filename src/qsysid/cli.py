"""Command-line front end.

Subcommands: analyze, equiv, reconstruct, infect, probe, fit. Input and
output are JSON files or stdout; exit codes are 0 (success), 1 (domain
error, e.g. NotPassiveTF), 2 (usage or I/O error). Errors are emitted on
stderr as {"error": name, "detail": text}.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
from pathlib import Path

import numpy as np

from . import identifiability, serialize
from .analysis import structure_report
from .errors import QsysidError
from .identifiability import find_gauge, gauge_transform
from .network import infection_closure, infection_identifiability_verdict
from .probe import identify_pipeline, sample_response
from .realization import companion_realization, reconstruct_passive


def _load_json(path: str):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def _parse_freq_spec(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 4 or parts[3] not in ("log", "lin"):
        raise ValueError(f"bad --freqs spec {spec!r}, expected lo:hi:count:log|lin")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 2 or hi <= lo:
        raise ValueError(f"bad --freqs range in {spec!r}")
    if parts[3] == "log":
        if lo <= 0:
            raise ValueError("log spacing needs lo > 0")
        return np.geomspace(lo, hi, count)
    return np.linspace(lo, hi, count)


def _default_freqs(sys) -> np.ndarray:
    scale = max(1.0, float(np.abs(sys.poles).max()))
    return np.geomspace(0.01 * scale, 100.0 * scale, 200)


def _write_response_csv(path: str, data) -> None:
    tags = [f"{i}{j}" for i in range(data.m) for j in range(data.m)]
    lines = [",".join(["omega"] + [f"{k}_{t}" for t in tags for k in ("re", "im", "abs", "arg")])]
    for w, resp in zip(data.freqs.tolist(), data.responses.tolist()):
        row = [w] + [x for r in resp for z in r for x in (z.real, z.imag, abs(z), cmath.phase(z))]
        lines.append(",".join(map(repr, row)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_analyze(args) -> int:
    sys_ = serialize.system_from_obj(_load_json(args.system))
    _emit(serialize.report_to_obj(structure_report(sys_)))
    return 0


def cmd_equiv(args) -> int:
    sys1 = serialize.system_from_obj(_load_json(args.system1))
    sys2 = serialize.system_from_obj(_load_json(args.system2))
    verdict = find_gauge(sys1, sys2, tol=args.tol)
    _emit(serialize.verdict_to_obj(verdict))
    return 0


def cmd_reconstruct(args) -> int:
    tf = serialize.tf_from_obj(_load_json(args.tf))
    gauge = None
    if args.gauge is not None:
        gauge = serialize.array_from_obj(_load_json(args.gauge), 2, "gauge")
    system, params = reconstruct_passive(companion_realization(tf))
    if gauge is not None:
        system = gauge_transform(system, gauge)
    _emit({"system": serialize.system_to_obj(system),
           "canonical": serialize.canonical_to_obj(params)})
    return 0


def cmd_infect(args) -> int:
    net = serialize.network_from_obj(_load_json(args.network))
    trace = infection_closure(net)
    verdict = infection_identifiability_verdict(net)
    _emit({"trace": serialize.trace_to_obj(trace), **serialize.infection_verdict_to_obj(verdict)})
    return 0


def cmd_probe(args) -> int:
    sys_ = serialize.system_from_obj(_load_json(args.system))
    freqs = _parse_freq_spec(args.freqs) if args.freqs else _default_freqs(sys_)
    data = sample_response(sys_, freqs, noise_sigma=args.noise, seed=args.seed)
    _write_response_csv(args.csv, data)
    _emit(serialize.dataset_to_obj(data))
    return 0


def cmd_fit(args) -> int:
    data = serialize.dataset_from_obj(_load_json(args.dataset))
    system, params, fit = identify_pipeline(data, args.degree)
    system_obj = serialize.system_to_obj(system)
    if args.system_out is not None:
        Path(args.system_out).write_text(json.dumps(system_obj), encoding="utf-8")
    _emit({"fit": serialize.fit_to_obj(fit), "system": system_obj,
           "canonical": serialize.canonical_to_obj(params)})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsysid",
        description="Identifiability and reconstruction of passive linear quantum systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="rank/stability structure of a system")
    p.add_argument("system", help="system JSON file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("equiv", help="transfer-function equivalence of two systems")
    p.add_argument("system1")
    p.add_argument("system2")
    p.add_argument("--tol", type=float, default=identifiability.EQUIV_RTOL,
                   help="relative tolerance")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("reconstruct", help="system matrices from a transfer function")
    p.add_argument("tf", help="rational transfer function JSON file")
    p.add_argument("--gauge", default=None, help="unitary gauge matrix JSON file")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("infect", help="infection closure and identifiability verdict")
    p.add_argument("network", help="network JSON file")
    p.set_defaults(func=cmd_infect)

    p = sub.add_parser("probe", help="sample a noisy frequency response")
    p.add_argument("system", help="system JSON file")
    p.add_argument("--freqs", default=None, help="grid spec lo:hi:count:log|lin")
    p.add_argument("--noise", type=float, default=0.0, help="per-component sigma")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", default="response.csv", help="plot-ready CSV path")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("fit", help="fit a dataset and reconstruct the system")
    p.add_argument("dataset", help="dataset JSON file")
    p.add_argument("--degree", type=int, required=True, help="denominator degree")
    p.add_argument("--system-out", default=None, help="also write the system JSON to this path")
    p.set_defaults(func=cmd_fit)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (QsysidError, OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "detail": str(exc)}) + "\n")
        return 1 if isinstance(exc, QsysidError) else 2
