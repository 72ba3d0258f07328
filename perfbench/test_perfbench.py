"""Self-tests of the benchmark: determinism, oracles, metric names, tracing.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
try:
    import qsysid
except ImportError:  # the package is not installed; use the checkout
    sys.path.insert(0, str(ROOT / "src"))
    import qsysid

import ops
import oracles
import run
import speed
import workloads
from spans import LAYERS, Tracer
from worker import layer_metrics, per_layer_names


@functools.lru_cache(maxsize=None)
def seed7_ops(workload: str) -> list:
    return workloads.make_ops(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_list_is_deterministic(workload):
    first = workloads.op_list_digest(seed7_ops(workload))
    again = workloads.op_list_digest(workloads.make_ops(workload, 7))
    other = workloads.op_list_digest(workloads.make_ops(workload, 8))
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", ["identify_small", "certify_large"])
def test_an_op_is_made_alone_as_in_the_list(workload):
    specs = workloads.op_specs(workload, 7)
    assert all(not spec.inputs for spec in specs)
    for i in (0, len(specs) // 2, len(specs) - 1):
        alone = workloads.realize(workload, 7, specs[i])
        assert workloads.op_list_digest([alone]) == workloads.op_list_digest(
            [seed7_ops(workload)[i]]
        )
        assert (alone.index, alone.label, alone.anchor) == (
            specs[i].index, specs[i].label, specs[i].anchor
        )


def test_op_lists_cover_the_grid():
    cells = {op.label for op in seed7_ops("identify_small")}
    assert len(cells) == (len(workloads.IDENTIFY_SIZES) + 1) * len(workloads.IDENTIFY_SIGMAS)
    assert {op.label for op in seed7_ops("certify_large")} == {
        f"{f}/n={n}" for f in workloads.CERTIFY_FAMILIES for n in workloads.CERTIFY_SIZES
    }
    cli = seed7_ops("cli_cold")
    assert [op.inputs["cmd"] for op in cli[:6]] == list(workloads.CLI_COMMANDS)


def test_exact_tf_coefficients_match_samples():
    omega, c = workloads.PAPER_CHAIN_OMEGA, workloads.PAPER_CHAIN_C
    num, den = workloads.siso_tf_coefficients(omega, c)
    w = np.array([0.3, 1.7])
    ratio = np.polynomial.polynomial.polyval(1j * w, num) / np.polynomial.polynomial.polyval(
        1j * w, den
    )
    assert np.allclose(ratio, workloads.transfer_samples(omega, c, w)[:, 0, 0], atol=1e-12)


def test_eigenvalue_oracle_rejects_shift():
    truth = np.array([-1.0, 0.0, 1.0])
    tol = 1e-6
    assert oracles.check_eigs(truth, truth, tol, "x") == ""
    shifted = truth + np.array([0.0, 10 * tol, 0.0])
    assert oracles.check_eigs(shifted, truth, tol, "x") != ""
    assert oracles.check_eigs(truth[:2], truth, tol, "x") != ""


def test_identify_oracle_rejects_perturbed_answers():
    op = workloads.make_warmup_op("identify_small", 3)
    truth = op.truth
    omega, c = op.inputs["omega"], op.inputs["c"]
    lambdas, vecs = np.linalg.eigh(omega[1:, 1:])
    arrow = (omega[0, 0].real, lambdas, np.abs(omega[0, 1:] @ vecs))
    assert oracles.check_identify(truth, omega, c, truth["theta"], *arrow) == ""
    bad_omega = omega + 10 * truth["tol"] * np.eye(3)
    assert oracles.check_identify(truth, bad_omega, c, truth["theta"], *arrow) != ""
    bad_theta = truth["theta"] + 10 * truth["tol"]
    assert oracles.check_identify(truth, omega, c, bad_theta, *arrow) != ""
    assert oracles.check_identify(truth, omega, 1.01 * c, truth["theta"], *arrow) != ""


def test_gauge_gram_and_minimal_oracles_reject_perturbations():
    rng = np.random.default_rng(0)
    gauge = workloads.random_unitary(rng, 4)
    tol = workloads.GAUGE_TOL
    assert oracles.check_gauge(True, gauge, gauge, tol) == ""
    assert oracles.check_gauge(True, gauge + 10 * tol, gauge, tol) != ""
    assert oracles.check_gauge(False, None, gauge, tol) != ""
    c = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    gram = c @ c.conj().T
    assert oracles.check_gram(c, gram, 1e-6, "g") == ""
    assert oracles.check_gram(c * (1 + 1e-5), gram, 1e-6, "g") != ""
    assert oracles.check_minimal(True, 4, 4) == ""
    assert oracles.check_minimal(True, 3, 4) != ""
    assert oracles.check_minimal(False, 4, 4) != ""


def test_certify_judge_accepts_truth_and_rejects_perturbed_gauge():
    op = workloads.make_warmup_op("certify_large", 5)
    answers = ops.execute_certify(qsysid, op)
    outcome, stages = ops.judge_certify(op, answers)
    assert outcome == "ok", stages
    verdict = answers["gauge"]
    answers["gauge"] = dataclasses.replace(verdict, gauge=verdict.gauge * np.exp(1e-6j))
    outcome, stages = ops.judge_certify(op, answers)
    assert outcome == "wrong" and stages["gauge"] == "wrong"


def _cli_op(cmd: str):
    return next(op for op in workloads.make_cli_ops(2) if op.inputs["cmd"] == cmd)


def test_cli_judge_classifies_exit_codes(tmp_path):
    op = _cli_op("analyze")
    good = json.dumps({"minimal": True, "ctrb_rank": 3})
    assert ops.judge_cli(op, (0, good, ""), tmp_path)[0] == "ok"
    wrong = json.dumps({"minimal": False, "ctrb_rank": 2})
    assert ops.judge_cli(op, (0, wrong, ""), tmp_path)[0] == "wrong"
    err = json.dumps({"error": "NotPassiveTF", "detail": "x"})
    assert ops.judge_cli(op, (1, "", err), tmp_path)[0] == "NotPassiveTF"
    assert ops.judge_cli(op, (2, "", err), tmp_path)[0] == "exit2:NotPassiveTF"
    assert ops.judge_cli(op, (0, "not json", ""), tmp_path)[0] == "wrong"


def test_cli_judge_rejects_perturbed_equiv_gauge(tmp_path):
    op = _cli_op("equiv")
    gauge = op.truth["gauge"]

    def stdout(mat):
        rows = [[{"re": z.real, "im": z.imag} for z in row] for row in mat]
        return json.dumps({"equivalent": True, "gauge": rows, "residual": 0.0})

    assert ops.judge_cli(op, (0, stdout(gauge), ""), tmp_path)[0] == "ok"
    shifted = gauge + 10 * workloads.GAUGE_TOL
    assert ops.judge_cli(op, (0, stdout(shifted), ""), tmp_path)[0] == "wrong"


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(per_layer_names())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    emitted = set(layer_metrics({}, 1)) | {"trace.overhead_frac"}
    emitted |= {f"cli.{c}.wall_ms" for c in workloads.CLI_COMMANDS}
    emitted |= {f"serialize.{c}.bytes_out" for c in workloads.CLI_COMMANDS}
    emitted |= {"cli.interp_ms", "cli.import_ms"}
    assert emitted == set(dict(per_layer_names()))


def test_timings_are_scaled_to_the_reference_speed():
    # the kernel time is the interquartile mean: outliers on either side are dropped
    samples = [1e-9, 5.0] + [speed.REF_KERNEL_S * 2] * 6
    assert speed.speed(samples) == pytest.approx(0.5)
    raw = {"goodput_per_s": 10.0, "op_p50_ms": 4.0, "op_p90_ms": 8.0, "setup_s": 0.5}
    assert run.at_reference_speed(raw, 0.5) == pytest.approx(
        {"goodput_per_s": 20.0, "op_p50_ms": 2.0, "op_p90_ms": 4.0, "setup_s": 0.25}
    )
    assert set(run.TIMINGS) <= set(run.E2E_UNITS)
    assert speed.reference_kernel() > 0


def _function_refs() -> dict:
    for layer in LAYERS:  # install() imports every layer; compare like with like
        importlib.import_module(f"qsysid.{layer}")
    refs = {}
    for name, mod in list(sys.modules.items()):
        if name == "qsysid" or name.startswith("qsysid."):
            for attr, obj in vars(mod).items():
                if callable(obj):
                    refs[(name, attr)] = obj
    return refs


def test_tracer_sees_cross_layer_calls_and_uninstalls():
    before = _function_refs()
    tracer = Tracer()
    op = workloads.make_warmup_op("identify_small", 1)
    with tracer.installed():
        assert qsysid.probe.transfer_at is not before[("qsysid.probe", "transfer_at")]
        tracer.run_op(0, ops.execute_identify, qsysid, op)
    assert _function_refs() == before
    assert tracer.stats["model.transfer_at"]["calls"] == workloads.IDENTIFY_NFREQ
    assert tracer.stats["probe.identify_pipeline"]["calls"] == 1
    assert tracer.stats["probe.fit_rational"]["iterations"] >= 1
    # untraced calls after uninstall reach the originals and record nothing
    calls = tracer.stats["model.transfer_at"]["calls"]
    ops.execute_identify(qsysid, op)
    assert tracer.stats["model.transfer_at"]["calls"] == calls


def test_self_time_excludes_children():
    tracer = Tracer()

    def leaf():
        return sum(range(2000))

    wrapped_leaf = tracer.wrap("layer.leaf", leaf)
    outer = tracer.wrap("layer.outer", lambda: [wrapped_leaf() for _ in range(5)])
    tracer.run_op(0, outer)
    spans = {s[1]: s for s in tracer.spans}
    outer_span = spans["layer.outer"]
    covered = sum(s[3] - s[2] for s in tracer.spans if s[1] == "layer.leaf")
    assert tracer.stats["layer.outer"]["self_s"] == pytest.approx(
        outer_span[3] - outer_span[2] - covered, rel=1e-9, abs=1e-12
    )
    assert all(s[4] == outer_span[0] for s in tracer.spans if s[1] == "layer.leaf")
