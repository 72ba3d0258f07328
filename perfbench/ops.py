"""Run one benchmark op against qsysid and judge it against ground truth.

``execute_*`` makes the library calls of an op and is the only timed part;
it returns the raw answers, with an exception standing in for any stage
that raised. ``judge_*`` turns those answers into an outcome: "ok",
"wrong", or the name of the exception class (for the CLI, the error name
the process reported). A non-QsysidError exception is an outcome like any
other: it fails the op and is counted, it never stops the run.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import numpy as np

import oracles
from workloads import EXACT_EIG_RTOL, GAUGE_TOL

CLI_TIMEOUT_S = 60.0


def execute_identify(q, op):
    inp = op.inputs
    system = q.new_system(inp["omega"], inp["c"])
    data = q.sample_response(
        system, inp["freqs"], noise_sigma=inp["sigma"], seed=inp["noise_seed"]
    )
    return q.identify_pipeline(data, inp["degree"])


def judge_identify(op, answer) -> tuple[str, dict]:
    if isinstance(answer, Exception):
        return type(answer).__name__, {}
    try:
        system, params = answer[0], answer[1]
        reason = oracles.check_identify(
            op.truth,
            system.omega,
            system.c,
            params.theta,
            params.omega11,
            params.lambdas,
            params.e_abs,
        )
    except (AttributeError, TypeError, IndexError, ValueError) as exc:
        reason = f"unreadable answer: {type(exc).__name__}"
    return ("wrong" if reason else "ok"), {}


def _stage(answers: dict, name: str, fn, *args):
    try:
        answers[name] = fn(*args)
    except Exception as exc:  # judged per stage; the op goes on
        answers[name] = exc
    return answers[name]


def certify_stages(family: str) -> tuple[str, ...]:
    stages = ("structure", "gauge", "distinguish", "tf")
    stages += ("gram",) if family == "dense_m4" else ("lyapunov", "direct")
    return stages + (("infection",) if family == "chain" else ())


def _build(q, family: str, system: dict):
    if family == "chain":
        n = system["omega"].shape[0]
        net = q.new_network(n, system["edges"], [0], coupling=system["c"])
        return q.omega_from_network(net), net
    return q.new_system(system["omega"], system["c"]), None


def execute_certify(q, op) -> dict:
    """Every stage runs, even after an earlier one failed; only data flow skips."""
    inp = op.inputs
    family = inp["family"]
    answers: dict = {}
    built = _stage(answers, "build", _build, q, family, inp["system"])
    if isinstance(built, Exception):
        return answers
    system, net = built
    _stage(answers, "structure", q.structure_report, system)
    _stage(
        answers,
        "gauge",
        lambda: q.find_gauge(system, q.gauge_transform(system, inp["gauge"])),
    )
    _stage(
        answers,
        "distinguish",
        lambda: q.markov_distinguishable(system, _build(q, family, inp["other"])[0]),
    )
    tf = _stage(answers, "tf", q.transfer_rational, system)
    if not isinstance(tf, Exception):
        if family == "dense_m4":
            _stage(answers, "gram", q.mimo_coupling_gram, tf)
        else:
            _stage(
                answers,
                "lyapunov",
                lambda: q.reconstruct_passive(q.companion_realization(tf)),
            )
            _stage(answers, "direct", q.direct_reconstruction, tf)
    if net is not None:
        _stage(answers, "infection", q.infection_identifiability_verdict, net)
    return answers


def _judge_stage(name: str, answer, truth: dict) -> str:
    tol = EXACT_EIG_RTOL * truth["scale"]
    if name == "structure":
        return oracles.check_minimal(answer.minimal, answer.ctrb_rank, truth["n"])
    if name == "gauge":
        return oracles.check_gauge(answer.equivalent, answer.gauge, truth["applied"], GAUGE_TOL)
    if name == "distinguish":
        return oracles.check_true(answer, "distinguishable")
    if name == "tf":
        return ""  # judged through the reconstructions that consume it
    if name == "lyapunov":
        system = answer[0]
        return oracles.check_hamiltonian(system.omega, truth["eigs"], tol, "lyapunov") or (
            oracles.check_gram(system.c, truth["gram"], EXACT_EIG_RTOL, "lyapunov")
        )
    if name == "direct":
        canon = {"theta": float(truth["gram"][0, 0].real), "eigs": truth["eigs"]}
        return oracles.check_canonical(
            answer.theta, answer.omega11, answer.lambdas, answer.e_abs, canon, tol
        )
    if name == "gram":
        return oracles.check_gram(answer[0], truth["gram"], EXACT_EIG_RTOL, "gram")
    if name == "infection":
        return oracles.check_true(answer.identifiable_by_infection, "identifiable")
    raise KeyError(name)


def judge_certify(op, answers) -> tuple[str, dict]:
    """Op outcome is its first failed stage's outcome; stage outcomes alongside."""
    if isinstance(answers, Exception):
        return type(answers).__name__, {}
    truth = dict(op.truth, applied=op.inputs["gauge"])
    stages: dict[str, str] = {}
    build = answers.get("build")
    for name in certify_stages(op.inputs["family"]):
        if isinstance(build, Exception):
            stages[name] = type(build).__name__
            continue
        if name not in answers:  # consumer of a failed transfer_rational
            stages[name] = "Skipped"
            continue
        answer = answers[name]
        if isinstance(answer, Exception):
            stages[name] = type(answer).__name__
            continue
        try:
            reason = _judge_stage(name, answer, truth)
        except (AttributeError, TypeError, IndexError, ValueError) as exc:
            reason = f"unreadable answer: {type(exc).__name__}"
        stages[name] = "wrong" if reason else "ok"
    outcome = next((v for v in stages.values() if v != "ok"), "ok")
    return outcome, stages


def execute_cli(argv: list[str], cwd: Path, env: dict, program: list[str]):
    """One cold process; returns (exit code, stdout, stderr) or the timeout."""
    try:
        proc = subprocess.run(
            [*program, *argv],
            cwd=cwd,
            env=env,
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        return exc
    return proc.returncode, proc.stdout, proc.stderr


def _cli_error_name(stderr: str) -> str:
    for line in reversed(stderr.strip().splitlines()):
        try:
            return str(json.loads(line)["error"])
        except (ValueError, KeyError, TypeError):
            continue
    return "NoErrorRecord"


def _judge_cli_output(cmd: str, out, truth: dict, cwd: Path) -> str:
    if cmd == "probe":
        lines = (cwd / "resp.csv").read_text(encoding="utf-8").splitlines()
        if len(lines) != truth["freqs"].size + 1:
            return f"probe: csv has {len(lines)} lines"
        responses = [
            [[complex(z["re"], z["im"]) for z in row] for row in mat]
            for mat in out["responses"]
        ]
        return oracles.check_responses(out["freqs"], responses, truth)
    if cmd in ("fit", "reconstruct"):
        omega = [[complex(z["re"], z["im"]) for z in row] for row in out["system"]["omega"]]
        canon = out["canonical"]
        reason = oracles.check_hamiltonian(omega, truth["eigs"], truth["tol"], cmd) or (
            oracles.check_eigs(
                oracles.arrowhead_eigs(canon["omega11"], canon["lambdas"], canon["e_abs"]),
                truth["eigs"],
                truth["tol"],
                "canonical",
            )
        )
        if not reason and cmd == "fit":
            written = json.loads((cwd / "sys.json").read_text(encoding="utf-8"))
            if written != out["system"]:
                reason = "fit: --system-out differs from the emitted system"
        return reason
    if cmd == "analyze":
        return oracles.check_minimal(out["minimal"], out["ctrb_rank"], truth["n"])
    if cmd == "equiv":
        gauge = out["gauge"]
        if gauge is not None:
            gauge = np.array([[complex(z["re"], z["im"]) for z in row] for row in gauge])
        return oracles.check_gauge(out["equivalent"], gauge, truth["gauge"], GAUGE_TOL)
    if cmd == "infect":
        verdict = out["verdict"]
        return "" if verdict == "IdentifiableByInfection" else f"verdict {verdict!r}"
    raise KeyError(cmd)


def judge_cli(op, answer, cwd: Path) -> tuple[str, dict]:
    """Exit 0 plus the right answer is ok; exit 1 is the domain error it names;
    exit 2 (usage or I/O) and anything else is a crash."""
    if isinstance(answer, subprocess.TimeoutExpired):
        return "Timeout", {}
    code, stdout, stderr = answer
    if code == 1:
        return _cli_error_name(stderr), {}
    if code != 0:
        return f"exit{code}:{_cli_error_name(stderr)}", {}
    try:
        reason = _judge_cli_output(op.inputs["cmd"], json.loads(stdout), op.truth, cwd)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        reason = f"unreadable output: {type(exc).__name__}"
    return ("wrong" if reason else "ok"), {}
