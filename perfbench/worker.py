"""Fresh-interpreter side of the benchmark; started by run.py, never by hand.

``worker.py setup``: time interpreter start -> ``import qsysid`` -> one
untimed warm-up op, and print when it was ready (CLOCK_MONOTONIC, which
the parent shares) with the time spent making the warm-up input, which
the parent subtracts.

``worker.py run``: make the seeded op list, import qsysid, run one warm-up
op, then drive one closed-loop client over the op list and print one JSON
object with the workload's metrics. Untraced, the loop also times the
host-speed kernel of ``speed.py`` between ops, at most four times a
second. With ``--setup-probes N`` the loop stops N times, evenly over the
run, prints ``setup-probe`` and waits for a line on stdin while run.py
takes a set-up sample.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import ops as opmod
import speed as speedmod
import workloads
from spans import LAYERS, OP_SPAN, SPAN_CAP, Tracer, merge_stats, write_spans

HERE = Path(__file__).resolve().parent
SHIM = HERE / "cli_shim.py"
INTERP_SAMPLES = 10
# printed by ``worker.py run`` when run.py may take a set-up sample
SETUP_PROBE_LINE = "setup-probe"

# Per-layer metrics: (metric name, stats entry, counter, kind). "ms" means
# self milliseconds per pass, "count" a per-pass count.
FUNCTION_METRICS = (
    ("model.transfer_at.calls", "model.transfer_at", "calls", "count"),
    ("model.transfer_at.self_ms", "model.transfer_at", "self_s", "ms"),
    ("model.transfer_rational.self_ms", "model.transfer_rational", "self_s", "ms"),
    ("probe.sample_response.self_ms", "probe.sample_response", "self_s", "ms"),
    ("probe.fit_rational.self_ms", "probe.fit_rational", "self_s", "ms"),
    ("probe.fit_rational.iterations", "probe.fit_rational", "iterations", "count"),
    ("probe.fit_rational.fail", "probe.fit_rational", "fail", "count"),
    ("probe.identify_pipeline.fail", "probe.identify_pipeline", "fail", "count"),
    ("realization.reconstruct_passive.self_ms", "realization.reconstruct_passive", "self_s", "ms"),
    ("realization.reconstruct_passive.fail", "realization.reconstruct_passive", "fail", "count"),
    ("realization.solve_lyapunov.self_ms", "realization.solve_lyapunov", "self_s", "ms"),
    ("realization.solve_lyapunov.warnings", "realization.solve_lyapunov", "warnings", "count"),
    ("realization.direct_reconstruction.self_ms", "realization.direct_reconstruction", "self_s", "ms"),
    ("realization.direct_reconstruction.fail", "realization.direct_reconstruction", "fail", "count"),
    ("realization.mimo_coupling_gram.self_ms", "realization.mimo_coupling_gram", "self_s", "ms"),
    ("analysis.structure_report.calls", "analysis.structure_report", "calls", "count"),
    ("analysis.structure_report.self_ms", "analysis.structure_report", "self_s", "ms"),
    ("analysis.structure_report.rank_deficit", "analysis.structure_report", "rank_deficit", "count"),
    ("identifiability.find_gauge.calls", "identifiability.find_gauge", "calls", "count"),
    ("identifiability.find_gauge.self_ms", "identifiability.find_gauge", "self_s", "ms"),
    ("identifiability.find_gauge.fail", "identifiability.find_gauge", "fail", "count"),
    ("identifiability.find_gauge.recovered", "identifiability.find_gauge", "recovered", "count"),
    ("identifiability.markov_distinguishable.self_ms", "identifiability.markov_distinguishable", "self_s", "ms"),
    ("network.infection_identifiability_verdict.self_ms", "network.infection_identifiability_verdict", "self_s", "ms"),
)
PIPELINE_ERRORS = (
    "IllConditioned",
    "NotPassiveTF",
    "NotHurwitz",
    "NegativeResidue",
    "SolverSingular",
    "DegenerateSpectrum",
    "NonMonic",
)
UNIT = {"count": "count/pass", "ms": "ms/pass"}
INPROCESS = {
    "identify_small": (opmod.execute_identify, opmod.judge_identify),
    "certify_large": (opmod.execute_certify, opmod.judge_certify),
}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run emits, with its unit."""
    names = [(name, UNIT[kind]) for name, _, _, kind in FUNCTION_METRICS]
    names += [(f"probe.identify_pipeline.fail.{e}", "count/pass") for e in PIPELINE_ERRORS]
    names.append(("probe.identify_pipeline.fail.other", "count/pass"))
    names += [(f"{layer}.self_ms", "ms/pass") for layer in LAYERS]
    names += [("cli.interp_ms", "ms"), ("cli.import_ms", "ms")]
    names += [(f"cli.{cmd}.wall_ms", "ms") for cmd in workloads.CLI_COMMANDS]
    names += [(f"serialize.{cmd}.bytes_out", "bytes") for cmd in workloads.CLI_COMMANDS]
    names += [("trace.unattributed_ms", "ms/pass"), ("trace.overhead_frac", "fraction")]
    return names


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that NumPy loaded, when it can be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Tally:
    """Outcomes and latencies of every attempt in one run."""

    def __init__(self, ops: list):
        self.ops = ops
        self.verdicts: list = [None] * len(ops)
        self.mismatches = 0
        self.latencies: list[float] = []
        self.ok_attempts = 0

    def add(self, op, outcome: str, stages: dict, latency: float) -> None:
        verdict = (outcome, stages)
        first = self.verdicts[op.index]
        if first is None:
            self.verdicts[op.index] = verdict
        elif first != verdict:
            self.mismatches += 1
        self.latencies.append(latency)
        self.ok_attempts += outcome == "ok"

    def summary(self) -> dict:
        judged = [v for v in self.verdicts if v is not None]
        outcomes: dict[str, int] = {}
        stages: dict[str, int] = {}
        by_label: dict[str, dict] = {}
        for op, verdict in zip(self.ops, self.verdicts):
            if verdict is None:
                continue
            outcome, stage_map = verdict
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
            for name, value in stage_map.items():
                key = f"{name}:{value}"
                stages[key] = stages.get(key, 0) + 1
            cell = by_label.setdefault(op.label, {"ok": 0, "ops": 0})
            cell["ops"] += 1
            cell["ok"] += outcome == "ok"
        anchors = [v for op, v in zip(self.ops, self.verdicts) if op.anchor]
        return {
            "distinct_ops": len(self.ops),
            "judged_ops": len(judged),
            "ok_ops": outcomes.get("ok", 0),
            "outcomes": dict(sorted(outcomes.items())),
            "stage_outcomes": dict(sorted(stages.items())),
            "ok_by_cell": by_label,
            "anchors": len(anchors),
            "anchors_ok": sum(1 for v in anchors if v is not None and v[0] == "ok"),
            "verdict_mismatches": self.mismatches,
            "attempts": len(self.latencies),
        }


def run_passes(
    ops: list, step, max_seconds: float, whole_passes: bool, pauses: int = 0, pause=None
) -> list[float]:
    """Closed loop over the op list: at least one full pass, then until time is up.

    ``pause`` is called ``pauses`` times, at evenly spaced points of the
    run's time; the time it takes is left out of the run. Returns the time
    of each completed pass.
    """
    start = time.monotonic()
    paused = 0.0
    marks = [(k + 0.5) * max_seconds / pauses for k in range(pauses)]
    pass_start = 0.0
    pass_times: list[float] = []
    i = 0
    while True:
        step(ops[i])
        i += 1
        now = time.monotonic() - start - paused
        while marks and now >= marks[0]:
            marks.pop(0)
            t0 = time.monotonic()
            pause()
            paused += time.monotonic() - t0
        if i == len(ops):
            i = 0
            pass_times.append(now - pass_start)
            pass_start = now
            if now >= max_seconds:
                return pass_times
        elif pass_times and not whole_passes and now >= max_seconds:
            return pass_times


def run_traced_phases(ops: list, step_plain, step_traced, seconds: float, tracing):
    """One untraced pass, then traced passes (inside ``tracing``) while they fit."""
    start = time.monotonic()
    plain = run_passes(ops, step_plain, 0.0, whole_passes=True)
    traced: list[float] = []
    with tracing:
        while not traced or time.monotonic() - start + traced[-1] <= seconds:
            traced += run_passes(ops, step_traced, 0.0, whole_passes=True)
    return plain, traced


def layer_metrics(stats: dict, passes: int) -> dict:
    """Per-pass per-layer metrics from merged tracer counters."""
    out: dict[str, float] = {}
    for name, entry, counter, kind in FUNCTION_METRICS:
        value = stats.get(entry, {}).get(counter, 0)
        out[name] = value * 1e3 / passes if kind == "ms" else value / passes
    pipeline = stats.get("probe.identify_pipeline", {})
    other = sum(
        v for k, v in pipeline.items() if k.startswith("fail.") and k[5:] not in PIPELINE_ERRORS
    )
    for err in PIPELINE_ERRORS:
        out[f"probe.identify_pipeline.fail.{err}"] = pipeline.get("fail." + err, 0) / passes
    out["probe.identify_pipeline.fail.other"] = other / passes
    for layer in LAYERS:
        total = sum(e["self_s"] for n, e in stats.items() if n.startswith(layer + "."))
        out[f"{layer}.self_ms"] = total * 1e3 / passes
    out["trace.unattributed_ms"] = stats.get(OP_SPAN, {}).get("self_s", 0.0) * 1e3 / passes
    return out


def end_to_end(tally: Tally, busy_s: float) -> dict:
    lat = np.asarray(tally.latencies)
    p50, p90 = np.percentile(lat, [50, 90])
    summary = tally.summary()
    return {
        "goodput_per_s": tally.ok_attempts / busy_s,
        "op_p50_ms": float(p50) * 1e3,
        "op_p90_ms": float(p90) * 1e3,
        "ok_frac": summary["ok_ops"] / summary["distinct_ops"],
        "samples": int(lat.size),
        "beyond_p90": int(np.sum(lat > p90)),
    }


class InProcessRunner:
    """Ops of identify_small and certify_large, called in this process.

    Each op is made from its spec just before it runs, outside the timed
    call, so the process holds one op's inputs at a time.
    """

    rusage = resource.RUSAGE_SELF

    def __init__(self, args, specs: list, out_dir: Path):
        import qsysid

        self.q = qsysid
        self.workload, self.seed = args.workload, args.seed
        self.execute, self.judge = INPROCESS[args.workload]
        self.tracer = Tracer()

    def attempt(self, spec, mode: str) -> tuple[str, dict, float]:
        op = workloads.realize(self.workload, self.seed, spec)
        t0 = time.perf_counter()
        try:
            if mode == "traced":
                answer = self.tracer.run_op(op.index, self.execute, self.q, op)
            else:
                answer = self.execute(self.q, op)
        except Exception as exc:  # an op failure, judged and counted
            answer = exc
        dt = time.perf_counter() - t0
        return (*self.judge(op, answer), dt)

    def tracing(self):
        return self.tracer.installed()

    def trace_metrics(self, passes: int) -> dict:
        metrics = layer_metrics(self.tracer.stats, passes)
        metrics.update({"cli.interp_ms": 0.0, "cli.import_ms": 0.0})
        for cmd in workloads.CLI_COMMANDS:
            metrics[f"cli.{cmd}.wall_ms"] = 0.0
            metrics[f"serialize.{cmd}.bytes_out"] = 0.0
        return metrics

    def spans(self) -> list:
        return self.tracer.spans

    def extra(self) -> dict:
        return {"dropped_spans": self.tracer.dropped}

    def close(self) -> None:
        pass


class CliRunner:
    """cli_cold ops: one cold ``python -m qsysid`` process each, in its own
    temporary directory; traced ops run ``cli_shim.py`` instead."""

    # ru_maxrss of RUSAGE_CHILDREN is that of the largest child reaped
    rusage = resource.RUSAGE_CHILDREN

    def __init__(self, args, specs: list, out_dir: Path):
        self.work = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
        self.argvs = workloads.write_cli_inputs(specs, self.work / "inputs")
        self.env = dict(os.environ)
        self.wall: dict[str, list[float]] = {cmd: [] for cmd in workloads.CLI_COMMANDS}
        self.bytes_out: dict[str, list[int]] = {cmd: [] for cmd in workloads.CLI_COMMANDS}
        self.stats: dict = {}
        self.imports: list[float] = []
        self.traced_spans: list = []

    def attempt(self, op, mode: str) -> tuple[str, dict, float]:
        cwd = Path(tempfile.mkdtemp(prefix="op-", dir=self.work))
        if mode == "traced":
            program = [sys.executable, str(SHIM), str(cwd / "trace.json")]
        else:
            program = [sys.executable, "-m", "qsysid"]
        try:
            t0 = time.perf_counter()
            answer = opmod.execute_cli(self.argvs[op.index], cwd, self.env, program)
            dt = time.perf_counter() - t0
            outcome, stages = opmod.judge_cli(op, answer, cwd)
            if mode == "plain":
                self.wall[op.inputs["cmd"]].append(dt)
            elif mode == "traced":
                self._record_traced(op, answer, cwd)
        finally:
            shutil.rmtree(cwd, ignore_errors=True)
        return outcome, stages, dt

    def _record_traced(self, op, answer, cwd: Path) -> None:
        if not isinstance(answer, tuple):
            return
        self.bytes_out[op.inputs["cmd"]].append(len(answer[1].encode("utf-8")))
        try:
            dump = json.loads((cwd / "trace.json").read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        merge_stats(self.stats, dump["stats"])
        self.imports.append(dump["import_s"])
        room = max(0, SPAN_CAP - len(self.traced_spans))
        self.traced_spans.extend([s[:5] + [op.index] for s in dump["spans"][:room]])

    def tracing(self):
        return contextlib.nullcontext()

    def trace_metrics(self, passes: int) -> dict:
        metrics = layer_metrics(self.stats, passes)
        interp = []
        for _ in range(INTERP_SAMPLES):
            t0 = time.perf_counter()
            opmod.execute_cli(["-c", "pass"], self.work, self.env, [sys.executable])
            interp.append(time.perf_counter() - t0)
        metrics["cli.interp_ms"] = float(np.median(interp)) * 1e3
        metrics["cli.import_ms"] = float(np.median(self.imports)) * 1e3 if self.imports else 0.0
        for cmd in workloads.CLI_COMMANDS:
            metrics[f"cli.{cmd}.wall_ms"] = float(np.median(self.wall[cmd])) * 1e3
            metrics[f"serialize.{cmd}.bytes_out"] = (
                float(np.mean(self.bytes_out[cmd])) if self.bytes_out[cmd] else 0.0
            )
        return metrics

    def spans(self) -> list:
        return self.traced_spans

    def extra(self) -> dict:
        return {}

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


RUNNERS = {
    "identify_small": InProcessRunner,
    "certify_large": InProcessRunner,
    "cli_cold": CliRunner,
}


def drive(args, runner, specs: list, out_dir: Path) -> dict:
    """One warm-up op, then the closed loop; the metrics of either run kind."""
    tally = Tally(specs)
    busy = [0.0]

    def step(mode: str):
        def go(spec):
            outcome, stages, dt = runner.attempt(spec, mode)
            busy[0] += dt
            tally.add(spec, outcome, stages, dt)

        return go

    warm_outcome = runner.attempt(next(s for s in specs if s.anchor), "warm")[0]
    if args.trace:
        plain_passes, traced_passes = run_traced_phases(
            specs, step("plain"), step("traced"), args.seconds, runner.tracing()
        )
        metrics = runner.trace_metrics(len(traced_passes))
        metrics["trace.overhead_frac"] = (
            float(np.mean(traced_passes)) / float(np.mean(plain_passes)) - 1.0
        )
        write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl", runner.spans())
        extra = {"plain_pass_s": plain_passes, "traced_pass_s": traced_passes, **runner.extra()}
    else:
        plain = step("plain")
        kernel: list[float] = []
        due = 0.0

        def plain_and_speed(spec):
            """One op, then a host-speed sample when one is due."""
            nonlocal due
            plain(spec)
            if time.monotonic() >= due:
                kernel.append(speedmod.reference_kernel())
                due = time.monotonic() + 1.0 / speedmod.SAMPLES_PER_S

        speedmod.reference_kernel()  # warm-up
        pass_times = run_passes(
            specs, plain_and_speed, args.seconds, False, args.setup_probes, _await_setup_probe
        )
        metrics = end_to_end(tally, busy[0])
        metrics["peak_rss_mb"] = resource.getrusage(runner.rusage).ru_maxrss / 1024.0
        metrics["speed"] = speedmod.speed(kernel)
        extra = {"full_passes": len(pass_times), "busy_s": busy[0], "kernel_s": kernel}
    extra["warmup_outcome"] = warm_outcome
    return {"metrics": metrics, "summary": tally.summary(), "extra": extra}


def _await_setup_probe() -> None:
    """Hand the machine to run.py for one set-up measurement, and wait."""
    print(SETUP_PROBE_LINE, flush=True)
    sys.stdin.readline()


def cmd_run(args) -> int:
    out_dir = Path(args.out_dir)
    t0 = time.perf_counter()
    specs = workloads.op_specs(args.workload, args.seed)
    digest = workloads.op_list_digest(
        workloads.realize(args.workload, args.seed, spec) for spec in specs
    )
    gen_s = time.perf_counter() - t0
    threads = blas_threads()
    nproc = len(os.sched_getaffinity(0))
    if threads is not None and threads > nproc:
        print(f"error: BLAS uses {threads} threads on {nproc} cpus", file=sys.stderr)
        return 2
    runner = RUNNERS[args.workload](args, specs, out_dir)
    try:
        result = drive(args, runner, specs, out_dir)
    finally:
        runner.close()
    result["extra"].update({"op_list_sha256": digest, "generate_s": gen_s, "blas_threads": threads})
    print(json.dumps(result))
    return 0


def cmd_setup(args) -> int:
    """Interpreter start -> import qsysid -> one warm-up op; report when ready."""
    import qsysid as q

    t0 = time.perf_counter()
    if args.workload == "cli_cold":
        ops = workloads.make_cli_ops(args.seed)
        warm = next(op for op in ops if op.inputs["cmd"] == "analyze")
        work = Path(tempfile.mkdtemp(prefix="setup-", dir=args.out_dir))
        try:
            argv = workloads.write_cli_inputs([warm], work)[0]
            gen_s = time.perf_counter() - t0
            import qsysid.cli

            with contextlib.redirect_stdout(io.StringIO()):
                code = qsysid.cli.main(argv[:])
            outcome = "ok" if code == 0 else f"exit{code}"
        finally:
            shutil.rmtree(work, ignore_errors=True)
    else:
        warm = workloads.make_warmup_op(args.workload, args.seed)
        gen_s = time.perf_counter() - t0
        execute, judge = INPROCESS[args.workload]
        try:
            answer = execute(q, warm)
        except Exception as exc:  # judged like any op
            answer = exc
        outcome = judge(warm, answer)[0]
    ready = time.monotonic()
    print(json.dumps({"ready": ready, "generate_s": gen_s, "outcome": outcome}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-probes", type=int, default=0)
    args = parser.parse_args(argv)
    return cmd_setup(args) if args.mode == "setup" else cmd_run(args)


if __name__ == "__main__":
    raise SystemExit(main())
