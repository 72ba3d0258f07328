"""qsysid benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/qsysid``. With
``--trace 0`` the last line of stdout is one JSON object with the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it carries the
per-layer metrics instead. The lines before it give every metric with its
unit, the outcome of every op by class, and the environment. The same
record goes to ``.perfbench/result-<workload>-seed<N>-trace<T>.json``.

Load model: one client in one process, closed loop, BLAS limited to one
thread. Every workload run and every set-up measurement starts a fresh
interpreter. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import SETUP_PROBE_LINE, per_layer_names
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
# Set-up samples per untraced run, taken evenly over the workload's run.
SETUP_REPEATS = 15
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OUT_DIR = ".perfbench"

E2E_UNITS = {
    "goodput_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_frac": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


# End-to-end timings, reported at the reference host speed (see speed.py);
# a rate divides by the speed, a time multiplies.
TIMINGS = ("goodput_per_s", "op_p50_ms", "op_p90_ms", "setup_s")


def at_reference_speed(raw: dict, speed: float) -> dict:
    return {
        name: value / speed if name == "goodput_per_s" else value * speed
        for name, value in raw.items()
    }


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def child_env(src: Path) -> dict:
    """Absolute src on PYTHONPATH (children run in other directories), one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    for name in BLAS_ENV:
        env[name] = BLAS_THREADS
    return env


def _last_json_line(text: str) -> dict:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise BenchError("worker printed nothing")
    return json.loads(lines[-1])


def setup_sample(args, env: dict, out_dir: Path) -> tuple[float, str]:
    """Interpreter start -> import qsysid -> one warm-up op, in a fresh process."""
    cmd = [sys.executable, str(WORKER), "setup", "--workload", args.workload,
           "--seed", str(args.seed), "--out-dir", str(out_dir)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"set-up probe exited with {proc.returncode}")
    ready = _last_json_line(proc.stdout)
    return ready["ready"] - t0 - ready["generate_s"], ready["outcome"]


def run_worker(args, env: dict, out_dir: Path, setup: list) -> dict:
    """The workload process, in its own process group so that a timeout also
    ends the CLI processes it started.

    Untraced, the worker pauses SETUP_REPEATS times, evenly over its run,
    and each pause takes one set-up sample into ``setup``: the machine's
    speed drifts over tens of seconds, and samples taken back to back
    would all fall in one spell.
    """
    cmd = [sys.executable, str(WORKER), "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(out_dir),
           "--setup-probes", str(0 if args.trace else SETUP_REPEATS)]
    proc = subprocess.Popen(cmd, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    lines = []
    try:
        for line in proc.stdout:
            if line.strip() == SETUP_PROBE_LINE:
                setup.append(setup_sample(args, env, out_dir))
                proc.stdin.write("\n")
                proc.stdin.flush()
            else:
                lines.append(line)
    finally:
        timed_out = not watchdog.is_alive()
        watchdog.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if timed_out:
        raise BenchError(f"workload process ran past {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")
    return _last_json_line("".join(lines))


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True)
    return proc.stdout.strip() or None


def _src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "qsysid").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(args, root: Path, src: Path, blas_threads) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _version("scipy"),
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(src),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "clients": 1,
        "load": "closed loop",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "qsysid" / "__init__.py").is_file():
        print(f"error: {root} holds no src/qsysid; run from a qsysid checkout",
              file=sys.stderr)
        return 2
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    env = child_env(src)
    for name in BLAS_ENV:
        os.environ[name] = BLAS_THREADS
    setup: list[tuple[float, str]] = []
    try:
        result = run_worker(args, env, out_dir, setup)
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    setup_times = [t for t, _ in setup]
    setup_outcomes = [o for _, o in setup]
    summary, extra = result["summary"], result["extra"]
    metrics = result["metrics"]
    correct = (
        summary["judged_ops"] == summary["distinct_ops"]
        and summary["anchors_ok"] == summary["anchors"]
        and summary["verdict_mismatches"] == 0
        and all(o == "ok" for o in setup_outcomes)
        and len(setup_outcomes) == (0 if args.trace else SETUP_REPEATS)
        and extra["warmup_outcome"] == "ok"
    )
    if args.trace:
        units = dict(per_layer_names())
    else:
        metrics["setup_s"] = statistics.median(setup_times)
        raw = {name: metrics[name] for name in TIMINGS}
        metrics.update(at_reference_speed(raw, metrics["speed"]))
        units = E2E_UNITS
    shown = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    record = {
        "environment": environment(args, root, src, extra.get("blas_threads")),
        "summary": summary,
        "extra": dict(extra, setup_s_samples=setup_times, setup_outcomes=setup_outcomes,
                      samples=metrics.get("samples"), beyond_p90=metrics.get("beyond_p90"),
                      speed=metrics.get("speed"), raw=None if args.trace else raw),
        "metrics": shown,
        "correct": correct,
    }
    path = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    for name, entry in shown.items():
        print(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']}")
    print("outcomes by class (distinct ops):", json.dumps(summary["outcomes"]))
    if not args.trace:
        print(f"latency samples: {metrics['samples']} ({metrics['beyond_p90']} beyond p90)")
        print(f"host speed {metrics['speed']:.4f} of the reference host "
              f"({len(extra['kernel_s'])} kernel samples); wall-clock values:")
        for name, value in raw.items():
            print(f"{args.workload} {name} (wall clock) = {value:.6g} {E2E_UNITS[name]}")
    print(json.dumps({k: record[k] for k in ("environment", "summary")}))
    print(json.dumps({
        "correct": correct,
        "attempted": summary["distinct_ops"],
        "failed": summary["distinct_ops"] - summary["ok_ops"],
        "metrics": shown,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
