"""Accuracy frontier: where identification and exact round trips still give the right answer.

    python3 tools/frontier.py

Run from the root of a checkout that holds ``src/qsysid`` and
``perfbench``; the library and the benchmark's generators, ops and judges
(``perfbench/workloads.py``, ``ops.py``) are all taken from there, in this
process. Nothing is timed or written. BLAS is held to one thread, as in the
benchmark, since its summation order can move a verdict.

Two kinds of cell, each 10 seeded draws:

- ``identify``: the benchmark's identify op (``sample_response`` ->
  ``identify_pipeline`` at degree n) and judge, on a ``single_node_siso``
  system, for n in SIZES and sigma in {0, 1e-6, 1e-4}. The three sigmas of
  a draw share its system, as in the benchmark. Two grids of N = max(200,
  8n) points: ``positive``, the benchmark's geomspace(0.01 scale, 100 scale,
  N), and ``two_sided``, every second point of it mirrored onto negative
  frequencies. Both grids see the same system and noise seed.
- ``round_trip``: the exact single-port function ``transfer_rational`` of a
  system of the certify generator's ``dense_siso`` or ``chain`` family, for
  n in ROUND_TRIP_SIZES, rebuilt on two routes: ``measure`` takes the
  function as it comes, with its spectral measure; ``coefficients`` takes
  ``make_rational_tf(num, den)``, the monomial coefficients alone, as a file
  gives them. Each goes through ``reconstruct_passive(companion_realization)``
  and ``direct_reconstruction``, judged as the certify judge judges its
  ``lyapunov`` and ``direct`` stages; the op's outcome is its first stage
  that is not ``ok``.

- ``evaluation``: the exact function ``transfer_rational`` of a ``dense_system``
  draw (the benchmark's generator), for m in EVAL_PORTS and n in EVAL_SIZES,
  on the ``measure`` route, and for m = 1 also on the ``coefficients`` one (a
  multiport function has no monomial coefficients); its error is the worst
  ``|tf.eval - transfer_at| / max(1, |Xi|)`` over EVAL_POINTS points of the
  imaginary axis in [-3i, 3i], inf when the function cannot be built.

An op's outcome is ``ok``, ``wrong`` or the class name of the exception it
raised. Output is JSON lines: one per cell with its outcome counts; one per
grid and sigma (``identify``) or family and route (``round_trip``) with
``largest_n``, the largest n whose cell has at least 9 ``ok`` of 10 and no
``wrong`` (null if none); a line with the op count and ``sha256`` over the
ordered per-op outcomes; one line per evaluation cell with its worst error
over the draws, and one per m and route with ``largest_n``, the largest n
whose worst error is within EVAL_TOL (null if none), all kept out of the
digest; and, for each benchmark seed in REPLAY_SEEDS, one
line per grid with the outcome counts of the benchmark's whole
``identify_small`` op list, each op's grid swapped for the two-sided one of
the same points; the positive grid is the benchmark's own.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

SIZES = (2, 3, 4, 5, 6, 8, 12, 16, 24, 32, 48, 64)
SIGMAS = (0.0, 1e-6, 1e-4)
ROUND_TRIP_SIZES = (4, 8, 16, 24, 32, 48, 64, 128, 256)
FAMILIES = ("dense_siso", "chain")
ROUTES = ("measure", "coefficients")
EVAL_PORTS = (1, 2, 4)
EVAL_SIZES = (8, 12, 24, 48, 128)
EVAL_POINTS = 13
EVAL_TOL = 1e-8
DRAWS = 10
SEED = 1
REPLAY_SEEDS = (1, 2, 3)


def main() -> int:
    root = Path.cwd().resolve()
    if not (root / "src" / "qsysid" / "__init__.py").is_file():
        print(f"error: {root} holds no src/qsysid; run from a qsysid checkout", file=sys.stderr)
        return 2
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"  # before NumPy loads, as perfbench/run.py does
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import numpy as np
    import ops
    import qsysid
    import workloads

    def two_sided(freqs):
        half = freqs[::2]
        return np.concatenate([-half[::-1], half])

    def outcome(run, judge) -> str:
        try:
            answer = run()
        except Exception as exc:  # an op failure, judged like any other answer
            return type(exc).__name__
        return judge(answer)

    def identify(op, freqs) -> str:
        op.inputs["freqs"] = freqs
        return outcome(lambda: ops.execute_identify(qsysid, op),
                       lambda answer: ops.judge_identify(op, answer)[0])

    def round_trip(op, route: str) -> str:
        try:
            system, _ = ops._build(qsysid, op.inputs["family"], op.inputs["system"])
            tf = qsysid.transfer_rational(system)
            if route == "coefficients":
                tf = qsysid.make_rational_tf(tf.num, tf.den)
        except Exception as exc:  # a failed build or function, judged like a failed stage
            return type(exc).__name__
        truth = dict(op.truth, applied=op.inputs["gauge"])
        for stage, call in (
            ("lyapunov", lambda: qsysid.reconstruct_passive(qsysid.companion_realization(tf))),
            ("direct", lambda: qsysid.direct_reconstruction(tf)),
        ):
            verdict = outcome(call, lambda answer: "wrong" if ops._judge_stage(
                stage, answer, truth) else "ok")
            if verdict != "ok":
                return verdict
        return "ok"

    digest, count = hashlib.sha256(), 0
    cells: dict[tuple, dict[str, int]] = {}

    def record(cell: tuple, verdict: str) -> None:
        nonlocal count
        digest.update(json.dumps([*cell, verdict]).encode() + b"\n")
        count += 1
        tally = cells.setdefault(cell, {})
        tally[verdict] = tally.get(verdict, 0) + 1

    for n in SIZES:
        for draw in range(DRAWS):
            omega, c = workloads.single_node_siso(np.random.default_rng([SEED, 11, n, draw]), n)
            for k, sigma in enumerate(SIGMAS):
                noise_seed = int(np.random.default_rng([SEED, 11, n, draw, k]).integers(2**31))
                op = workloads._identify_op(count, "random", n, sigma, (omega, c), noise_seed)
                scale = workloads.spectral_scale(omega, c)
                positive = np.geomspace(0.01 * scale, 100.0 * scale, max(200, 8 * n))
                for grid, freqs in (("positive", positive), ("two_sided", two_sided(positive))):
                    record(("identify", grid, sigma, n), identify(op, freqs))
    for family in FAMILIES:
        for n in ROUND_TRIP_SIZES:
            for draw in range(DRAWS):
                rng = np.random.default_rng([SEED, 12, FAMILIES.index(family), n, draw])
                op = workloads._certify_op(rng, count, family, n)
                for route in ROUTES:
                    record(("round_trip", family, route, n), round_trip(op, route))

    frontier: dict[tuple, int | None] = {}
    for (part, kind, key, n), tally in sorted(cells.items()):
        print(json.dumps({"part": part, ("grid" if part == "identify" else "family"): kind,
                          ("sigma" if part == "identify" else "route"): key, "n": n,
                          "outcomes": dict(sorted(tally.items()))}))
        passed = tally.get("ok", 0) >= DRAWS - 1 and not tally.get("wrong", 0)
        frontier.setdefault((part, kind, key), None)
        if passed:
            frontier[(part, kind, key)] = n
    for (part, kind, key), n in frontier.items():
        print(json.dumps({"part": part, ("grid" if part == "identify" else "family"): kind,
                          ("sigma" if part == "identify" else "route"): key, "largest_n": n}))
    print(json.dumps({"seed": SEED, "ops": count, "sha256": digest.hexdigest()}))

    def evaluation_error(system, route: str) -> float:
        try:
            tf = qsysid.transfer_rational(system)
            if route == "coefficients":
                tf = qsysid.make_rational_tf(tf.num, tf.den)
        except Exception:  # a function that cannot be built evaluates nowhere
            return float("inf")
        points = 1j * np.linspace(-3.0, 3.0, EVAL_POINTS)
        direct = np.array([qsysid.transfer_at(system, s) for s in points])
        with np.errstate(all="ignore"):  # monomials at large n overflow; NaN reads as inf
            error = np.abs(tf.eval(points) - direct).max(axis=(1, 2))
        error /= np.maximum(1.0, np.abs(direct).max(axis=(1, 2)))
        return float(error.max()) if np.isfinite(error).all() else float("inf")

    for m in EVAL_PORTS:
        for route in ROUTES if m == 1 else ROUTES[:1]:
            largest = None
            for n in EVAL_SIZES:
                worst = 0.0
                for draw in range(DRAWS):
                    rng = np.random.default_rng([SEED, 13, m, n, draw])
                    system = qsysid.new_system(*workloads.dense_system(rng, n, m))
                    worst = max(worst, evaluation_error(system, route))
                print(json.dumps({"part": "evaluation", "m": m, "route": route, "n": n,
                                  "worst": worst}))
                if worst <= EVAL_TOL:
                    largest = n
            print(json.dumps({"part": "evaluation", "m": m, "route": route,
                              "largest_n": largest}))

    for seed in REPLAY_SEEDS:
        tallies: dict[str, dict[str, int]] = {"positive": {}, "two_sided": {}}
        for spec in workloads.op_specs("identify_small", seed):
            op = workloads.realize("identify_small", seed, spec)
            positive = op.inputs["freqs"]
            for grid, freqs in (("positive", positive), ("two_sided", two_sided(positive))):
                verdict = identify(op, freqs)
                tallies[grid][verdict] = tallies[grid].get(verdict, 0) + 1
        for grid, tally in tallies.items():
            print(json.dumps({"replay": "identify_small", "seed": seed, "grid": grid,
                              "outcomes": dict(sorted(tally.items()))}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
