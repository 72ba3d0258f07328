"""Per-op verdicts of an in-process benchmark workload, and their digest.

    python3 tools/verdicts.py --workload certify_large --seed 1 [--seed 2 ...]

Run from the root of a checkout that holds ``src/qsysid`` and
``perfbench``; the library and the benchmark are both taken from there.
Every op of the workload runs once, in this process, through the
benchmark's own op list, library calls and judges (``perfbench/workloads.py``
and ``ops.py``). Nothing is timed. For each seed one JSON line gives the
op count, the outcome counts and a SHA-256 over the ordered per-op
verdicts (outcome and stage outcomes), so two checkouts whose digests
agree give every op the same verdict. BLAS is held to one thread, as in
the benchmark, since its summation order can move a verdict.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tools/verdicts.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("identify_small", "certify_large"))
    parser.add_argument("--seed", type=int, action="append", required=True)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "qsysid" / "__init__.py").is_file():
        print(f"error: {root} holds no src/qsysid; run from a qsysid checkout", file=sys.stderr)
        return 2
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"  # before NumPy loads, as perfbench/run.py does
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import qsysid
    import workloads
    from worker import INPROCESS

    execute, judge = INPROCESS[args.workload]
    for seed in args.seed:
        digest = hashlib.sha256()
        outcomes: dict[str, int] = {}
        specs = workloads.op_specs(args.workload, seed)
        for spec in specs:
            op = workloads.realize(args.workload, seed, spec)
            try:
                answer = execute(qsysid, op)
            except Exception as exc:  # an op failure, judged like any other answer
                answer = exc
            outcome, stages = judge(op, answer)
            digest.update(json.dumps([outcome, stages]).encode() + b"\n")
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
        print(json.dumps({
            "workload": args.workload,
            "seed": seed,
            "ops": len(specs),
            "outcomes": dict(sorted(outcomes.items())),
            "sha256": digest.hexdigest(),
        }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
