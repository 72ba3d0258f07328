"""Per-op verdicts of an in-process benchmark workload, and their digest.

    python3 tools/verdicts.py --workload certify_large --seed 1 [--seed 2 ...]

Run from the root of a checkout that holds ``src/qsysid`` and
``perfbench``; the library and the benchmark are both taken from there.
Every op of the workload runs once, in this process, through the
benchmark's own op list, library calls and judges (``perfbench/workloads.py``
and ``ops.py``). Nothing is timed. For each seed one JSON line gives the
op count, the outcome counts, ``sha256`` over the ordered per-op verdicts
(outcome and stage outcomes) and ``answers_sha256`` over the ordered
per-op answers: the bytes of every array and number in them, public
dataclass fields only, an exception by its class name. Two checkouts
whose ``sha256`` agree give every op the same verdict; two whose
``answers_sha256`` agree give every op the same answer, bit for bit. BLAS
is held to one thread, as in the benchmark, since its summation order can
move a verdict.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path


def feed(digest, value) -> None:
    """Add the bytes of every array and number in value to digest, each
    after a tag of its kind, so that different answers feed different bytes."""
    import numpy as np  # not at module level: main() sets BLAS threads first

    if isinstance(value, BaseException):
        digest.update(b"E" + type(value).__name__.encode())
    elif isinstance(value, (np.ndarray, np.generic, bool, int, float, complex)):
        value = np.ascontiguousarray(value)
        digest.update(f"A{value.dtype.str}{value.shape}".encode() + value.tobytes())
    elif isinstance(value, str) or value is None:
        digest.update(b"S" + repr(value).encode())
    elif isinstance(value, dict):
        digest.update(f"D{len(value)}".encode())
        for key in sorted(value):
            feed(digest, key)
            feed(digest, value[key])
    elif isinstance(value, (tuple, list)):
        digest.update(f"T{len(value)}".encode())
        for item in value:
            feed(digest, item)
    elif dataclasses.is_dataclass(value):
        digest.update(b"C" + type(value).__name__.encode())
        for f in dataclasses.fields(value):
            if not f.name.startswith("_"):
                feed(digest, f.name)
                feed(digest, getattr(value, f.name))
    else:
        raise TypeError(f"no digest for a {type(value).__name__} in an answer")


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
        digest, answers = hashlib.sha256(), hashlib.sha256()
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
            feed(answers, answer)
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
        print(json.dumps({
            "workload": args.workload,
            "seed": seed,
            "ops": len(specs),
            "outcomes": dict(sorted(outcomes.items())),
            "sha256": digest.hexdigest(),
            "answers_sha256": answers.hexdigest(),
        }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
