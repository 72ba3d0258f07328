"""Both routes to the poles of a system of m = 1, 2 or 4 ports, timed and compared.

    python3 tools/poles.py

Run from the root of a checkout that holds ``src/qsysid`` and
``perfbench``; the library and the benchmark's generators
(``perfbench/workloads.py``) are both taken from there. For each m in
{1, 2, 4}, each n in {8, 16, 24, 32, 48, 64, 128} and each of four families
(the benchmark's ``dense_system``; its uniform chain, fed at node 0, at both
ends for m = 2 and at the first and last two nodes for m = 4; the omega of
its ``single_node_siso`` fed at the first m nodes; and the dense system
detuned by omega + 80.04 I), 10 seeded minimal draws go through
``eigvals(drift)`` and through the block secular-equation sweeps of
``qsysid.model._secular_roots`` on the system's ``reached`` measure, which
the sweeps read and which is cached and not timed. For m = 1 the sweeps are
also timed with the couplings' second row set to zero (``block_ms``): the
roots are the same, since M = diag(M_11, 1), but each step takes the block
branch, which is what the one-port step saves. One line per cell gives
the median over the draws of each route's best of 5 calls, in ms; the median
and largest sweep count; the draws whose sweeps did not settle (the
fallbacks to ``eigvals``); and the largest deviation between the two pole
sets, nearest neighbour both ways, relative to max |p|. Nothing is written.
BLAS is held to one thread, as in the benchmark.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

SIZES = (8, 16, 24, 32, 48, 64, 128)
FAMILIES = ("dense", "chain", "single_node", "detuned")
PORTS = (1, 2, 4)


def best_ms(call, repeats: int = 5) -> float:
    """Best wall time of ``repeats`` calls, in ms."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e3 * min(times)


def main() -> int:
    root = Path.cwd().resolve()
    if not (root / "src" / "qsysid" / "__init__.py").is_file():
        print(f"error: {root} holds no src/qsysid; run from a qsysid checkout", file=sys.stderr)
        return 2
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"  # before NumPy loads, as perfbench/run.py does
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import numpy as np
    import workloads
    from qsysid import model, new_system

    def draw(family: str, n: int, m: int, k: int):
        rng = np.random.default_rng([n, k, FAMILIES.index(family), m])
        if family == "chain":
            omega, c = workloads.chain_arrays(n, rng.uniform(0.5, 1.5), rng.uniform(0.5, 2.0))
            ends = {1: [0], 2: [0, n - 1], 4: [0, 1, n - 2, n - 1]}[m]
            return omega, c[0, 0] * np.eye(n)[ends]
        if family == "single_node":
            omega, _ = workloads.single_node_siso(rng, n)
            return omega, np.sqrt(rng.uniform(0.5, 2.0, (m, 1))) * np.eye(m, n)
        omega, c = workloads.dense_system(rng, n, m)
        return (omega + 80.04 * np.eye(n), c) if family == "detuned" else (omega, c)

    print(f"{'m':>2} {'n':>4} {'family':<12} {'eigvals_ms':>10} {'secular_ms':>10} {'block_ms':>8} "
          f"{'sweeps_med':>10} {'sweeps_max':>10} {'fallbacks':>9} {'max_dev':>8}")
    for m, n, family in ((m, n, f) for m in PORTS for n in SIZES for f in FAMILIES):
        eig_ms, sec_ms, block_ms, sweeps, fallbacks, worst = [], [], [], [], 0, 0.0
        for k in range(10):
            system = new_system(*draw(family, n, m, k))
            r = system.reached
            if r.lam.size < n or r.cluster[-1] + 1 < n:
                raise SystemExit(f"{family} m={m} n={n} draw {k} is not minimal "
                                 "with distinct eigenvalues")
            lam, cv = r.lam, r.cv
            drift = system.drift
            eig_ms.append(best_ms(lambda: np.linalg.eigvals(drift)))
            sec_ms.append(best_ms(lambda: model._secular_roots(lam, cv)))
            if m == 1:
                block_ms.append(best_ms(lambda: model._secular_roots(lam, np.vstack([cv, 0 * cv]))))
            roots, taken = model._secular_roots(lam, cv)
            sweeps.append(taken)
            if roots is None:
                fallbacks += 1
                continue
            exact = np.linalg.eigvals(drift)
            dist = np.abs(roots[:, None] - exact[None, :])
            dev = max(dist.min(axis=0).max(), dist.min(axis=1).max())
            worst = max(worst, dev / np.abs(exact).max())
        block = f"{np.median(block_ms):>8.3f}" if block_ms else f"{'-':>8}"
        print(f"{m:>2} {n:>4} {family:<12} {np.median(eig_ms):>10.3f} {np.median(sec_ms):>10.3f} {block} "
              f"{np.median(sweeps):>10.0f} {max(sweeps):>10d} {fallbacks:>9d} {worst:>8.1e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
