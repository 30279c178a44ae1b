"""Single-threaded baseline: the N=2048 index solves with one BLAS thread.

Started by ``run.py`` in its own process, with the BLAS thread variables
set to 1 before numpy loads.  Prints one JSON line with the summed wall
and CPU seconds of ``numerical_index`` for both operators at that rung.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from orbiton import fredholm as fr  # noqa: E402
from workloads import LADDER  # noqa: E402

L, N = LADDER[-1]


def main() -> int:
    wall = cpu = 0.0
    ok = True
    for which in (1, 2):
        op = fr.assemble_operator(which, fr.build_grid(L, N))
        t0, c0 = time.perf_counter(), time.process_time()
        r = fr.numerical_index(op)
        wall += time.perf_counter() - t0
        cpu += time.process_time() - c0
        ok = ok and (r.dim_ker, r.dim_coker) == (1, 0)
    print(json.dumps({"wall_s": wall, "cpu_s": cpu, "ok": ok}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
