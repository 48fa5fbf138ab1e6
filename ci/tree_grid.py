"""Run the three tree sweeps over a grid of primes through the installed
`cyclelift` script, and fail on any non-zero exit.

The grid: every odd prime p <= 109, each with the first two Delta of
-1, -2, ..., -59 that are nonresidues mod p.  r-formula and chart draw two
samples at the largest radius whose ball holds at most 20,000 vertices;
local-compare runs at the largest --alpha-max that visits fewer than
40,000 vertices (twice the radius-(alpha + 2) ball per alpha).  That is
168 sweeps, about 17 s on a 2-core Xeon.

    python ci/tree_grid.py

It lives outside tests/, so pytest does not collect it.
"""

import shutil
import subprocess
import sys
import time

from cyclelift.bttree import ball_size
from cyclelift.numth import is_prime, kronecker


def sweeps():
    """(kind, flags) of every sweep of the grid, in order."""
    for p in (n for n in range(3, 110, 2) if is_prime(n)):
        radius = max(r for r in range(1, 64) if ball_size(p, r) <= 20_000)
        alpha_max = max(a for a in range(64) if sum(
            2 * ball_size(p, alpha + 2) for alpha in range(a + 1)) < 40_000)
        deltas = [d for d in range(-1, -60, -1) if kronecker(d, p) == -1][:2]
        for delta in deltas:
            field = ("--p", str(p), "--delta", str(delta))
            for kind in ("r-formula", "chart"):
                yield kind, (*field, "--count", "2", "--radius", str(radius))
            yield "local-compare", (*field, "--alpha-max", str(alpha_max))


def main() -> int:
    script = shutil.which("cyclelift")
    if script is None:
        print("no installed cyclelift script on PATH", file=sys.stderr)
        return 1
    failed = 0
    grid = list(sweeps())
    start = time.perf_counter()
    for kind, flags in grid:
        argv = [script, "verify", kind, *flags]
        t0 = time.perf_counter()
        run = subprocess.run(argv, capture_output=True, text=True)
        line = f"{' '.join(argv[1:])}: exit {run.returncode}, {time.perf_counter() - t0:.2f} s"
        print(line, flush=True)
        if run.returncode:
            failed += 1
            print(run.stderr or run.stdout, end="", file=sys.stderr)
    print(f"{len(grid)} sweeps, {failed} failed, {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
