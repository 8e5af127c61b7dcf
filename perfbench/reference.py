"""Rebuild ``reference.json``: HiGHS check-loss optima over the candidate grid.

    python3 perfbench/reference.py

For the fixed input of every workload that has one, and every tau of the
default decile grid, this solves the check-loss LP with scipy's HiGHS at
every admissible candidate breakpoint pair (midpoints of consecutive
distinct x values, three points per segment) and stores the smallest
objective and the pair that reaches it.  The program is not run: the file
holds no output of it.  Each entry carries the SHA-256 of the fixed input's
CSV, so the benchmark refuses a reference made for other data.  It takes
about four minutes on one core.
"""

import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

from checks import MIN_SEGMENT_POINTS, candidate_pairs, lp_check_loss
from workloads import DECILES, WORKLOADS, write_csv

OUT = Path(__file__).resolve().parent / "reference.json"


def input_digest(x, y) -> str:
    with tempfile.TemporaryDirectory(dir=OUT.parent) as tmp:
        path = Path(tmp) / "input.csv"
        write_csv(path, x, y)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def grid_optima(x, y):
    a1s, a2s = candidate_pairs(x, MIN_SEGMENT_POINTS)
    taus = {}
    for tau in DECILES:
        start = time.perf_counter()
        best = min((lp_check_loss(x, y, a1, a2, tau), a1, a2) for a1, a2 in zip(a1s.tolist(), a2s.tolist()))
        taus[f"{tau:g}"] = {"objective": best[0], "alpha": [best[1], best[2]]}
        print(f"  tau {tau:g}: {best[0]!r} at {best[1:]} over {a1s.size} pairs, "
              f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    return a1s.size, taus


def main() -> int:
    reference = {}
    for name, workload in WORKLOADS.items():
        if workload.fixed is None:
            continue
        print(name, file=sys.stderr)
        x, y = workload.fixed_input()
        pairs, taus = grid_optima(x, y)
        reference[name] = {"input_sha256": input_digest(x, y), "pairs": pairs, "taus": taus}
    OUT.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
