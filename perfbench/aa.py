"""A/A check: two sets of runs of the same code, judged against the bounds.

    python3 perfbench/aa.py [--traced]

Runs ``run.py`` ten times per workload of ``BENCHMARK.json`` in each of two
sets, every run with another seed (set k uses seeds ``100 k .. 100 k + 9``)
and the file's ``run_seconds``.  For every end-to-end metric it prints each
set's median and quartile spread ``(q3 - q1) / median``
(``statistics.quantiles(values, n=4)``), and how far the second set's median
lies from the first's, ``|m2 - m1| / m1``: host drift goes both ways, so
the comparison is symmetric.  A spread above the metric's bound, a median
that moved by more than the bound, or a share of failed commands that
differs between runs marks the workload FAIL.  With ``--traced`` it ends
with one traced run per workload.  Everything measured goes to
``perfbench/results/aa-<time>.json``.  Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS = 10


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    result["log"] = done.stderr.splitlines()  # per-command times, coverages, failed checks
    return result


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def judge(spec, sets):
    ok = True
    lines = []
    shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
    if len(shares) != 1:
        ok = False
        lines.append(f"  failed share differs between runs: {sorted(shares)}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        meds, spreads = zip(*(summary([r["metrics"][name]["value"] for r in runs]) for runs in sets))
        moved = [abs(m - meds[0]) / meds[0] for m in meds[1:]]
        bad = any(s > bound for s in spreads) or any(d > bound for d in moved)
        steady = all(s < bound / 3 for s in spreads)
        ok = ok and not bad
        lines.append(
            f"  {name:12s} bound {bound:.2f}  medians {' / '.join(f'{m:.4g}' for m in meds)}  "
            f"spreads {' / '.join(f'{s:.3f}' for s in spreads)}  "
            f"moved {' / '.join(f'{d:.3f}' for d in moved)}"
            f"{'  OVER BOUND' if bad else ''}{'' if steady else '  (spread above bound/3)'}"
        )
    return ok, lines


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--traced", action="store_true", help="end with one traced run per workload")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    record = {"seconds": seconds, "sets": [], "traced": {}}
    for s in range(SETS):
        runs = {}
        for w in workloads:
            runs[w] = []
            for seed in range(100 * s, 100 * s + RUNS):
                runs[w].append(one_run(w, seed, seconds, 0))
                r = runs[w][-1]
                print(f"set {s} {w} seed {seed}: " + ", ".join(
                    f"{k} {v['value']:.4g}" for k, v in r["metrics"].items())
                    + f"; {r['failed']}/{r['attempted']} failed, correct {r['correct']}, wall {r['wall_s']:.1f} s",
                    flush=True)
        record["sets"].append(runs)
    if args.traced:
        for w in workloads:
            record["traced"][w] = one_run(w, 1000, seconds, 1)
            print(f"traced {w}: " + json.dumps(record["traced"][w]["metrics"]), flush=True)

    all_ok = True
    for w in workloads:
        sets = [runs[w] for runs in record["sets"]]
        correct = all(r["correct"] for runs in sets for r in runs)
        ok, lines = judge(spec, sets)
        ok = ok and correct
        all_ok = all_ok and ok
        print(f"{w}: {'PASS' if ok else 'FAIL'}{'' if correct else ' (incorrect output)'}")
        print("\n".join(lines))
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    path = out / f"aa-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
