"""Benchmark of the breakline command line: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The run sets up (imports ``breakline`` and writes its input
CSVs), then runs whole rounds of CLI commands through ``breakline.cli.main``
in this process until the next round would end after ``--seconds``, and
checks every command's outputs after its timing ends.  The set-up is
repeated in four fresh interpreters between the first rounds.  Untraced,
every command runs under the host speed probe of ``hostspeed.py`` and every
set-up between two bursts of it, and ``command_s`` and ``setup_s`` are the
medians of their times on the probe's reference scale.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
traced run runs every command under the span wrappers of ``tracing.py`` and
writes the spans to ``perfbench/traces/``; an untraced run installs none.
"""

import os

# One process, one BLAS/OpenMP thread: set before numpy is first imported,
# and inherited by the set-up interpreters.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"
# seeded inputs written during set-up; a run that needs more writes them
# between rounds, outside every timing
PREPARED_ROUNDS = 8
SETUP_CHILDREN = 4


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import the checkout's own ``breakline``, never an installed copy."""
    if not (SRC / "breakline" / "__init__.py").is_file():
        raise SystemExit(f"no breakline sources under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import breakline.cli

    return breakline.cli


@dataclass
class Job:
    """One command's input: its arrays, seeds and CSV."""

    tag: str
    x: object
    y: object
    boot_seed: int  # the command's --seed
    fresh_seed: list  # seeds the fresh draws of the coverage checks
    fixed: bool
    csv: Path | None = None


def make_jobs(workload, seed, first, count, directory: Path):
    from workloads import WORKLOAD_INDEX, write_csv

    jobs = []
    if first == 0 and workload.fixed is not None:
        x, y = workload.fixed_input()
        jobs.append(Job("fixed", x, y, 0, [workload.fixed, 1], True))
    for k in range(first, first + count):
        x, y, boot = workload.seeded_input(seed, k)
        jobs.append(Job(f"s{k}", x, y, boot, [seed, WORKLOAD_INDEX[workload.name], k, 1], False))
    for job in jobs:
        job.csv = directory / f"input-{job.tag}.csv"
        write_csv(job.csv, job.x, job.y)
    return jobs


def setup(name, seed, directory: Path):
    """Import the program and write the run's inputs; returns (cli, workload, jobs, seconds)."""
    start = time.perf_counter()
    cli = import_program()
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[name]
    directory.mkdir(parents=True, exist_ok=True)
    jobs = make_jobs(workload, seed, 0, PREPARED_ROUNDS, directory)
    return cli, workload, jobs, time.perf_counter() - start


def setup_in_child(args, directory: Path) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", "0", "--setup-child", str(directory)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    shutil.rmtree(directory, ignore_errors=True)
    return float(done.stdout.strip().splitlines()[-1])


def grid_reference(workload, jobs):
    """The stored HiGHS grid optima for the workload's fixed input, if any."""
    entry = json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload.name)
    if entry is None:
        return None
    fixed = next(job for job in jobs if job.fixed)
    if hashlib.sha256(fixed.csv.read_bytes()).hexdigest() != entry["input_sha256"]:
        raise SystemExit(f"{REFERENCE.name} was made for another fixed input of {workload.name}; "
                         "rebuild it with perfbench/reference.py")
    return entry["taus"]


def output_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


class Run:
    def __init__(self, cli, workload, trace, run_dir: Path, reference):
        self.cli, self.workload, self.trace, self.dir = cli, workload, trace, run_dir
        self.reference = reference
        self.times = []  # wall seconds per command
        self.scaled = []  # the same less the probe's units, on its reference scale
        self.units = []  # every probe unit's time, for the log
        self.attempted = self.failed = 0
        self.unexpected = []  # (job tag, check, detail) for checks that must pass
        self.command_facts = []  # per checked command: facts from the checks, output bytes
        self.roots = []  # root span index of each traced command
        self.jobs_run = []
        self.tracer = None
        if trace:
            from tracing import Tracer

            self.tracer = Tracer()

    def argv(self, job, out_dir):
        return [*self.workload.argv, "--input", str(job.csv), "--x", "x", "--y", "y",
                "--seed", str(job.boot_seed), "--out", str(out_dir)]

    def execute(self, job):
        import checks
        import hostspeed

        out_dir = self.dir / f"out-{job.tag}"
        argv = self.argv(job, out_dir)
        if self.trace:
            self.tracer.install()
            self.roots.append(len(self.tracer.spans))
            start = time.perf_counter()
            try:
                code = self.tracer.span("cli.command", self.cli.main, argv)
            finally:
                elapsed = time.perf_counter() - start
                self.tracer.uninstall()
        else:
            with hostspeed.Probe() as probe:
                start = time.perf_counter()
                code = self.cli.main(argv)
                elapsed = time.perf_counter() - start
            self.scaled.append(probe.scaled(elapsed))
            self.units += probe.units
        self.times.append(elapsed)

        # outputs are checked after the timing has ended
        self.attempted += 1
        found = [("cli.exit_code", code == 0, f"exit code {code}")]
        facts = {}
        if code == 0:
            fresh = self.workload.fresh(job.x, job.fresh_seed, checks.FRESH_DRAWS)
            reference = self.reference if job.fixed else None
            more, facts = checks.command_checks(self.workload, out_dir, job.x, job.y, fresh, reference)
            found += more
        facts["bytes"] = output_bytes(out_dir)
        self.command_facts.append(facts)
        shutil.rmtree(out_dir, ignore_errors=True)

        for name, ok, detail in found:
            if not ok:
                print(f"[{job.tag}] check {name} failed: {detail}", file=sys.stderr)
        broken = [(name, detail) for name, ok, detail in found if not ok]
        unexpected = [(name, detail) for name, detail in broken if not name.startswith(checks.KNOWN_FAULTS)]
        self.unexpected += [(job.tag, name, detail) for name, detail in unexpected]
        # a known fault fails the command on the fixed input, where it shows
        # in every run; on seeded inputs it shows on some seeds only, and the
        # traced run reports its share (piecewise.rss_gap_share,
        # quantile.off_optimum_share, bands.under_coverage_share) instead
        failed = bool(unexpected) or (job.fixed and bool(broken))
        self.failed += int(failed)
        shown = {k: round(v, 4) for k, v in facts.items() if k.startswith("coverage")}
        print(f"[{job.tag}] {'traced' if self.trace else 'untraced'} command {elapsed:.3f} s, "
              f"{'FAILED' if failed else 'ok'}, coverage {shown}", file=sys.stderr)

    def round(self, jobs):
        self.jobs_run += jobs
        for job in jobs:
            self.execute(job)


def run_rounds(run: Run, workload, seed, jobs, seconds, setups, set_up_again):
    """Rounds until the next would end after ``seconds`` of rounds.  The
    set-ups in fresh interpreters come one after each of the first rounds
    (the rest after the last), so that ``setup_s`` samples the host over
    the run as ``command_s`` does; their time is not part of ``seconds``."""
    fixed = [job for job in jobs if job.fixed]
    seeded = [job for job in jobs if not job.fixed]
    k, last, spent = 0, 0.0, 0.0
    while k == 0 or spent + last <= seconds:
        began = time.perf_counter()
        if k == len(seeded):
            seeded += make_jobs(workload, seed, k, PREPARED_ROUNDS, run.dir)
        run.round(fixed + [seeded[k]])
        last = time.perf_counter() - began
        spent += last
        k += 1
        if len(setups) <= SETUP_CHILDREN:
            setups.append(set_up_again(len(setups)))
    while len(setups) <= SETUP_CHILDREN:
        setups.append(set_up_again(len(setups)))
    return k


def median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(run: Run, workload):
    import checks
    from tracing import self_times, wrapper_cost

    per_call = defaultdict(list)
    per_command = defaultdict(list)
    for root in run.roots:
        sums, counts = defaultdict(float), Counter()
        spans = self_times(run.tracer.spans, root)
        per_command["spans"].append(len(spans))
        for name, dur, own, raised in spans:
            counts[name] += 1
            if name == "bands.refit" and raised:
                counts["bands.refit_failures"] += 1
            if name in ("loess.fit", "quantile.tau_fit"):
                per_call[name].append(dur)
            if name in ("piecewise.fit", "piecewise.intervals"):
                per_call[name].append(own)
            sums[name + ".self"] += own
            sums[name] += dur
        for key in ("loess.fit", "piecewise.fit", "bands.refit", "bands.refit_failures", "quantile.tau_fit"):
            per_command["count." + key].append(counts[key])
        for key in ("piecewise.band.self", "bands.pool.self", "bands.quantile", "area.band_area.self",
                    "report.write", "dataset.load", "cli.command.self"):
            per_command[key].append(sums[key])

    refits = median(per_command["count.bands.refit"])
    uses_pqrm = workload.argv[0] == "compare"
    pairs = median([checks.candidate_pairs(job.x, checks.MIN_SEGMENT_POINTS)[0].size
                    for job in run.jobs_run]) if uses_pqrm else 0
    tau_fit_s = median(per_call["quantile.tau_fit"])
    per_span, per_install = wrapper_cost()
    gaps = [f["rss_gap"] for f in run.command_facts if "rss_gap" in f]
    off = [f["pqrm_off_optimum"] for f in run.command_facts if "pqrm_off_optimum" in f]
    values = {
        "loess.fit_s": (median(per_call["loess.fit"]), "s"),
        "loess.fits": (median(per_command["count.loess.fit"]), "count"),
        "piecewise.fit_s": (median(per_call["piecewise.fit"]), "s"),
        "piecewise.fits": (median(per_command["count.piecewise.fit"]), "count"),
        "piecewise.intervals_s": (median(per_call["piecewise.intervals"]), "s"),
        "piecewise.band_s": (median(per_command["piecewise.band.self"]), "s"),
        "piecewise.rss_gap_share": (
            sum(abs(g) > checks.RSS_GAP_TOLERANCE for g in gaps) / len(gaps) if gaps else 0.0, "ratio"),
        "bands.refits": (refits, "count"),
        "bands.refit_failures": (median(per_command["count.bands.refit_failures"]), "count"),
        "bands.replicates": (workload.bootstrap, "count"),
        "bands.useful_ratio": (workload.bootstrap / refits if refits else 0.0, "ratio"),
        "bands.pool_self_s": (median(per_command["bands.pool.self"]), "s"),
        "bands.quantile_s": (median(per_command["bands.quantile"]), "s"),
        "quantile.tau_fit_s": (tau_fit_s, "s"),
        "quantile.tau_fits": (median(per_command["count.quantile.tau_fit"]), "count"),
        "quantile.pairs": (pairs, "count"),
        "quantile.pair_us": (1e6 * tau_fit_s / pairs if pairs else 0.0, "us"),
        "bands.under_coverage_share": (
            sum(f.get("bands_under", 0) for f in run.command_facts)
            / max(1, sum(f.get("bands_checked", 0) for f in run.command_facts)), "ratio"),
        # of the three checked tau curves per command
        "quantile.off_optimum_share": (sum(off) / (3 * len(off)) if off else 0.0, "ratio"),
        "area.band_area_s": (median(per_command["area.band_area.self"]), "s"),
        "report.write_s": (median(per_command["report.write"]), "s"),
        "report.bytes": (median([f["bytes"] for f in run.command_facts]), "bytes"),
        "dataset.load_s": (median(per_command["dataset.load"]), "s"),
        "cli.self_s": (median(per_command["cli.command.self"]), "s"),
        # the wrappers' cost per command: its spans at the cost of one
        # wrapped call, plus installing and removing the wrappers
        "trace.overhead_s": (median(per_command["spans"]) * per_span + per_install, "s"),
    }
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    run_dir = HERE / "runs" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    if args.setup_child:
        *_, seconds = setup(args.workload, args.seed, Path(args.setup_child))
        print(repr(seconds))
        return 0
    try:
        cli, workload, jobs, first_setup = setup(args.workload, args.seed, run_dir)
        import hostspeed  # after the first set-up, which imports numpy

        # (wall, scaled) seconds per set-up; the first has a burst after it only
        setups = [(first_setup, first_setup * hostspeed.scale(hostspeed.burst()))]

        def set_up_again(k):
            before = hostspeed.burst()
            wall = setup_in_child(args, run_dir / f"setup{k}")
            return wall, wall * hostspeed.scale(before + hostspeed.burst())

        run = Run(cli, workload, args.trace, run_dir, grid_reference(workload, jobs))
        rounds = run_rounds(run, workload, args.seed, jobs, args.seconds, setups, set_up_again)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            values = layer_metrics(run, workload)
            trace_dir = HERE / "traces"
            trace_dir.mkdir(exist_ok=True)
            run.tracer.write(trace_dir / f"{args.workload}-seed{args.seed}-{os.getpid()}.json")
        else:
            values = {
                "command_s": (median(run.scaled), "s"),
                "setup_s": (median([scaled for _, scaled in setups]), "s"),
                "peak_rss_mb": (peak_mb, "MB"),
            }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for tag, name, detail in run.unexpected:
        print(f"unexpected failure [{tag}] {name}: {detail}", file=sys.stderr)
    print(f"{rounds} rounds, {run.attempted} commands, {run.failed} failed; "
          f"command wall times {[round(t, 3) for t in run.times]}, scaled {[round(t, 3) for t in run.scaled]}; "
          f"set-ups wall, scaled {[(round(w, 3), round(s, 3)) for w, s in setups]}; "
          f"probe units {len(run.units)}, mean {statistics.mean(run.units) if run.units else 0.0:.5f} s",
          file=sys.stderr)
    result = {
        "correct": not run.unexpected,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
