#!/usr/bin/env python3
"""Run one seeded benchmark workload against the lindloc package in src/.

    python3 perfbench/run.py --workload steady_chain5 --seed 1 --seconds 20 --trace 0

Run from the root of a lindloc checkout. The process is one closed-loop
client: one job at a time, BLAS limited to the CPUs this process may use.
Set-up (imports, seeded inputs, the C07 anchor and one untimed warm-up job)
is made three times and the median is reported. Jobs then run until
--seconds is used up; each is checked after its timer stops.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced jobs on the same input, prints per-layer figures and the tracing
overhead, and writes the spans to .perfbench_runs/. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

SETUP_REPS = 3
MIN_JOBS = 3  # untraced runs
MIN_PAIRS = 2  # traced runs: one untraced and one traced job per pair

# Per-layer metrics of the traced run: (name, unit, key in tracing.summarize).
# Only figures that every workload produces are listed; the rest are printed.
PER_LAYER = (
    ("models.busy_s", "s", "models.busy_s"),
    ("models.spec_s", "s", "models.spec_s"),
    ("models.spec.calls", "count", "models.spec.calls"),
    ("liouvillian.busy_s", "s", "liouvillian.busy_s"),
    ("liouvillian.build_s", "s", "liouvillian.build_s"),
    ("liouvillian.build.calls", "count", "liouvillian.build.calls"),
    ("liouvillian.superop.calls", "count", "liouvillian.superop.calls"),
    ("liouvillian.superop_rows", "count", "liouvillian.superop.rows"),
    ("liouvillian.superop_bytes", "bytes", "liouvillian.superop.bytes"),
    ("dynamics.busy_s", "s", "dynamics.busy_s"),
    ("dynamics.self_s", "s", "dynamics.self_s"),
    ("dynamics.steady_state.calls", "count", "dynamics.steady_state.calls"),
    ("dynamics.evolve.calls", "count", "dynamics.evolve.calls"),
    ("dynamics.evolve.steps", "count", "dynamics.evolve.steps"),
    ("dynamics.evolve.records", "count", "dynamics.evolve.records"),
    ("dynamics.evolve.matmul_gflop", "GFLOP", "dynamics.evolve.matmul_gflop"),
    ("thermo.busy_s", "s", "thermo.busy_s"),
    ("thermo.audit.states", "count", "thermo.audit.calls"),
    ("cli.load_config.calls", "count", "cli.load_config.calls"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="n <= 3 and few records, for the self-test")
    return parser.parse_args(argv)


def limit_blas_threads() -> tuple[int, int]:
    """Cap BLAS threads at the CPUs this process may run on; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    return int(os.environ["OPENBLAS_NUM_THREADS"]), nproc


def prepare():
    """Check for the package under src/, cap BLAS threads and put src/ first on the path.

    Returns (blas threads, nproc), or None when this is not a lindloc checkout.
    """
    if not (SRC / "lindloc" / "__init__.py").is_file():
        print(f"perfbench: no lindloc package under {SRC}; run from a lindloc checkout", file=sys.stderr)
        return None
    settings = limit_blas_threads()
    sys.path.insert(0, str(SRC))
    import lindloc

    if not Path(lindloc.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported lindloc from {lindloc.__file__}, not from {SRC}", file=sys.stderr)
        return None
    return settings


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (no .git in the checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def environment(args, settings: tuple[int, int]) -> dict:
    import platform

    import numpy as np

    import lindloc

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "lindloc": getattr(lindloc, "__version__", "unknown"),
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas["name"],
        "blas_version": blas["version"],
        "blas_threads": settings[0],
        "nproc": settings[1],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
    }


# -- jobs --------------------------------------------------------------------


def run_job(workload, inp, job_dir: Path, tracer=None, job_id: int = -1):
    """One timed job. Returns (seconds, output, error text or None)."""
    if tracer is not None:
        tracer.install()
        tracer.begin_job(job_id)
    start = time.perf_counter()
    try:
        out, error = workload.run(inp, job_dir), None
    except Exception:  # a failing job is counted and the run goes on
        out, error = None, traceback.format_exc()
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.end_job()
        tracer.uninstall()
    return seconds, out, error


def job_problems(workload, inp, out, error, index: int, reference) -> list[str]:
    if error is not None:
        return [f"input {index}: raised\n{error}"]
    try:
        problems = [f"input {index}: {p}" for p in workload.check(inp, out)]
        if reference is not None:
            import workloads

            problems += workloads.reference_problems(workload.summary(out), reference[index], f"input {index}")
    except Exception:  # malformed output counts as a failed check
        return [f"input {index}: checking raised\n{traceback.format_exc()}"]
    return problems


def run_and_check(workload, pool, index: int, job_dir: Path, reference, tracer=None, job_id: int = -1):
    """One job and its checks. Returns (seconds, problems). The output is
    dropped here, so it is not held while the next job runs."""
    seconds, out, error = run_job(workload, pool[index], job_dir, tracer, job_id)
    return seconds, job_problems(workload, pool[index], out, error, index, reference)


def percentile_line(times: list[float]) -> str:
    """The highest percentile with at least ten jobs beyond it."""
    n = len(times)
    if n <= 10:
        return f"no percentile has ten jobs beyond it (n = {n})"
    ordered = sorted(times)
    p = 100.0 * (n - 10) / n
    return f"p{p:.1f} = {ordered[n - 11]:.6f} s (n = {n}, 10 jobs beyond it)"


# -- main --------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    settings = prepare()
    if settings is None:
        return 2

    import numpy as np

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}, expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - PROCESS_START

    workload = workloads.WORKLOADS[args.workload](args.toy)
    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    inputs_dir, job_dir = run_dir / "inputs", run_dir / "job"
    inputs_dir.mkdir(parents=True, exist_ok=True)
    reference = None
    if args.seed == workloads.DEFAULT_SEED and not args.toy:
        with open(HERE / "reference.json", encoding="utf-8") as fh:
            reference = json.load(fh)["workloads"][args.workload]

    # -- set-up, made SETUP_REPS times ---------------------------------------
    setup_problems: list[str] = []
    reps = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        pool = workload.inputs(np.random.default_rng(args.seed), inputs_dir)
        anchor = workloads.anchor_problems()
        before_warm_up = time.perf_counter() - start
        seconds, warm_up = run_and_check(workload, pool, 0, job_dir, reference)
        reps.append(before_warm_up + seconds)
        for p in anchor + warm_up:
            if f"set-up: {p}" not in setup_problems:
                setup_problems.append(f"set-up: {p}")
    setup_s = import_s + statistics.median(reps)

    # -- timed jobs ------------------------------------------------------------
    tracer = tracing.Tracer() if args.trace else None
    untraced: list[float] = []
    traced: list[float] = []
    untraced_of: dict[int, float] = {}  # traced job id -> untraced job on the same input
    untraced_work = 0
    problems: list[str] = []
    attempted = failed = 0
    start = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - start
        if tracer is None:
            done, need = len(untraced), MIN_JOBS
            next_cost = statistics.median(untraced) if untraced else 0.0
            plan = [False]
        else:
            done, need = len(traced), MIN_PAIRS
            next_cost = 2 * statistics.median(untraced) if untraced else 0.0
            plan = [False, True] if k % 2 == 0 else [True, False]
        if done >= need and elapsed + next_cost > args.seconds:
            break
        index = k % len(pool)
        for is_traced in plan:
            seconds, found = run_and_check(
                workload, pool, index, job_dir, reference, tracer if is_traced else None, 2 * k + is_traced
            )
            attempted += 1
            if found:
                failed += 1
                problems += found
            elif not is_traced:
                untraced_work += workload.work(pool[index])
            (traced if is_traced else untraced).append(seconds)
            if not is_traced:
                untraced_of[2 * k + 1] = seconds
        k += 1

    end_to_end = {
        "job_s_mean": (statistics.mean(untraced), "s"),
        "work_per_s": (untraced_work / sum(untraced), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }

    env = environment(args, settings)
    env["jobs"] = {"untraced": len(untraced), "traced": len(traced)}
    print(json.dumps({"env": env}))
    print(f"{args.workload}, seed {args.seed}: {attempted} jobs attempted, {failed} failed, "
          f"failed_share {failed / attempted:.6g}, work unit: {workload.unit}")
    for name, (value, unit) in end_to_end.items():
        print(f"  {name:28s} {value:14.6f} {unit}")
    print(f"  job time: p50 {statistics.median(untraced):.6f} s over {len(untraced)} jobs; {percentile_line(untraced)}")
    print(f"  set-up: imports {import_s:.6f} s + median of {SETUP_REPS} set-ups "
          + ", ".join(f"{r:.6f}" for r in reps) + " s")

    per_layer = {}
    record = {
        "env": env,
        "end_to_end": {name: v for name, (v, _) in end_to_end.items()},
        "failed_share": failed / attempted,
        "job_seconds": {"untraced": untraced, "traced": traced, "set_up": reps},
    }
    if tracer is not None:
        summary = tracing.summarize(tracer.spans, untraced_of)
        overhead, spread = summary["trace.overhead_s"], summary["trace.overhead_iqr_s"]
        residual = summary["untraced_minus_layers_s"]
        print(f"  tracing overhead: traced minus untraced job, median over {len(traced)} pairs: "
              f"{overhead:+.6f} s (IQR {spread:.6f} s)")
        if "cli.command_s" in summary:
            print(f"  accounting: untraced job = layer spans {summary['layers_s']:.6f} s + cli.self_s {residual:.6f} s "
                  f"(the command's own code; traced cli.command.self_s {summary['cli.command.self_s']:.6f} s)")
        else:
            gap = residual - summary["bench.self_s"]
            print(f"  accounting: untraced job - layer spans {summary['layers_s']:.6f} s = {residual:+.6f} s, "
                  f"of which benchmark code {summary['bench.self_s']:.6f} s; the rest, {gap:+.6f} s, is "
                  + ("within" if abs(gap) <= abs(overhead) + spread else "outside")
                  + " the tracing overhead and its IQR")
        print("  per-layer figures (per call: <span>_s, <span>.self_s; per job: the rest; medians):")
        for key in sorted(summary):
            print(f"    {key:42s} {summary[key]:.6g}")
        per_layer = {name: (summary.get(key, 0), unit) for name, unit, key in PER_LAYER}
        record["per_layer"] = summary
        tracer.write(run_dir / "spans.jsonl")
    for p in setup_problems + problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)

    with open(run_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(inputs_dir, ignore_errors=True)
    shutil.rmtree(job_dir, ignore_errors=True)

    metrics = per_layer if tracer is not None else end_to_end
    print(json.dumps({
        "correct": not setup_problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
